"""Command-line front end.

Every command prints a one-object JSON summary to stdout and, when it writes
an output file, drops a <file>.manifest.json sidecar recording the command,
parameters, and sha256 digests of inputs and outputs.  Exit codes: 0 on
success, 1 on a semantic failure (intersection found, certificate rejected),
2 on usage or domain errors, 3 when a search ran out of node budget.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from . import __version__
from .bounds import KINDS, bounds_report, choose_alpha, rows_to_csv, squarefull_reduce
from .construction import (
    ConstructionParams,
    build_construction,
    truncated_construction,
)
from .errors import CapacityError, DomainError, NotDisjointError
from .family import _scan_dense, read_family, verify_family, write_family
from .refinement import (
    RefinementParams,
    build_chain,
    check_certificate,
    read_certificate,
    write_certificate,
)
from .solver import SearchConfig, solve_exact


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_path, command, parameters, inputs, started) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {str(out_path): _sha256_file(out_path)},
        "duration_seconds": round(time.perf_counter() - started, 3),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(payload: dict) -> None:
    # int's limit on the digits it converts to text (Python 3.10.7 on, 0 for
    # none) guards reading, but a witness's common element can pass it: the
    # limit is lifted while the summary is formatted, then restored.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)


def _meeting(q_i: int, a_i: int, q_j: int, a_j: int, common: int) -> dict:
    # two members that share an element, and the smallest one they share
    return {"q_i": q_i, "a_i": a_i, "q_j": q_j, "a_j": a_j, "common": common}


def cmd_construct(args) -> int:
    started = time.perf_counter()
    params = ConstructionParams(x=args.x, c=args.c, squarefree_only=args.squarefree_only)
    result = build_construction(params)
    write_family(result.family, args.out)
    _write_manifest(args.out, "construct", dataclasses.asdict(params), [], started)
    _emit(result.summary() | {"out": args.out})
    return 0


def cmd_verify(args) -> int:
    family = read_family(args.infile)
    report = verify_family(family)
    if report.ok:
        _emit({"ok": True, "pairs": report.pair_count, "digest": report.digest})
        return 0
    w = report.witness
    (qi, qj), (ai, aj) = family.q[[w.i, w.j]].tolist(), family.a[[w.i, w.j]].tolist()
    pair = _meeting(qi, ai, qj, aj, w.common)
    _emit({"ok": False, "witness": {"i": w.i, "j": w.j} | pair})
    return 1


def cmd_solve(args) -> int:
    started = time.perf_counter()
    config = SearchConfig(x=args.x, node_budget=args.budget)
    result = solve_exact(config)
    if args.emit_witness:
        write_family(result.witness, args.emit_witness)
        _write_manifest(
            args.emit_witness,
            "solve",
            {"x": args.x, "budget": args.budget},
            [],
            started,
        )
    _emit(
        {
            "x": args.x,
            "k_max": result.k_max,
            "proven_optimal": result.proven_optimal,
            "nodes": result.nodes,
        }
    )
    return 0 if result.proven_optimal else 3


def cmd_refine(args) -> int:
    started = time.perf_counter()
    family = read_family(args.infile)
    params = RefinementParams(
        x=family.x_bound,
        omega_cap=args.omega_cap,
        prime_floor=args.prime_floor,
        ratio_denominator=args.ratio_denom,
    )
    cert = build_chain(family, params)
    write_certificate(cert, args.out)
    _write_manifest(
        args.out,
        "refine",
        {
            "omega_cap": params.omega_cap,
            "prime_floor": params.prime_floor,
            "ratio_denominator": params.ratio_denominator,
        },
        [args.infile],
        started,
    )
    _emit(
        {
            "base_size": len(cert.base),
            "t": cert.t,
            "witness_prime": cert.witness_prime,
            "divisible_count": cert.divisible_count,
            "out": args.out,
        }
    )
    return 0


def cmd_check_cert(args) -> int:
    cert = read_certificate(args.cert)
    family = read_family(args.infile)
    result = check_certificate(cert, family)
    _emit(
        {
            "ok": result.ok,
            "reason": result.reason,
            "strict_property3": result.strict_property3,
        }
    )
    return 0 if result.ok else 1


def cmd_counts(args) -> int:
    started = time.perf_counter()
    kinds = [kind.replace("-", "_") for kind in args.kind]
    c_values = args.c or [1.0]
    rows = bounds_report(args.x, c_values, kinds=kinds)
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        _write_manifest(
            args.out, "counts", {"kind": kinds, "x": args.x, "c": c_values}, [], started
        )
        _emit({"rows": len(rows), "out": args.out})
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce(args) -> int:
    started = time.perf_counter()
    family = read_family(args.infile)
    alpha = choose_alpha(family) if args.alpha is None else args.alpha
    reduced = squarefull_reduce(family, alpha)
    write_family(reduced, args.out)
    _write_manifest(args.out, "reduce", {"alpha": alpha}, [args.infile], started)
    _emit({"alpha": alpha, "count": reduced.size, "out": args.out})
    return 0


def cmd_bench(args) -> int:
    family = truncated_construction(args.k)
    started = time.perf_counter()
    hit = _scan_dense(family.q, family.a)
    elapsed = time.perf_counter() - started
    started = time.perf_counter()
    report = verify_family(family)
    verify_elapsed = time.perf_counter() - started
    ok = report.ok and hit is None
    _emit(
        {
            "k": args.k,
            "ok": ok,
            "pairs": report.pair_count,
            "seconds": round(elapsed, 3),
            "pairs_per_second": round(report.pair_count / elapsed),
            "verify_seconds": round(verify_elapsed, 3),
        }
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apfam",
        description="Families of pairwise non-intersecting arithmetic progressions",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p = command("construct", "build the anchored-prime family at x")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", type=float, default=ConstructionParams.c)
    p.add_argument("--squarefree-only", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = command("verify", "check a family file pairwise")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_verify)

    p = command("solve", "exact maximum family size for small x")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--budget", type=int, default=SearchConfig.node_budget)
    p.add_argument("--emit-witness")
    p.set_defaults(func=cmd_solve)

    p = command("refine", "run the refinement chain on a family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--omega-cap", type=float, default=None)
    p.add_argument("--prime-floor", type=float, default=None)
    p.add_argument("--ratio-denom", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = command("check-cert", "replay a refinement certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check_cert)

    p = command("counts", "exact counts against predicted scales")
    p.add_argument(
        "--kind", choices=[k.replace("_", "-") for k in KINDS], action="append", required=True
    )
    p.add_argument("--x", type=int, action="append", required=True)
    p.add_argument("--c", type=float, action="append", default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_counts)

    p = command("reduce", "extract the squarefree reduction of a family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = command("bench", "time the dense pairwise scan and verify at size k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NotDisjointError as exc:
        first, second = exc.first, exc.second
        pair = _meeting(first.modulus, first.residue, second.modulus, second.residue, exc.common)
        _emit({"ok": False, "counterexample": pair})
        return 1
    except (DomainError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
