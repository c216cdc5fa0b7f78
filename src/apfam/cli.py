"""Command-line front end.

Every command prints a one-object JSON summary to stdout and, when it writes
an output file, drops a <file>.manifest.json sidecar recording the command,
parameters, and sha256 digests of inputs and outputs.  Exit codes: 0 on
success, 1 on a semantic failure (intersection found, certificate rejected),
2 on usage or domain errors, 3 when a search ran out of node budget.

Each cmd_* returns (code, summary, written): the exit code, the summary to
print (a dict, or text printed as it is), and None or the file it wrote as
(out path, manifest parameters, input paths).  main alone writes manifests
and prints.
"""

import argparse
import dataclasses
import functools
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


def _emit(summary: dict | str) -> None:
    if isinstance(summary, str):
        sys.stdout.write(summary)
        return
    # int's limit on the digits it converts to text (Python 3.10.7 on, 0 for
    # none) guards reading, but a witness's common element can pass it: the
    # limit is lifted while the summary is formatted, then restored.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(summary, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)


def _meeting(q_i: int, a_i: int, q_j: int, a_j: int, common: int) -> dict:
    # two members that share an element, and the smallest one they share
    return {"q_i": q_i, "a_i": a_i, "q_j": q_j, "a_j": a_j, "common": common}


def cmd_construct(args):
    params = ConstructionParams(x=args.x, c=args.c, squarefree_only=args.squarefree_only)
    result = build_construction(params)
    write_family(result.family, args.out)
    return 0, result.summary() | {"out": args.out}, (args.out, dataclasses.asdict(params), [])


def cmd_verify(args):
    family = read_family(args.infile)
    report = verify_family(family)
    if report.ok:
        return 0, {"ok": True, "pairs": report.pair_count, "digest": report.digest}, None
    w = report.witness
    (qi, qj), (ai, aj) = family.q[[w.i, w.j]].tolist(), family.a[[w.i, w.j]].tolist()
    pair = _meeting(qi, ai, qj, aj, w.common)
    return 1, {"ok": False, "witness": {"i": w.i, "j": w.j} | pair}, None


def cmd_solve(args):
    result = solve_exact(SearchConfig(x=args.x, node_budget=args.budget))
    written = None
    if args.emit_witness:
        write_family(result.witness, args.emit_witness)
        written = (args.emit_witness, {"x": args.x, "budget": args.budget}, [])
    summary = {
        "x": args.x,
        "k_max": result.k_max,
        "proven_optimal": result.proven_optimal,
        "nodes": result.nodes,
    }
    return (0 if result.proven_optimal else 3), summary, written


def cmd_refine(args):
    family = read_family(args.infile)
    params = RefinementParams(
        x=family.x_bound,
        omega_cap=args.omega_cap,
        prime_floor=args.prime_floor,
        ratio_denominator=args.ratio_denom,
    )
    cert = build_chain(family, params)
    write_certificate(cert, args.out)
    summary = {
        "base_size": len(cert.base),
        "t": cert.t,
        "witness_prime": cert.witness_prime,
        "divisible_count": cert.divisible_count,
        "out": args.out,
    }
    parameters = dataclasses.asdict(params)
    del parameters["x"]  # the input family's bound
    return 0, summary, (args.out, parameters, [args.infile])


def cmd_check_cert(args):
    cert = read_certificate(args.cert)
    result = check_certificate(cert, read_family(args.infile))
    return (0 if result.ok else 1), dataclasses.asdict(result), None


def cmd_counts(args):
    kinds = [kind.replace("-", "_") for kind in args.kind]
    c_values = args.c or [1.0]
    rows = bounds_report(args.x, c_values, kinds=kinds)
    text = rows_to_csv(rows)
    if not args.out:
        return 0, text, None
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    parameters = {"kind": kinds, "x": args.x, "c": c_values}
    return 0, {"rows": len(rows), "out": args.out}, (args.out, parameters, [])


def cmd_reduce(args):
    family = read_family(args.infile)
    alpha = choose_alpha(family) if args.alpha is None else args.alpha
    reduced = squarefull_reduce(family, alpha)
    write_family(reduced, args.out)
    summary = {"alpha": alpha, "count": reduced.size, "out": args.out}
    return 0, summary, (args.out, {"alpha": alpha}, [args.infile])


def cmd_bench(args):
    family = truncated_construction(args.k)
    started = time.perf_counter()
    hit = _scan_dense(family.q, family.a)
    elapsed = time.perf_counter() - started
    started = time.perf_counter()
    report = verify_family(family)
    verify_elapsed = time.perf_counter() - started
    ok = report.ok and hit is None
    summary = {
        "k": args.k,
        "ok": ok,
        "pairs": report.pair_count,
        "seconds": round(elapsed, 3),
        "pairs_per_second": round(report.pair_count / elapsed),
        "verify_seconds": round(verify_elapsed, 3),
    }
    return (0 if ok else 1), summary, None


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps nothing from one call to the next
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        code, summary, written = args.func(args)
        if written is not None:
            out_path, parameters, inputs = written
            _write_manifest(out_path, args.command, parameters, inputs, started)
    except NotDisjointError as exc:
        first, second = exc.first, exc.second
        pair = _meeting(first.modulus, first.residue, second.modulus, second.residue, exc.common)
        code, summary = 1, {"ok": False, "counterexample": pair}
    except (DomainError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
