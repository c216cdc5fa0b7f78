"""The benchmark's three workloads: their set-up and one round of operations.

A workload's constructor is its set-up: it builds and writes the inputs the
rounds read, all derived from the seed. round() runs the workload's
operations once through a Runner, which times each call into apfam, counts
attempts and failures, and fingerprints each output or, on the checked
round, hands it to its reference check.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pickle
import random
from pathlib import Path

import apfam.cli
import numpy as np
from apfam import (
    ConstructionParams,
    Family,
    Progression,
    RefinementParams,
    SearchConfig,
    assign_residue,
    bounds_report,
    build_chain,
    build_construction,
    certificate_to_dict,
    check_certificate,
    choose_alpha,
    factorize,
    family_digest,
    read_certificate,
    read_family,
    solve_exact,
    squarefull_reduce,
    translate,
    truncated_construction,
    verify_family,
    write_certificate,
    write_family,
)

import checks

C = 1 / math.sqrt(2)  # the construction's default scale coefficient
COUNT_C = 1.0  # the coefficient the paper's count table uses
TABLE_X = (10**6, 10**7, 10**8)
SQUAREFREE_X = (10**8,)
COUNT_X = (10**6, 3 * 10**6)
REDUCE_X = 10**7
SOLVE_X = (21, 22)
CHAIN = {"omega_cap": 4, "prime_floor": 150, "ratio_denominator": 3}  # for x = 1e8

DENSE_K = 10_000  # truncated construction for the numpy route
DENSE_SQUAREFREE_X = 2 * 10**7  # 8533 squarefree members
SMALL_FAMILIES = 300
NUMPY_ROUTE = 200  # verify_family's cut-over from the Python scan to numpy
SMALL_SIZES = range(100, NUMPY_ROUTE)
LATE_ROWS = 20  # a late plant's first witness row lies in the last 1/20 of rows
EARLY_ROWS = 10

WIDE_SCALE = 2**63  # scales 256 construction moduli past int64
WIDE_MEMBERS = 256
CAP_PAIR = ((0, 2**40), (0, 2**40 + 15))  # intersect at 0; lcm exceeds 2**63
# a family with six anchor primes, whose refinement chain takes two steps
STEPPED_ANCHORS = (1009, 1013, 1019, 1021, 1031, 1033)
STEPPED_X = 3 * 10**7  # 6013 members
STEPPED_PARAMS = {"omega_cap": 6, "prime_floor": 1000, "ratio_denominator": 2}


def f_table() -> dict[int, int]:
    """The reference F(x), regenerated by make_f_table.py."""
    table = json.loads(Path(__file__).with_name("f_table.json").read_text())
    return {int(x): k for x, k in table.items()}


def members(family) -> list[tuple[int, int]]:
    return [(pr.modulus, pr.residue) for pr in family.items]


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def stepped_family(shift: int) -> Family:
    """A disjoint squarefree family with no common anchor, translated by shift.

    Group s holds every q = P_s * m <= STEPPED_X, P_s the s-th anchor and m
    squarefree, divisible by 6, with prime factors below every anchor; its
    residues are the construction's for anchor P_s, plus s. Those are 2 mod
    6, so the six groups lie in six classes mod 6, and every gcd across
    groups is a multiple of 6: the family is disjoint. No anchor divides
    half of it, so the chain steps on 2 and 3 before an anchor stops it.
    """
    items = []
    for s, anchor in enumerate(STEPPED_ANCHORS):
        for m in range(6, STEPPED_X // anchor + 1, 6):
            parts = factorize(m).parts
            if all(e == 1 for _, e in parts) and parts[-1][0] < STEPPED_ANCHORS[0]:
                pr = assign_residue(anchor * m, anchor)
                items.append(Progression((pr.residue + s) % pr.modulus, pr.modulus))
    return translate(Family.build(items, STEPPED_X), shift)


def stepped_params() -> RefinementParams:
    return RefinementParams(x=STEPPED_X, **STEPPED_PARAMS)


class HashSink:
    """A file-like sink that feeds what is written to a hash."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, data) -> int:
        self.hash.update(data)
        return len(data)


def fingerprint(out) -> str:
    """sha256 of the output's pickle, streamed in frames, so a large family
    is never held as one string."""
    sink = HashSink()
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(out)
    return sink.hash.hexdigest()


class Runner:
    """Runs one round's operations.

    Each op is one call into apfam, timed (wall and CPU) with its span, so
    traced rounds include the tracing cost. A call that raises counts as
    failed. On the checked round every output goes to its reference check;
    the run then requires every other round's fingerprints to equal its.
    """

    def __init__(self, tracer, clock, checked: bool):
        self.tracer = tracer
        self.clock = clock
        self.checked = checked
        self.wall = 0.0
        self.attempted = 0
        self.failed: list[str] = []
        self.problems: list[str] = []
        self.fingerprints: list[tuple[str, str]] = []
        self.ops: list[tuple[str, float, float]] = []  # (name, wall, cpu)

    def op(self, name: str, layer: str, call, check=None, counts=None):
        self.attempted += 1
        wall, cpu = self.clock()
        with self.tracer.span(layer) as record:
            try:
                out = call()
            except Exception as exc:  # a fault of the program: count it, keep going
                out, error = None, exc
            else:
                error = None
        end_wall, end_cpu = self.clock()
        self.wall += end_wall - wall
        self.ops.append((name, end_wall - wall, end_cpu - cpu))
        if counts is not None:
            record.update(counts(out))
        if error is not None:
            self.failed.append(f"{name}: {type(error).__name__}: {error}")
            return None
        self.fingerprints.append((name, fingerprint(out)))
        if self.checked and check is not None:
            try:
                check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
        return out

    def skip(self, name: str) -> None:
        """An op whose input an earlier failed op should have produced."""
        self.attempted += 1
        self.failed.append(f"{name}: input unavailable")

    def read_and_verify(self, name: str, path, check):
        """Read a family file, then verify it; check(family, report)."""
        family = self.op(f"read {name}", "family.read", lambda: read_family(path),
                         check=lambda fam: check_read(fam, path),
                         counts=lambda _: {"bytes": Path(path).stat().st_size})
        if family is None:
            self.skip(f"verify {name}")
            return None
        layer = "family.verify" if family.size >= NUMPY_ROUTE else "family.verify_small"
        return self.op(f"verify {name}", layer, lambda: verify_family(family),
                       check=lambda report: check(family, report),
                       counts=lambda _: {"pairs": pairs(family.size)})


def check_read(family, path) -> None:
    x, rows = checks.family_file(path)
    checks.expect(family.x_bound == x and members(family) == rows, f"read_family({path}) differs from the file")


def witness_of(report):
    w = report.witness
    return None if w is None else (w.i, w.j, w.common)


def check_disjoint(path):
    """Check for a family known to be disjoint: verdict, pair count, digest."""
    def check(family, report):
        checks.check_disjoint_verdict(report.ok, witness_of(report), report.pair_count, family.size)
        checks.check_digest(report.digest, path)
    return check


def check_planted(altered: int):
    def check(family, report):
        checks.check_refutation(members(family), altered, report.ok, witness_of(report), report.pair_count)
    return check


def cli(argv: list[str]) -> tuple[int, str]:
    """apfam.cli.main in-process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = apfam.cli.main(argv)
    return code, out.getvalue()


def cli_json(result) -> dict:
    code, text = result
    checks.expect(code == 0, f"exit code {code}")
    return json.loads(text)


def warm_up(workdir: Path, tracer) -> None:
    """Call every layer once on a tiny input, first in every workload's set-up.

    This is the start-up any apfam session pays: first calls fill lazy
    prime tables and numpy's kernels, so set-up time covers them and the
    first timed round does not. It is also why every traced run reports
    some time on every layer.
    """
    with tracer.span("construction.build") as record:
        small = build_construction(ConstructionParams(x=1000)).family
        squarefree = build_construction(ConstructionParams(x=1000, squarefree_only=True)).family
        dense = truncated_construction(NUMPY_ROUTE)
    record.update(members=small.size + squarefree.size + dense.size)
    path = workdir / "warm.jsonl"
    with tracer.span("family.write"):
        write_family(small, path)
    with tracer.span("family.read") as record:
        small = read_family(path)
    record.update(bytes=path.stat().st_size)
    with tracer.span("family.digest"):
        family_digest(small)
    with tracer.span("family.verify_small") as record:
        verify_family(small)
    record.update(pairs=pairs(small.size))
    with tracer.span("family.verify") as record:
        verify_family(dense)
    record.update(pairs=pairs(dense.size))
    for kind, layer in (("psi", "numtheory.psi"), ("psistar", "numtheory.psi_star"), ("omega_tail", "bounds.omega_tail")):
        with tracer.span(layer):
            bounds_report([1000], [COUNT_C], kinds=(kind,))
    with tracer.span("bounds.reduce"):
        squarefull_reduce(small, choose_alpha(small))
    with tracer.span("solver.solve") as record:
        result = solve_exact(SearchConfig(x=8))
    record.update(nodes=result.nodes)
    params = RefinementParams(x=1000, omega_cap=4, prime_floor=12, ratio_denominator=3)
    with tracer.span("refinement.build_chain") as record:
        cert = build_chain(squarefree, params)
    record.update(base_members=len(cert.base))
    with tracer.span("refinement.check"):
        check_certificate(cert, squarefree)
    with tracer.span("cli.main"):
        cli(["verify", "--in", str(path)])
    path.unlink()


class Tabulate:
    """The paper's table in one pass: constructions, their I/O and reduction,
    the counts, exact solves, two refinement chains and a few CLI commands."""

    def __init__(self, seed: int, workdir: Path, tracer):
        rng = random.Random(seed)
        self.dir = workdir
        self.shift = rng.randrange(1, 2**40)
        with tracer.span("construction.build") as record:
            cli_family = translate(build_construction(ConstructionParams(x=10**6, squarefree_only=True)).family, self.shift)
        record.update(members=cli_family.size)
        self.cli_in = workdir / "cli_in.jsonl"
        with tracer.span("family.write"):
            write_family(cli_family, self.cli_in)
        self.cli_members = members(cli_family)
        self.table = f_table()
        with tracer.span("construction.build") as record:
            self.stepped = stepped_family(rng.randrange(1, 2**40))
        record.update(members=self.stepped.size)

    def round(self, run: Runner) -> None:
        built = {}
        for squarefree, xs in ((False, TABLE_X), (True, SQUAREFREE_X)):
            for x in xs:
                params = ConstructionParams(x=x, squarefree_only=squarefree)
                built[x, squarefree] = run.op(
                    f"build x={x} squarefree={squarefree}", "construction.build",
                    lambda params=params: build_construction(params),
                    check=lambda r, x=x, sf=squarefree: checks.check_construction(x, C, sf, members(r.family), p=r.p),
                    counts=lambda r: {"members": r.size if r else 0})
        self.family_io(run, built.get((10**8, False)))
        self.reduce(run, built.get((REDUCE_X, False)))
        self.counts(run)
        for x in SOLVE_X:
            run.op(f"solve x={x}", "solver.solve", lambda x=x: solve_exact(SearchConfig(x=x)),
                   check=lambda r, x=x: checks.check_solution(x, self.table, r.k_max, members(r.witness), r.proven_optimal),
                   counts=lambda r: {"nodes": r.nodes if r else 0})
        squarefree = built.get((10**8, True))
        self.chain(run, "x=1e8", squarefree and squarefree.family, RefinementParams(x=10**8, **CHAIN))
        self.chain(run, "stepped", self.stepped, stepped_params(), steps=True)
        self.commands(run)

    def family_io(self, run: Runner, built) -> None:
        if built is None:
            return
        shifted = run.op("translate x=1e8", "family.translate", lambda: translate(built.family, self.shift),
                         check=lambda f: checks.expect(
                             members(f) == [(q, (a + self.shift) % q) for q, a in members(built.family)], "translate"))
        path = self.dir / "table.jsonl"
        run.op("write x=1e8", "family.write", lambda: write_family(shifted, path),
               check=lambda _: check_read(shifted, path))
        run.op("read x=1e8", "family.read", lambda: read_family(path),
               check=lambda f: checks.expect(f == shifted, "read(write(F)) != F"),
               counts=lambda _: {"bytes": path.stat().st_size})
        run.op("digest x=1e8", "family.digest", lambda: family_digest(shifted),
               check=lambda d: checks.check_digest(d, path))

    def reduce(self, run: Runner, built) -> None:
        if built is None:
            return
        family = translate(built.family, self.shift)

        def reduce_both():
            alpha = choose_alpha(family)
            return alpha, squarefull_reduce(family, alpha)

        run.op(f"reduce x={REDUCE_X}", "bounds.reduce", reduce_both,
               check=lambda r: checks.check_reduction(members(family), family.x_bound, r[0], members(r[1]), r[1].x_bound))

    def counts(self, run: Runner) -> None:
        for kind, layer in (("psi", "numtheory.psi"), ("psistar", "numtheory.psi_star"), ("omega_tail", "bounds.omega_tail")):
            def check(rows, kind=kind):
                checks.expect([(r.kind, r.x, r.c) for r in rows] == [(kind, x, COUNT_C) for x in COUNT_X], "row order")
                for r in rows:
                    if kind == "omega_tail":
                        checks.check_tail(r.x, r.c, r.exact)
                    else:
                        checks.check_count(kind, r.x, r.c, r.exact, r.predicted)
            run.op(f"counts {kind}", layer, lambda kind=kind: bounds_report(COUNT_X, [COUNT_C], kinds=(kind,)), check=check)

    def chain(self, run: Runner, name: str, family, params, steps: bool = False) -> None:
        """build_chain and check_certificate; steps requires a chain of at
        least one refinement step."""
        if family is None:
            return

        def check(cert):
            checks.check_chain(members(family), certificate_to_dict(cert))
            checks.expect(cert.t >= 1 or not steps, f"the {name} chain took no step")
        cert = run.op(f"build_chain {name}", "refinement.build_chain", lambda: build_chain(family, params),
                      check=check, counts=lambda c: {"base_members": len(c.base) if c else 0})
        if cert is not None:
            run.op(f"check_certificate {name}", "refinement.check", lambda: check_certificate(cert, family),
                   check=lambda r: checks.expect(r.ok and r.reason is None, f"genuine certificate rejected: {r.reason}"))

    def commands(self, run: Runner) -> None:
        d, fam = self.dir, self.cli_in
        n = len(self.cli_members)
        cert, csv, witness, built = d / "cli_cert.json", d / "cli_counts.csv", d / "cli_witness.jsonl", d / "cli_built.jsonl"

        def verified(res):
            out = cli_json(res)
            checks.check_disjoint_verdict(out["ok"], None, out["pairs"], n)
            checks.check_digest(out["digest"], fam)

        def refined(res):
            cli_json(res)
            checks.check_manifest(cert, [cert])
            checks.check_chain(self.cli_members, json.loads(cert.read_text()))

        def counted(res):
            cli_json(res)
            checks.check_manifest(csv, [csv])
            row = csv.read_text().splitlines()[1].split(",")
            checks.expect(int(row[3]) == checks.smooth_count(10**5, checks.scale(COUNT_C, 10**5), False), "CLI psi count")

        def solved(res):
            out = cli_json(res)
            checks.check_manifest(witness, [witness])
            x, rows = checks.family_file(witness)
            checks.check_solution(16, self.table, out["k_max"], rows, out["proven_optimal"])

        def constructed(res):
            out = cli_json(res)
            checks.check_manifest(built, [built])
            x, rows = checks.family_file(built)
            checks.expect(out["t"] == len(rows), "construct summary count")
            checks.check_construction(x, C, True, rows, p=out["p"])

        commands = [
            (["verify", "--in", str(fam)], verified),
            (["refine", "--in", str(fam), "--omega-cap", "4", "--prime-floor", "60", "--ratio-denom", "3", "--out", str(cert)], refined),
            (["check-cert", "--cert", str(cert), "--in", str(fam)], lambda res: checks.expect(cli_json(res)["ok"] is True, "check-cert")),
            (["counts", "--kind", "psi", "--x", "100000", "--out", str(csv)], counted),
            (["solve", "--x", "16", "--emit-witness", str(witness)], solved),
            (["construct", "--x", "1000000", "--squarefree-only", "--out", str(built)], constructed),
        ]
        for argv, check in commands:
            run.op(f"cli {argv[0]}", "cli.main", lambda argv=argv: cli(argv), check=check)


class DenseInputs:
    """The two ~10^4-member construction families, translated by the seed,
    and the seeded subfamilies below the numpy cut-over, written to disk."""

    def __init__(self, rng: random.Random, workdir: Path, tracer):
        with tracer.span("construction.build") as record:
            truncated = truncated_construction(DENSE_K)
            squarefree = build_construction(ConstructionParams(x=DENSE_SQUAREFREE_X, squarefree_only=True)).family
        record.update(members=truncated.size + squarefree.size)
        self.dir = workdir
        self.base = {}  # name -> (family, shift, squarefree)
        for name, family, squarefree in (("truncated", truncated, False), ("squarefree", squarefree, True)):
            shift = rng.randrange(1, 2**40)
            self.base[name] = (translate(family, shift), shift, squarefree)
        self.small = []  # (name, parent name, family)
        names = list(self.base)
        for k in range(SMALL_FAMILIES):
            parent = names[k % len(names)]
            items = self.base[parent][0].items
            size = SMALL_SIZES[k % len(SMALL_SIZES)]
            picked = sorted(rng.sample(range(len(items)), size))
            self.small.append((f"small{k:03d}", parent, Family(tuple(items[i] for i in picked), self.base[parent][0].x_bound)))
        self.wide = Family(
            tuple(Progression(pr.residue, pr.modulus * WIDE_SCALE) for pr in truncated.items[:WIDE_MEMBERS]),
            truncated.x_bound * WIDE_SCALE)

    def write(self, name: str, family, tracer) -> Path:
        path = self.dir / f"{name}.jsonl"
        with tracer.span("family.write"):
            write_family(family, path)
        return path

    def check_member_of(self, parent: str, family, altered=None, subset=False) -> None:
        """The family is (up to member altered) part of a translated construction."""
        base, shift, squarefree = self.base[parent]
        checks.check_construction(base.x_bound, C, squarefree, members(family), shift=shift,
                                  count=None if subset or squarefree else DENSE_K,
                                  subset=subset, altered=altered)


class Verify:
    """Read and verify disjoint families: two dense ones on the numpy route,
    a few hundred small ones on the Python route, and one with moduli past
    int64 (a known fault: the numpy scan overflows)."""

    def __init__(self, seed: int, workdir: Path, tracer):
        self.inputs = inputs = DenseInputs(random.Random(seed), workdir, tracer)
        self.files = [(name, inputs.write(name, family, tracer), name, False)
                      for name, (family, _, _) in inputs.base.items()]
        self.files += [(name, inputs.write(name, family, tracer), parent, True)
                       for name, parent, family in inputs.small]
        self.wide = inputs.write("wide", inputs.wide, tracer)

    def round(self, run: Runner) -> None:
        for name, path, parent, subset in self.files:
            def check(family, report, path=path, parent=parent, subset=subset):
                self.inputs.check_member_of(parent, family, subset=subset)
                check_disjoint(path)(family, report)
            run.read_and_verify(name, path, check)

        def check_wide(family, report):
            unscaled = [(q // WIDE_SCALE, a) for q, a in members(family)]
            checks.expect(all(q % WIDE_SCALE == 0 for q, _ in members(family)), "wide moduli not scaled")
            checks.check_construction(family.x_bound // WIDE_SCALE, C, False, unscaled, count=WIDE_MEMBERS)
            check_disjoint(self.wide)(family, report)
        run.read_and_verify("wide", self.wide, check_wide)


def moved_residue(family, k: int, j: int) -> int:
    """Member j's residue moved to meet member k: it agrees with k modulo
    g = gcd(q_k, q_j) and keeps its value modulo the part of q_j coprime to g."""
    (qk, ak), (qj, aj) = [(family.items[i].modulus, family.items[i].residue) for i in (k, j)]
    g = math.gcd(qk, qj)
    h = qj
    while math.gcd(h, g) > 1:
        h //= math.gcd(h, g)
    return (aj + (ak - aj) % g * h * pow(h, -1, g)) % qj


def plant(family, k: int, j: int) -> Family:
    """Copy of family whose member j meets member k."""
    items = list(family.items)
    items[j] = Progression(moved_residue(family, k, j), items[j].modulus)
    return Family(tuple(items), family.x_bound)


def plant_late(family, rng: random.Random) -> tuple[Family, int]:
    """A plant whose first witness row lies in the last 1/LATE_ROWS of rows, so
    the scan that finds it costs about a full one. Pairs sharing more than
    the anchor prime are tried from a seeded start, each judged by one
    vectorised gcd pass; the latest first row seen is kept if none qualifies."""
    n = family.size
    floor = n - n // LATE_ROWS
    q = np.array(family.moduli(), dtype=np.int64)
    a = np.array([pr.residue for pr in family.items], dtype=np.int64)
    anchor = int(np.gcd.reduce(q))
    start = rng.randrange(LATE_ROWS)
    best = (-1, n - 2, n - 1)
    for j in list(range(n - 1 - start, floor, -1)) + list(range(n - 1, n - 1 - start, -1)):
        g = np.gcd(q, q[j])
        for k in np.flatnonzero(g[floor:j] > anchor)[::-1] + floor:
            moved = moved_residue(family, int(k), j)
            row = int(np.flatnonzero((a - moved) % g == 0)[0])  # k itself always meets j
            if row >= floor:
                return plant(family, int(k), j), j
            if row > best[0]:
                best = (row, int(k), j)
    return plant(family, best[1], best[2]), best[2]


class Refute:
    """Prove negatives: copies of the verify families with one planted
    intersection (early ones found at once, late ones after about a full
    scan), tampered refinement certificates, and a pair whose lcm exceeds
    int64 (a known fault: crt_pair's word cap)."""

    def __init__(self, seed: int, workdir: Path, tracer):
        rng = random.Random(seed)
        self.inputs = inputs = DenseInputs(rng, workdir, tracer)
        self.files = []  # (name, path, parent, altered, subset)
        for name, (family, _, _) in inputs.base.items():
            n = family.size
            j_early = rng.randrange(n // 2, n)
            early = plant(family, rng.randrange(EARLY_ROWS), j_early)
            late, j_late = plant_late(family, rng)
            for tag, planted, altered in (("early", early, j_early), ("late", late, j_late)):
                self.files.append((f"{name}-{tag}", inputs.write(f"{name}-{tag}", planted, tracer), name, altered, False))
        for k, (name, parent, family) in enumerate(inputs.small):
            n = family.size
            if k % 2:
                j = n - 1
                anchor = math.gcd(*family.moduli())
                shared = [i for i in range(j) if math.gcd(family.items[i].modulus, family.items[j].modulus) > anchor]
                planted = plant(family, shared[-1] if shared else j - 1, j)
            else:
                j = rng.randrange(n // 2, n)
                planted = plant(family, rng.randrange(EARLY_ROWS), j)
            self.files.append((name, inputs.write(name, planted, tracer), parent, j, True))
        cap = Family.build([Progression(a, q) for a, q in CAP_PAIR], CAP_PAIR[1][1])
        self.cap = inputs.write("cap-pair", cap, tracer)
        self.certificates(rng, workdir, tracer)

    def certificates(self, rng: random.Random, workdir: Path, tracer) -> None:
        with tracer.span("construction.build") as record:
            family = stepped_family(rng.randrange(1, 2**40))
        record.update(members=family.size)
        self.cert_family = self.inputs.write("cert-family", family, tracer)
        family = read_family(self.cert_family)
        params = stepped_params()
        with tracer.span("refinement.build_chain") as record:
            genuine = build_chain(family, params)
        record.update(base_members=len(genuine.base))
        if genuine.t < 2:
            raise RuntimeError(f"the stepped chain took {genuine.t} steps, fewer than 2")
        base = list(genuine.base)
        i = rng.randrange(len(base))
        moved = base[:i] + [Progression((base[i].residue + 1) % base[i].modulus, base[i].modulus)] + base[i + 1 :]
        first = genuine.steps[0]
        kept = list(first.survivors)
        del kept[rng.randrange(len(kept))]
        other_anchor = rng.choice([q for q in STEPPED_ANCHORS if q != genuine.witness_prime])
        tampered = {
            "genuine": genuine,
            "base-residue": dataclasses.replace(genuine, base=tuple(moved)),
            "base-dropped": dataclasses.replace(genuine, base=tuple(base[:i] + base[i + 1 :])),
            "survivor-dropped": dataclasses.replace(genuine, steps=(dataclasses.replace(first, survivors=tuple(kept)),) + genuine.steps[1:]),
            "step-prime": dataclasses.replace(genuine, steps=(dataclasses.replace(first, prime=genuine.steps[1].prime),) + genuine.steps[1:]),
            "step-dropped": dataclasses.replace(genuine, steps=genuine.steps[:-1], t=genuine.t - 1),
            "witness-prime": dataclasses.replace(genuine, witness_prime=other_anchor),
            "divisible-count": dataclasses.replace(genuine, divisible_count=genuine.divisible_count + 1),
            "prime-floor": dataclasses.replace(genuine, params=dataclasses.replace(params, prime_floor=rng.choice([1040, 1049, 1100]))),
        }
        self.certs = []
        for name, cert in tampered.items():
            path = workdir / f"cert-{name}.json"
            write_certificate(cert, path)
            self.certs.append((name, path))

    def round(self, run: Runner) -> None:
        family = run.op("read cert-family", "family.read", lambda: read_family(self.cert_family),
                        check=lambda f: check_read(f, self.cert_family),
                        counts=lambda _: {"bytes": self.cert_family.stat().st_size})
        for name, path in self.certs:
            cert = run.op(f"read cert-{name}", "refinement.read", lambda path=path: read_certificate(path))
            if cert is None or family is None:
                run.skip(f"check cert-{name}")
                continue

            def check(result, name=name, path=path):
                _, rows = checks.family_file(self.cert_family)
                as_written = json.loads(path.read_text())
                if name == "genuine":
                    checks.check_chain(rows, as_written)
                    checks.expect(result.ok and result.reason is None, f"genuine certificate rejected: {result.reason}")
                    return
                try:
                    checks.check_chain(rows, as_written)
                except checks.CheckFailed:
                    checks.expect(not result.ok and bool(result.reason), f"tampered certificate ({name}) accepted")
                else:
                    raise checks.CheckFailed(f"tamper {name} left a valid certificate")
            run.op(f"check cert-{name}", "refinement.check", lambda cert=cert: check_certificate(cert, family), check=check)
        for name, path, parent, altered, subset in self.files:
            def check(family, report, parent=parent, altered=altered, subset=subset):
                self.inputs.check_member_of(parent, family, altered=altered, subset=subset)
                check_planted(altered)(family, report)
            run.read_and_verify(name, path, check)
        run.read_and_verify("cap-pair", self.cap, check_planted(1))


WORKLOADS = {"tabulate": Tabulate, "verify": Verify, "refute": Refute}
