"""Self-test of the benchmark's checks: each check must pass the right answer
and fail each wrong one.

    python3 perfbench/selftest.py

Exits 0 when every wrong answer was caught and every right one accepted.
Uses only checks.py and small inputs it builds itself; apfam is not needed.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import checks

X = 1000  # anchor prime 13
C = 1 / math.sqrt(2)


def chain_residue(p: int, pows: tuple[int, ...]) -> int:
    """The residue the construction pins for q = p * prod(pows), by CRT."""
    if not pows:
        return 0
    pins = [(pows[-1] % p, p)] + [(lower, upper) for lower, upper in zip(pows, pows[1:])] + [(0, pows[0])]
    a, m = 0, 1
    for r, n in pins:
        t = (r - a) * pow(m, -1, n) % n
        a, m = a + m * t, m * n
    return a


def construction(squarefree: bool = False) -> tuple[int, list[tuple[int, int]]]:
    p, ref = checks.construction_members(X, C, squarefree)
    return p, [(q, chain_residue(p, pows)) for q, pows in ref]


def a_witness(x: int, size: int) -> list[tuple[int, int]]:
    """A disjoint family of the given size with moduli in [2, x], by search."""
    chosen: list[tuple[int, int]] = []

    def rec(q: int) -> bool:
        if len(chosen) == size:
            return True
        for m in range(q, x + 1):
            for a in range(m):
                if all((a - b) % math.gcd(m, n) for n, b in chosen):
                    chosen.append((m, a))
                    if rec(m + 1):
                        return True
                    chosen.pop()
        return False

    rec(2)
    return chosen


def cases(tmp: Path):
    """(name, check to run, whether it must pass)."""
    p, fam = construction()
    yield "construction: right", lambda: checks.check_construction(X, C, False, fam, p=p), True
    yield "construction: wrong anchor prime", lambda: checks.check_construction(X, C, False, fam, p=11), False
    yield "construction: member missing", lambda: checks.check_construction(X, C, False, fam[:-1], p=p), False
    yield "construction: residue moved", lambda: checks.check_construction(
        X, C, False, fam[:5] + [(fam[5][0], (fam[5][1] + 1) % fam[5][0])] + fam[6:], p=p), False
    bad_shape = sorted(fam[:-1] + [(p * 13, 0)])  # 13 is not below the anchor
    yield "construction: member of the wrong shape", lambda: checks.check_construction(X, C, False, bad_shape, p=p), False
    yield "subfamily: right", lambda: checks.check_construction(X, C, False, fam[::3], subset=True), True
    yield "subfamily: foreign member", lambda: checks.check_construction(X, C, False, sorted(fam[::3] + [(14, 1)]), subset=True), False

    n = len(fam)
    yield "verdict: right", lambda: checks.check_disjoint_verdict(True, None, n * (n - 1) // 2, n), True
    yield "verdict: ok flipped", lambda: checks.check_disjoint_verdict(False, (0, 1, 0), n * (n - 1) // 2, n), False
    yield "verdict: pair count off", lambda: checks.check_disjoint_verdict(True, None, n * (n - 1) // 2 - 1, n), False

    j, qj = n - 1, fam[-1][0]

    def partners(a):
        return [k for k, (q, b) in enumerate(fam[:j]) if (b - a) % math.gcd(q, qj) == 0]
    moved = next(a for a in range(qj) if len(partners(a)) >= 2)  # member j now meets two or more
    planted = fam[:j] + [(qj, moved)]
    i, j2 = checks.first_pair_with(planted, j)
    later = (partners(moved)[-1], j)
    q1, q2 = planted[i][0], planted[j2][0]
    common = next(c for c in range(q1 * q2) if (c - planted[i][1]) % q1 == 0 and (c - planted[j2][1]) % q2 == 0)
    pairs = n * (n - 1) // 2
    yield "refutation: right", lambda: checks.check_refutation(planted, j, False, (i, j2, common), pairs), True
    yield "refutation: a later witness pair", lambda: checks.check_refutation(planted, j, False, (*later, 0), pairs), False
    yield "refutation: ok flipped", lambda: checks.check_refutation(planted, j, True, None, pairs), False
    yield "refutation: common outside the lcm", lambda: checks.check_refutation(
        planted, j, False, (i, j2, common + q1 // math.gcd(q1, q2) * q2), pairs), False
    yield "refutation: common not in both", lambda: checks.check_refutation(planted, j, False, (i, j2, common + 1), pairs), False

    y = checks.scale(1.0, X)
    psi, psi_star = checks.smooth_count(X, y, False), checks.smooth_count(X, y, True)
    predicted = X / checks.scale(0.5, X)
    brute = sum(1 for k in range(1, X + 1) if all(q <= y for q, _ in checks.factor(k)))
    brute_star = sum(1 for k in range(1, X + 1) if all(q**e <= y for q, e in checks.factor(k)))
    yield "sieve: psi against trial division", lambda: checks.expect(psi == brute, f"{psi} != {brute}"), True
    yield "sieve: psi* against trial division", lambda: checks.expect(psi_star == brute_star, f"{psi_star} != {brute_star}"), True
    yield "psi: right", lambda: checks.check_count("psi", X, 1.0, psi, predicted), True
    yield "psi: wrong count", lambda: checks.check_count("psi", X, 1.0, psi + 1, predicted), False
    yield "psistar: right", lambda: checks.check_count("psistar", X, 1.0, psi_star, predicted), True
    yield "psistar: psi given instead", lambda: checks.check_count("psistar", X, 1.0, psi, predicted), False
    yield "psi: wrong prediction", lambda: checks.check_count("psi", X, 1.0, psi, predicted * 1.01), False
    bound = checks.tail_majorant(10**4, 1.0)
    yield "omega tail: under the majorant", lambda: checks.check_tail(10**4, 1.0, 100), True
    yield "omega tail: over the majorant", lambda: checks.check_tail(10**4, 1.0, math.floor(bound) + 1), False

    table = {10: 3, 11: 3, 12: 4}
    witness = a_witness(12, 4)
    yield "solve: right", lambda: checks.check_solution(12, table, 4, witness, True), True
    yield "solve: k_max one too high", lambda: checks.check_solution(12, table, 5, witness + [(12, 0)], True), False
    yield "solve: k_max one too low", lambda: checks.check_solution(12, table, 3, witness[:3], True), False
    yield "solve: witness intersects", lambda: checks.check_solution(12, table, 4, witness[:3] + [(witness[3][0], witness[0][1])], True), False
    yield "solve: not proven", lambda: checks.check_solution(12, table, 4, witness, False), False
    yield "solve: jump over F(x-1)+1", lambda: checks.check_solution(12, {11: 2, 12: 4}, 4, witness, True), False

    _, full = construction()
    alpha, reduced, rx = checks.reduction(full, X)
    yield "reduction: right", lambda: checks.check_reduction(full, X, alpha, reduced, rx), True
    yield "reduction: wrong part", lambda: checks.check_reduction(full, X, alpha * 4, reduced, rx), False
    yield "reduction: member dropped", lambda: checks.check_reduction(full, X, alpha, reduced[1:], rx), False

    _, sqfree = construction(squarefree=True)
    params = {"x": X, "omega_cap": 4, "prime_floor": 12, "ratio_denominator": 3}
    base = [[q, a] for q, a in sqfree if len(checks.factor(q)) < 4]
    cert = {"params": params, "base": base, "steps": [], "t": 0, "witness_prime": 13, "divisible_count": len(base)}
    yield "certificate: right", lambda: checks.check_chain(sqfree, cert), True
    yield "certificate: base member dropped", lambda: checks.check_chain(sqfree, cert | {"base": base[1:]}), False
    yield "certificate: divisible count off", lambda: checks.check_chain(sqfree, cert | {"divisible_count": len(base) - 1}), False
    yield "certificate: step count off", lambda: checks.check_chain(sqfree, cert | {"t": 1}), False
    yield "certificate: witness below the floor", lambda: checks.check_chain(sqfree, cert | {"witness_prime": 11}), False

    # two groups anchored at 101 and 103, apart mod 2; the chain steps on 2
    # and stops on 101
    stepped = sorted((P * m, (chain_residue(P, pows) + shift) % (P * m))
                     for P, shift in ((101, 0), (103, 1))
                     for m, pows in ((6, (2, 3)), (30, (2, 3, 5)), (42, (2, 3, 7))))
    group = [q for q, _ in stepped if q % 101 == 0]
    step = {"index": 1, "chosen_modulus": 606, "candidate_primes": [2, 3, 101], "prime": 2,
            "residue_class": 0, "combined_residue": 0, "survivors": group}
    cert = {"params": {"x": 4326, "omega_cap": 6, "prime_floor": 100, "ratio_denominator": 1.5},
            "base": [[q, a] for q, a in stepped], "steps": [step], "t": 1, "witness_prime": 101, "divisible_count": 3}
    yield "stepped certificate: right", lambda: checks.check_chain(stepped, cert), True
    yield "stepped certificate: survivor dropped", lambda: checks.check_chain(
        stepped, cert | {"steps": [step | {"survivors": group[:-1]}]}), False
    yield "stepped certificate: another step prime", lambda: checks.check_chain(
        stepped, cert | {"steps": [step | {"prime": 3}]}), False
    yield "stepped certificate: combined residue off", lambda: checks.check_chain(
        stepped, cert | {"steps": [step | {"combined_residue": 1}]}), False
    yield "stepped certificate: step dropped", lambda: checks.check_chain(stepped, cert | {"steps": [], "t": 0}), False

    out = tmp / "family.jsonl"
    out.write_text("\n".join([json.dumps({"x": X, "count": n})] + [json.dumps({"q": q, "a": a}) for q, a in fam]) + "\n")
    digest = checks.sha256_file(out)
    yield "file: parsed back", lambda: checks.expect(checks.family_file(out) == (X, fam), "parse"), True
    yield "digest: right", lambda: checks.check_digest(digest, out), True
    yield "digest: wrong", lambda: checks.check_digest(digest[::-1], out), False
    manifest = Path(f"{out}.manifest.json")
    manifest.write_text(json.dumps({"outputs": {str(out): digest}}))
    yield "manifest: right", lambda: checks.check_manifest(out, [out]), True
    yield "manifest: stale digest", lambda: (manifest.write_text(json.dumps({"outputs": {str(out): "0" * 64}})),
                                            checks.check_manifest(out, [out])), False


def main() -> int:
    tmp = Path(__file__).resolve().parent / "runs" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for name, check, must_pass in cases(tmp):
            try:
                check()
                passed, reason = True, ""
            except checks.CheckFailed as exc:
                passed, reason = False, str(exc)
            verdict = "ok" if passed == must_pass else "WRONG"
            bad += verdict == "WRONG"
            print(f"{verdict:5s} {name}: {'accepted' if passed else 'rejected: ' + reason}")
    finally:
        shutil.rmtree(tmp)
    print(f"{bad} check(s) misjudged", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
