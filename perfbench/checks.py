"""Reference computations and checks for the benchmark, independent of apfam.

Nothing here imports apfam. Every check takes plain data (ints, lists of
(q, a) pairs, dicts) and raises CheckFailed with a reason when the answer is
wrong, so selftest.py can feed each check a wrong answer and see it caught.
The references are deliberately simple: a bytearray sieve, a segmented numpy
sieve, trial division and gcd loops.
"""

import hashlib
import json
import math
from functools import lru_cache

import numpy as np

SIEVE_BLOCK = 1 << 18


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def primes_upto(n: int) -> list[int]:
    """Primes <= n by a plain bytearray sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


def scale(c: float, x: float) -> float:
    """exp(c * sqrt(log x * log log x))."""
    lx = math.log(x)
    return math.exp(c * math.sqrt(lx * math.log(lx)))


def anchor_prime(x: int, c: float) -> int:
    return primes_upto(math.floor(scale(c, x)))[-1]


@lru_cache(maxsize=8)
def construction_members(x: int, c: float, squarefree: bool) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(p, ((q, prime powers of q / p ascending), ...)) sorted by q.

    The members are every q = p * m <= x whose prime-power factors of m all
    lie below p (with exponent 1 only when squarefree). The m are found by
    the sieve of smooth_count: those left at 1 once each prime power below p
    has been divided out. Cached: subfamily checks ask for the same
    construction hundreds of times.
    """
    p = anchor_prime(x, c)
    out = []
    for m in np.flatnonzero(smooth_block(1, x // p + 1, primes_upto(p - 1), p - 1) == 1) + 1:
        parts = factor(int(m))
        if not squarefree or all(e == 1 for _, e in parts):
            out.append((p * int(m), tuple(sorted(r**e for r, e in parts))))
    return p, tuple(out)


def chain_residue_ok(a: int, p: int, pows: tuple[int, ...]) -> bool:
    """The construction's pinning: a == top power (mod p), each power pinned
    to the next power down, the smallest power to 0."""
    if not pows:
        return a == 0
    if a % p != pows[-1] % p:
        return False
    for lower, upper in zip(pows, pows[1:]):
        if a % upper != lower:
            return False
    return a % pows[0] == 0


def check_construction(x: int, c: float, squarefree: bool, members, p: int | None = None, shift: int = 0, count: int | None = None, subset: bool = False, altered: int | None = None) -> None:
    """Anchor prime, member count, member shape and residues of a construction.

    members is the family as (q, a) pairs, after a common translation by
    shift. count keeps the smallest count members (the truncated
    construction); subset accepts any subfamily; the residue of member
    altered, if given, is not checked.
    """
    ref_p, ref = construction_members(x, c, squarefree)
    if p is not None:
        expect(p == ref_p, f"anchor prime {p}, expected {ref_p} at x={x}")
    if subset:
        powers = dict(ref)
        moduli = [q for q, _ in members]
        expect(moduli == sorted(set(moduli)), "subfamily moduli not strictly increasing")
        expect(all(q in powers for q in moduli), f"subfamily member outside the construction at x={x}")
        ref = [(q, powers[q]) for q in moduli]
    elif count is not None:
        ref = ref[:count]
    expect(len(members) == len(ref), f"{len(members)} members, expected {len(ref)} at x={x}")
    for k, ((q, a), (ref_q, pows)) in enumerate(zip(members, ref)):
        expect(q == ref_q, f"modulus {q}, expected {ref_q} at x={x}")
        if k != altered:
            expect(chain_residue_ok((a - shift) % q, ref_p, pows), f"residue {a} mod {q} breaks the chain at x={x}")


def family_file(path) -> tuple[int, list[tuple[int, int]]]:
    """(x, [(q, a)]) from a family file, by the documented JSON-lines format."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8").split("\n")
    expect(lines[-1] == "", f"{path}: missing final newline")
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:-1]]
    expect(header["count"] == len(rows), f"{path}: header count {header['count']} for {len(rows)} rows")
    return header["x"], [(row["q"], row["a"]) for row in rows]


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_digest(digest: str, path) -> None:
    expect(digest == sha256_file(path), f"digest {digest} is not the sha256 of {path}")


def pairwise_disjoint(members) -> bool:
    """Every pair checked by the gcd criterion."""
    for i, (qi, ai) in enumerate(members):
        for qj, aj in members[i + 1 :]:
            if (ai - aj) % math.gcd(qi, qj) == 0:
                return False
    return True


def check_disjoint_verdict(ok: bool, witness, pairs: int, n: int) -> None:
    """The verdict on a family known to be disjoint."""
    expect(ok is True, "a disjoint family was reported intersecting")
    expect(witness is None, "a disjoint family was given a witness")
    expect(pairs == n * (n - 1) // 2, f"{pairs} pairs reported for {n} members")


def first_pair_with(members, j: int) -> tuple[int, int] | None:
    """Lexicographically first intersecting pair when only member j was altered.

    Every other pair is disjoint, so one O(n) gcd pass over j's partners
    finds it: (min k, j) for some k < j, else (j, min l) for l > j.
    """
    qj, aj = members[j]
    for k, (q, a) in enumerate(members):
        if k != j and (a - aj) % math.gcd(q, qj) == 0:
            return (k, j) if k < j else (j, k)
    return None


def check_common(members, i: int, j: int, common: int) -> None:
    (qi, ai), (qj, aj) = members[i], members[j]
    lcm = qi // math.gcd(qi, qj) * qj
    expect(0 <= common < lcm, f"common {common} outside [0, {lcm})")
    expect((common - ai) % qi == 0 and (common - aj) % qj == 0, f"{common} is not in both {ai} mod {qi} and {aj} mod {qj}")


def check_refutation(members, altered: int, ok: bool, witness, pairs: int) -> None:
    """The verdict on a disjoint family whose member `altered` was changed."""
    expected = first_pair_with(members, altered)
    expect(expected is not None, "planted family has no intersection")
    expect(ok is False, "an intersecting family was reported disjoint")
    expect(witness is not None, "no witness for an intersecting family")
    i, j, common = witness
    expect((i, j) == expected, f"witness pair {(i, j)}, expected {expected}")
    check_common(members, i, j, common)
    n = len(members)
    expect(pairs == n * (n - 1) // 2, f"{pairs} pairs reported for {n} members")


def smooth_block(lo: int, hi: int, primes: list[int], cap: float | None) -> np.ndarray:
    """lo..hi-1, each divided by p once for every power p**k of a prime in
    primes that divides it (only for p**k <= cap when cap is given)."""
    rest = np.arange(lo, hi, dtype=np.int64)
    for p in primes:
        pk = p
        while pk < hi and (cap is None or pk <= cap):
            rest[(-lo) % pk :: pk] //= p
            pk *= p
    return rest


def smooth_count(x: int, y: float, power_cap: bool) -> int:
    """psi(x, y), or psi*(x, y) when power_cap, by a segmented sieve: what
    smooth_block leaves is 1 exactly for the n being counted."""
    primes = primes_upto(math.floor(y))
    total = 0
    for lo in range(1, x + 1, SIEVE_BLOCK):
        rest = smooth_block(lo, min(lo + SIEVE_BLOCK, x + 1), primes, y if power_cap else None)
        total += int(np.count_nonzero(rest == 1))
    return total


def check_count(kind: str, x: int, c: float, exact: int, predicted: float) -> None:
    """A psi or psistar row against the sieve and the predicted scale."""
    y = scale(c, x)
    expected = smooth_count(x, y, power_cap=(kind == "psistar"))
    expect(exact == expected, f"{kind}({x}, L({c})) = {exact}, sieve gives {expected}")
    want = x / scale(1 / (2 * c), x)
    expect(math.isclose(predicted, want, rel_tol=1e-9), f"{kind} prediction {predicted}, expected {want}")


def tail_majorant(x: int, c: float) -> float:
    """x * sum over j above c*sqrt(log x / log log x) of M**j / j!, where M
    sums 1/p**a over prime powers p**a <= x."""
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags)
    m = float(np.sum(1.0 / primes))
    for p in primes[primes <= math.isqrt(x)]:
        pa = int(p) * int(p)
        while pa <= x:
            m += 1.0 / pa
            pa *= int(p)
    lx = math.log(x)
    j = math.floor(c * math.sqrt(lx / math.log(lx))) + 1
    term = math.exp(j * math.log(m) - math.lgamma(j + 1))
    total = 0.0
    while term > 1e-30 * total:
        total += term
        j += 1
        term *= m / j
    return x * total


def check_tail(x: int, c: float, exact: int) -> None:
    bound = tail_majorant(x, c)
    expect(0 < exact <= x, f"omega tail count {exact} at x={x}")
    expect(exact <= bound, f"omega tail count {exact} exceeds its majorant {bound:.6g} at x={x}")


def factor(n: int) -> list[tuple[int, int]]:
    """(p, e) pairs of n ascending, by trial division."""
    out, m, d = [], n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def squarefull_part(q: int) -> int:
    return math.prod(p**e for p, e in factor(q) if e >= 2)


def reduction(members, x: int) -> tuple[int, list[tuple[int, int]], int]:
    """(alpha, reduced members, reduced bound) for the most common squarefull
    part, keeping its most popular residue class; ties pick the smallest."""
    parts = [squarefull_part(q) for q, _ in members]
    counts: dict[int, int] = {}
    for alpha in parts:
        counts[alpha] = counts.get(alpha, 0) + 1
    alpha = min(counts, key=lambda s: (-counts[s], s))
    classes: dict[int, list[tuple[int, int]]] = {}
    for (q, a), part in zip(members, parts):
        if part == alpha:
            classes.setdefault(a % alpha, []).append((q, a))
    kept = classes[min(classes, key=lambda b: (-len(classes[b]), b))]
    reduced = sorted((q // alpha, a % (q // alpha)) for q, a in kept)
    return alpha, reduced, max(2, x // alpha)


def check_reduction(members, x: int, alpha: int, reduced, reduced_x: int) -> None:
    ref_alpha, ref_reduced, ref_x = reduction(members, x)
    expect(alpha == ref_alpha, f"squarefull part {alpha}, expected {ref_alpha}")
    expect(list(reduced) == ref_reduced, "reduced family differs from the reference reduction")
    expect(reduced_x == ref_x, f"reduced bound {reduced_x}, expected {ref_x}")


def check_solution(x: int, table: dict[int, int], k_max: int, witness, proven: bool) -> None:
    """An exact solve: optimal size, a disjoint witness of that size, F(x) <= F(x-1)+1."""
    expect(proven, f"solve at x={x} not proven optimal")
    expect(k_max == table[x], f"F({x}) = {k_max}, reference table gives {table[x]}")
    expect(table[x - 1] <= k_max <= table[x - 1] + 1, f"F({x}) = {k_max} but F({x - 1}) = {table[x - 1]}")
    moduli = [q for q, _ in witness]
    expect(len(witness) == k_max, f"witness has {len(witness)} members for k_max {k_max}")
    expect(len(set(moduli)) == len(moduli) and all(2 <= q <= x for q in moduli), "witness moduli not distinct in [2, x]")
    expect(all(0 <= a < q for q, a in witness), "witness residue out of range")
    expect(pairwise_disjoint(witness), f"witness at x={x} intersects")


def squarefree_primes(q: int) -> list[int] | None:
    """Prime factors of q ascending, or None when q is not squarefree."""
    parts = factor(q)
    return None if any(e > 1 for _, e in parts) else [p for p, _ in parts]


def check_chain(members, cert: dict) -> None:
    """A refinement certificate (as certificate_to_dict writes it) against the
    family: the base filter, nested survivors pinned to their combined residue,
    and the stopping witness."""
    params = cert["params"]
    base = []
    for q, a in members:
        primes = squarefree_primes(q)
        expect(primes is not None, f"modulus {q} is not squarefree")
        if len(primes) < params["omega_cap"] and primes[-1] > params["prime_floor"]:
            base.append([q, a])
    expect(cert["base"] == base, "certificate base differs from the filtered family")
    expect(cert["t"] == len(cert["steps"]), "step count differs from t")
    residue = {q: a for q, a in base}
    current = [q for q, _ in base]
    used: list[int] = []
    product = 1
    for step in cert["steps"]:
        chosen, prime, cls = step["chosen_modulus"], step["prime"], step["residue_class"]
        expect(chosen in current, "chosen modulus outside the previous set")
        candidates = [p for p in squarefree_primes(chosen) if p not in used]
        expect(step["candidate_primes"] == candidates and prime in candidates, "step prime not a new prime of the chosen modulus")
        expect(all(any(q % p == 0 for p in candidates) for q in current), "a member shares no candidate prime")
        survivors = [q for q in current if q % prime == 0 and residue[q] % prime == cls]
        expect(step["survivors"] == survivors, "survivors differ from the members in the chosen class")
        used.append(prime)
        product *= prime
        expect(all(residue[q] % product == step["combined_residue"] for q in survivors), "survivor off the combined residue")
        expect(len(survivors) * prime * params["ratio_denominator"] >= len(current), "a step kept too few members")
        current = survivors
    if not base:
        expect(cert["witness_prime"] is None, "empty base with a witness prime")
        return
    w = cert["witness_prime"]
    expect(w is not None and w >= params["prime_floor"] and w not in used, "witness prime missing, below the floor or used")
    count = sum(1 for q in current if q % w == 0)
    expect(count == cert["divisible_count"], f"witness divides {count} survivors, certificate says {cert['divisible_count']}")
    expect(count * params["ratio_denominator"] >= len(current), "witness prime divides too few survivors")


def check_manifest(path, outputs: list) -> None:
    """The sidecar's output digests are the sha256 of the files written."""
    with open(f"{path}.manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    expect(set(manifest["outputs"]) == {str(p) for p in outputs}, f"manifest of {path} lists {sorted(manifest['outputs'])}")
    for p in outputs:
        check_digest(manifest["outputs"][str(p)], p)
