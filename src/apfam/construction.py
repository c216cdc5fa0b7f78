"""Explicit large disjoint families built from one anchor prime.

Fix the largest prime p below the scale L(c, x) and take every modulus
q = p * m <= x whose remaining prime-power factors all lie strictly below p.
Residues are assigned through a CRT chain over the prime powers of q sorted
ascending: q's progression is pinned to value v at its largest non-anchor
prime power, where v is the next prime power down, and to 0 at its smallest.
Any two moduli then disagree at the largest prime-power level they share, so
the family is pairwise disjoint by the gcd criterion.
"""

import math
from array import array
from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .family import INT64_MAX, Family, Progression, _sorted_columns
from .numtheory import _smooth_count, crt_pair, factorize, l_scale, sieve_primes

DEFAULT_C = 1 / math.sqrt(2)
MODULI_LIMIT = 2_000_000


@dataclass(frozen=True)
class ConstructionParams:
    x: int
    c: float = DEFAULT_C
    squarefree_only: bool = False

    def __post_init__(self):
        if self.x < 16:
            raise DomainError(f"construction needs x >= 16, got {self.x}")
        if l_scale(self.c, self.x) < 2:
            raise DomainError(
                f"L({self.c}, {self.x}) < 2 leaves no prime to anchor on"
            )


def choose_prime(params: ConstructionParams) -> int:
    """Largest prime <= L(c, x)."""
    bound = int(math.floor(l_scale(params.c, params.x)))
    return sieve_primes(bound)[-1]


def _walk(params: ConstructionParams, p: int) -> tuple[array | list, array | list]:
    """Every member q = p*m <= x, unsorted, and its residue, as two columns:
    array('q') when x fits in int64, else lists of Python ints.

    m multiplies prime powers below p (primes only when squarefree_only) in
    ascending value: each step takes a power after the last one taken whose
    prime m lacks.  m's prime powers sorted by value are one increasing
    sequence, so every m is reached exactly once, and the list being sorted
    lets the step stop at the first power that overshoots x // p.

    The step's power is thus the largest of m's so far, the top of its
    chain, and the chain's CRT is carried down with m: res is the residue
    mod m pinned to 0 at the smallest power and at each power to the next
    one down; t starts at 0, which pins the first power to 0 and the bare
    anchor p to residue 0.  Taking c above the top t gives res' = res
    (mod m) and res' = t (mod c), and the member's residue is res (mod m)
    and t (mod p).  Each is one step res + m*((t - res) * inv(m) mod n)
    with n = c or p, which is coprime to m; inv(m) mod p is carried as a
    product of the powers' inverses.

    Refused up front when the member count capped at MODULI_LIMIT passes it.
    """
    if _member_count(params.x, p, params.squarefree_only, MODULI_LIMIT) > MODULI_LIMIT:
        raise CapacityError(f"more than {MODULI_LIMIT} moduli at x={params.x}")
    moduli, residues = (array("q"), array("q")) if params.x <= INT64_MAX else ([], [])
    bound = params.x // p
    if bound < 1:
        return moduli, residues
    table = []  # (value, prime, value's inverse mod p)
    for r in sieve_primes(p)[:-1]:  # the primes below the prime p
        c = r
        while c < p:
            table.append((c, r, pow(c, -1, p)))
            if params.squarefree_only:
                break
            c *= r
    table.sort()
    n = len(table)
    append_q = moduli.append
    append_a = residues.append

    def rec(i, m, res, top, inv):
        append_q(p * m)
        append_a(res + m * ((top - res) * inv % p))
        for j in range(i, n):
            c, r, c_inv = table[j]
            mc = m * c
            if mc > bound:
                break
            if m % r:
                step = res + m * ((top - res) * pow(m, -1, c) % c)
                rec(j + 1, mc, step, c, inv * c_inv % p)

    rec(0, 1, 0, 0, 1)
    del rec  # rec's closure holds rec: without this the cycle keeps the columns to the next collection
    return moduli, residues


def _member_count(x: int, p: int, squarefree: bool = False, limit: float = math.inf) -> int:
    """The size of the construction at x anchored on the prime p, counted
    without walking: p times each m <= x // p, m = 1 included, whose prime
    powers (primes, when squarefree) all lie below p.  Exact up to limit,
    and past it some value above limit, in about limit steps."""
    top = 1 if squarefree else p - 1
    return _smooth_count(x // p, p - 1, top, limit) if 2 < p <= x else int(p <= x)


def _chain_residue(chain: list[int], p: int) -> int:
    """Residue mod p*prod(chain) for the prime powers chain, ascending and
    all below p: pinned at each chain[j] to the next value down, at p to
    chain[-1], and at chain[0] to 0."""
    if not chain:
        return 0
    a, m = chain[-1] % p, p
    for j in range(len(chain) - 1, 0, -1):
        a, m = crt_pair(a, m, chain[j - 1], chain[j])
    return crt_pair(a, m, 0, chain[0])[0]


def assign_residue(q: int, p: int) -> Progression:
    """Residue for modulus q via the prime-power chain read from the top down.

    Requires q = p * m with p prime and every prime-power factor of m
    strictly below p, so p**1 is the largest part of q's factorization.
    """
    pows = factorize(q).prime_powers()
    if pows[-1] != p:
        raise DomainError(
            f"{q} does not split as p times prime powers below p for p={p}"
        )
    return Progression(_chain_residue(pows[:-1], p), q)


@dataclass(frozen=True)
class ConstructionResult:
    family: Family
    p: int
    predicted_size: float

    @property
    def size(self) -> int:
        return self.family.size

    def summary(self) -> dict:
        return {
            "x": self.family.x_bound,
            "p": self.p,
            "t": self.size,
            "predicted_t": self.predicted_size,
        }


def build_construction(params: ConstructionParams) -> ConstructionResult:
    """The full family at x: pairwise disjoint with distinct moduli <= x."""
    p = choose_prime(params)
    family = Family.from_columns(*_sorted_columns(*_walk(params, p)), params.x)
    predicted = params.x / (p * l_scale(1 / (2 * params.c), params.x))
    return ConstructionResult(family=family, p=p, predicted_size=predicted)


def truncated_construction(k: int) -> Family:
    """A disjoint family of exactly k members, for benchmarking verify.

    Builds the construction at the first x on the ladder whose member count
    is at least k, and keeps the k smallest.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    for x in (10**6, 10**7, 10**8, 10**9):
        params = ConstructionParams(x=x)
        if _member_count(x, choose_prime(params), limit=k) >= k:
            family = build_construction(params).family
            # copies, so the cut does not keep the whole construction alive
            return Family.from_columns(family.q[:k].copy(), family.a[:k].copy(), x)
    raise CapacityError(f"no supported x yields {k} moduli")
