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
from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .family import Family, Progression
from .numtheory import crt_pair, factorize, l_scale, sieve_primes

DEFAULT_C = 1 / math.sqrt(2)
MODULI_LIMIT = 2_000_000


@dataclass(frozen=True)
class ConstructionParams:
    x: int
    c: float = DEFAULT_C
    squarefree_only: bool = False
    include_p_itself: bool = True

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


def _walk(params: ConstructionParams, p: int, visit) -> None:
    """Call visit(q, powers) for every member q = p*m <= x, unsorted.

    powers is the recursion's stack of m's prime powers, all below p, in the
    order they were multiplied in; visit must copy what it keeps.
    """
    bound = params.x // p
    if bound < 1:
        return
    small = [r for r in sieve_primes(max(2, p)) if r < p]
    powers = []
    count = 0

    def rec(i, m):
        nonlocal count
        if m > 1 or params.include_p_itself:
            visit(p * m, powers)
        count += 1
        if count > MODULI_LIMIT:
            raise CapacityError(f"more than {MODULI_LIMIT} moduli at x={params.x}")
        for j in range(i, len(small)):
            r = small[j]
            if m * r > bound:
                break
            ra = r
            while ra < p and m * ra <= bound:
                powers.append(ra)
                rec(j + 1, m * ra)
                powers.pop()
                if params.squarefree_only:
                    break
                ra *= r

    rec(0, 1)


def enumerate_moduli(params: ConstructionParams, p: int) -> list[int]:
    """Ascending q = p*m <= x with every prime-power factor of m below p."""
    moduli = []
    _walk(params, p, lambda q, powers: moduli.append(q))
    return sorted(moduli)


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
    items = []

    def add(q, powers):
        items.append(Progression(_chain_residue(sorted(powers), p), q))

    _walk(params, p, add)
    family = Family.build(items, params.x)
    predicted = params.x / (p * l_scale(1 / (2 * params.c), params.x))
    return ConstructionResult(family=family, p=p, predicted_size=predicted)


def truncated_construction(k: int, c: float = DEFAULT_C) -> Family:
    """A disjoint family of exactly k members, for benchmarking verify.

    Grows x until the construction has at least k moduli and keeps the k
    smallest.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    for x in (10**6, 10**7, 10**8, 10**9):
        params = ConstructionParams(x=x, c=c)
        p = choose_prime(params)
        members = []
        _walk(params, p, lambda q, powers: members.append((q, tuple(powers))))
        if len(members) >= k:
            members.sort()
            items = [
                Progression(_chain_residue(sorted(powers), p), q)
                for q, powers in members[:k]
            ]
            return Family.build(items, x)
    raise CapacityError(f"no supported x yields {k} moduli")
