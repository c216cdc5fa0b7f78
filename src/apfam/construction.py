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
from .family import Family, Progression, _sorted_columns
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


def _walk(params: ConstructionParams, p: int, moduli: list, residues: list | None = None) -> None:
    """Append every member q = p*m <= x to moduli, unsorted, and its residue
    to residues.

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
    product of the powers' inverses.  Without residues the last step is
    skipped, so p need not be prime when only the moduli are wanted.
    """
    bound = params.x // p
    if bound < 1:
        return
    pinned = residues is not None
    table = []  # (value, prime, value's inverse mod p)
    for r in sieve_primes(max(2, p)):
        if r >= p:
            break
        c = r
        while c < p:
            table.append((c, r, pow(c, -1, p) if pinned else 0))
            if params.squarefree_only:
                break
            c *= r
    table.sort()
    n = len(table)
    include_p = params.include_p_itself
    append_q = moduli.append
    append_a = residues.append if pinned else None
    count = 0

    def rec(i, m, res, top, inv):
        nonlocal count
        if m > 1 or include_p:
            append_q(p * m)
            if pinned:
                append_a(res + m * ((top - res) * inv % p))
        count += 1
        if count > MODULI_LIMIT:
            raise CapacityError(f"more than {MODULI_LIMIT} moduli at x={params.x}")
        for j in range(i, n):
            c, r, c_inv = table[j]
            mc = m * c
            if mc > bound:
                break
            if m % r:
                step = res + m * ((top - res) * pow(m, -1, c) % c)
                rec(j + 1, mc, step, c, inv * c_inv % p)

    rec(0, 1, 0, 0, 1)


def enumerate_moduli(params: ConstructionParams, p: int) -> list[int]:
    """Ascending q = p*m <= x with every prime-power factor of m below p."""
    moduli = []
    _walk(params, p, moduli)
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
    moduli, residues = [], []
    _walk(params, p, moduli, residues)
    family = Family.from_columns(*_sorted_columns(moduli, residues), params.x)
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
        moduli, residues = [], []
        _walk(params, p, moduli, residues)
        if len(moduli) >= k:
            moduli, residues = _sorted_columns(moduli, residues)
            return Family.from_columns(moduli[:k], residues[:k], x)
    raise CapacityError(f"no supported x yields {k} moduli")
