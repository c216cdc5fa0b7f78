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
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CapacityError, DomainError
from .family import INT64_MAX, Family, Progression, _Factors, _share_factors
from .numtheory import (
    FACTOR_LIMIT,
    FactorTable,
    _from_keys,
    _hit_key,
    _hit_tag,
    _smooth_count,
    crt_pair,
    factorize,
    l_scale,
    sieve_primes,
)

DEFAULT_C = 1 / math.sqrt(2)
MODULI_LIMIT = 2_000_000


@dataclass(frozen=True)
class ConstructionParams:
    x: int
    c: float = DEFAULT_C
    squarefree_only: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", operator.index(self.x))
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


def _walk(params: ConstructionParams, p: int) -> tuple[np.ndarray, ...]:
    """Every member q = p*m <= x, unsorted, and its residue, as two columns:
    int64 when x fits in int64, else object arrays of Python ints; then the
    tree the walk made them in, for _tree_table: each member's parent and
    step, in walk order, and each step's key part, tags.

    m multiplies prime powers below p (primes only when squarefree_only).
    One pass takes the powers c in ascending value, and at each extends at
    once every m made so far that c's prime does not divide and for which
    m*c <= x // p.  m's prime powers sorted by value are one increasing
    sequence, and m is made at the step of the largest, from the m without
    it, made at an earlier step; so every m is reached exactly once.  Only
    an m with m*c <= x // p can grow at step c or later: the active set
    loses the others and gains only the m just made.  At a prime c no m
    made so far has c as a factor, since each is a product of smaller
    powers.  The tree records, for each m, the m it extended (its parent)
    and the index of the step that did, in narrow columns.

    Each m carries res, its residue mod m pinned to 0 at its smallest
    power and at each power to the next one down, and top, its largest
    power (0 for m = 1).  Extending m by c takes res' = res (mod m) and
    res' = top (mod c), which is res + m*((top - res) * inv_c(m) mod c),
    with inv_c(m) the inverse of m mod c.  The member's residue is res
    (mod m) and top (mod p): the same step with p for c.  This is the
    chain _chain_residue takes from the top down, built from the bottom
    up.  Every value met is at most x, or below p*p for a product of two
    residues mod c or p, and p < SIEVE_LIMIT, so the int64 columns are
    exact whenever x fits in int64.

    The columns are allocated at the member count, which refuses up front
    when it passes MODULI_LIMIT.
    """
    size = _member_count(params.x, p, params.squarefree_only, MODULI_LIMIT)
    if size > MODULI_LIMIT:
        raise CapacityError(f"more than {MODULI_LIMIT} moduli at x={params.x}")
    bound = params.x // p
    table = []  # (prime power, its prime, its exponent), each power at most bound
    for r in sieve_primes(p)[:-1]:  # the primes below the prime p
        c, e = r, 1
        while c < p and c <= bound:
            table.append((c, r, e))
            if params.squarefree_only:
                break
            c, e = c * r, e + 1
    table.sort()
    dtype = np.int64 if params.x <= INT64_MAX else object
    m, res, top = (np.zeros(size, dtype) for _ in range(3))
    # the tree: m = 1, at position 0, is its own parent, and has no step
    parent, step = np.zeros(size, np.int32), np.zeros(size, np.min_scalar_type(len(table)))
    tags = np.array([_hit_tag(r, e) for _, r, e in table], np.int64)
    if not size:
        return m, res, parent, step, tags
    m[0] = filled = 1
    active = np.zeros(1, np.intp)  # the m that may still grow
    for k, (c, r, _) in enumerate(table):
        values = m[active]
        keep = values <= bound // c
        active, values = active[keep], values[keep]
        parents = active
        if c != r:
            grow = values % r != 0
            parents, values = active[grow], values[grow]
        new = slice(filled, filled + parents.size)
        base = res[parents]
        lift = top[parents] - base
        lift *= _inverse(values, c, r)
        lift %= c
        lift *= values
        lift += base
        res[new] = lift
        values *= c
        m[new] = values
        top[new] = c
        parent[new] = parents
        step[new] = k
        active = np.concatenate((active, np.arange(new.start, new.stop)))
        filled = new.stop
    m, res, top, parent, step = (column[:filled] for column in (m, res, top, parent, step))
    top -= res
    top *= _inverse(m, p, p)
    top %= p
    top *= m
    top += res
    m *= p
    return m, top, parent, step, tags


def _tree_table(parent: np.ndarray, step: np.ndarray, tags: np.ndarray, p: int) -> FactorTable:
    """The construction's factor table, from the walk's tree in modulus
    order: the member at position i > 0 is the one at parent[i] times the
    prime power of step[i], whose key part (_hit_tag) is tags[step[i]];
    position 0 is p itself.  Each member's hits are the steps from it up to
    p, collected one depth level per pass, and its cofactor is p, above
    every prime of the steps: one value, held as a read-only broadcast."""
    keys = [np.zeros(0, np.int64)]  # none at all when p is alone
    member = cur = np.arange(1, parent.size)
    while member.size:
        keys.append(_hit_key(member, tags[step[cur]]))
        cur = parent[cur]
        live = cur != 0
        member, cur = member[live], cur[live]
    return _from_keys(keys, np.broadcast_to(np.int64(p), parent.size))


def _inverse(values: np.ndarray, c: int, r: int) -> np.ndarray:
    """The inverses mod c of values coprime to c, the power c of the prime
    r, in values' dtype: k**(phi(c) - 1) mod c by square-and-multiply, over
    every residue k mod c when c is below the number of values, else over
    the values mod c.  Every product is below c*c < SIEVE_LIMIT**2."""
    residues = (values % c).astype(np.int64, copy=False)
    table = c < values.size
    power = np.arange(c, dtype=np.int64) if table else residues
    out = np.ones_like(power)
    e = c - c // r - 1
    while e:
        if e & 1:
            out *= power
            out %= c
        e >>= 1
        if e:
            power *= power
            power %= c
    return (out[residues] if table else out).astype(values.dtype, copy=False)


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
    """The full family at x: pairwise disjoint with distinct moduli <= x.

    Where factor_table would take its moduli, the family's factor table is
    supplied from the walk's tree, kept in modulus order until first use.
    """
    p = choose_prime(params)
    q, a, parent, step, tags = _walk(params, p)
    order = np.argsort(q)
    if params.x <= FACTOR_LIMIT:
        # the tree in modulus order, where p, the root, stays first
        rank = np.empty(order.size, np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        factors = _Factors(partial(_tree_table, rank[parent[order]], step[order], tags, p))
        del rank, parent, step  # before the sorted columns are made: a lower peak
    else:
        factors = _Factors()
    family = _share_factors(Family.from_columns(q[order], a[order], params.x), factors)
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
