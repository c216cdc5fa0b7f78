"""Deterministic integer utilities: primes, factorization, CRT, counts.

Everything here is pure and exact: on Python integers of any size, and in
factor_table on int64 arrays, which hold every integer up to FACTOR_LIMIT.
psi, psi_star, omega_tail_count and the construction's member count all
run one recursion over products of primes, _count_below; omega_tail_count
counts the primes above isqrt(x) from a table of pi(x // n), _prime_counter.
The sieves, trial division and uncapped counts raise CapacityError past
their size limits; a count capped at n stops once it passes n.
"""

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError

SIEVE_LIMIT = 50_000_000
FACTOR_LIMIT = 10**12
# psi and psi_star at L(1, x) take about 20 s at 10**11 on a 2-core box, and
# 5-6 times longer per decade of x; omega_tail_count shares the limit.  A
# count capped below it needs no such limit: it stops once it passes the cap
PSI_LIMIT = 10**11
# entries in one product matrix of factor_table: members times primes
_TABLE_BLOCK = 1 << 13


def _sieve(limit: int) -> list[int]:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


@lru_cache(maxsize=16)
def _prime_tuple(limit: int) -> tuple[int, ...]:
    # cached, for internal callers whose limits are bounded; sieve_primes is
    # not, so a large public limit leaves no list behind
    return tuple(_sieve(limit))


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds {SIEVE_LIMIT}")
    return _sieve(limit)


def _primes_for(bound: int) -> tuple[int, ...]:
    # Round the sieve size up a power ladder so the cache stays small.
    limit = 1024
    while limit < bound:
        limit *= 4
    return _prime_tuple(limit)


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition with parts ascending by the value p**e."""

    n: int
    parts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        product = 1
        values = []
        seen = set()
        for p, e in self.parts:
            if p < 2 or e < 1:
                raise DomainError(f"bad factorization part ({p}, {e})")
            if p in seen:
                raise DomainError(f"repeated prime {p} in factorization")
            seen.add(p)
            product *= p**e
            values.append(p**e)
        if product != self.n:
            raise DomainError(f"parts {self.parts} do not multiply to {self.n}")
        if values != sorted(values):
            raise DomainError("parts must ascend by prime-power value")

    def prime_powers(self) -> list[int]:
        return [p**e for p, e in self.parts]


def factorize(n: int) -> Factorization:
    """Full factorization by trial division; parts sorted by p**e ascending."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    if n > FACTOR_LIMIT:
        raise CapacityError(f"{n} exceeds trial-division limit {FACTOR_LIMIT}")
    m = n
    parts = []
    for p in _primes_for(math.isqrt(n)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts.append((p, e))
    if m > 1:
        parts.append((m, 1))
    parts.sort(key=lambda pe: pe[0] ** pe[1])
    return Factorization(n, tuple(parts))


class FactorTable(NamedTuple):
    """The factorizations of many moduli, as flat arrays.

    Hit k says that prime[k]**exponent[k] exactly divides the modulus at
    position index[k].  Hits run member by member, each member's ascending
    by prime, and a member's cofactor, 1 or a prime above all its hits,
    completes its factorization.  Hits are stored narrow (int32 index and
    prime, int8 exponent; every hit prime is at most isqrt(FACTOR_LIMIT)),
    cofactors as int64.
    """

    index: np.ndarray
    prime: np.ndarray
    exponent: np.ndarray
    cofactor: np.ndarray


def _inverses(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """inv = p**-1 mod 2**64 and lim = (2**64 - 1) // p for each odd prime
    p, as uint64 arrays.  For 0 <= n < 2**64, p divides n exactly when
    n * inv mod 2**64 <= lim, and that product is then n // p (Granlund and
    Montgomery, "Division by invariant integers using multiplication").
    Wrapping products are taken between arrays only: a uint64 scalar
    product that wraps warns."""
    p = primes.astype(np.uint64)
    # p * p == 1 mod 8, so inv = p holds 3 correct low bits, and each Newton
    # step x <- x * (2 - p * x) doubles them: 6, 12, 24, 48, 96
    inv = p.copy()
    for _ in range(5):
        inv *= 2 - p * inv
    return inv, np.iinfo(np.uint64).max // p


def _int_column(values) -> np.ndarray:
    """values as a 1-D array of exact integers: int64 when every value fits,
    else an object array of Python ints.  An int64 array is returned as it
    is.  Any other value is taken by operator.index, so a float, complex or
    string raises TypeError; a list's dtype is never inferred, as
    np.asarray([3, 2**63]) would make it float64."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    # an array's values as Python ints, a uint64 past int64 included
    values = list(map(operator.index, values.tolist() if isinstance(values, np.ndarray) else values))
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def factor_table(moduli: Sequence[int]) -> FactorTable:
    """Factor every modulus at once by trial division on int64 arrays.

    Takes the factor 2 from each modulus's lowest set bit, then walks the
    odd primes up to isqrt(max(moduli)) once, in blocks sized so that each
    product matrix holds about _TABLE_BLOCK entries, testing divisibility
    and dividing by multiplying with inverses mod 2**64 (_inverses).  It
    drops a member once its cofactor is below p*p for the next prime p,
    which is factorize's own stopping rule.  Every member's factorization
    equals factorize's, and the first modulus in order that factorize
    rejects raises the same error here.
    """
    rest = _int_column(moduli)
    # an object column holds a modulus past int64
    if rest.dtype != np.int64 or rest.size and not 1 <= rest.min() <= rest.max() <= FACTOR_LIMIT:
        factorize(next(n for n in rest.tolist() if not 1 <= n <= FACTOR_LIMIT))
    top = math.isqrt(int(rest.max())) if rest.size else 1
    sieved = _primes_for(top)
    primes = np.array(sieved[1 : bisect_right(sieved, top)], dtype=np.int64)
    inv, lim = _inverses(primes)
    # each hit is one key (_hit_key); hit primes are at most
    # isqrt(FACTOR_LIMIT) < 2**20.  tags holds each prime's part of a key,
    # with exponent 1, which a key's low bits count
    tags = _hit_tag(primes, 1)
    # 2 from the lowest set bit, exact as a double, in every member of at
    # least 2 * 2
    twos = np.frexp(rest & -rest)[1].astype(np.int64) - 1
    twos[rest < 4] = 0
    rest = rest >> twos  # a new array: the moduli are left as they are
    even = np.flatnonzero(twos)
    keys = [_hit_key(even, _hit_tag(2, twos[even]))]
    active, values = np.arange(rest.size), rest.copy()  # values: the active cofactors
    start = 0
    while start < primes.size:
        keep = values >= primes[start] ** 2
        active, values = active[keep], values[keep]
        if not active.size:
            break
        stop = min(primes.size, start + max(1, _TABLE_BLOCK // active.size))
        quotient = values.view(np.uint64)[:, None] * inv[start:stop]
        hits = np.flatnonzero(quotient <= lim[start:stop])
        row, col = np.divmod(hits, stop - start)
        col += start
        start = stop
        if not hits.size:
            continue
        left = quotient.ravel()[hits]
        prime, prime_inv, prime_lim, key = primes[col], inv[col], lim[col], tags[col]
        power = prime
        while True:
            nxt = left * prime_inv
            more = nxt <= prime_lim
            if not more.any():
                break
            left = np.where(more, nxt, left)
            power = np.where(more, power * prime, power)
            key += more
        member = active[row]
        # a member can hit several primes of one block: divide them out in turn
        np.floor_divide.at(values, row, power)
        rest[member] = values[row]
        keys.append(_hit_key(member, key))
    return _from_keys(keys, rest)


def _hit_tag(prime, exponent):
    """A hit's key without its member: prime << 6 | exponent."""
    return prime << 6 | exponent


def _hit_key(member, tag):
    """A factor table's hit as one int64 key, member << 26 | tag.  Hit
    primes are below 2**20 and exponents below 2**6, so sorting the keys
    orders the hits member by member, each member's by prime."""
    return member << 26 | tag


def _from_keys(keys: list[np.ndarray], cofactor: np.ndarray) -> FactorTable:
    """The table of hits given as keys (_hit_key), in blocks in any order,
    and the members' cofactors.  The blocks are let go of, keys left empty,
    before the keys are sorted."""
    merged = np.concatenate(keys)
    keys.clear()
    merged.sort()
    return FactorTable(
        (merged >> 26).astype(np.int32),
        (merged >> 6 & (1 << 20) - 1).astype(np.int32),
        (merged & (1 << 6) - 1).astype(np.int8),
        cofactor,
    )


def crt_pair(a1: int, m1: int, a2: int, m2: int) -> tuple[int, int] | None:
    """Merge two residue constraints, or None when they are incompatible.

    Returns the unique (a, lcm(m1, m2)) with a == a1 (mod m1) and
    a == a2 (mod m2); such a exists iff a1 == a2 (mod gcd(m1, m2)).
    """
    if m1 < 1 or m2 < 1:
        raise DomainError(f"moduli must be positive, got {m1}, {m2}")
    a1 %= m1
    a2 %= m2
    g = math.gcd(m1, m2)
    if (a2 - a1) % g:
        return None
    lcm = m1 // g * m2
    m2g = m2 // g
    t = ((a2 - a1) // g * pow(m1 // g, -1, m2g)) % m2g
    return (a1 + m1 * t) % lcm, lcm


def l_scale(c: float, x: float) -> float:
    """exp(c * sqrt(log x * log log x)) for x >= 16 and finite c > 0.

    Raises CapacityError when the value lies past float range.
    """
    if not 0 < c < math.inf:
        raise DomainError(f"scale coefficient must be positive and finite, got {c}")
    if not x >= 16:
        raise DomainError(f"scale needs x >= 16, got {x}")
    lx = math.log(x)
    try:
        value = math.exp(c * math.sqrt(lx * math.log(lx)))
    except OverflowError:
        value = math.inf
    # exp raises past float range, but returns inf for an exponent already inf
    if value == math.inf:
        raise CapacityError(f"L({c}, {x}) exceeds the float range")
    return value


def omega_threshold(x: int, c: float) -> float:
    """The tail threshold c * sqrt(log x / log log x)."""
    lx = math.log(x)
    return c * math.sqrt(lx / math.log(lx))


def _count_below(
    x: int, primes: Sequence[int], i: int, top: float, k: int, pi: Callable[[int], int], limit: int
) -> int:
    # Counts products of at most k distinct primes of primes[i:], or of
    # primes above the list, that are <= x, the empty product included; a
    # prime's powers past the first count only while they are <= top.
    # pi(v) counts the primes <= v that may be used, those in primes first.
    # The count is exact while it is <= limit; past limit it returns some
    # total above limit, checked after each prime's subtree.  Each call adds
    # at least 1, so a count capped at limit takes about limit steps
    # whatever x is.
    if k == 0 or limit < 1:
        return 1
    total = 1
    for j in range(i, len(primes)):
        p = primes[j]
        # Once p**2 > x only single primes fit; none fits when x < p.
        if p * p > x:
            return total + (pi(x) - j if p <= x else 0)
        # Once p**3 > x, p's subtree is p, p**2 if top allows, and p*r
        # for primes r in (p, x // p] if two primes are allowed.
        if p * p * p > x:
            total += 1 + (p * p <= top)
            if k > 1:
                total += pi(x // p) - j - 1
            continue
        pa = p
        while pa <= x and (pa == p or pa <= top):
            total += _count_below(x // pa, primes, j + 1, top, k - 1, pi, limit - total)
            pa *= p
        if total > limit:
            return total
    # single primes above the list, each above every prime listed
    return total + max(0, pi(x) - len(primes))


def _product_count(y: float, top: float) -> int:
    # the number of n, of any size, whose primes are <= y and whose prime
    # powers past the first are <= top: the product over primes p <= y of
    # 1 + max(1, floor(log_p top)) exponents; once it passes PSI_LIMIT, some
    # value above it, so at most 37 primes are taken, all below 1024
    product = 1
    for p in _prime_tuple(1024):
        if p > y or product > PSI_LIMIT:
            break
        exponents = 1
        while p ** (exponents + 1) <= top:
            exponents += 1
        product *= 1 + exponents
    return product


def _smooth_count(x: int, y: float, top: float, limit: float = math.inf) -> int:
    # n <= x whose primes are <= y and whose prime powers past the first are
    # <= top, or past limit some value above it
    if x < 1:
        raise DomainError(f"count needs x >= 1, got {x}")
    # no count of n <= x passes x, nor, when top < x, the number of such n
    # of any size, and the count's work follows the count
    limit = min(x, limit, _product_count(y, top) if top < x else x)
    if limit > PSI_LIMIT:
        raise CapacityError(f"smooth count at x={x} exceeds {PSI_LIMIT}")
    if not y >= 2:
        raise DomainError(f"smoothness bound must be >= 2, got {y}")
    # a prime above x divides no n <= x
    primes = sieve_primes(math.floor(min(y, x))) if x > 1 else []
    return _count_below(x, primes, 0, top, len(primes), partial(bisect_right, primes), limit)


def psi(x: int, y: float) -> int:
    """Count of n <= x whose prime factors are all <= y."""
    return _smooth_count(x, y, x)


def psi_star(x: int, y: float) -> int:
    """Count of n <= x whose prime-power factors p**a (a maximal) are all <= y."""
    return _smooth_count(x, y, y)


def _prime_counter(x: int, primes: tuple[int, ...]) -> Callable[[int], int]:
    """pi(v), the count of primes <= v, for every v of the form x // n, from
    primes, the primes <= isqrt(x).

    Lucy_Hedgehog's sieve: S(v) starts at v - 1, and each prime p in turn
    removes the numbers whose least prime factor is p, S(v) -= S(v // p) -
    S(p - 1) for every v >= p * p.  Only the values x // n are kept, small[v]
    for v <= isqrt(x) and large[i] for v = x // i above it, so the table
    holds O(sqrt(x)) numbers and builds in O(x**(3/4)) steps.  v // p is
    again of that form, as (x // a) // b == x // (a * b).
    """
    r = math.isqrt(x)
    index = np.arange(r + 1, dtype=np.int64)
    small = index - 1
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = x // index[1:] - 1
    # S(p - 1) is before, the count of the primes below p
    for before, p in enumerate(primes):
        # large[i] for i <= x // p**2, through large[i * p] while i * p <= r
        top = min(r, x // (p * p))
        near = min(top, r // p)
        large[1 : near + 1] -= large[p : near * p + 1 : p] - before
        large[near + 1 : top + 1] -= small[x // p // index[near + 1 : top + 1]] - before
        # small[v] for v >= p**2, where v // p runs p, p, ... (p times each)
        if p * p <= r:
            small[p * p :] -= np.repeat(small[p : r // p + 1] - before, p)[: r - p * p + 1]
    small, large = small.tolist(), large.tolist()
    return lambda v: small[v] if v <= r else large[x // v]


def omega_tail_count(x: int, c: float) -> int:
    """Count of n <= x with more than c * sqrt(log x / log log x) distinct
    prime factors: x minus the n <= x with at most floor(threshold).

    The recursion walks the primes <= isqrt(x) and counts the larger ones
    from a table of pi(x // n), so it needs O(sqrt(x)) memory.  Returns 0
    for x <= 2, where the threshold scale is undefined and no integer has
    more than one prime factor anyway.
    """
    if x < 1:
        raise DomainError(f"count needs x >= 1, got {x}")
    if not c > 0:
        raise DomainError(f"threshold coefficient must be positive, got {c}")
    if x <= 2:
        return 0
    if x > PSI_LIMIT:
        raise CapacityError(f"omega tail count at x={x} exceeds {PSI_LIMIT}")
    # no n <= x has x.bit_length() distinct primes, and the clamp keeps an
    # infinite threshold out of floor
    k = math.floor(min(omega_threshold(x, c), x.bit_length()))
    primes = _prime_tuple(math.isqrt(x))
    return x - _count_below(x, primes, 0, x, k, _prime_counter(x, primes), x)
