"""Deterministic integer utilities: primes, factorization, CRT, smooth counts.

Everything here is pure and exact: on Python integers of any size, and in
factor_table on int64 arrays, which hold every integer up to FACTOR_LIMIT.
The sieves, trial division and enumerations raise CapacityError past their
size limits instead of running without bound.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError

SIEVE_LIMIT = 50_000_000
FACTOR_LIMIT = 10**12
ENUM_LIMIT = 5_000_000
# entries in one remainder matrix of factor_table: members times primes
_TABLE_BLOCK = 1 << 13


@lru_cache(maxsize=16)
def _prime_tuple(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds {SIEVE_LIMIT}")
    return list(_prime_tuple(limit))


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

    def primes(self) -> list[int]:
        return sorted(p for p, _ in self.parts)


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


def factor_table(moduli: Sequence[int]) -> FactorTable:
    """Factor every modulus at once by trial division on int64 arrays.

    Walks the primes up to isqrt(max(moduli)) once, in blocks sized so that
    each remainder matrix holds about _TABLE_BLOCK entries, and drops a
    member once its cofactor is below p*p for the next prime p, which is
    factorize's own stopping rule.  Every member's factorization equals
    factorize's, and the first modulus in order that factorize rejects
    raises the same error here.
    """
    if moduli and not 1 <= min(moduli) <= max(moduli) <= FACTOR_LIMIT:
        factorize(next(n for n in moduli if not 1 <= n <= FACTOR_LIMIT))
    rest = np.array(moduli, dtype=np.int64)
    top = math.isqrt(int(rest.max())) if rest.size else 1
    sieved = _primes_for(top)
    primes = np.array(sieved[: bisect_right(sieved, top)], dtype=np.int64)
    indices, hit_primes = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)]
    exponents = [np.zeros(0, np.int8)]
    active = np.arange(rest.size)
    start = 0
    while start < primes.size:
        active = active[rest[active] >= primes[start] ** 2]
        if not active.size:
            break
        block = primes[start : start + max(1, _TABLE_BLOCK // active.size)]
        start += block.size
        values = rest[active]
        row, col = np.nonzero(values[:, None] % block == 0)
        if not row.size:
            continue
        prime = block[col]
        left = values[row] // prime
        exponent = np.ones_like(prime)
        more = left % prime == 0
        while more.any():
            left = np.where(more, left // prime, left)
            exponent += more
            more = left % prime == 0
        # a member can hit several primes of one block: divide them out in turn
        np.floor_divide.at(rest, active[row], prime**exponent)
        indices.append(active[row].astype(np.int32))
        hit_primes.append(prime.astype(np.int32))
        exponents.append(exponent.astype(np.int8))
    index = np.concatenate(indices)
    # blocks ascend by prime, so a stable sort by member keeps each member's
    # hits ascending
    order = np.argsort(index, kind="stable")
    return FactorTable(
        index[order], np.concatenate(hit_primes)[order], np.concatenate(exponents)[order], rest
    )


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    if n < 1:
        raise DomainError(f"omega undefined for {n}")
    return len(factorize(n).parts)


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
        return math.exp(c * math.sqrt(lx * math.log(lx)))
    except OverflowError as exc:
        raise CapacityError(f"L({c}, {x}) exceeds the float range") from exc


def _bound_primes(y: float) -> tuple[int, ...]:
    top = int(math.floor(y))
    if top < 2:
        raise DomainError(f"smoothness bound must be >= 2, got {y}")
    if top > SIEVE_LIMIT:
        raise CapacityError(f"smoothness bound {y} exceeds {SIEVE_LIMIT}")
    return _prime_tuple(top)


def _count_below(x: int, primes: tuple[int, ...], i: int, y: float, power_cap: bool) -> int:
    # Counts products of primes[i:] that are <= x, the empty product included.
    total = 1
    for j in range(i, len(primes)):
        p = primes[j]
        # Once p**2 > x only single primes fit, and each is <= y, so within the cap.
        if p * p > x:
            return total + bisect_right(primes, x, j) - j
        # Once p**3 > x, p's subtree is p, p*r for primes r in (p, x // p],
        # and p**2 if the cap allows.
        if p * p * p > x:
            total += bisect_right(primes, x // p, j + 1) - j + (not power_cap or p * p <= y)
            continue
        pa = p
        while pa <= x and (not power_cap or pa <= y):
            total += _count_below(x // pa, primes, j + 1, y, power_cap)
            pa *= p
    return total


def psi(x: int, y: float) -> int:
    """Count of n <= x whose prime factors are all <= y."""
    if x < 1:
        raise DomainError(f"count needs x >= 1, got {x}")
    return _count_below(x, _bound_primes(y), 0, y, power_cap=False)


def psi_star(x: int, y: float) -> int:
    """Count of n <= x whose prime-power factors p**a (a maximal) are all <= y."""
    if x < 1:
        raise DomainError(f"count needs x >= 1, got {x}")
    return _count_below(x, _bound_primes(y), 0, y, power_cap=True)


def enumerate_smooth(x: int, y: float, mode: str = "smooth") -> list[int]:
    """Ascending list of n <= x that are y-smooth or y-powersmooth."""
    if x < 1:
        raise DomainError(f"enumeration needs x >= 1, got {x}")
    if mode not in ("smooth", "powersmooth"):
        raise DomainError(f"unknown mode {mode!r}")
    power_cap = mode == "powersmooth"
    primes = _bound_primes(y)
    out = []

    def rec(i, m):
        out.append(m)
        if len(out) > ENUM_LIMIT:
            raise CapacityError(f"more than {ENUM_LIMIT} values to enumerate")
        for j in range(i, len(primes)):
            p = primes[j]
            if m * p > x:
                break
            pa = p
            while m * pa <= x and (not power_cap or pa <= y):
                rec(j + 1, m * pa)
                pa *= p

    rec(0, 1)
    return sorted(out)
