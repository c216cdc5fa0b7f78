"""Slow, plainly written references for the fast paths in apfam.

Each one is written from its definition, with no pruning, limits or
shared code from the library, so that a test comparing the two checks the
library against something independent of it.
"""

import math
from fractions import Fraction

import numpy as np
import sympy


def brute_force_oracle(x):
    """F(x): the most members of a disjoint family with distinct moduli in
    [2, x], by trying every residue of every modulus in ascending order."""
    best = 0
    chosen = []

    def rec(q):
        nonlocal best
        best = max(best, len(chosen))
        if q > x:
            return
        for a in range(q):
            if all((a - ai) % math.gcd(q, qi) for qi, ai in chosen):
                chosen.append((q, a))
                rec(q + 1)
                chosen.pop()
        rec(q + 1)

    rec(2)
    return best


def enumerate_smooth(x, y, power_cap=False):
    """Ascending n <= x whose prime factors p are all <= y, or with
    power_cap, whose prime-power factors p**a (a maximal) are all <= y."""
    primes = list(sympy.primerange(2, math.floor(y) + 1))
    out = []

    def rec(i, m):
        # m times every product of primes[i:] that stays <= x
        out.append(m)
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


def split_squarefull(n):
    """(alpha, beta) with n = alpha * beta: alpha the product of the p**e
    exactly dividing n with e >= 2, beta the product of the other primes."""
    alpha = math.prod(p**e for p, e in sympy.factorint(n).items() if e >= 2)
    return alpha, n // alpha


def first_meeting_pair(items):
    """The first (i, j), i < j, in row order whose progressions share an
    element, or None; items is a sequence of Progressions."""
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            p, q = items[i], items[j]
            if (p.residue - q.residue) % math.gcd(p.modulus, q.modulus) == 0:
                return i, j
    return None


def density(family):
    """The exact sum of the reciprocals of the moduli."""
    return sum((Fraction(1, q) for q in family.moduli()), Fraction(0))


def distinct_prime_counts(x):
    """omega[n], the number of distinct primes dividing n, for 0 <= n <= x:
    for each prime p <= x, 1 is added at every multiple of p.  A p >= 2 that
    no smaller prime has marked is prime."""
    omega = [0] * (x + 1)
    for p in range(2, x + 1):
        if omega[p] == 0:
            for n in range(p, x + 1, p):
                omega[n] += 1
    return omega


def distinct_prime_counts_between(lo, hi):
    """omega[n - lo] for 1 <= lo <= n < hi, as an array: each prime
    p <= isqrt(hi - 1) adds 1 at its multiples, and n has one more prime,
    above them all, when the powers of those primes dividing n do not
    multiply to n."""
    n = np.arange(lo, hi, dtype=np.int64)
    omega = np.zeros(hi - lo, dtype=np.int64)
    found = np.ones(hi - lo, dtype=np.int64)
    for p in sympy.primerange(2, math.isqrt(hi - 1) + 1):
        omega[-lo % p :: p] += 1
        pa = p
        while pa < hi:
            found[-lo % pa :: pa] *= p
            pa *= p
    return omega + (found != n)


def omega_tail_by_blocks(x, c, block=10**6):
    """The n <= x with more than c * sqrt(log x / log log x) distinct prime
    factors, counted block by block of distinct_prime_counts_between."""
    threshold = c * math.sqrt(math.log(x) / math.log(math.log(x)))
    return sum(
        int(np.count_nonzero(distinct_prime_counts_between(lo, min(lo + block, x + 1)) > threshold))
        for lo in range(1, x + 1, block)
    )


def factorizations(table):
    """Every (member, prime, exponent) of a FactorTable, hits and cofactors
    alike, ordered by member and prime: two tables of the same moduli may
    split a member's primes between hits and cofactor differently."""
    big = np.flatnonzero(table.cofactor > 1)
    member = np.concatenate((table.index, big))
    prime = np.concatenate((table.prime, table.cofactor[big]))
    exponent = np.concatenate((table.exponent, np.ones(big.size, np.int8)))
    order = np.lexsort((prime, member))
    return list(zip(member[order].tolist(), prime[order].tolist(), exponent[order].tolist()))
