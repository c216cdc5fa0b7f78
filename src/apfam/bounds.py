"""Counting bounds and the squarefull-part reduction.

omega_tail_count tallies integers with unusually many prime factors and
omega_tail_majorant dominates it with the tail of x * sum_j M**j / j!,
where M is the exact sum of reciprocals of prime powers up to x.  The
reduction splits each modulus n = alpha * beta into its squarefull and
squarefree parts and maps the largest equal-alpha, equal-residue-class
subfamily onto a squarefree-modulus family that inherits disjointness.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import ConstructionParams, build_construction
from .errors import CapacityError, DomainError
from .family import Family
from .numtheory import factor_table, factorize, l_scale, psi, psi_star, sieve_primes

OMEGA_TABLE_LIMIT = 50_000_000
MAJORANT_CUTOFF = 1e-30


def omega_threshold(x: int, c: float) -> float:
    """The tail threshold c * sqrt(log x / log log x)."""
    lx = math.log(x)
    return c * math.sqrt(lx / math.log(lx))


def omega_tail_count(x: int, c: float) -> int:
    """Count of n <= x with more than c * sqrt(log x / log log x) prime factors.

    Returns 0 for x <= 2, where the threshold scale is undefined and no
    integer has more than one prime factor anyway.
    """
    if x < 1:
        raise DomainError(f"count needs x >= 1, got {x}")
    if not c > 0:
        raise DomainError(f"threshold coefficient must be positive, got {c}")
    if x <= 2:
        return 0
    if x > OMEGA_TABLE_LIMIT:
        raise CapacityError(f"omega table for {x} exceeds {OMEGA_TABLE_LIMIT}")
    table = _distinct_prime_counts(x)
    return int(np.count_nonzero(table[1:] > omega_threshold(x, c)))


def _distinct_prime_counts(x: int) -> np.ndarray:
    """table[n] = number of distinct primes dividing n, for 0 <= n <= x."""
    table = np.zeros(x + 1, dtype=np.int8)
    primes = np.array(sieve_primes(x), dtype=np.int64)
    r = math.isqrt(x)
    # a slice per prime costs about a microsecond however few its multiples;
    # primes above x // r have fewer than r of them, so those are marked
    # instead by one gather per multiplier m <= r
    n_small = int(np.searchsorted(primes, x // r, side="right"))
    for p in primes[:n_small].tolist():
        table[p::p] += 1
    large = primes[n_small:]
    for m in range(1, r + 1):
        count = int(np.searchsorted(large, x // m, side="right"))
        if count == 0:
            break
        table[large[:count] * m] += 1
    return table


def prime_power_reciprocal_sum(x: int) -> float:
    """Exact-to-double sum of 1/p**a over prime powers p**a <= x."""
    if x < 2:
        raise DomainError(f"sum needs x >= 2, got {x}")
    total = 0.0
    for p in sieve_primes(x):
        pa = p
        while pa <= x:
            total += 1.0 / pa
            pa *= p
    return total


def omega_tail_majorant(x: int, c: float) -> float:
    """Upper bound for omega_tail_count: x times the Poisson-style tail sum.

    Sums x * M**j / j! over j above the threshold, truncating once a term
    drops below 1e-30 of the partial sum.
    """
    if x < 16:
        raise DomainError(f"majorant needs x >= 16, got {x}")
    if not c > 0:
        raise DomainError(f"threshold coefficient must be positive, got {c}")
    m = prime_power_reciprocal_sum(x)
    j = int(math.floor(omega_threshold(x, c))) + 1
    term = math.exp(j * math.log(m) - math.lgamma(j + 1))
    total = 0.0
    while term > 0.0:
        total += term
        j += 1
        term *= m / j
        if term < MAJORANT_CUTOFF * total:
            break
    return x * total


def split_squarefull(n: int) -> tuple[int, int]:
    """(alpha, beta) with n = alpha * beta, alpha squarefull, beta squarefree,
    gcd(alpha, beta) = 1; alpha collects every prime appearing squared."""
    fact = factorize(n)
    alpha = 1
    beta = 1
    for p, e in fact.parts:
        if e >= 2:
            alpha *= p**e
        else:
            beta *= p
    return alpha, beta


def _squarefull_parts(family: Family) -> np.ndarray:
    # split_squarefull(q)[0] for every modulus q, from one factor table
    table = factor_table(family.q)
    alpha = np.ones(family.size, dtype=np.int64)
    square = table.exponent > 1
    powers = table.prime[square].astype(np.int64) ** table.exponent[square]
    np.multiply.at(alpha, table.index[square], powers)
    return alpha


def _most_common(parts: np.ndarray) -> int:
    if parts.size == 0:
        return 1
    # unique sorts ascending and argmax takes the first maximum
    values, counts = np.unique(parts, return_counts=True)
    return int(values[np.argmax(counts)])


def choose_alpha(family: Family) -> int:
    """The squarefull part shared by the most members; ties pick the smallest."""
    return _most_common(_squarefull_parts(family))


def squarefull_reduce(family: Family, alpha: int) -> Family:
    """Squarefree-modulus family from the members with squarefull part alpha.

    Keeps the largest residue class mod alpha among those members (smallest
    class on ties) and divides alpha out of each modulus.  Disjointness and
    distinctness carry over because the discarded alpha is common to every
    pair.
    """
    if alpha < 1:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return _reduce_by_parts(family, alpha, _squarefull_parts(family))


def _choose_and_reduce(family: Family) -> tuple[int, Family]:
    """choose_alpha's alpha and squarefull_reduce's family, from one factor
    table of the members."""
    parts = _squarefull_parts(family)
    alpha = _most_common(parts)
    return alpha, _reduce_by_parts(family, alpha, parts)


def _reduce_by_parts(family: Family, alpha: int, parts: np.ndarray) -> Family:
    # the members kept stay in modulus order, and dividing by alpha keeps it
    selected = np.flatnonzero(parts == alpha).tolist()
    reduced_bound = max(2, family.x_bound // alpha)
    if not selected:
        return Family.from_columns((), (), reduced_bound)
    q, a = family.q, family.a
    classes: dict[int, list[int]] = {}  # residue class mod alpha -> indices
    for i in selected:
        if q[i] % alpha:
            raise DomainError(f"alpha {alpha} does not divide modulus {q[i]}")
        classes.setdefault(a[i] % alpha, []).append(i)
    best = min(classes, key=lambda b: (-len(classes[b]), b))
    moduli, residues = [], []
    for i in classes[best]:
        reduced = q[i] // alpha
        if reduced < 2:
            raise DomainError(
                f"member {a[i]} mod {q[i]} equals its squarefull part; nothing remains to reduce"
            )
        moduli.append(reduced)
        residues.append(a[i] % reduced)
    return Family.from_columns(moduli, residues, reduced_bound)


def alpha_exceeding_fraction(family: Family, c: float = 1 / 3) -> Fraction:
    """Fraction of members whose squarefull part exceeds L(c, x_bound)."""
    if not family.size:
        return Fraction(0)
    bound = l_scale(c, max(16, family.x_bound))
    # squarefull parts are at most FACTOR_LIMIT < 2**53, so exact as doubles
    over = int(np.count_nonzero(_squarefull_parts(family) > bound))
    return Fraction(over, family.size)


@dataclass(frozen=True)
class CountsRow:
    kind: str
    x: int
    c: float
    exact: int
    predicted: float

    @property
    def ratio(self) -> float:
        return self.exact / self.predicted


KINDS = ("psi", "psistar", "omega_tail", "f_lower")


def _one_row(kind: str, x: int, c: float) -> CountsRow:
    if kind == "psi":
        exact = psi(x, l_scale(c, x))
        predicted = x / l_scale(1 / (2 * c), x)
    elif kind == "psistar":
        exact = psi_star(x, l_scale(c, x))
        predicted = x / l_scale(1 / (2 * c), x)
    elif kind == "omega_tail":
        exact = omega_tail_count(x, c)
        predicted = x / l_scale(c / 2, x)
    elif kind == "f_lower":
        exact = build_construction(ConstructionParams(x=x, c=c)).size
        predicted = x / l_scale(c + 1 / (2 * c), x)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    return CountsRow(kind=kind, x=x, c=c, exact=exact, predicted=predicted)


def bounds_report(x_values, c_values, kinds=("psi", "psistar", "omega_tail")) -> list[CountsRow]:
    """Exact counts next to their predicted scale, one row per (kind, x, c)."""
    for kind in kinds:
        if kind not in KINDS:
            raise DomainError(f"unknown kind {kind!r}")
    return [
        _one_row(kind, x, c) for kind in kinds for x in x_values for c in c_values
    ]


def rows_to_csv(rows) -> str:
    lines = ["kind,x,c,exact,predicted,ratio"]
    lines.extend(
        f"{r.kind},{r.x},{r.c:.10g},{r.exact},{r.predicted:.10g},{r.ratio:.10g}"
        for r in rows
    )
    return "\n".join(lines) + "\n"
