"""Counting bounds and the squarefull-part reduction.

bounds_report sets exact counts beside their predicted scales.  Every kind
is counted by numtheory's one recursion over prime products: psi, psi_star,
omega_tail_count, and the construction's size as psi_star(x // p, p - 1)
at the anchor p, with no family built.  omega_tail_majorant dominates the
omega tail with the tail of x * sum_j M**j / j!, where M is the exact sum
of reciprocals of prime powers up to x.  The reduction splits each modulus
n = alpha * beta into its squarefull and squarefree parts and maps the
largest equal-alpha, equal-residue-class subfamily onto a squarefree-modulus
family that inherits disjointness.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import ConstructionParams, _member_count, choose_prime
from .errors import CapacityError, DomainError
from .family import Family
from .numtheory import l_scale, omega_tail_count, omega_threshold, psi, psi_star, sieve_primes

MAJORANT_CUTOFF = 1e-30


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
    try:
        j = int(math.floor(omega_threshold(x, c))) + 1
        term = math.exp(j * math.log(m) - math.lgamma(j + 1))
    except OverflowError as exc:
        raise CapacityError(f"the omega threshold at c={c} lies past the float range") from exc
    total = 0.0
    while term > 0.0:
        total += term
        j += 1
        term *= m / j
        if term < MAJORANT_CUTOFF * total:
            break
    return x * total


def _squarefull_parts(family: Family) -> np.ndarray:
    # the squarefull part of every modulus q, the product of the p**e exactly
    # dividing q with e >= 2, from the family's factor table
    table = family.factors
    alpha = np.ones(family.size, dtype=np.int64)
    square = table.exponent > 1
    powers = table.prime[square].astype(np.int64) ** table.exponent[square]
    np.multiply.at(alpha, table.index[square], powers)
    return alpha


def choose_alpha(family: Family) -> int:
    """The squarefull part shared by the most members; ties pick the smallest."""
    if not family.size:
        return 1
    # unique sorts ascending and argmax takes the first maximum
    values, counts = np.unique(_squarefull_parts(family), return_counts=True)
    return int(values[np.argmax(counts)])


def squarefull_reduce(family: Family, alpha: int) -> Family:
    """Squarefree-modulus family from the members with squarefull part alpha.

    Keeps the largest residue class mod alpha among those members (smallest
    class on ties) and divides alpha out of each modulus.  Disjointness and
    distinctness carry over because the discarded alpha is common to every
    pair.
    """
    alpha = operator.index(alpha)
    if alpha < 1:
        raise DomainError(f"alpha must be positive, got {alpha}")
    # the members kept stay in modulus order, and dividing by alpha keeps it
    selected = np.flatnonzero(_squarefull_parts(family) == alpha)
    reduced_bound = max(2, family.x_bound // alpha)
    if not selected.size:
        return Family.from_columns((), (), reduced_bound)
    residues = family.a[selected] % alpha
    # unique sorts the classes ascending: argmax takes the smallest tied
    classes, sizes = np.unique(residues, return_counts=True)
    kept = selected[residues == classes[np.argmax(sizes)]]
    q, a = family.q[kept], family.a[kept]
    moduli = q // alpha
    if moduli.size and moduli[0] < 2:  # only q == alpha reduces below 2, and q ascends
        raise DomainError(
            f"member {a[0]} mod {q[0]} equals its squarefull part; nothing remains to reduce"
        )
    return Family.from_columns(moduli, a % moduli, reduced_bound)


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
    else:  # f_lower: bounds_report has checked the kind
        p = choose_prime(ConstructionParams(x=x, c=c))
        try:
            exact = _member_count(x, p)
        except CapacityError as exc:
            raise CapacityError(f"f-lower count at x={x}: {exc}") from None
        predicted = x / l_scale(c + 1 / (2 * c), x)
    return CountsRow(kind=kind, x=x, c=c, exact=exact, predicted=predicted)


def bounds_report(x_values, c_values, kinds=KINDS[:3]) -> list[CountsRow]:
    """Exact counts next to their predicted scale, one row per (kind, x, c).

    The kinds default to the three counts, every kind but f_lower.
    """
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
