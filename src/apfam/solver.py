"""Exact maximum family size by branch and bound, plus a slow oracle.

The search walks the moduli from x down to 2 and either assigns a compatible
residue or skips the modulus.  Two admissible prunes: a disjoint family's
densities sum to at most 1 (exact rationals, never floats), and a budget
bound on how many of the remaining moduli could still fit under the unused
density.  Disjointness is translation invariant, so the first chosen residue
may be fixed to 0 without losing any family size.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DomainError
from .construction import ConstructionParams, build_construction
from .family import Family, Progression

X_MAX_EXACT = 64
X_ORACLE_MAX = 20


@dataclass(frozen=True)
class SearchConfig:
    x: int
    node_budget: int = 100_000_000

    def __post_init__(self):
        if not 2 <= self.x <= X_MAX_EXACT:
            raise DomainError(f"exact search supports 2 <= x <= {X_MAX_EXACT}")
        if self.node_budget < 1:
            raise DomainError("node budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    k_max: int
    witness: Family
    nodes: int
    proven_optimal: bool


def solve_exact(config: SearchConfig) -> SearchResult:
    """Maximum disjoint family with distinct moduli in [2, config.x]."""
    x = config.x

    # harmonic prefix sums: H[m] = sum of 1/j for 2 <= j <= m, exact
    H = [Fraction(0)] * (x + 1)
    for m in range(2, x + 1):
        H[m] = H[m - 1] + Fraction(1, m)

    def max_addable(hi: int, budget: Fraction) -> int:
        # largest r with the r cheapest remaining reciprocals summing <= budget;
        # the remaining moduli are always 2..hi
        a, b = 0, hi - 1
        while a < b:
            mid = (a + b + 1) // 2
            if H[hi] - H[hi - mid] <= budget:
                a = mid
            else:
                b = mid - 1
        return a

    nodes = 0
    cutoff = False
    best_k = 0
    best: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def rec(q: int, dens: Fraction):
        nonlocal nodes, cutoff, best_k, best
        if cutoff:
            return
        nodes += 1
        if nodes > config.node_budget:
            cutoff = True
            return
        if len(chosen) > best_k:
            best_k = len(chosen)
            best = list(chosen)
        if q < 2:
            return
        if len(chosen) + max_addable(q, 1 - dens) <= best_k:
            return
        recip = Fraction(1, q)
        if dens + recip <= 1:
            pairs = [(math.gcd(q, qi), ai) for qi, ai in chosen]
            for a in range(q) if chosen else range(1):
                if all((a - ai) % g for g, ai in pairs):
                    chosen.append((q, a))
                    rec(q - 1, dens + recip)
                    chosen.pop()
                    if cutoff:
                        return
        rec(q - 1, dens)

    rec(x, Fraction(0))
    witness = Family.build([Progression(a, q) for q, a in best], x)
    return SearchResult(
        k_max=best_k, witness=witness, nodes=nodes, proven_optimal=not cutoff
    )


def brute_force_oracle(x: int) -> int:
    """Exhaustive maximum family size; feasibility checks only, no pruning.

    Kept independent of solve_exact (ascending order, no bounds) so the two
    can validate each other on small x.
    """
    if x < 2:
        raise DomainError(f"need x >= 2, got {x}")
    if x > X_ORACLE_MAX:
        raise CapacityError(f"oracle supports x <= {X_ORACLE_MAX}")
    best = 0
    chosen: list[tuple[int, int]] = []

    def rec(q: int):
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
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


def lower_bound_from_construction(x: int) -> int:
    """Size of the default construction at x; never better than the optimum."""
    if x < 16:
        raise DomainError(f"construction lower bound needs x >= 16, got {x}")
    try:
        return build_construction(ConstructionParams(x=x)).size
    except DomainError:
        return 1  # the single progression 0 mod 2 always qualifies
