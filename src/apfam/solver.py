"""Exact maximum family size by branch and bound.

Two progressions whose moduli are coprime always meet (CRT), so every pair
of moduli in a disjoint family shares a prime.  The search keeps a list of
live candidates: moduli below every chosen one that share a prime with each
of them and still have a residue left outside every chosen class, each with
a bitmask of its residues already met.  Choosing a residue a mod q drops the
candidates coprime to q and, for the others, marks the residues congruent
to a modulo gcd(c, q) (forward checking); a candidate whose residues are all
met is dropped.  The search branches on the largest candidate, trying each
free residue in ascending order and then skipping it.

A disjoint family's densities sum to at most 1.  With the integer weights
w(q) = lcm(2..x) // q this reads sum w(q) <= lcm(2..x), exactly; a node is
pruned when the chosen members plus the most live candidates whose smallest
weights fit in the unused weight cannot beat the best family found.
Disjointness is translation invariant, so the first chosen residue is 0.
"""

import math
from dataclasses import dataclass

from .errors import DomainError
from .family import Family

X_MAX_EXACT = 64


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
    lcm = math.lcm(*range(2, x + 1))
    weight = [0, 0] + [lcm // q for q in range(2, x + 1)]
    full = [(1 << c) - 1 for c in range(x + 1)]
    # class_mask[c][g][r]: the residues mod c that are r mod g, for g | c
    class_mask = [
        {g: [sum(1 << i for i in range(r, c, g)) for r in range(g)]
         for g in range(2, c + 1) if c % g == 0}
        for c in range(x + 1)
    ]

    nodes = 0
    cutoff = False
    best: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def rec(live: list[tuple[int, int]], used: int):
        # live: (c, mask of residues mod c met by a chosen class), c descending
        nonlocal nodes, cutoff, best
        nodes += 1
        if nodes > config.node_budget:
            cutoff = True
            return
        if len(chosen) > len(best):
            best = list(chosen)
        room = lcm - used
        fit = 0
        for c, _ in live:
            room -= weight[c]
            if room < 0:
                break
            fit += 1
        if len(chosen) + fit <= len(best):
            return
        (q, mask), rest = live[0], live[1:]
        for a in range(q) if chosen else range(1):
            if mask >> a & 1:
                continue
            chosen.append((q, a))
            narrowed = []
            for c, m in rest:
                g = math.gcd(c, q)
                if g > 1:
                    m |= class_mask[c][g][a % g]
                    if m != full[c]:
                        narrowed.append((c, m))
            rec(narrowed, used + weight[q])
            chosen.pop()
            if cutoff:
                return
        rec(rest, used)

    rec([(q, 0) for q in range(x, 1, -1)], 0)
    best.sort()
    witness = Family.from_columns([q for q, _ in best], [a for _, a in best], x)
    return SearchResult(
        k_max=len(best), witness=witness, nodes=nodes, proven_optimal=not cutoff
    )

