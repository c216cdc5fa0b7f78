"""Regenerate f_table.json: the exact maximum F(x) of a pairwise-disjoint family
of progressions a mod q with distinct moduli q in [2, x].

The search is exhaustive and shares no code with apfam. It walks the moduli in
ascending order, tries every residue compatible with the members chosen so
far, and fixes the first chosen residue to 0 (a common shift keeps a family
disjoint). It prunes only by the density bound: disjoint progressions have
densities summing to at most 1, so a branch whose members plus the most
members the unused density still admits cannot beat the best found is cut.

    python3 perfbench/make_f_table.py

It covers x = 2..X_MAX, X_MAX being the largest x the benchmark solves.
"""

import json
import math
import sys
import time
from pathlib import Path

TABLE = Path(__file__).with_name("f_table.json")
X_MAX = 22


def max_family(x: int) -> int:
    """F(x) by exhaustive branch and bound over ascending moduli."""
    lcm = math.lcm(*range(2, x + 1))
    weight = [0, 0] + [lcm // q for q in range(2, x + 1)]
    chosen: list[tuple[int, int]] = []
    best = 0

    def room(q: int, spare: int) -> int:
        # most moduli from [q, x] whose weights fit in spare: take the largest
        # moduli first, they are the lightest
        r = 0
        for m in range(x, q - 1, -1):
            if weight[m] > spare:
                break
            spare -= weight[m]
            r += 1
        return r

    def rec(q: int, spare: int) -> None:
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        if q > x or len(chosen) + room(q, spare) <= best:
            return
        if weight[q] <= spare:
            residues = range(q) if chosen else range(1)
            for a in residues:
                if all((a - b) % math.gcd(q, m) for m, b in chosen):
                    chosen.append((q, a))
                    rec(q + 1, spare - weight[q])
                    chosen.pop()
        rec(q + 1, spare)

    rec(2, lcm)
    return best


def main() -> int:
    table = {}
    for x in range(2, X_MAX + 1):
        started = time.perf_counter()
        table[str(x)] = max_family(x)
        print(f"F({x}) = {table[str(x)]}  [{time.perf_counter() - started:.1f} s]", file=sys.stderr)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
