import pytest

from apfam.construction import ConstructionParams, build_construction
from apfam.errors import DomainError
from apfam.family import verify_family
from apfam.solver import SearchConfig, solve_exact
from oracles import brute_force_oracle, density

# x <= 20: frozen from the exhaustive oracle during development.
# 21..30: the earlier solver (a walk over every modulus under exact Fraction
# density bounds) gave the same values, run once when this solver replaced it.
# 31..40: from this solver only; no second program has confirmed them.
F_TABLE = {
    2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 3, 9: 3, 10: 3, 11: 3,
    12: 4, 13: 4, 14: 4, 15: 4, 16: 5, 17: 5, 18: 6, 19: 6, 20: 6,
    21: 6, 22: 6, 23: 6, 24: 7, 25: 7, 26: 7, 27: 7, 28: 7, 29: 7, 30: 8,
    31: 8, 32: 8, 33: 8, 34: 8, 35: 8, 36: 9, 37: 9, 38: 9, 39: 9, 40: 10,
}


class TestOracle:
    def test_frozen_table(self):
        for x in range(2, 13):
            assert brute_force_oracle(x) == F_TABLE[x]


class TestSolveExact:
    def test_matches_frozen_table(self):
        # x = 33..39 are left out for time; 40 alone takes about 2 s
        for x in [*range(2, 33), 40]:
            result = solve_exact(SearchConfig(x=x))
            assert result.proven_optimal
            assert result.k_max == F_TABLE[x]
            assert result.witness.size == result.k_max
            assert verify_family(result.witness).ok
            assert density(result.witness) <= 1

    def test_matches_oracle(self):
        for x in range(2, 13):
            assert solve_exact(SearchConfig(x=x)).k_max == brute_force_oracle(x)

    def test_witness_is_valid(self):
        for x in (4, 8, 12, 16, 20):
            result = solve_exact(SearchConfig(x=x))
            assert result.witness.size == result.k_max
            assert result.witness.x_bound == x
            assert verify_family(result.witness).ok
            assert density(result.witness) <= 1

    def test_known_witness_shape(self):
        # x=4: {0 mod 2, 1 mod 4} up to translation; 3 never joins them
        result = solve_exact(SearchConfig(x=4))
        assert result.k_max == 2
        assert result.witness.moduli() == [2, 4]

    def test_budget_exhaustion(self):
        result = solve_exact(SearchConfig(x=16, node_budget=20))
        assert not result.proven_optimal
        assert result.k_max <= F_TABLE[16]
        assert verify_family(result.witness).ok

    def test_budget_counts_every_node(self):
        # a budget of exactly the uncapped node count completes the proof;
        # one node less cuts the search but still yields a disjoint family
        uncapped = solve_exact(SearchConfig(x=24))
        exact = solve_exact(SearchConfig(x=24, node_budget=uncapped.nodes))
        assert exact.proven_optimal
        assert (exact.k_max, exact.nodes) == (uncapped.k_max, uncapped.nodes)
        short = solve_exact(SearchConfig(x=24, node_budget=uncapped.nodes - 1))
        assert not short.proven_optimal
        assert short.k_max <= uncapped.k_max
        assert verify_family(short.witness).ok

    def test_monotone_in_x(self):
        sizes = [solve_exact(SearchConfig(x=x)).k_max for x in range(2, 21)]
        assert sizes == sorted(sizes)

    def test_domain(self):
        with pytest.raises(DomainError):
            SearchConfig(x=1)
        with pytest.raises(DomainError):
            SearchConfig(x=65)
        with pytest.raises(DomainError):
            SearchConfig(x=10, node_budget=0)


def construction_size(x):
    return build_construction(ConstructionParams(x=x)).size


class TestLowerBound:
    # the default construction is a lower bound on the exact optimum
    def test_never_exceeds_exact(self):
        for x in (16, 18, 20):
            assert construction_size(x) <= solve_exact(SearchConfig(x=x)).k_max

    def test_x64_budgeted_run_stays_above_construction(self):
        # exact completion at 64 is out of reach; a budgeted run must still
        # produce a valid family at least as large as the construction
        result = solve_exact(SearchConfig(x=64, node_budget=200_000))
        assert not result.proven_optimal
        assert verify_family(result.witness).ok
        assert result.k_max >= construction_size(64)

    def test_value_at_16(self):
        # anchor prime 3, moduli {3, 6}
        assert construction_size(16) == 2
