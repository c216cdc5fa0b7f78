import math
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from apfam.bounds import (
    CountsRow,
    _squarefull_parts,
    alpha_exceeding_fraction,
    bounds_report,
    choose_alpha,
    omega_tail_count,
    omega_tail_majorant,
    omega_threshold,
    prime_power_reciprocal_sum,
    rows_to_csv,
    squarefull_reduce,
)
from apfam.construction import ConstructionParams, build_construction, choose_prime
from apfam.errors import CapacityError, DomainError
from apfam.family import Family, Progression, read_family, translate, verify_family, write_family
from apfam.numtheory import FACTOR_LIMIT, PSI_LIMIT, l_scale
from oracles import (
    distinct_prime_counts, distinct_prime_counts_between, omega_tail_by_blocks, split_squarefull
)


def fam(pairs, x_bound):
    return Family.build([Progression(a, q) for a, q in pairs], x_bound)


# random families, squarefull parts common among the small moduli; the
# reductions below are compared with their member-by-member forms
families = st.dictionaries(
    st.one_of(
        st.integers(min_value=2, max_value=3000),
        st.builds(lambda a, b: a * b, st.sampled_from((4, 8, 9, 25, 72)), st.integers(1, 40)),
        st.integers(min_value=2, max_value=FACTOR_LIMIT),
    ),
    st.integers(min_value=0, max_value=10**6),
    max_size=25,
).map(lambda members: fam([(a % q, q) for q, a in members.items()], max(members, default=2)))


def choose_alpha_per_member(family):
    counts = {}
    for pr in family.items:
        alpha = split_squarefull(pr.modulus)[0]
        counts[alpha] = counts.get(alpha, 0) + 1
    return min(counts, key=lambda a: (-counts[a], a)) if counts else 1


def reduce_per_member(family, alpha):
    # (residue, modulus) pairs of squarefull_reduce(family, alpha)
    classes = {}
    for pr in family.items:
        if split_squarefull(pr.modulus)[0] == alpha:
            classes.setdefault(pr.residue % alpha, []).append(pr)
    if not classes:
        return []
    best = min(classes, key=lambda b: (-len(classes[b]), b))
    return [(pr.residue % (pr.modulus // alpha), pr.modulus // alpha) for pr in classes[best]]


def tail_coefficient(x, threshold):
    # c that puts the tail threshold exactly at the given value
    lx = math.log(x)
    return threshold / math.sqrt(lx / math.log(lx))


OMEGA_MAX = 5000
OMEGA_REF = [0, 0] + [len(sympy.primefactors(n)) for n in range(2, OMEGA_MAX + 1)]
SMALL_PRIMES = list(sympy.primerange(2, math.isqrt(OMEGA_MAX) + 1))
CUBE_PRIMES = [p for p in SMALL_PRIMES if p**3 <= OMEGA_MAX]


def tail_of(omega, x, c):
    # the n <= x whose omega[n] exceeds the threshold at x
    threshold = omega_threshold(x, c)
    return sum(1 for w in omega[1 : x + 1] if w > threshold)


@pytest.fixture(scope="module")
def omega_sieve():
    return distinct_prime_counts(10**6)


class TestOmegaTailCount:
    def test_zero_for_tiny_x(self):
        assert omega_tail_count(1, 1.0) == 0
        assert omega_tail_count(2, 0.001) == 0

    def test_threshold_ten_at_100(self):
        assert omega_tail_count(100, tail_coefficient(100, 10)) == 0

    def test_threshold_two_and_half_at_100(self):
        # n <= 100 with more than 2.5 prime factors: the eight 3-factor ones
        c = tail_coefficient(100, 2.5)
        assert omega_tail_count(100, c) == 8

    def test_against_sympy(self):
        c = tail_coefficient(1000, 2.5)
        expected = sum(
            1
            for n in range(1, 1001)
            if len(sympy.factorint(n)) > omega_threshold(1000, c)
        )
        assert omega_tail_count(1000, c) == expected

    def test_oracle_matches_sympy(self, omega_sieve):
        assert omega_sieve[: OMEGA_MAX + 1] == OMEGA_REF

    @pytest.mark.parametrize("x", [10**4, 10**5, 10**6])
    def test_matches_sieve(self, omega_sieve, x):
        for c in (0.3, 0.5, 1, 1.5, 2, 3):
            assert omega_tail_count(x, c) == tail_of(omega_sieve, x, c), c

    @given(
        st.one_of(
            st.integers(3, OMEGA_MAX),
            # the recursion closes a subtree once p**2 or p**3 passes what
            # is left of x, and counts p*q pairs there
            st.builds(lambda p, d: p * p - d, st.sampled_from(SMALL_PRIMES), st.sampled_from((0, 1))),
            st.builds(lambda p, d: p**3 - d, st.sampled_from(CUBE_PRIMES), st.sampled_from((0, 1))),
            st.builds(
                lambda p, q, d: p * q - d,
                st.sampled_from(SMALL_PRIMES),
                st.sampled_from(SMALL_PRIMES),
                st.sampled_from((0, 1)),
            ),
        ),
        st.floats(0.3, 3.0),
    )
    def test_matches_per_n_count(self, x, c):
        assert omega_tail_count(x, c) == tail_of(OMEGA_REF, x, c)

    def test_threshold_past_every_omega(self):
        # the threshold clamps to x.bit_length() before it is floored
        assert omega_tail_count(1000, math.inf) == omega_tail_count(1000, 1e308) == 0

    def test_threshold_below_one(self):
        assert omega_threshold(10**6, 0.3) < 1
        assert omega_tail_count(10**6, 0.3) == 10**6 - 1

    def test_block_oracle_matches_sieve(self, omega_sieve):
        for lo, hi in ((1, 2), (1, 10**5), (99_991, 10**6 + 1)):
            assert distinct_prime_counts_between(lo, hi).tolist() == omega_sieve[lo:hi]
        assert omega_tail_by_blocks(10**6, 1, block=9973) == tail_of(omega_sieve, 10**6, 1)

    @pytest.mark.parametrize(
        "x, c, expected",
        # omega_tail_by_blocks(x, c), computed once: 5 s, 5 s and 75 s
        [(10**8, 1, 71_512_531), (10**8, 2, 1_571_296), (10**9, 1, 742_733_668)],
    )
    def test_exact_past_the_sieve_limit(self, x, c, expected):
        assert omega_tail_count(x, c) == expected

    def test_memory_grows_with_sqrt_x(self):
        # the primes up to isqrt(x) and the pi(x // n) table take about
        # 0.3 MB; building a tuple of every prime up to 1e7 peaks at 32 MB
        tracemalloc.start()
        try:
            omega_tail_count(10**7, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_family_memory_holds_no_int_per_member(self, tmp_path):
        # The x = 1e8 construction's 72,222 members take 1.2 MB as two int64
        # columns.  Measured: the build peaks at 2.85 MB (five columns: the
        # walk's three and two for the inverses of its last step, then two,
        # their sort order and sorted copies) and the read at 2.3 MB (the
        # parsed blocks, then one column of them all); with a Python int per
        # member they peaked at 14 MB and 7.0 MB
        build_construction(ConstructionParams(x=1000))  # first calls fill the prime tables
        path = tmp_path / "fam.jsonl"
        tracemalloc.start()
        try:
            family = build_construction(ConstructionParams(x=10**8)).family
            built = tracemalloc.get_traced_memory()[1]
            write_family(family, path)
            del family
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            family = read_family(path)
            read = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert family.size == 72_222
        assert built < 4 * 2**20 and read < 3.5 * 2**20

    def test_capacity(self):
        with pytest.raises(CapacityError):
            omega_tail_count(PSI_LIMIT + 1, 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            omega_tail_count(0, 1)
        with pytest.raises(DomainError):
            omega_tail_count(100, 0)


class TestMajorant:
    def test_reciprocal_sum_regression(self):
        # 12-digit regression value for the prime-power reciprocal sum at 100
        assert prime_power_reciprocal_sum(100) == pytest.approx(
            2.508094191475, rel=1e-12
        )

    def test_reciprocal_sum_matches_direct(self):
        direct = 0.0
        for n in range(2, 201):
            fact = sympy.factorint(n)
            if len(fact) == 1:
                direct += 1.0 / n
        assert prime_power_reciprocal_sum(200) == pytest.approx(direct, rel=1e-12)

    def test_dominates_count(self):
        for x in (10**3, 10**4):
            for c in (0.5, 1.0, 2.0):
                assert omega_tail_majorant(x, c) >= omega_tail_count(x, c)

    def test_huge_threshold_vanishes(self):
        assert omega_tail_majorant(10**4, 50.0) == pytest.approx(0.0, abs=1e-12)
        assert omega_tail_count(10**4, 50.0) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            omega_tail_majorant(15, 1)
        with pytest.raises(DomainError):
            omega_tail_majorant(100, -1)

    @pytest.mark.parametrize("c", [1e306, 1e308, math.inf])
    def test_threshold_past_float_range(self, c):
        # the threshold, or the log-factorial of the first term, is past float range
        with pytest.raises(CapacityError, match="past the float range"):
            omega_tail_majorant(1000, c)


class TestSplitSquarefull:
    def test_examples(self):
        assert split_squarefull(12) == (4, 3)
        assert split_squarefull(30) == (1, 30)
        assert split_squarefull(72) == (72, 1)
        assert split_squarefull(1) == (1, 1)

    @given(st.integers(min_value=1, max_value=10**5))
    def test_reconstruction(self, n):
        alpha, beta = split_squarefull(n)
        assert alpha * beta == n
        assert math.gcd(alpha, beta) == 1
        # beta squarefree, alpha squarefull
        assert all(e == 1 for e in sympy.factorint(beta).values())
        assert all(e >= 2 for e in sympy.factorint(alpha).values())


class TestSquarefullReduce:
    def test_two_member_example(self):
        # 12 = 4*3 and 60 = 4*15 share alpha 4 and the class 1 mod 4;
        # they stay disjoint because the betas share the prime 3
        f = fam([(9, 12), (25, 60)], 60)
        assert verify_family(f).ok
        reduced = squarefull_reduce(f, 4)
        assert [(pr.residue, pr.modulus) for pr in reduced.items] == [(0, 3), (10, 15)]
        assert verify_family(reduced).ok
        assert reduced.x_bound == 15

    def test_identity_on_squarefree(self):
        f = fam([(0, 2), (1, 3), (5, 6)], 6)
        reduced = squarefull_reduce(f, 1)
        # alpha 1 selects everything; largest class mod 1 is everything
        assert reduced.items == f.items

    def test_largest_class_wins(self):
        # alpha 4: classes mod 4 are {1: [12, 60], 3: [20]}
        f = fam([(9, 12), (3, 20), (25, 60)], 60)
        assert verify_family(f).ok
        reduced = squarefull_reduce(f, 4)
        assert reduced.moduli() == [3, 15]

    def test_no_members_with_alpha(self):
        f = fam([(0, 2), (1, 3)], 10)
        assert squarefull_reduce(f, 4).size == 0

    def test_member_equal_to_alpha_rejected(self):
        f = fam([(1, 4)], 10)
        with pytest.raises(DomainError):
            squarefull_reduce(f, 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            squarefull_reduce(fam([], 10), 0)

    def test_choose_alpha(self):
        f = fam([(9, 12), (3, 20), (1, 18), (0, 5)], 20)
        # squarefull parts: 12 -> 4, 20 -> 4, 18 -> 9, 5 -> 1
        assert choose_alpha(f) == 4
        assert choose_alpha(fam([], 10)) == 1

    def test_reduction_recovers_scaled_family(self):
        # scale a disjoint squarefree family by alpha with one shared class
        import random

        from apfam.construction import assign_residue
        from apfam.numtheory import crt_pair

        rng = random.Random(3)
        cases = {4: [7, 21, 35, 105], 9: [7, 14, 35, 70], 8: [7, 21, 35, 105]}
        for _ in range(20):
            alpha = rng.choice((4, 8, 9))
            smooth = cases[alpha]
            b = rng.randrange(alpha)
            chain = [assign_residue(q, 7) for q in smooth]
            scaled = [
                Progression(crt_pair(pr.residue, pr.modulus, b, alpha)[0], alpha * pr.modulus)
                for pr in chain
            ]
            f = Family.build(scaled, alpha * 105)
            assert verify_family(f).ok
            reduced = squarefull_reduce(f, alpha)
            assert [(pr.residue, pr.modulus) for pr in reduced.items] == [
                (pr.residue, pr.modulus) for pr in chain
            ]
            assert verify_family(reduced).ok


def test_translated_construction_factors_once(table_builds):
    # choose_alpha, squarefull_reduce and alpha_exceeding_fraction share the
    # table the walk supplies, handed on by translate
    family = translate(build_construction(ConstructionParams(x=10**6)).family, 2**40 + 7)
    alpha = choose_alpha(family)
    reduced = squarefull_reduce(family, alpha)
    alpha_exceeding_fraction(family)
    assert table_builds == {"factor_table": 0, "tree": 1}
    assert alpha == choose_alpha_per_member(family)
    assert [(pr.residue, pr.modulus) for pr in reduced.items] == reduce_per_member(family, alpha)


class TestAgainstPerMember:
    @settings(max_examples=80)
    @given(families)
    def test_choose_alpha(self, family):
        assert _squarefull_parts(family).tolist() == [split_squarefull(q)[0] for q in family.q]
        assert choose_alpha(family) == choose_alpha_per_member(family)

    @settings(max_examples=80)
    @given(families, st.sampled_from((None, 1, 4, 8, 9, 16)))
    def test_squarefull_reduce(self, family, alpha):
        alpha = choose_alpha_per_member(family) if alpha is None else alpha
        expected = reduce_per_member(family, alpha)
        if any(q < 2 for _, q in expected):
            with pytest.raises(DomainError):
                squarefull_reduce(family, alpha)
        else:
            reduced = squarefull_reduce(family, alpha)
            assert [(pr.residue, pr.modulus) for pr in reduced.items] == expected

    @settings(max_examples=80)
    @given(families, st.sampled_from((1 / 3, 0.1, 0.5)))
    def test_alpha_exceeding_fraction(self, family, c):
        bound = l_scale(c, max(16, family.x_bound))
        over = sum(1 for pr in family.items if split_squarefull(pr.modulus)[0] > bound)
        expected = Fraction(over, family.size) if family.items else Fraction(0)
        assert alpha_exceeding_fraction(family, c) == expected

    def test_capacity(self):
        f = fam([(0, 12), (0, 10**13)], 10**13)
        for reduction in (choose_alpha, alpha_exceeding_fraction, lambda f: squarefull_reduce(f, 4)):
            with pytest.raises(CapacityError, match=str(10**13)):
                reduction(f)


class TestAlphaFraction:
    def test_squarefree_construction_is_zero(self):
        f = build_construction(ConstructionParams(x=10**4, squarefree_only=True)).family
        assert alpha_exceeding_fraction(f) == 0

    def test_report_on_default_construction(self):
        f = build_construction(ConstructionParams(x=10**4)).family
        fraction = alpha_exceeding_fraction(f)
        assert 0 <= fraction <= 1

    def test_empty(self):
        assert alpha_exceeding_fraction(fam([], 100)) == 0


class TestBoundsReport:
    def test_psi_row(self):
        rows = bounds_report([1000], [1.0], kinds=("psi",))
        assert len(rows) == 1
        row = rows[0]
        assert row.kind == "psi" and row.x == 1000 and row.exact == 461
        assert row.predicted == pytest.approx(1000 / l_scale(0.5, 1000))
        assert row.ratio == pytest.approx(row.exact / row.predicted)

    def test_all_kinds(self):
        rows = bounds_report([1000], [1.0])
        assert [r.kind for r in rows] == ["psi", "psistar", "omega_tail"]

    def test_f_lower(self):
        rows = bounds_report([100], [1 / math.sqrt(2)], kinds=("f_lower",))
        assert rows[0].exact == 6
        assert rows[0].predicted == pytest.approx(100 / l_scale(math.sqrt(2), 100))

    def test_f_lower_counts_the_construction(self):
        # at x=16 the anchor is 2 for c=0.5 and 151 > x for c=3
        assert choose_prime(ConstructionParams(x=16, c=0.5)) == 2
        assert choose_prime(ConstructionParams(x=16, c=3)) == 151
        xs, cs = (16, 100, 1000, 12345, 10**5, 10**6), (0.5, 1 / math.sqrt(2), 1, 2)
        grid = [(16, 3)] + [(x, c) for x in xs for c in cs]
        rows = [bounds_report([x], [c], kinds=("f_lower",))[0].exact for x, c in grid]
        expected = [build_construction(ConstructionParams(x=x, c=c)).size for x, c in grid]
        assert rows == expected
        assert expected[:2] == [0, 1]

    def test_degenerate_smallest_x(self):
        rows = bounds_report([16], [1.0])
        assert all(math.isfinite(r.predicted) and r.predicted > 0 for r in rows)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            bounds_report([100], [1.0], kinds=("weird",))

    def test_csv_shape(self):
        rows = bounds_report([1000], [1.0], kinds=("psi", "omega_tail"))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "kind,x,c,exact,predicted,ratio"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "psi" and int(fields[1]) == 1000
        assert float(fields[4]) > 0
