import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from apfam import numtheory
from apfam.errors import CapacityError, DomainError
from apfam.numtheory import (
    FACTOR_LIMIT,
    Factorization,
    PSI_LIMIT,
    _inverses,
    _prime_counter,
    crt_pair,
    factor_table,
    factorize,
    l_scale,
    psi,
    psi_star,
    sieve_primes,
)
from apfam.construction import ConstructionParams, build_construction
from oracles import enumerate_smooth
from test_refinement import stepped


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(2) == [2]
        assert sieve_primes(10) == [2, 3, 5, 7]
        assert sieve_primes(11) == [2, 3, 5, 7, 11]

    def test_against_sympy(self):
        assert sieve_primes(1000) == list(sympy.primerange(2, 1001))

    def test_count_to_10k(self):
        assert len(sieve_primes(10**4)) == 1229

    def test_domain(self):
        with pytest.raises(DomainError):
            sieve_primes(1)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sieve_primes(10**9)

    def test_public_call_not_cached(self):
        # each cached entry holds every prime up to its limit
        before = numtheory._prime_tuple.cache_info().currsize
        assert len(sieve_primes(104_729)) == 10_000
        assert numtheory._prime_tuple.cache_info().currsize == before


class TestPrimeCounter:
    @staticmethod
    def check(x):
        # every v <= isqrt(x) is x // (x // v), so these are all the x // n
        r = math.isqrt(x)
        pi = _prime_counter(x, tuple(sympy.primerange(2, r + 1)))
        for v in {x // n for n in range(1, r + 1)} | set(range(1, r + 1)):
            assert pi(v) == sympy.primepi(v), v

    # a prime square, one below it, a prime cube and two non-squares
    @pytest.mark.parametrize("x", [1009**2, 1009**2 - 1, 97**3, 10**6 + 3, 3 * 10**6])
    def test_matches_primepi(self, x):
        self.check(x)

    @given(st.integers(1, 10**5))
    def test_matches_primepi_drawn(self, x):
        self.check(x)


class TestFactorize:
    def test_examples(self):
        assert factorize(60).parts == ((3, 1), (2, 2), (5, 1))
        assert factorize(1).parts == ()
        assert factorize(2).parts == ((2, 1),)
        assert factorize(1024).parts == ((2, 10),)

    def test_parts_ascend_by_prime_power(self):
        # 12 = 3 * 4: the value 3 comes before 2**2
        assert factorize(12).prime_powers() == [3, 4]
        assert factorize(72).prime_powers() == [8, 9]

    def test_domain(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            factorize(10**13)

    def test_validation_rejects_bad_parts(self):
        with pytest.raises(DomainError):
            Factorization(6, ((2, 1),))
        with pytest.raises(DomainError):
            Factorization(12, ((2, 2), (3, 1)))  # wrong order: 4 > 3

    @given(st.integers(min_value=1, max_value=10**5))
    def test_reconstruction(self, n):
        fact = factorize(n)
        product = 1
        for p, e in fact.parts:
            product *= p**e
        assert product == n
        values = fact.prime_powers()
        assert values == sorted(values)

    @given(st.integers(min_value=2, max_value=10**5))
    def test_against_sympy(self, n):
        assert dict(factorize(n).parts) == sympy.factorint(n)


def table_parts(moduli):
    """factor_table's factorizations, one part list per modulus, in
    factorize's order; also checks the table's own layout."""
    table = factor_table(moduli)
    assert len(table.cofactor) == len(moduli)
    index = table.index.tolist()
    assert index == sorted(index)  # hits run member by member
    parts = [[] for _ in moduli]
    for i, p, e in zip(index, table.prime.tolist(), table.exponent.tolist()):
        assert not parts[i] or parts[i][-1][0] < p  # a member's hits ascend
        parts[i].append((p, e))
    for i, c in enumerate(table.cofactor.tolist()):
        if c > 1:
            assert not parts[i] or parts[i][-1][0] < c
            parts[i].append((c, 1))
    return [tuple(sorted(pe, key=lambda pe: pe[0] ** pe[1])) for pe in parts]


def oracle_parts(moduli):
    return [factorize(n).parts for n in moduli]


# primes around the square roots where trial division stops: 10**3, 10**6
NEAR_ROOTS = (997, 1009, 999983, 1000003)
# composites up to FACTOR_LIMIT whose factors straddle their own square root
STRADDLING = (31 * 37, 997 * 1009, 999979 * 999983)


class TestFactorTable:
    def test_examples(self):
        moduli = [60, 1, 2, 1024, 12, 72, 30030, 97 * 97, 97**3, 2 * 999983]
        assert table_parts(moduli) == oracle_parts(moduli)

    def test_empty_and_single(self):
        table = factor_table([])
        assert [a.size for a in table] == [0, 0, 0, 0]
        for n in (1, 2, 4, 999983, FACTOR_LIMIT, 999983 * 999979):
            assert table_parts([n]) == oracle_parts([n])

    def test_squares_cubes_and_straddling_products(self):
        moduli = [p * p for p in NEAR_ROOTS[:3]] + [p**3 for p in NEAR_ROOTS[:2]]
        moduli += [p * q for p in NEAR_ROOTS for q in NEAR_ROOTS if p < q and p * q <= FACTOR_LIMIT]
        moduli += [2 * p for p in NEAR_ROOTS] + list(STRADDLING)
        assert table_parts(moduli) == oracle_parts(moduli)

    def test_near_the_limit(self):
        moduli = [FACTOR_LIMIT, FACTOR_LIMIT - 1, 999999000001, 2**39, 3**25, 999983 * 999979]
        assert table_parts(moduli) == oracle_parts(moduli)
        assert table_parts(moduli[::-1]) == oracle_parts(moduli[::-1])

    def test_powers_of_two(self):
        moduli = [2**k for k in range(40)]
        assert table_parts(moduli) == oracle_parts(moduli)

    def test_member_leaving_early_keeps_its_cofactor(self):
        # 2 * 999983 leaves once p * p > 999983, long before the walk up to
        # isqrt of its neighbour ends; its cofactor must survive that
        table = factor_table([2 * 999983, 999979 * 999983])
        assert table.cofactor.tolist() == [999983, 999983]
        assert table_parts([2 * 999983, 999979 * 999983]) == [
            ((2, 1), (999983, 1)),
            ((999979, 1), (999983, 1)),
        ]

    @settings(max_examples=60)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=10**6),
                st.integers(min_value=1, max_value=FACTOR_LIMIT),
                st.builds(
                    lambda p, e: min(p**e, FACTOR_LIMIT),
                    st.sampled_from((2, 3, 5, 7, 997, 1009)),
                    st.integers(1, 6),
                ),
                st.builds(
                    lambda p, q, k: min(p * q * k, FACTOR_LIMIT),
                    st.sampled_from(NEAR_ROOTS),
                    st.sampled_from(NEAR_ROOTS),
                    st.integers(1, 12),
                ),
            ),
            max_size=8,
        )
    )
    def test_against_factorize(self, moduli):
        assert table_parts(moduli) == oracle_parts(moduli)

    def test_errors_match_factorize(self):
        for moduli, error in (
            ([6, FACTOR_LIMIT + 1], CapacityError),
            ([6, 0], DomainError),
            ([10**13, 0], CapacityError),
            ([0, 10**13], DomainError),
            ([10**40], CapacityError),
        ):
            bad = next(n for n in moduli if not 1 <= n <= FACTOR_LIMIT)
            with pytest.raises(error) as expected:
                factorize(bad)
            with pytest.raises(error, match=str(expected.value)):
                factor_table(moduli)


ODD_PRIMES = sieve_primes(10**6)[1:]


@st.composite
def prime_and_n(draw):
    # an odd prime p <= 10**6 and n in [1, FACTOR_LIMIT], a multiple of p
    # (of p**2, p**3, ...) half the time
    p = draw(st.sampled_from(ODD_PRIMES))
    if draw(st.booleans()):
        return p, draw(st.integers(1, FACTOR_LIMIT))
    power = p ** draw(st.integers(1, 3))
    if power > FACTOR_LIMIT:
        power = p
    return p, power * draw(st.integers(1, FACTOR_LIMIT // power))


class TestInverses:
    @settings(max_examples=100)
    @given(st.lists(prime_and_n(), min_size=1, max_size=50))
    def test_divisibility_and_quotient_by_one_product(self, pairs):
        primes, ns = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        inv, lim = _inverses(primes)
        for p, i, m in zip(primes.tolist(), inv.tolist(), lim.tolist()):
            assert i * p % 2**64 == 1 and m == (2**64 - 1) // p
        # the product wraps mod 2**64 as factor_table takes it, array by array
        product = ns.view(np.uint64) * inv
        for p, n, v, m in zip(primes.tolist(), ns.tolist(), product.tolist(), lim.tolist()):
            assert (v <= m) == (n % p == 0)
            if n % p == 0:
                assert v == n // p

    def test_every_odd_prime_below_the_table_limit(self):
        primes = np.array(ODD_PRIMES, dtype=np.int64)
        inv, lim = _inverses(primes)
        assert all(i * p % 2**64 == 1 for p, i in zip(ODD_PRIMES, inv.tolist()))
        assert lim.tolist() == [(2**64 - 1) // p for p in ODD_PRIMES]


class TestFactorTableOnFamilies:
    @pytest.mark.parametrize(
        "moduli",
        [
            lambda: build_construction(ConstructionParams(x=10**6)).family.q,
            lambda: stepped(3 * 10**6).q,
        ],
        ids=["construction-1e6", "stepped-3e6"],
    )
    def test_matches_factorize(self, moduli):
        moduli = moduli().tolist()
        assert table_parts(moduli) == oracle_parts(moduli)


class TestCrtPair:
    def test_merge(self):
        assert crt_pair(2, 5, 0, 2) == (2, 10)
        assert crt_pair(0, 1, 7, 9) == (7, 9)
        # 1 and 3 agree mod gcd(4,6)=2, so the merge exists
        assert crt_pair(1, 4, 3, 6) == (9, 12)

    def test_incompatible(self):
        assert crt_pair(0, 4, 3, 6) is None
        assert crt_pair(0, 2, 1, 2) is None

    def test_domain(self):
        with pytest.raises(DomainError):
            crt_pair(0, 0, 1, 2)

    def test_exact_past_int64(self):
        # the lcm is about 2**124; 2**62 - 1 == -1 (mod 2**62) pins the answer
        m1, m2 = 2**62, 2**62 - 1
        assert crt_pair(1, m1, 0, m2) == (m1 * m2 - m2, m1 * m2)

    def test_unreduced_inputs(self):
        assert crt_pair(12, 5, 4, 2) == (2, 10)

    def test_scan_all_moduli_to_30(self):
        # one period scan per modulus pair recovers every expected answer
        for m1 in range(1, 31):
            for m2 in range(1, 31):
                lcm = math.lcm(m1, m2)
                seen = {}
                for n in range(lcm):
                    seen.setdefault((n % m1, n % m2), n)
                for a1 in range(m1):
                    for a2 in range(m2):
                        expected = seen.get((a1, a2))
                        got = crt_pair(a1, m1, a2, m2)
                        if expected is None:
                            assert got is None
                        else:
                            assert got == (expected, lcm)


class TestLScale:
    def test_high_precision_values(self):
        # frozen from 50-digit mpmath evaluation
        assert l_scale(1, 10**6) == pytest.approx(412.81953493849493, rel=1e-12)
        assert l_scale(1 / math.sqrt(2), 100) == pytest.approx(
            6.522272974690883, rel=1e-12
        )

    def test_against_mpmath(self):
        for c in (0.5, 1.0, math.sqrt(2)):
            for x in (16, 1000, 10**6):
                expected = mpmath.exp(
                    c * mpmath.sqrt(mpmath.log(x) * mpmath.log(mpmath.log(x)))
                )
                assert l_scale(c, x) == pytest.approx(float(expected), rel=1e-12)

    def test_monotone(self):
        values_c = [l_scale(c / 10, 10**4) for c in range(1, 20)]
        assert values_c == sorted(values_c)
        values_x = [l_scale(1, x) for x in (16, 100, 10**3, 10**5, 10**7)]
        assert values_x == sorted(values_x)

    def test_domain(self):
        with pytest.raises(DomainError):
            l_scale(1, 15)
        with pytest.raises(DomainError):
            l_scale(0, 100)
        with pytest.raises(DomainError):
            l_scale(-1, 100)
        for c in (math.nan, math.inf):
            with pytest.raises(DomainError):
                l_scale(c, 100)
        with pytest.raises(CapacityError):
            l_scale(1e300, 100)

    @pytest.mark.parametrize("c, x", [(1e308, 1000), (1.7e308, 16), (1, math.inf)])
    def test_infinite_exponent(self, c, x):
        # exp returns inf without raising once its argument is already inf
        with pytest.raises(CapacityError, match="exceeds the float range"):
            l_scale(c, x)


def _smooth_oracle(x, y, power_cap):
    # independent trial-division check per integer
    out = []
    for n in range(1, x + 1):
        good = True
        for p, e in sympy.factorint(n).items():
            if (p**e if power_cap else p) > y:
                good = False
                break
        if good:
            out.append(n)
    return out


PRIMES_TO_200 = sieve_primes(200)
COUNT_X_MAX = 30_000


def _count_x():
    # any x, and the edges of the closed subtrees: p**2, p**2 - 1, p**3, p*q
    primes = st.sampled_from(PRIMES_TO_200)
    return st.one_of(
        st.integers(1, COUNT_X_MAX),
        primes.map(lambda p: p * p).filter(lambda x: x <= COUNT_X_MAX),
        primes.map(lambda p: p * p - 1).filter(lambda x: x <= COUNT_X_MAX),
        primes.map(lambda p: p**3).filter(lambda x: x <= COUNT_X_MAX),
        st.tuples(primes, primes).map(math.prod).filter(lambda x: x <= COUNT_X_MAX),
    )


def _count_y(x):
    # any y in [2, x], a prime exactly, or the float just below a prime
    top = max(x, 2)
    primes = [p for p in PRIMES_TO_200 + [211, 997, 7919, 29989] if p <= top]
    return st.one_of(
        st.integers(2, top),
        st.floats(2, top),
        st.sampled_from(primes),
        st.sampled_from(primes).map(lambda p: math.nextafter(p, 0)).filter(lambda y: y >= 2),
    )


class TestSmoothCounts:
    def test_examples(self):
        assert psi(100, 5) == 34
        assert psi(10, 10) == 10
        assert psi_star(100, 5) == 12
        assert psi_star(10, 10) == 10

    def test_powers_of_two(self):
        for x in (1, 2, 3, 7, 8, 100, 1000):
            assert psi(x, 2) == x.bit_length()

    def test_enumerate_examples(self):
        assert enumerate_smooth(20, 3) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
        assert enumerate_smooth(20, 3, power_cap=True) == [1, 2, 3, 6]

    def test_counts_match_enumeration(self):
        for x in (1, 10, 100, 1000, 10**4):
            for y in (2, 3, 5.5, 10, 30, 100):
                assert psi(x, y) == len(enumerate_smooth(x, y))
                assert psi_star(x, y) == len(enumerate_smooth(x, y, power_cap=True))

    def test_against_trial_division(self):
        for x in (50, 300):
            for y in (3, 7, 12):
                assert enumerate_smooth(x, y) == _smooth_oracle(x, y, False)
                assert enumerate_smooth(x, y, power_cap=True) == _smooth_oracle(x, y, True)

    @given(st.data())
    def test_counts_match_enumeration_at_subtree_edges(self, data):
        x = data.draw(_count_x(), label="x")
        y = data.draw(_count_y(x), label="y")
        assert psi(x, y) == len(enumerate_smooth(x, y))
        assert psi_star(x, y) == len(enumerate_smooth(x, y, power_cap=True))

    def test_frozen_counts_at_scale(self):
        # values of the one-call-per-number recursion, before subtrees closed
        for x, plain, star in (
            (10**6, 223_605, 208_358),
            (3 * 10**6, 604_408, 567_526),
            (10**7, 1_790_783, 1_691_659),
        ):
            y = l_scale(1, x)
            assert psi(x, y) == plain
            assert psi_star(x, y) == star

    def test_bound_past_x_counts_every_n(self):
        # no prime above x divides an n <= x, so the sieve stops at x
        assert psi(100, 10**8) == psi_star(100, 10**8) == 100
        assert psi(1, 5) == psi_star(1, 5) == 1

    def test_star_never_exceeds_plain(self):
        for x in (10, 100, 1000):
            for y in (2, 5, 20):
                assert psi_star(x, y) <= psi(x, y)

    def test_inequality_chain_at_finite_scale(self):
        # psi > psi_star >= psi - sum over n^2 > y of psi(x/n^2, y)
        for x in (1000, 10**4):
            y = l_scale(1, x)
            plain = psi(x, y)
            star = psi_star(x, y)
            correction = sum(
                psi(x // (n * n), y)
                for n in range(2, math.isqrt(x) + 1)
                if n * n > y
            )
            assert plain > star
            assert star >= plain - correction

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(0, 5)
        with pytest.raises(DomainError):
            psi(10, 1.5)
        with pytest.raises(DomainError):
            psi_star(0, 5)

    def test_capacity(self):
        # the README's count runs; so does the largest x, and one past it
        # and 10**400 fail at once
        assert psi(10**8, l_scale(1, 10**8)) == 14_680_982
        assert psi(PSI_LIMIT, 2) == PSI_LIMIT.bit_length()
        for count in (psi, psi_star):
            for x in (PSI_LIMIT + 1, 10**400):
                with pytest.raises(CapacityError, match=str(PSI_LIMIT)):
                    count(x, l_scale(1, 10**8))
