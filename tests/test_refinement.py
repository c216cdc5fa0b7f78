import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import warnings
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from apfam.cli import main
from apfam.construction import ConstructionParams, build_construction, assign_residue
from apfam.errors import CapacityError, DomainError, FamilyFormatError, NotDisjointError
from apfam.family import Family, Progression, read_family, verify_family, write_family
from apfam.numtheory import FACTOR_LIMIT, factorize, l_scale, omega_threshold, sieve_primes
from apfam.refinement import (
    CertificateCheck,
    RefinementCertificate,
    RefinementParams,
    RefinementStep,
    build_chain,
    certificate_from_dict,
    _eligible,
    certificate_to_dict,
    check_certificate,
    read_certificate,
    write_certificate,
)


def fam(pairs, x_bound):
    return Family.build([Progression(a, q) for a, q in pairs], x_bound)


def three_member():
    # moduli 2*401, 3*401, 6*401 with chain-assigned residues
    return Family.build([assign_residue(q, 401) for q in (802, 1203, 2406)], 2406)


def six_member():
    # two anchored groups; the second shifted by 1 so the groups split mod 2
    a_group = [assign_residue(q, 401) for q in (802, 2406, 4010)]
    b_group = [
        Progression((assign_residue(q, 409).residue + 1) % q, q)
        for q in (818, 2454, 4090)
    ]
    return Family.build(a_group + b_group, 4090)


RELAXED = dict(omega_cap=3.5, prime_floor=400, ratio_denominator=1.5)


def eligible_per_member(family, params):
    # _eligible's members and their primes, factoring one modulus at a time
    primes_of = {}
    for pr in family.items:
        parts = factorize(pr.modulus).parts
        if any(e > 1 for _, e in parts):
            raise DomainError(f"modulus {pr.modulus} is not squarefree")
        primes = sorted(p for p, _ in parts)
        if len(primes) < params.omega_cap and primes[-1] > params.prime_floor:
            primes_of[pr.modulus] = primes
    return primes_of


def prime_lists(pm):
    # _eligible's prime map as one list per base member, in the map's order
    lists = [[] for _ in range(pm.size)]
    for i, p in zip(pm.member.tolist(), pm.primes[pm.pid].tolist()):
        lists[i].append(p)
    return lists


def prime_factors(q):
    return [p for p, _ in factorize(q).parts]


def reference_step(members, used, combined):
    # one step of the module docstring's refinement, on Progressions, with
    # divisibility tested by %; the certificate's step as JSON data
    chosen = min(members, key=lambda pr: (len(prime_factors(pr.modulus)), pr.modulus))
    candidates = [p for p in prime_factors(chosen.modulus) if p not in used]
    for pr in members:
        if pr != chosen and all(pr.modulus % e for e in candidates):
            # the two agree modulo every prime they share, so they meet
            common = next(
                n for n in itertools.count(chosen.residue, chosen.modulus) if (n - pr.residue) % pr.modulus == 0
            )
            raise NotDisjointError(chosen, pr, common)
    # max keeps the first of the tied, so ascending order breaks ties low
    prime = max(sorted(candidates), key=lambda e: sum(pr.modulus % e == 0 for pr in members))
    classes = {}
    for pr in members:
        if pr.modulus % prime == 0:
            classes.setdefault(pr.residue % prime, []).append(pr)
    residue_class = max(sorted(classes), key=lambda b: len(classes[b]))
    product = math.prod(used)
    merged = combined + product * ((residue_class - combined) * pow(product, -1, prime) % prime)
    return {
        "index": len(used) + 1,
        "chosen_modulus": chosen.modulus,
        "candidate_primes": candidates,
        "prime": prime,
        "residue_class": residue_class,
        "combined_residue": merged,
        "survivors": sorted(pr.modulus for pr in classes[residue_class]),
    }


def reference_chain(family, params):
    # the module docstring's refinement run slowly, as a certificate's JSON
    # data; raises DomainError where the chain stalls
    eligible = eligible_per_member(family, params)
    base = [pr for pr in family.items if pr.modulus in eligible]
    members, steps, used, combined = base, [], [], 0
    witness, count = None, 0
    while members:
        primes = sorted({p for pr in members for p in prime_factors(pr.modulus)})
        counts = {
            p: sum(pr.modulus % p == 0 for pr in members)
            for p in primes
            if p >= params.prime_floor and p not in used
        }
        witness = max(counts, key=counts.get, default=None)
        if witness is not None and counts[witness] * params.ratio_denominator >= len(members):
            count = counts[witness]
            break
        if len(members) < 2:
            raise DomainError("refinement stalled")
        step = reference_step(members, used, combined)
        members = [pr for pr in members if pr.modulus in step["survivors"]]
        used.append(step["prime"])
        combined = step["combined_residue"]
        steps.append(step)
    return {
        "params": {
            "x": params.x,
            "omega_cap": params.omega_cap,
            "prime_floor": params.prime_floor,
            "ratio_denominator": params.ratio_denominator,
        },
        "base": [[pr.modulus, pr.residue] for pr in base],
        "steps": steps,
        "t": len(steps),
        "witness_prime": witness,
        "divisible_count": count,
    }


def reference_check(cert, family):
    # the README's check-cert properties, member by member with divisibility
    # tested by %, failing on the first in the README's order; a witness
    # counts only when it is a prime, so a composite divides no survivor
    params, ratio = cert.params, cert.params.ratio_denominator
    try:
        eligible = eligible_per_member(family, params)
    except DomainError:
        return CertificateCheck(False, "base")
    base = [pr for pr in family.items if pr.modulus in eligible]
    if list(cert.base) != base:
        return CertificateCheck(False, "base")
    if cert.t != len(cert.steps):
        return CertificateCheck(False, "structure")
    if not base:
        if cert.steps or cert.witness_prime is not None or cert.divisible_count:
            return CertificateCheck(False, "structure")
        return CertificateCheck(True)
    current, used, product, combined, strict = base, [], 1, 0, True
    for k, step in enumerate(cert.steps, start=1):
        chosen = [pr for pr in current if pr.modulus == step.chosen_modulus]
        if step.index != k or not chosen:
            return CertificateCheck(False, "structure")
        candidates = tuple(p for p in eligible[step.chosen_modulus] if p not in used)
        if step.candidate_primes != candidates or step.prime not in candidates:
            return CertificateCheck(False, "candidates")
        if any(pr != chosen[0] and all(pr.modulus % p for p in candidates) for pr in current):
            return CertificateCheck(False, "covering")
        survivors = [
            pr for pr in current
            if pr.modulus % step.prime == 0 and pr.residue % step.prime == step.residue_class
        ]
        if list(step.survivors) != [pr.modulus for pr in survivors]:
            return CertificateCheck(False, "survivors")
        if (
            step.combined_residue % product != combined
            or step.combined_residue % step.prime != step.residue_class
            or not 0 <= step.combined_residue < product * step.prime
        ):
            return CertificateCheck(False, "Property 2")
        kept = len(step.survivors) * step.prime * ratio
        if kept < len(current):
            return CertificateCheck(False, "Property 3")
        strict = strict and kept != len(current)
        current, product, combined = survivors, product * step.prime, step.combined_residue
        used.append(step.prime)
    witness = cert.witness_prime
    prime = witness is not None and sympy.isprime(witness)
    count = sum(pr.modulus % witness == 0 for pr in current) if prime else 0
    if count != cert.divisible_count or count * ratio < len(current):
        return CertificateCheck(False, "Property 4", strict)
    if witness in used or witness < params.prime_floor:
        return CertificateCheck(False, "Property 4", strict)
    if count * product * Fraction(ratio) ** (len(cert.steps) + 1) < len(base):
        return CertificateCheck(False, "size bound", strict)
    return CertificateCheck(True, None, strict)


def stepped(x):
    # six anchored groups in six classes mod 6, so no anchor divides half the
    # family: the chain steps on 2 and 3 before an anchor stops it
    anchors = (1009, 1013, 1019, 1021, 1031, 1033)
    items = []
    for s, anchor in enumerate(anchors):
        for m in range(6, x // anchor + 1, 6):
            parts = factorize(m).parts
            if all(e == 1 for _, e in parts) and parts[-1][0] < anchors[0]:
                pr = assign_residue(anchor * m, anchor)
                items.append(Progression((pr.residue + s) % pr.modulus, pr.modulus))
    return Family.build(items, x)


STEPPED_PARAMS = RefinementParams(x=3 * 10**6, omega_cap=6, prime_floor=1000, ratio_denominator=2)


@functools.lru_cache(maxsize=1)
def stepped_chain():
    family = stepped(3 * 10**6)
    return family, build_chain(family, STEPPED_PARAMS)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 101, 401, 409, 997, 1009, 999983)
squarefree_moduli = st.sets(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=5).map(math.prod)


class TestParams:
    def test_defaults_follow_scale(self):
        for x in (16, 10**4, 3 * 10**7, 10**8, 10**300):
            params = RefinementParams(x=x)
            assert params.omega_cap == params.ratio_denominator == omega_threshold(x, 1)
            assert params.prime_floor == l_scale(1, x)
            # the same floats as the two formulas written out
            lx = math.log(x)
            assert params.omega_cap == math.sqrt(lx / math.log(lx))
            assert params.prime_floor == math.exp(math.sqrt(lx * math.log(lx)))

    def test_domain(self):
        with pytest.raises(DomainError):
            RefinementParams(x=15)
        with pytest.raises(DomainError):
            RefinementParams(x=100, omega_cap=0)
        with pytest.raises(DomainError):
            RefinementParams(x=100, prime_floor=1)
        with pytest.raises(DomainError):
            RefinementParams(x=100, ratio_denominator=0)
        for field in ("omega_cap", "prime_floor", "ratio_denominator"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    RefinementParams(x=100, **{field: value})


def base_moduli(family, params):
    # the chain's base set, which the per-member reference gives too
    moduli = _eligible(family, params)[0].tolist()
    assert moduli == list(eligible_per_member(family, params))
    return moduli


class TestFilterEligible:
    def test_strict_omega_cap(self):
        f = three_member()
        kept = base_moduli(f, RefinementParams(x=2406, **RELAXED))
        assert kept == [802, 1203, 2406]
        # omega of 2406 is 3, not below a cap of 3
        tight = RefinementParams(x=2406, omega_cap=3, prime_floor=400, ratio_denominator=1.5)
        assert base_moduli(f, tight) == [802, 1203]

    def test_strict_prime_floor(self):
        f = three_member()
        at_401 = RefinementParams(x=2406, omega_cap=3.5, prime_floor=401, ratio_denominator=1.5)
        assert base_moduli(f, at_401) == []

    def test_squarefree_construction_all_kept(self):
        f = build_construction(ConstructionParams(x=100, squarefree_only=True)).family
        params = RefinementParams(x=100, omega_cap=4, prime_floor=4, ratio_denominator=4)
        assert base_moduli(f, params) == [5, 10, 15, 30]

    def test_rejects_non_squarefree(self):
        f = fam([(0, 4)], 16)
        with pytest.raises(DomainError, match="4"):
            _eligible(f, RefinementParams(x=16, **RELAXED))

    def test_empty_family(self):
        assert base_moduli(fam([], 100), RefinementParams(x=100)) == []


class TestEligibleAgainstPerMember:
    @settings(max_examples=100)
    @given(
        st.sets(squarefree_moduli.filter(lambda q: q <= FACTOR_LIMIT), max_size=30),
        st.one_of(st.none(), st.integers(min_value=2, max_value=10**6)),
        st.sampled_from((1.5, 2, 3, 3.5, 6)),
        st.sampled_from((2, 10, 400, 1000.5)),
    )
    def test_members_primes_and_errors(self, moduli, extra, omega_cap, prime_floor):
        # extra may be a modulus that is not squarefree
        moduli = sorted(moduli | ({extra} if extra else set()))
        f = Family.build([Progression(0, q) for q in moduli], max(moduli, default=16))
        params = RefinementParams(x=16, omega_cap=omega_cap, prime_floor=prime_floor, ratio_denominator=2)
        try:
            expected = eligible_per_member(f, params)
        except DomainError as err:
            with pytest.raises(DomainError, match=str(err)):
                _eligible(f, params)
            return
        kept, _, pm = _eligible(f, params)
        assert kept.tolist() == list(expected)
        assert prime_lists(pm) == list(expected.values())

    def test_not_squarefree_before_oversized_fails_the_base(self):
        # member order decides: the modulus 12 fails before 10**12 + 1 is
        # reached, again on a second call, as the failed table is not kept
        f = fam([(0, 12), (0, FACTOR_LIMIT + 1)], FACTOR_LIMIT + 1)
        for _ in range(2):
            with pytest.raises(DomainError, match="modulus 12 is not squarefree"):
                _eligible(f, RefinementParams(x=16, **RELAXED))
        cert = build_chain(six_member(), RefinementParams(x=4090, **RELAXED))
        assert check_certificate(cert, f) == CertificateCheck(False, "base")

    def test_oversized_first_raises_capacity(self):
        f = fam([(0, 6), (0, FACTOR_LIMIT + 1)], FACTOR_LIMIT + 1)
        for _ in range(2):
            with pytest.raises(CapacityError):
                _eligible(f, RefinementParams(x=16, **RELAXED))


class TestOneTablePerFamily:
    """build_chain and check_certificate read one cached factor table."""

    def test_construction_takes_the_walks_table(self, table_builds):
        family = build_construction(ConstructionParams(x=10**6, squarefree_only=True)).family
        params = RefinementParams(x=10**6, omega_cap=4, prime_floor=60, ratio_denominator=3)
        cert = build_chain(family, params)
        assert check_certificate(cert, family).ok and cert.base
        assert table_builds == {"factor_table": 0, "tree": 1}

    def test_read_family_factors_once(self, tmp_path, table_builds):
        write_family(stepped(3 * 10**6), tmp_path / "f.jsonl")
        family = read_family(tmp_path / "f.jsonl")
        params = RefinementParams(x=3 * 10**6, omega_cap=6, prime_floor=1000, ratio_denominator=2)
        cert = build_chain(family, params)
        assert check_certificate(cert, family).ok and cert.t >= 1
        assert table_builds == {"factor_table": 1, "tree": 0}

    def test_not_squarefree_table_is_kept(self, table_builds):
        # the table is sound; only the family fails the base filter, each time
        family = build_construction(ConstructionParams(x=10**5)).family
        for _ in range(2):
            with pytest.raises(DomainError, match="is not squarefree"):
                build_chain(family, RefinementParams(x=10**5))
        assert table_builds == {"factor_table": 0, "tree": 1}


class TestRefineStep:
    # the reference's own steps; build_chain is compared with it below
    def test_three_member_trace(self):
        f = three_member()
        assert verify_family(f).ok
        step = reference_step(list(f.items), [], 0)
        assert step["index"] == 1
        assert step["chosen_modulus"] == 802
        assert step["candidate_primes"] == [2, 401]
        assert step["prime"] == 401
        # class 3 mod 401 holds both 1203 and 2406; class 2 only 802
        assert step["residue_class"] == 3
        assert step["survivors"] == [1203, 2406]
        assert step["combined_residue"] == step["residue_class"]

    def test_covering_violation_reports_pair(self):
        # coprime moduli always intersect; the step must say so concretely
        members = [Progression(1, 802), Progression(1, 1227)]
        with pytest.raises(NotDisjointError) as err:
            reference_step(members, [], 0)
        assert err.value.common == 1
        assert {err.value.first.modulus, err.value.second.modulus} == {802, 1227}


ANCHORS = (1009, 1013, 1019, 1021, 1031, 1033)


@st.composite
def disjoint_squarefree(draw):
    # members shared * extra * ANCHORS[g] with residue g + shared * k, each
    # kept when disjoint from those kept so far; members of one anchor with
    # distinct k never meet, so families grow large enough to take steps
    shared = math.prod(draw(st.sets(st.sampled_from((2, 3, 5)), min_size=1, max_size=2)))
    members = st.tuples(
        st.integers(0, len(ANCHORS) - 1),
        st.sampled_from((1, 7, 11, 13)),
        st.integers(0, 50),
    )
    kept = []
    for g, extra, k in draw(st.lists(members, max_size=60)):
        q = shared * extra * ANCHORS[g]
        a = (g + shared * k) % q
        if all(q != m and (a - b) % math.gcd(q, m) for b, m in kept):
            kept.append((a, q))
    return kept


# the chain steps on 7 and then 5 before 401 stops it
TWO_STEPS = ([(11, 3 * 5 * 7), (10, 5 * 7 * 401), (3, 5 * 7 * 409), (12, 7 * 101 * 401)], 4, 10, 1)


class TestChainAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        disjoint_squarefree(),
        st.sampled_from((2.5, 4, 5, 6)),
        st.sampled_from((10, 11, 100, 1000)),
        st.sampled_from((0.9, 1, 1.5, 2, 4)),
    )
    @example(*TWO_STEPS)
    def test_certificate_matches_reference(self, pairs, omega_cap, prime_floor, ratio):
        family = fam(pairs, max((q for _, q in pairs), default=16))
        params = RefinementParams(
            x=16, omega_cap=omega_cap, prime_floor=prime_floor, ratio_denominator=ratio
        )
        try:
            expected = reference_chain(family, params)
        except DomainError:
            with pytest.raises(DomainError, match="stalled"):
                build_chain(family, params)
            return
        cert = build_chain(family, params)
        assert certificate_to_dict(cert) == expected
        assert check_certificate(cert, family) == reference_check(cert, family)
        assert check_certificate(cert, family).ok


class TestBuildChain:
    def test_three_member_stops_immediately(self):
        # 401 divides all three members, so the stopping rule fires at t=0
        cert = build_chain(three_member(), RefinementParams(x=2406, **RELAXED))
        assert cert.t == 0 and cert.steps == ()
        assert cert.witness_prime == 401
        assert cert.divisible_count == 3
        assert len(cert.base) == 3

    def test_six_member_single_step(self):
        f = six_member()
        assert verify_family(f).ok
        cert = build_chain(f, RefinementParams(x=4090, **RELAXED))
        assert cert.t == 1
        step = cert.steps[0]
        assert step.chosen_modulus == 802
        assert step.candidate_primes == (2, 401)
        assert step.prime == 2
        assert step.residue_class == 0
        assert step.combined_residue == 0
        assert step.survivors == (802, 2406, 4010)
        assert cert.witness_prime == 401
        assert cert.divisible_count == 3
        # survivor bound of the step holds strictly: 3 * 2 * 1.5 > 6
        assert len(step.survivors) * step.prime * 1.5 > len(cert.base)
        # final size bound: 3 >= 6 / (2 * 1.5^2)
        assert cert.divisible_count >= len(cert.base) / (2 * 1.5**2)

    def test_empty_base_trivial_certificate(self):
        f = three_member()
        params = RefinementParams(x=2406, omega_cap=3.5, prime_floor=402, ratio_denominator=1.5)
        cert = build_chain(f, params)
        assert cert.base == () and cert.t == 0 and cert.witness_prime is None

    def test_single_member_base(self):
        f = fam([(2, 802), (0, 9)], 802)  # 9 = 3^2 never passes the filter
        with pytest.raises(DomainError):
            # 9 is not squarefree: the filter rejects the family outright
            build_chain(f, RefinementParams(x=802, **RELAXED))
        g = fam([(2, 802)], 802)
        cert = build_chain(g, RefinementParams(x=802, **RELAXED))
        assert cert.t == 0
        assert cert.witness_prime == 401 and cert.divisible_count == 1

    def test_not_disjoint_input_yields_counterexample(self):
        bad = fam([(1, 802), (1, 1227)], 2406)
        with pytest.raises(NotDisjointError) as err:
            build_chain(bad, RefinementParams(x=2406, **RELAXED))
        assert err.value.common == 1

    def test_stall_below_guarantee_regime(self):
        # ratio below 1 lets the chain consume the only large prime
        stuck = fam([(2, 802), (7, 1203)], 2406)
        assert verify_family(stuck).ok
        params = RefinementParams(x=2406, omega_cap=3.5, prime_floor=400, ratio_denominator=0.9)
        with pytest.raises(DomainError, match="stalled"):
            build_chain(stuck, params)

    def test_steps_bounded_by_omega_cap(self):
        cert = build_chain(six_member(), RefinementParams(x=4090, **RELAXED))
        assert cert.t <= 3.5

    def test_construction_at_1e4(self):
        f = build_construction(ConstructionParams(x=10**4, squarefree_only=True)).family
        params = RefinementParams(x=10**4, prime_floor=22, ratio_denominator=2)
        cert = build_chain(f, params)
        assert cert.t == 0
        assert cert.witness_prime == 23
        assert cert.divisible_count == len(cert.base) == 9
        assert check_certificate(cert, f).ok


class TestCheckCertificate:
    def params(self):
        return RefinementParams(x=4090, **RELAXED)

    def test_accepts_produced_certificates(self):
        for family in (three_member(), six_member()):
            params = RefinementParams(x=family.x_bound, **RELAXED)
            cert = build_chain(family, params)
            result = check_certificate(cert, family)
            assert result.ok and result.reason is None
            assert result.strict_property3

    def test_rejects_wrong_family(self):
        cert = build_chain(six_member(), self.params())
        assert not check_certificate(cert, three_member()).ok

    def test_tamper_witness_prime(self):
        cert = build_chain(six_member(), self.params())
        bad = dataclasses.replace(cert, witness_prime=409)
        result = check_certificate(bad, six_member())
        assert not result.ok and result.reason == "Property 4"

    def test_tamper_divisible_count(self):
        cert = build_chain(six_member(), self.params())
        bad = dataclasses.replace(cert, divisible_count=4)
        assert check_certificate(bad, six_member()).reason == "Property 4"

    def test_tamper_base(self):
        cert = build_chain(six_member(), self.params())
        bad = dataclasses.replace(cert, base=cert.base[:-1])
        assert check_certificate(bad, six_member()).reason == "base"

    def test_tamper_survivors(self):
        cert = build_chain(six_member(), self.params())
        step = cert.steps[0]
        moved = dataclasses.replace(step, survivors=step.survivors[:-1])
        bad = dataclasses.replace(cert, steps=(moved,))
        assert check_certificate(bad, six_member()).reason == "survivors"

    def test_tamper_combined_residue(self):
        cert = build_chain(six_member(), self.params())
        step = dataclasses.replace(
            cert.steps[0], combined_residue=cert.steps[0].combined_residue + 1
        )
        bad = dataclasses.replace(cert, steps=(step,))
        assert check_certificate(bad, six_member()).reason == "Property 2"

    def test_tamper_prime(self):
        cert = build_chain(six_member(), self.params())
        step = dataclasses.replace(cert.steps[0], prime=401)
        bad = dataclasses.replace(cert, steps=(step,))
        result = check_certificate(bad, six_member())
        assert not result.ok

    def test_tamper_t(self):
        cert = build_chain(six_member(), self.params())
        bad = dataclasses.replace(cert, t=2)
        assert check_certificate(bad, six_member()).reason == "structure"

    def test_tamper_params(self):
        cert = build_chain(six_member(), self.params())
        bad = dataclasses.replace(
            cert, params=RefinementParams(x=4090, omega_cap=2.5, prime_floor=400, ratio_denominator=1.5)
        )
        assert check_certificate(bad, six_member()).reason == "base"

    def test_missing_witness(self):
        cert = build_chain(six_member(), self.params())
        bad = dataclasses.replace(cert, witness_prime=None)
        assert check_certificate(bad, six_member()).reason == "Property 4"

    def test_composite_witness_rejected(self, tmp_path, capsys):
        # 1517 = 37 * 41 lies above the floor and divides all ten members, but
        # it is no prime of theirs: the stopping rule counts only primes
        primes = [p for p in sieve_primes(1100) if p > 1000][:10]
        family = fam([(i, 6 * 1517 * p) for i, p in enumerate(primes)], 6 * 1517 * primes[-1])
        assert verify_family(family).ok
        params = RefinementParams(x=family.x_bound, omega_cap=6, prime_floor=1000, ratio_denominator=2)
        forged = RefinementCertificate(params, family.items, (), 0, 1517, 10)
        assert check_certificate(forged, family) == CertificateCheck(False, "Property 4")
        fam_file, cert_file = tmp_path / "fam.jsonl", tmp_path / "forged.json"
        write_family(family, fam_file)
        write_certificate(forged, cert_file)
        assert main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)]) == 1
        assert json.loads(capsys.readouterr().out)["reason"] == "Property 4"

    def test_truthiness_is_ok(self):
        # a caller may test the check itself: a rejected one must be falsy
        cert = build_chain(six_member(), self.params())
        accepted = check_certificate(cert, six_member())
        rejected = check_certificate(dataclasses.replace(cert, divisible_count=4), six_member())
        assert accepted.ok and bool(accepted) is True
        assert not rejected.ok and bool(rejected) is False

    def test_empty_base_takes_no_witness_or_count(self):
        # 6 and 10 have no prime of at least 7, so the base is empty
        family, params = fam([(0, 6), (1, 10)], 10), RefinementParams(x=16, prime_floor=7)
        cert = build_chain(family, params)
        assert cert.base == () and check_certificate(cert, family).ok
        for edit in ({"divisible_count": 1}, {"witness_prime": 7}, {"divisible_count": 1, "witness_prime": 7}):
            bad = dataclasses.replace(cert, **edit)
            assert check_certificate(bad, family) == CertificateCheck(False, "structure")

    def test_member_sharing_no_candidate_prime_rejected(self):
        # 0 mod 6 and 1 mod 35 are coprime, so they meet (at 36): a step on 6
        # leaves 35 covered by none of its candidates 2 and 3
        family, params = fam([(0, 6), (1, 35)], 40), RefinementParams(40, 3, 2, 1)
        step = RefinementStep(
            index=1, chosen_modulus=6, candidate_primes=(2, 3), prime=2, residue_class=0, combined_residue=0, survivors=(6,)
        )
        cert = RefinementCertificate(params, family.items, (step,), 1, None, 0)
        assert check_certificate(cert, family) == CertificateCheck(False, "covering")

    def test_step_kept_with_equality_is_not_strict(self):
        # the base is 18 mod 42 and 51 mod 114; the step on 2 keeps 1 of 2
        # members, and 1 * 2 * ratio 1 == 2
        family = fam([(11, 30), (18, 42), (51, 114), (1, 330)], 400)
        cert = build_chain(family, RefinementParams(400, 4, 5, 1))
        assert [(s.prime, len(s.survivors)) for s in cert.steps] == [(2, 1)] and len(cert.base) == 2
        assert check_certificate(cert, family) == CertificateCheck(True, None, False)
        assert reference_check(cert, family) == CertificateCheck(True, None, False)

    def test_witness_of_a_used_prime_rejected(self):
        # the chain's first prime divides every survivor, so the count holds
        # but the prime is fixed already
        family, cert = stepped_chain()
        prime, count = cert.steps[0].prime, len(cert.steps[-1].survivors)
        bad = dataclasses.replace(cert, witness_prime=prime, divisible_count=count)
        assert check_certificate(bad, family) == CertificateCheck(False, "Property 4", True)

    def test_composite_witness_of_a_used_prime_rejected(self):
        # 2018 = 2 * 1009 divides the same 149 survivors as the genuine
        # witness 1009, since the chain has fixed 2
        family, cert = stepped_chain()
        assert (cert.witness_prime, cert.divisible_count) == (1009, 149)
        assert 2 in (step.prime for step in cert.steps)
        bad = dataclasses.replace(cert, witness_prime=2018)
        assert check_certificate(bad, family).reason == "Property 4"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cert = build_chain(six_member(), RefinementParams(x=4090, **RELAXED))
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        again = read_certificate(path)
        assert again == cert
        assert check_certificate(again, six_member()).ok

    def test_dict_round_trip(self):
        cert = build_chain(three_member(), RefinementParams(x=2406, **RELAXED))
        assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FamilyFormatError):
            read_certificate(path)
        with pytest.raises(FamilyFormatError):
            certificate_from_dict({"params": {}})

    @pytest.mark.parametrize("field", ["candidate_primes", "survivors"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_integer_list_entries_checked(self, field, value):
        data = certificate_to_dict(build_chain(six_member(), RefinementParams(x=4090, **RELAXED)))
        data["steps"][0][field][-1] = value
        with pytest.raises(FamilyFormatError, match=field):
            certificate_from_dict(data)

    @pytest.mark.parametrize("member", [0, -1])
    @pytest.mark.parametrize("residue", ["q", -1])
    def test_base_residue_outside_range_rejected(self, member, residue):
        # read back only as written: no residue is reduced, with or without a warning
        data = certificate_to_dict(build_chain(six_member(), RefinementParams(x=4090, **RELAXED)))
        q = data["base"][member][0]
        data["base"][member][1] = q if residue == "q" else residue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FamilyFormatError, match="'base'"):
                certificate_from_dict(data)

    @pytest.mark.parametrize("field", ["omega_cap", "prime_floor", "ratio_denominator"])
    @pytest.mark.parametrize("value", [True, False, None, "2"])
    def test_threshold_must_be_a_number(self, field, value):
        data = certificate_to_dict(build_chain(six_member(), RefinementParams(x=4090, **RELAXED)))
        data["params"][field] = value
        with pytest.raises(FamilyFormatError, match=field):
            certificate_from_dict(data)

    def test_json_tamper_detected(self, tmp_path):
        cert = build_chain(six_member(), RefinementParams(x=4090, **RELAXED))
        data = certificate_to_dict(cert)
        data["steps"][0]["residue_class"] = 1
        tampered = certificate_from_dict(json.loads(json.dumps(data)))
        assert not check_certificate(tampered, six_member()).ok

    @pytest.mark.parametrize(
        "family, params, digest",
        [
            (
                lambda: stepped(3 * 10**6),
                RefinementParams(x=3 * 10**6, omega_cap=6, prime_floor=1000, ratio_denominator=2),
                "ee747fd66247c6140b8a43ed77b03312201086985383fdc38e695b772228f681",
            ),
            (
                lambda: build_construction(ConstructionParams(x=10**8, squarefree_only=True)).family,
                RefinementParams(x=10**8, omega_cap=4, prime_floor=150, ratio_denominator=3),
                "8fd8b31ddb237f171880512b3be0bf548e968ffcaba5dc94ab1df00243955e6f",
            ),
        ],
        ids=["stepped-3e6", "squarefree-1e8"],
    )
    def test_certificate_bytes_frozen(self, family, params, digest):
        # digests of certificates built by factoring each member with factorize
        family = family()
        cert = build_chain(family, params)
        assert check_certificate(cert, family).ok
        text = json.dumps(certificate_to_dict(cert))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


CHECK_REASONS = {
    "base", "structure", "candidates", "covering", "survivors",
    "Property 2", "Property 3", "Property 4", "size bound",
}
INT_EDITS = (0, -1, 2**70, True, "7", 1.5, None)
PARAM_EDITS = (1e-300, 1e300, math.nan, math.inf)
LIST_EDITS = {
    "emptied": lambda value: [],
    "reversed": lambda value: value[::-1],
    "extended": lambda value: value + value[:1],
}


@functools.lru_cache(maxsize=None)
def genuine(name):
    # a family and its genuine certificate as JSON data
    if name == "six":
        family = six_member()
        return family, certificate_to_dict(build_chain(family, RefinementParams(x=4090, **RELAXED)))
    family, cert = stepped_chain()
    return family, certificate_to_dict(cert)


def fields(data):
    # paths to the integer fields and the lists of a certificate's JSON data,
    # params aside; a list longer than three contributes its first and last entries
    ints, lists = [], []

    def walk(value, path):
        if isinstance(value, list):
            lists.append(path)
            for i in sorted({0, len(value) - 1} if len(value) > 3 else range(len(value))):
                walk(value[i], path + (i,))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, path + (key,))
        elif isinstance(value, int):
            ints.append(path)

    walk({key: value for key, value in data.items() if key != "params"}, ())
    return ints, lists


@st.composite
def one_field_edit(draw):
    name = draw(st.sampled_from(("six", "stepped")))
    data = genuine(name)[1]
    ints, lists = fields(data)
    kind = draw(st.sampled_from(("int", "list", "params")))
    if kind == "params":
        return name, ("params", draw(st.sampled_from(sorted(data["params"])))), draw(st.sampled_from(PARAM_EDITS))
    if kind == "int":
        return name, draw(st.sampled_from(ints)), draw(st.sampled_from(INT_EDITS))
    return name, draw(st.sampled_from(lists)), draw(st.sampled_from(sorted(LIST_EDITS)))


class TestCheckCertExitCodes:
    @pytest.fixture(scope="class")
    def family_files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("check-cert")
        files = {}
        for name in ("six", "stepped"):
            files[name] = folder / f"{name}.jsonl"
            write_family(genuine(name)[0], files[name])
        return files

    @settings(max_examples=150, deadline=None)
    @given(one_field_edit())
    @example(("six", ("params", "ratio_denominator"), 1e300))
    def test_one_field_edit(self, family_files, edit):
        # any one-field edit exits 0, 1 with a documented reason, or 2, and
        # never with a traceback; the checker agrees with reference_check
        name, path, value = edit
        data = copy.deepcopy(genuine(name)[1])
        target = data
        for key in path[:-1]:
            target = target[key]
        if value in LIST_EDITS:
            value = LIST_EDITS[value](target[path[-1]])
        target[path[-1]] = value
        cert_file = family_files[name].with_suffix(".cert.json")
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-cert", "--cert", str(cert_file), "--in", str(family_files[name])])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        try:
            cert = certificate_from_dict(data)
        except DomainError:
            assert code == 2
            return
        expected = reference_check(cert, genuine(name)[0])
        assert check_certificate(cert, genuine(name)[0]) == expected
        assert code == (0 if expected.ok else 1)
        assert json.loads(out.getvalue()) == dataclasses.asdict(expected)
        assert expected.reason in CHECK_REASONS | {None}
