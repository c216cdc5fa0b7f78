import hashlib
import json
import math
import os
import pickle
import random
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apfam.construction import (
    ConstructionParams,
    build_construction,
    truncated_construction,
)
from apfam import family as family_module
from apfam.errors import CapacityError, DomainError, FamilyFormatError, StructuralError
from apfam.numtheory import FACTOR_LIMIT, crt_pair, factor_table
from apfam.family import (
    NUMPY_CUTOVER,
    Family,
    Progression,
    _scan_dense,
    dumps_family,
    family_digest,
    loads_family,
    read_family,
    translate,
    verify_family,
    write_family,
)
from oracles import density, factorizations, first_meeting_pair


def fam(pairs, x_bound):
    return Family.build([Progression(a, q) for a, q in pairs], x_bound)


def dense(items):
    """_scan_dense over the columns of a Progression list."""
    return _scan_dense([pr.modulus for pr in items], [pr.residue for pr in items])


def disjoint(p, q):
    """The library's pair test, _RowScanner's, on two progressions."""
    return dense([p, q]) is None


def contains(pr, n):
    return (n - pr.residue) % pr.modulus == 0


SEVEN_EIGHTHS = [(0, 2), (1, 4), (3, 8)]

# Progression lines as _lines writes them, and near misses the block parser
# must leave to the json path.
LINE_FORMS = [
    '{"q": %s, "a": %s}',
    '{"q": 0%s, "a": %s}',
    '{"q": %s, "a": -%s}',
    '{"q":  %s, "a": %s}',
    '{"q":%s,"a":%s}',
    ' {"q": %s, "a": %s}',
    '{"q": %s, "a": %s} ',
    '{"q": %s, "a": %s}\r',
    '{"q": %s,\r"a": %s}',
    '{"q": %s, "a": %s}x',
    '{"q": %s.0, "a": %s}',
    '{"q": %s, "a": %s, "a": 1}',
    '{"q": "%s", "a": %s}',
    '{"q"  %s, "a": %s}',  # one byte off at each part of the canonical text
    '{"q": %s, "a"; %s}',
    '{"q": %s, "a": %s)',
]
PAST_INT_LIMIT = "9" * 5000  # past int()'s default 4300-digit limit, so kept as text
LINE_INTS = st.one_of(
    st.integers(0, 70).map(str),
    # either side of the block parser's 18-digit cap, and of int64's end
    st.sampled_from([18, 19]).flatmap(lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1).map(str)),
    st.integers(2**63 - 3, 2**63 + 3).map(str),
    st.sampled_from([999, 1000, 1001]).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1).map(str)
    ),
    st.just(PAST_INT_LIMIT),
)


@st.composite
def family_texts(draw):
    lines = ['{"x": %d, "count": %d}' % (10**1100, draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 8))):
        near_miss = st.sampled_from(LINE_FORMS[1:] + ['{"a": %s, "q": %s}'])
        form = draw(st.one_of(st.just(LINE_FORMS[0]), st.just(LINE_FORMS[0]), near_miss))
        lines.append(form % (draw(LINE_INTS), draw(LINE_INTS)))
    for _ in range(draw(st.integers(0, 2))):  # blank lines, before the header too
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse):
    """The family or the error a parse gives, with any warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse()
        except DomainError as exc:  # FamilyFormatError or StructuralError
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


class TestProgression:
    def test_modulus_too_small(self):
        with pytest.raises(StructuralError):
            Progression(0, 1)

    def test_unreduced_residue_warns(self):
        with pytest.warns(UserWarning):
            pr = Progression(7, 5)
        assert pr.residue == 2

    def test_negative_residue_warns_and_reduces(self):
        with pytest.warns(UserWarning):
            pr = Progression(-1, 5)
        assert pr.residue == 4

    @pytest.mark.parametrize(
        "residue, modulus, expected",
        [(np.int64(1), np.uint64(5), (1, 5)), (True, 3, (1, 3)), (np.int32(-1), np.int8(5), (4, 5)), (0, np.uint64(2**64 - 1), (0, 2**64 - 1))],
    )
    def test_integers_become_python_ints(self, residue, modulus, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # -1 is reduced mod 5
            pr = Progression(residue, modulus)
        assert (pr.residue, pr.modulus) == expected
        assert (type(pr.residue), type(pr.modulus)) == (int, int)


class TestDisjoint:
    def test_examples(self):
        assert disjoint(Progression(0, 2), Progression(1, 4))
        assert not disjoint(Progression(1, 4), Progression(3, 6))
        assert disjoint(Progression(3, 15), Progression(8, 30))

    def test_coprime_moduli_always_intersect(self):
        for a1 in range(3):
            for a2 in range(5):
                assert not disjoint(Progression(a1, 3), Progression(a2, 5))

    def test_against_period_scan(self):
        # full truth table over one common period for all moduli <= 12
        for q1 in range(2, 13):
            for q2 in range(2, 13):
                lcm = math.lcm(q1, q2)
                for a1 in range(q1):
                    s1 = set(range(a1, lcm, q1))
                    for a2 in range(q2):
                        empty = not (s1 & set(range(a2, lcm, q2)))
                        assert disjoint(Progression(a1, q1), Progression(a2, q2)) == empty


class TestFamilyStructure:
    def test_duplicate_modulus_rejected(self):
        with pytest.raises(StructuralError):
            fam([(0, 4), (1, 4)], 10)

    def test_modulus_beyond_bound_rejected(self):
        with pytest.raises(StructuralError):
            fam([(0, 11)], 10)

    def test_build_sorts(self):
        f = fam([(3, 8), (0, 2), (1, 4)], 8)
        assert f.moduli() == [2, 4, 8]

    def test_empty_ok(self):
        assert fam([], 100).size == 0

    def test_x_bound_floor(self):
        with pytest.raises(StructuralError):
            Family(items=(), x_bound=1)

    def test_keeps_the_members_given(self):
        items = (Progression(1, 5), Progression(2, 7), Progression(0, 2**70))
        for family in (Family(items, 2**70), Family.build(reversed(items), 2**70)):
            assert all(kept is given for kept, given in zip(family.items, items, strict=True))
            assert family.items == Family.from_columns(family.q, family.a, family.x_bound).items

    def test_equality_with_a_non_family_defers(self):
        # NotImplemented lets Python ask the other operand
        f = fam([(0, 2), (1, 4)], 10)
        assert f == mock.ANY and mock.ANY == f
        assert f != (f.q, f.a, f.x_bound)

    def test_repr_rebuilds_the_family(self):
        f = fam([(0, 2), (1, 4), (3, 2**70)], 2**71)
        assert repr(f) == f"Family.from_columns([2, 4, {2**70}], [0, 1, 3], {2**71})"
        assert eval(repr(f), {"Family": Family}) == f


class TestVerify:
    def test_seven_eighths_family(self):
        f = fam(SEVEN_EIGHTHS, 8)
        report = verify_family(f)
        assert report.ok
        assert report.pair_count == 3
        assert density(f) == Fraction(7, 8)

    def test_failure_witness(self):
        f = fam([(0, 2), (0, 3)], 3)
        report = verify_family(f)
        assert not report.ok
        assert (report.witness.i, report.witness.j) == (0, 1)
        assert report.witness.common == 0

    def test_witness_is_lexicographically_first(self):
        # pairs (1,2) and (2,3) both clash; the report must name (1,2)
        f = fam([(0, 2), (1, 4), (1, 6), (3, 8)], 8)
        report = verify_family(f)
        assert not report.ok
        assert (report.witness.i, report.witness.j) == (1, 2)
        assert report.witness.common == 1

    def test_common_element_is_smallest(self):
        f = fam([(1, 4), (3, 6)], 6)
        report = verify_family(f)
        assert report.witness.common == 9
        for n in range(9):
            assert not (contains(f.items[0], n) and contains(f.items[1], n))

    def test_single_and_empty(self):
        assert verify_family(fam([(0, 2)], 2)).ok
        assert verify_family(fam([], 5)).ok

    def test_numpy_scan_matches_python_oracle(self):
        # _scan_dense runs a row in numpy when it has NUMPY_CUTOVER or more
        # partners, so families above NUMPY_CUTOVER + 1 members take both
        # routes; each hit is recorded with the route of its row
        rng = random.Random(7)
        built = build_construction(ConstructionParams(x=10**6)).family.items
        seen = set()
        for trial in range(40):
            if trial % 2:
                # a subfamily of the construction, so disjoint, unless member
                # j is moved into member k's class
                n = rng.randrange(2, 2 * NUMPY_CUTOVER)
                items = [built[i] for i in sorted(rng.sample(range(len(built)), n))]
                if trial % 4 == 3:
                    k, j = sorted(rng.sample(range(n), 2))
                    q = items[j].modulus
                    items[j] = Progression(items[k].residue % q, q)
            else:
                n = rng.randrange(2, 40)
                moduli = sorted(rng.sample(range(2, 200), n))
                items = [Progression(rng.randrange(q), q) for q in moduli]
            expected = first_meeting_pair(items)
            assert dense(items) == expected
            if expected is None:
                seen.add("disjoint, numpy rows" if n > NUMPY_CUTOVER + 1 else "disjoint")
            else:
                seen.add("numpy hit" if n - 1 - expected[0] >= NUMPY_CUTOVER else "python hit")
        assert seen == {"disjoint", "disjoint, numpy rows", "numpy hit", "python hit"}
        # planted pairs at either end of a numpy row (3) and a Python row (60); with
        # moduli times 2**63, past int64, every row takes the exact route
        for scale in (1, 2**63):
            items = [Progression(pr.residue, pr.modulus * scale) for pr in built[:250]]
            assert first_meeting_pair(items) is None and dense(items) is None
            for k, j in ((3, 4), (3, 249), (60, 61), (60, 249)):
                planted = list(items)
                q = planted[j].modulus
                planted[j] = Progression(planted[k].residue % q, q)
                assert dense(planted) == first_meeting_pair(planted) == (k, j)

    def test_moduli_past_int64_take_the_exact_scan(self):
        scale = 2**63
        items = build_construction(ConstructionParams(x=10**6)).family.items[:250]
        wide = Family(
            tuple(Progression(pr.residue, pr.modulus * scale) for pr in items),
            10**6 * scale,
        )
        report = verify_family(wide)  # int64 numpy would overflow here
        assert report.ok and report.pair_count == 250 * 249 // 2
        # move member 200 into member 3's class: the pair now intersects
        planted = list(wide.items)
        q = planted[200].modulus
        planted[200] = Progression(planted[3].residue % q, q)
        planted = Family(tuple(planted), wide.x_bound)
        report = verify_family(planted)
        assert not report.ok
        w = report.witness
        assert (w.i, w.j) == first_meeting_pair(planted.items)
        assert contains(planted.items[w.i], w.common)
        assert contains(planted.items[w.j], w.common)
        assert 0 <= w.common < math.lcm(planted.items[w.i].modulus, planted.items[w.j].modulus)

    def test_verdict_permutation_invariant(self):
        rng = random.Random(11)
        base = [(rng.randrange(q), q) for q in rng.sample(range(2, 100), 20)]
        verdict = verify_family(fam(base, 100)).ok
        for _ in range(5):
            rng.shuffle(base)
            assert verify_family(fam(base, 100)).ok == verdict


def oracle_witness(items):
    """(i, j, common) from the dense Python scan, or None."""
    hit = first_meeting_pair(items)
    if hit is None:
        return None
    i, j = hit
    common = crt_pair(items[i].residue, items[i].modulus, items[j].residue, items[j].modulus)
    return i, j, common[0]


def partition_witness(family):
    report = verify_family(family)
    assert report.pair_count == family.size * (family.size - 1) // 2
    assert report.ok == (report.witness is None)
    w = report.witness
    return None if w is None else (w.i, w.j, w.common)


def meet(items, k, j):
    """Copy of items whose member j is moved to meet member k."""
    items = list(items)
    q = items[j].modulus
    items[j] = Progression(items[k].residue % q, q)
    return items


def plants(n):
    """An optional (k, j) pair to plant, k < j < n, early or late in the rows."""
    tail = max(1, n // 10)
    early = st.tuples(st.integers(0, min(9, n - 2)), st.integers(n // 2, n - 1))
    late = st.tuples(st.integers(n - tail - 1, n - 2), st.integers(n - tail, n - 1))
    return st.none() | (early | late).filter(lambda kj: kj[0] < kj[1])


SHARED = [6, 10, 12, 15, 18, 20, 30, 36, 40, 42, 60, 84, 90, 120, 210, 2 * 997, 6 * 1009]


def greedy_disjoint(rows):
    """The members (a mod q) of rows, in order, that miss every one kept."""
    kept = {}
    for q, a in rows:
        pr = Progression(a % q, q)
        if q not in kept and all(
            (pr.residue - other.residue) % math.gcd(q, other.modulus) for other in kept.values()
        ):
            kept[q] = pr
    return sorted(kept.values(), key=lambda pr: pr.modulus)


class TestPartitionOracle:
    """verify_family against the dense first_meeting_pair: same verdict, same
    witness pair and common element."""

    @given(st.integers(0, 2**64))
    def test_random_wide_moduli_sharing_small_factors(self, seed):
        # a random disjoint family, so that the first meeting pair, if any,
        # is the planted one and may lie in any block of the partition
        rng = random.Random(seed)
        cofactors = [1, 1009, 1013 * 1019, 2**61 - 1]
        items = greedy_disjoint(
            (rng.choice(SHARED) * rng.choice(cofactors + [rng.randrange(1, 2**60)]), rng.randrange(2**70))
            for _ in range(100)
        )
        plant = None
        if len(items) > 1 and rng.random() < 0.8:
            plant = sorted(rng.sample(range(len(items)), 2))
        if plant:
            items = meet(items, *plant)
        f = Family(tuple(items), items[-1].modulus)
        expected = oracle_witness(f.items)
        assert (expected is None) == (plant is None)
        assert partition_witness(f) == expected

    @given(
        st.lists(st.integers(0, 2**40), min_size=2, max_size=40),
        st.data(),
    )
    def test_two_adic_chain_with_cofactors(self, draws, data):
        # member i is 2**i + 2**(i+1)*u mod 2**(i+1)*c with c odd: residues of
        # i < j differ mod 2**(i+1), so the family is disjoint and deep
        items = [
            Progression((2**i + 2 ** (i + 1) * u) % (2 ** (i + 1) * (2 * u + 1)), 2 ** (i + 1) * (2 * u + 1))
            for i, u in enumerate(draws)
        ]
        items = sorted({pr.modulus: pr for pr in items}.values(), key=lambda pr: pr.modulus)
        plant = data.draw(plants(len(items))) if len(items) > 1 else None
        if plant:
            items = meet(items, *plant)
        f = Family(tuple(items), items[-1].modulus)
        expected = oracle_witness(f.items)
        assert (expected is None) == (plant is None)
        assert partition_witness(f) == expected

    @settings(max_examples=40)
    @given(plants(400))
    def test_construction_with_one_plant(self, plant):
        items = CONSTRUCTION.items
        if plant:
            items = meet(items, *plant)
        f = Family(tuple(items), CONSTRUCTION.x_bound)
        expected = oracle_witness(f.items)
        assert (expected is None) == (plant is None)
        assert partition_witness(f) == expected

    @settings(max_examples=30)
    @given(plants(250))
    def test_construction_scaled_past_int64(self, plant):
        scale = 2**63
        items = [Progression(pr.residue, pr.modulus * scale) for pr in CONSTRUCTION.items[:250]]
        if plant:
            items = meet(items, *plant)
        f = Family(tuple(items), CONSTRUCTION.x_bound * scale)
        assert partition_witness(f) == oracle_witness(f.items)

    @settings(max_examples=30)
    @given(plants(250))
    def test_no_shared_divisor_is_one_dense_block(self, plant):
        # moduli 1000003 * r for primes r above 1000: no shared base splits,
        # so every row is scanned, the long ones in numpy
        primes = [r for r in range(1001, 3000) if all(r % d for d in range(2, 55))][:250]
        items = [Progression(i, 1_000_003 * r) for i, r in enumerate(primes)]
        if plant:
            items = meet(items, *plant)
        f = Family(tuple(items), 1_000_003 * primes[-1])
        expected = oracle_witness(f.items)
        assert (expected is None) == (plant is None)
        assert partition_witness(f) == expected

    def test_deep_power_of_two_chain(self):
        chain = fam([(2 ** (k - 1), 2**k) for k in range(1, 301)], 2**300)
        report = verify_family(chain)
        assert report.ok and report.pair_count == 300 * 299 // 2
        planted = Family(tuple(meet(chain.items, 150, 299)), chain.x_bound)
        assert partition_witness(planted) == oracle_witness(planted.items)


CONSTRUCTION = truncated_construction(400)


class TestTranslate:
    def test_example(self):
        f = translate(fam(SEVEN_EIGHTHS, 8), 1)
        assert [(pr.residue, pr.modulus) for pr in f.items] == [
            (1, 2),
            (2, 4),
            (4, 8),
        ]

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_verdict_invariant(self, shift):
        good = fam(SEVEN_EIGHTHS, 8)
        bad = fam([(0, 2), (2, 4)], 4)
        assert verify_family(translate(good, shift)).ok
        assert not verify_family(translate(bad, shift)).ok

    def test_round_trip(self):
        f = fam(SEVEN_EIGHTHS, 8)
        assert translate(translate(f, 5), -5) == f

    @pytest.mark.parametrize("shift", [0, 1, -1, 2**62, -(2**63), 2**63 - 1, 2**64 + 3, -(2**64 + 3), 3**90])
    @pytest.mark.parametrize("top", [2**62, 2**63 - 1, 2**63 + 1])
    def test_shift_past_int64(self, shift, top):
        # int64 moduli near 2**62 and 2**63, where a + shift would pass int64
        moduli = [5, top - 4, top - 2, top]
        residues = [4, top - 5, (top - 2) // 2, top - 1]
        f = Family.from_columns(moduli, residues, top)
        shifted = translate(f, shift)
        assert shifted.q.dtype == f.q.dtype == (np.int64 if top < 2**63 else object)
        expected = [(a + shift) % q for q, a in zip(moduli, residues)]
        assert shifted.a.tolist() == expected and shifted == Family.from_columns(moduli, expected, top)


class TestFactorCache:
    """Family.factors: built on first use, by the construction's walk or by
    factor_table, then kept read-only; never part of ==, hash or pickle."""

    @pytest.mark.parametrize("source", ["walk", "factor_table"])
    def test_table_is_kept_and_read_only(self, source, table_builds):
        family = build_construction(ConstructionParams(x=10**5)).family
        if source == "factor_table":
            family = loads_family(dumps_family(family))
        table = family.factors
        assert family.factors is table
        assert table_builds == {"factor_table": source == "factor_table", "tree": source == "walk"}
        for column in table:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:1] = 0
        assert factorizations(table) == factorizations(factor_table(family.q))

    def test_capacity_error_is_not_kept(self, table_builds):
        family = fam([(0, 6), (0, FACTOR_LIMIT + 1)], FACTOR_LIMIT + 1)
        messages = []
        for _ in range(2):
            with pytest.raises(CapacityError) as caught:
                family.factors
            messages.append(str(caught.value))
        assert messages == [f"{FACTOR_LIMIT + 1} exceeds trial-division limit {FACTOR_LIMIT}"] * 2
        assert table_builds["factor_table"] == 2

    def test_domain_error_is_not_kept(self, monkeypatch):
        family = fam([(1, 6), (0, 10)], 10)
        real, calls = family_module.factor_table, []

        def failing(moduli):
            calls.append(1)
            if len(calls) < 3:
                raise DomainError("cannot factor")
            return real(moduli)

        monkeypatch.setattr(family_module, "factor_table", failing)
        for _ in range(2):
            with pytest.raises(DomainError, match="cannot factor"):
                family.factors
        # a build that succeeds is kept
        assert family.factors is family.factors
        assert factorizations(family.factors) == [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 5, 1)]
        assert len(calls) == 3

    def test_cache_is_no_part_of_equality_hash_or_pickle(self, table_builds):
        built = build_construction(ConstructionParams(x=10**5)).family
        plain = Family.from_columns(built.q.copy(), built.a.copy(), built.x_bound)
        built.factors
        assert built == plain and hash(built) == hash(plain)
        assert pickle.dumps(built) == pickle.dumps(plain)
        again = pickle.loads(pickle.dumps(built))
        assert again == built and table_builds == {"factor_table": 0, "tree": 1}
        # the copy factors its moduli afresh
        assert factorizations(again.factors) == factorizations(built.factors)
        assert table_builds == {"factor_table": 1, "tree": 1}

    def test_translate_hands_the_table_on(self, table_builds):
        built = build_construction(ConstructionParams(x=10**5)).family
        shifted = translate(built, 2**40 + 1)
        assert shifted.factors is translate(shifted, -1).factors is built.factors
        assert table_builds == {"factor_table": 0, "tree": 1}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def no_lines(family):
    raise AssertionError("the family's text was formatted again")


# Edits of dumps_family(fam(SEVEN_EIGHTHS, 8)) that read to the same family
# but are not its canonical text.
NOT_CANONICAL = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "leading blank line": lambda text: "\n" + text,
    "blank line": lambda text: text.replace("\n", "\n\n", 2),
    "trailing blank line": lambda text: text + "\n",
    "swapped lines": lambda text: "".join(text.splitlines(True)[i] for i in (0, 2, 1, 3)),
    "residue past modulus": lambda text: text.replace('{"q": 4, "a": 1}', '{"q": 4, "a": 5}'),
    "no final line break": lambda text: text[:-1],
    "header spacing": lambda text: text.replace('{"x": 8, "count": 3}', '{"x":8, "count":3}'),
}


class TestRecordedDigest:
    """The sha256 of a family's canonical text is hashed once: write_family
    and a read of canonical text record it, family_digest returns it."""

    @pytest.mark.parametrize("chars", [7, 2**16])
    def test_write_and_canonical_read_record_it(self, tmp_path, chars):
        families = [
            fam(SEVEN_EIGHTHS, 8),
            Family.from_columns([], [], 2),
            truncated_construction(3000),  # 3000 lines, past one block of _lines and of the reader
            translate(truncated_construction(50), 2**40 + 3),
        ]
        path = tmp_path / "fam.jsonl"
        for f in families:
            expected = sha256_text(dumps_family(f))
            write_family(f, path)
            assert f._digest == expected == hashlib.sha256(path.read_bytes()).hexdigest()
            with mock.patch.object(family_module, "_READ_CHARS", chars):
                again = [read_family(path), loads_family(path.read_text())]
            with mock.patch.object(family_module, "_lines", no_lines):
                for g in again:
                    assert g == f and g._digest == expected
                    assert family_digest(g) == expected
                    assert verify_family(g).digest == expected

    def test_digest_recorded_on_first_use(self):
        f = fam(SEVEN_EIGHTHS, 8)
        assert f._digest is None
        assert family_digest(f) == sha256_text(dumps_family(f)) == f._digest
        with mock.patch.object(family_module, "_lines", no_lines):
            assert family_digest(f) == f._digest

    @pytest.mark.parametrize("edit", NOT_CANONICAL, ids=list(NOT_CANONICAL))
    def test_non_canonical_text_records_nothing(self, tmp_path, edit):
        f = fam(SEVEN_EIGHTHS, 8)
        text = NOT_CANONICAL[edit](dumps_family(f))
        path = tmp_path / "fam.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the residue past its modulus is reduced
            read = [read_family(path), loads_family(text)]
        for g in read:
            assert g == f and g._digest is None
            plain = Family.from_columns(g.q.tolist(), g.a.tolist(), g.x_bound)
            assert family_digest(g) == family_digest(plain) == sha256_text(dumps_family(f))

    def test_nineteen_digit_value_records_nothing(self, tmp_path):
        # canonical text, but past the block pattern's 18 digits, so read by json
        f = Family.from_columns([2, 10**18], [1, 10**18 - 1], 10**18)
        path = tmp_path / "fam.jsonl"
        write_family(f, path)
        assert f._digest == sha256_text(dumps_family(f))
        for g in (read_family(path), loads_family(dumps_family(f))):
            assert g == f and g._digest is None
            plain = Family.from_columns([2, 10**18], [1, 10**18 - 1], 10**18)
            assert family_digest(g) == family_digest(plain) == f._digest

    @pytest.mark.parametrize(
        "text",
        [
            '{"x": 8, "count": 1, "\ud800": 0}\n{"q": 2, "a": 0}\n',
            '{"x": 8, "count": 1}\n{"q": 2, "a": 0, "\ud800": 0}\n',
        ],
    )
    def test_lone_surrogate_is_read_not_hashed(self, text):
        # the text cannot be encoded, and is never asked to be
        f = loads_family(text)
        assert f == fam([(0, 2)], 8) and f._digest is None

    @given(family_texts(), st.sampled_from([1, 7, 40, 2**16]))
    @example('{"x": 8, "count": 2}\n{"q": 2, "a": 0}\n{"q": 4, "a": 1}\n', 7)
    def test_recorded_exactly_for_canonical_text(self, text, chars):
        with mock.patch.object(family_module, "_READ_CHARS", chars):
            result, _ = _outcome(lambda: loads_family(text))
        if isinstance(result, Family):
            canonical = text == dumps_family(result) and all(v < 10**18 for v in result.q.tolist())
            assert (result._digest is not None) == canonical
            assert family_digest(result) == sha256_text(dumps_family(result))

    def test_digest_is_no_part_of_equality_hash_or_pickle(self, tmp_path):
        f = fam(SEVEN_EIGHTHS, 8)
        plain = Family.from_columns(f.q.copy(), f.a.copy(), f.x_bound)
        write_family(f, tmp_path / "fam.jsonl")
        assert f._digest is not None and plain._digest is None
        assert f == plain and hash(f) == hash(plain)
        assert pickle.dumps(f) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(f))._digest is None

    def test_failed_write_records_nothing(self, tmp_path):
        f = fam(SEVEN_EIGHTHS, 8)
        with pytest.raises(OSError):
            write_family(f, tmp_path)  # a directory
        assert f._digest is None


class TestSerialization:
    def test_golden_bytes(self):
        text = dumps_family(fam(SEVEN_EIGHTHS, 8))
        assert text == (
            '{"x": 8, "count": 3}\n'
            '{"q": 2, "a": 0}\n'
            '{"q": 4, "a": 1}\n'
            '{"q": 8, "a": 3}\n'
        )

    def test_lines_are_json_dumps(self):
        f = fam([(0, 5), (2**70 + 1, 2**71), (3, 10**30)], 10**30)
        lines = [json.dumps({"x": f.x_bound, "count": f.size})]
        lines += [json.dumps({"q": pr.modulus, "a": pr.residue}) for pr in f.items]
        assert dumps_family(f) == "\n".join(lines) + "\n"

    def test_round_trip(self, tmp_path):
        f = fam([(0, 5), (2, 10), (3, 15)], 100)
        path = tmp_path / "fam.jsonl"
        write_family(f, path)
        again = read_family(path)
        assert again == f
        assert family_digest(again) == family_digest(f)

    @pytest.mark.parametrize(
        "text",
        [
            '{"x": 8, "count": 2}\r\n{"q": 2, "a": 0}\r\n{"q": 4, "a": 1}\r\n',
            '{"x": 8, "count": 2}\r{"q": 2, "a": 0}\n{"q": 4, "a": 1}\n',
            '\n\n{"x": 8, "count": 1}\n\n{"q": 2, "a": 0}',
        ],
    )
    def test_read_splits_lines_as_loads(self, tmp_path, text):
        path = tmp_path / "fam.jsonl"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for parse in (lambda: read_family(path), lambda: loads_family(text)):
            try:
                outcomes.append(parse())
            except FamilyFormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @given(family_texts(), st.sampled_from([1, 7, 40, 2**16]))
    @example('{"x": 8, "count": 1}\n{"q": 5,\r"a": 1}\n', 2**16)
    def test_canonical_pattern_agrees_with_json_path(self, text, chars):
        # chars small splits the text into blocks of a line or a few, with
        # lines across the edges of the chunks read; read_family reads the
        # same text from a file (tmp_path is one folder for every example)
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "fam.jsonl")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            with mock.patch.object(family_module, "_READ_CHARS", chars):
                fast = _outcome(lambda: loads_family(text))
                from_file = _outcome(lambda: read_family(path))
                with mock.patch.object(family_module, "_canonical_block", lambda block: None):
                    slow = _outcome(lambda: loads_family(text))
        assert fast == slow
        assert from_file == fast

    def test_canonical_pattern_takes_written_lines_only(self):
        canonical = family_module._canonical_block
        for q, a in ((2, 0), (10**18 - 1, 10**17), (10, 9)):
            line = '{"q": %d, "a": %d}' % (q, a)
            for text in (line, line + "\n", (line + "\n") * 3):
                moduli, residues = canonical(text)
                assert moduli.dtype == residues.dtype == np.int64
                assert moduli.tolist() == [q] * text.count("}") and residues.tolist() == [a] * text.count("}")
        for q in (str(10**18), str(2**63), str(10**1000), PAST_INT_LIMIT):
            assert canonical('{"q": %s, "a": 0}\n' % q) is None
        for form in LINE_FORMS[1:]:
            assert canonical(form % (5, 3) + "\n") is None
            assert canonical('{"q": 2, "a": 0}\n' + form % (5, 3) + "\n") is None
        for text in ("\n", '{"q": 2, "a": 0}\n\n', "{\u00e9}\n"):
            assert canonical(text) is None
        with pytest.raises(FamilyFormatError):
            loads_family('{"x": 8, "count": 1}\n{"q": %s, "a": 0}\n' % PAST_INT_LIMIT)

        # what dumps_family writes is read back without json, but the header,
        # over several blocks of _lines and of the reader
        parse_line = family_module._parse_line

        def header_only(line, number):
            if number > 1:
                raise AssertionError(f"line {number} took the json path")
            return parse_line(line, number)

        with mock.patch.object(family_module, "_parse_line", header_only):
            for size in (1, 512, 1025, 2600):
                moduli = list(range(2, 2 + size)) + list(range(10**18 - size, 10**18))
                residues = [(0, 1, q - 1)[k % 3] for k, q in enumerate(moduli)]
                written = Family.from_columns(moduli, residues, 10**18 - 1)
                assert loads_family(dumps_family(written)) == written
            nineteen_digits = Family.from_columns([2, 10**18], [1, 10**18 - 1], 10**18)
            with pytest.raises(AssertionError, match="json path"):
                loads_family(dumps_family(nineteen_digits))
        assert loads_family(dumps_family(nineteen_digits)) == nineteen_digits

    def test_truncated_json(self):
        with pytest.raises(FamilyFormatError):
            loads_family('{"x": 8, "count": 1}\n{"q": 2, "a"')

    def test_missing_header_fields(self):
        with pytest.raises(FamilyFormatError):
            loads_family('{"x": 8}\n')
        with pytest.raises(FamilyFormatError):
            loads_family('{"q": 2, "a": 0}\n')

    def test_count_mismatch(self):
        with pytest.raises(FamilyFormatError):
            loads_family('{"x": 8, "count": 2}\n{"q": 2, "a": 0}\n')

    def test_non_integer_field(self):
        with pytest.raises(FamilyFormatError):
            loads_family('{"x": 8, "count": 1}\n{"q": 2.5, "a": 0}\n')

    def test_empty(self):
        with pytest.raises(FamilyFormatError):
            loads_family("")

    def test_unreduced_residue_warns_on_read(self):
        with pytest.warns(UserWarning):
            f = loads_family('{"x": 8, "count": 1}\n{"q": 4, "a": 9}\n')
        assert f.items[0].residue == 1

    def test_unsorted_input_is_sorted(self):
        f = loads_family(
            '{"x": 8, "count": 2}\n{"q": 8, "a": 3}\n{"q": 2, "a": 0}\n'
        )
        assert f.moduli() == [2, 8]

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(StructuralError):
            loads_family(
                '{"x": 8, "count": 2}\n{"q": 4, "a": 0}\n{"q": 4, "a": 1}\n'
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_duplicate_modulus_named_by_value(self, seed):
        # the sort need not keep equal moduli in file order: the error names
        # the repeated modulus alone, the same whichever copy comes first
        rng = random.Random(seed)
        rows = [(pr.modulus, pr.residue) for pr in truncated_construction(2000).items]
        q, a = rows[rng.randrange(len(rows))]
        rows.append((q, (a + 1) % q))
        rng.shuffle(rows)
        lines = ['{"q": %d, "a": %d}\n' % row for row in rows]
        text = '{"x": %d, "count": %d}\n' % (max(rows)[0], len(rows)) + "".join(lines)
        with pytest.raises(StructuralError, match=f"^moduli must strictly increase, {q} after {q}$"):
            loads_family(text)
