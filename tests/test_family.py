import io
import json
import math
import random
import re
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from apfam.construction import (
    ConstructionParams,
    build_construction,
    truncated_construction,
)
from apfam import family as family_module
from apfam.errors import DomainError, FamilyFormatError, StructuralError
from apfam.numtheory import crt_pair
from apfam.family import (
    NUMPY_CUTOVER,
    _CANONICAL_LINE,
    Family,
    Progression,
    _scan_dense,
    _scan_python,
    density,
    disjoint,
    dumps_family,
    family_digest,
    loads_family,
    read_family,
    translate,
    verify_family,
    write_family,
)


def fam(pairs, x_bound):
    return Family.build([Progression(a, q) for a, q in pairs], x_bound)


def dense(items):
    """_scan_dense over the columns of a Progression list."""
    return _scan_dense([pr.modulus for pr in items], [pr.residue for pr in items])


SEVEN_EIGHTHS = [(0, 2), (1, 4), (3, 8)]

# Progression lines as _lines writes them, and near misses the pattern must
# leave to the json path.
LINE_FORMS = [
    '{"q": %s, "a": %s}',
    '{"q": 0%s, "a": %s}',
    '{"q": %s, "a": -%s}',
    '{"q":  %s, "a": %s}',
    '{"q":%s,"a":%s}',
    ' {"q": %s, "a": %s}',
    '{"q": %s, "a": %s} ',
    '{"q": %s, "a": %s}\r',
    '{"q": %s, "a": %s}x',
    '{"q": %s.0, "a": %s}',
    '{"q": %s, "a": %s, "a": 1}',
    '{"q": "%s", "a": %s}',
]
PAST_INT_LIMIT = "9" * 5000  # past int()'s default 4300-digit limit, so kept as text
LINE_INTS = st.one_of(
    st.integers(0, 70).map(str),
    st.sampled_from([999, 1000, 1001]).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1).map(str)
    ),
    st.just(PAST_INT_LIMIT),
)


@st.composite
def family_texts(draw):
    lines = ['{"x": %d, "count": %d}' % (10**1100, draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 5))):
        near_miss = st.sampled_from(LINE_FORMS[1:] + ['{"a": %s, "q": %s}'])
        form = draw(st.one_of(st.just(LINE_FORMS[0]), near_miss))
        lines.append(form % (draw(LINE_INTS), draw(LINE_INTS)))
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

    def test_contains(self):
        pr = Progression(3, 8)
        assert pr.contains(3) and pr.contains(11) and pr.contains(19)
        assert not pr.contains(4)


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

    def test_symmetric(self):
        p, q = Progression(5, 12), Progression(3, 10)
        assert disjoint(p, q) == disjoint(q, p)


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
            assert not (f.items[0].contains(n) and f.items[1].contains(n))

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
            expected = _scan_python(items)
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
            assert _scan_python(items) is None and dense(items) is None
            for k, j in ((3, 4), (3, 249), (60, 61), (60, 249)):
                planted = list(items)
                q = planted[j].modulus
                planted[j] = Progression(planted[k].residue % q, q)
                assert dense(planted) == _scan_python(planted) == (k, j)

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
        assert (w.i, w.j) == _scan_python(planted.items)
        assert planted.items[w.i].contains(w.common)
        assert planted.items[w.j].contains(w.common)
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
    hit = _scan_python(items)
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
        if q not in kept and all(disjoint(pr, other) for other in kept.values()):
            kept[q] = pr
    return sorted(kept.values(), key=lambda pr: pr.modulus)


class TestPartitionOracle:
    """verify_family against the dense _scan_python: same verdict, same
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

    @given(family_texts())
    def test_canonical_pattern_agrees_with_json_path(self, text):
        for parse in (
            lambda: loads_family(text),
            lambda: family_module._parse_family(io.StringIO(text, newline="\n")),
        ):
            fast = _outcome(parse)
            with mock.patch.object(family_module, "_CANONICAL_LINE", re.compile("(?!)")):
                slow = _outcome(parse)
            assert fast == slow

    def test_canonical_pattern_takes_written_lines_only(self):
        for q, a in ((2, 0), (10**999, 10**999 - 1)):
            line = '{"q": %d, "a": %d}' % (q, a)
            assert _CANONICAL_LINE.fullmatch(line).groups() == (str(q), str(a))
            assert _CANONICAL_LINE.fullmatch(line + "\n")
        for q in (str(10**1000), PAST_INT_LIMIT):
            assert not _CANONICAL_LINE.fullmatch('{"q": %s, "a": 0}\n' % q)
        for form in LINE_FORMS[1:]:
            assert not _CANONICAL_LINE.fullmatch(form % (5, 3) + "\n")
        with pytest.raises(FamilyFormatError):
            loads_family('{"x": 8, "count": 1}\n{"q": %s, "a": 0}\n' % PAST_INT_LIMIT)

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
