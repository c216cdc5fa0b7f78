"""A Family stores its moduli and residues as two read-only columns, int64
or Python ints; its items view of Progressions is built only when a caller
asks for it."""

import hashlib
import json
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from apfam import family as family_module
from apfam.bounds import alpha_exceeding_fraction, choose_alpha, squarefull_reduce
from apfam.cli import main
from apfam.errors import NotDisjointError
from apfam.construction import ConstructionParams, build_construction, truncated_construction
from apfam.errors import DomainError, StructuralError
from apfam.family import (
    Family,
    Progression,
    dumps_family,
    family_digest,
    loads_family,
    read_family,
    translate,
    verify_family,
    write_family,
)
from apfam.numtheory import factor_table
from apfam.refinement import RefinementParams, build_chain, certificate_to_dict, check_certificate
from apfam.solver import SearchConfig, solve_exact


def outcome(build):
    """The family or the StructuralError text a build gives, with the
    warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build()
        except StructuralError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@pytest.fixture
def no_view(monkeypatch):
    """Any call that builds a Family's items view fails."""

    def refuse(moduli, residues):
        raise AssertionError("the items view was built")

    monkeypatch.setattr(family_module, "_progressions", refuse)


def test_apfam_paths_never_build_the_view(no_view, tmp_path, capsys):
    built = build_construction(ConstructionParams(x=10**6)).family
    family = translate(built, 2**40 + 7)
    path = tmp_path / "fam.jsonl"
    write_family(family, path)
    again = read_family(path)
    assert again == family == loads_family(dumps_family(family))
    assert family_digest(again) == hashlib.sha256(path.read_bytes()).hexdigest()

    assert verify_family(again).ok
    scale = 2**63  # the second family's moduli are past int64
    for q, x_bound in ((again.q.tolist(), again.x_bound), ([m * scale for m in again.q[:250].tolist()], again.x_bound * scale)):
        a = again.a[: len(q)].tolist()
        assert verify_family(Family.from_columns(q, a, x_bound)).ok
        a[200] = a[3] % q[200]  # member 200 moved into member 3's class mod their gcd
        report = verify_family(Family.from_columns(q, a, x_bound))
        assert (report.witness.i, report.witness.j) == (3, 200)

    alpha = choose_alpha(family)
    # the walk's factor table and factor_table's give one reduction
    assert (alpha, squarefull_reduce(family, alpha)) == (choose_alpha(again), squarefull_reduce(again, alpha))
    alpha_exceeding_fraction(family)

    squarefree = build_construction(ConstructionParams(x=10**4, squarefree_only=True)).family
    params = RefinementParams(x=10**4, prime_floor=22, ratio_denominator=2)
    cert = build_chain(squarefree, params)
    assert check_certificate(cert, squarefree).ok
    solve_exact(SearchConfig(x=12))
    truncated_construction(300)

    sf, cert_path, reduced = tmp_path / "sf.jsonl", tmp_path / "cert.json", tmp_path / "red.jsonl"
    for argv in (
        ["construct", "--x", "10000", "--squarefree-only", "--out", str(sf)],
        ["verify", "--in", str(path)],
        ["reduce", "--in", str(path), "--out", str(reduced)],
        ["refine", "--in", str(sf), "--prime-floor", "22", "--ratio-denom", "2", "--out", str(cert_path)],
        ["check-cert", "--cert", str(cert_path), "--in", str(sf)],
        ["bench", "--k", "300"],
    ):
        assert main(argv) == 0, argv
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"x": 3, "count": 2}\n{"q": 2, "a": 0}\n{"q": 3, "a": 0}\n', encoding="utf-8")
    assert main(["verify", "--in", str(bad)]) == 1
    capsys.readouterr()


members = st.lists(st.tuples(st.integers(-3, 40), st.integers(-50, 50)), max_size=8)


class TestValueContract:
    @given(st.dictionaries(st.integers(2, 2**80), st.integers(-(2**81), 2**81), max_size=12), st.integers(0, 5))
    def test_columns_equal_progressions(self, rows, slack):
        moduli = sorted(rows)
        residues = [rows[q] for q in moduli]
        x_bound = max(moduli, default=2) + slack
        by_items, by_items_warnings = outcome(lambda: Family(tuple(map(Progression, residues, moduli)), x_bound))
        by_columns, by_columns_warnings = outcome(lambda: Family.from_columns(moduli, residues, x_bound))
        assert by_columns_warnings == by_items_warnings
        assert by_columns == by_items and hash(by_columns) == hash(by_items)
        before = pickle.dumps(by_columns)
        assert pickle.dumps(by_items) == before  # neither has built its view yet
        assert by_columns.items == by_items.items  # builds both views
        assert pickle.dumps(by_columns) == before
        assert Family(by_columns.items, x_bound) == by_columns
        again = pickle.loads(before)
        assert again == by_columns and again.items == by_items.items

    @given(members, st.integers(-1, 45))
    @example([(1, 0)], 10)  # modulus < 2
    @example([(4, 0), (4, 1)], 10)  # duplicate modulus
    @example([(8, 0), (4, 1)], 10)  # decreasing moduli
    @example([(11, 0)], 10)  # modulus > x_bound
    @example([], 1)  # x_bound < 2
    @example([(4, 9), (6, -1)], 10)  # reduced residues, with warnings
    def test_same_checks_and_messages(self, rows, x_bound):
        moduli = [q for q, _ in rows]
        residues = [a for _, a in rows]
        by_items = outcome(lambda: Family(tuple(Progression(a, q) for q, a in rows), x_bound))
        assert outcome(lambda: Family.from_columns(moduli, residues, x_bound)) == by_items
        built = outcome(lambda: Family.build([Progression(a, q) for q, a in rows], x_bound))
        text = "\n".join(['{"x": %d, "count": %d}' % (x_bound, len(rows))] + [json.dumps({"q": q, "a": a}) for q, a in rows])
        assert outcome(lambda: loads_family(text)) == built

    @pytest.mark.parametrize(
        "rows, x_bound, message",
        [
            ([(1, 0)], 10, "modulus must be >= 2, got 1"),
            ([(4, 0), (4, 1)], 10, "moduli must strictly increase, 4 after 4"),
            ([(8, 0), (4, 1)], 10, "moduli must strictly increase, 4 after 8"),
            ([(11, 0)], 10, "modulus 11 exceeds x_bound 10"),
            ([], 1, "x_bound must be >= 2, got 1"),
        ],
    )
    def test_messages(self, rows, x_bound, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            Family.from_columns([q for q, _ in rows], [a for _, a in rows], x_bound)

    def test_column_lengths_must_agree(self):
        with pytest.raises(StructuralError):
            Family.from_columns([2, 4], [0], 10)

    @pytest.mark.parametrize("top", [2**63 - 1, 2**63])
    def test_column_dtype_either_side_of_int64(self, top):
        moduli, residues = [3, 2**62 + 1, top], [1, 2**62, top - 1]
        by_columns = Family.from_columns(moduli, residues, top)
        by_items = Family([Progression(a, q) for q, a in zip(moduli, residues)], top)
        by_arrays = Family.from_columns(np.array(moduli, dtype=object), np.array(residues, dtype=object), top)
        assert by_columns.q.dtype == (np.int64 if top < 2**63 else object)
        assert by_columns.a.dtype == np.int64  # top - 1 fits
        for other in (by_items, by_arrays, pickle.loads(pickle.dumps(by_columns))):
            assert other == by_columns and hash(other) == hash(by_columns)
            assert other.q.dtype == by_columns.q.dtype and pickle.dumps(other) == pickle.dumps(by_columns)
        assert by_columns != Family.from_columns(moduli[:2], residues[:2], top)
        assert [type(q) for q in by_columns.moduli()] == [int] * 3
        with pytest.raises(ValueError):
            by_columns.q[0] = 5
        with pytest.raises(ValueError):
            by_columns.a[0] = 0

    @pytest.mark.parametrize("scale", [1, 2**70])
    def test_pickles_into_a_plain_writer(self, scale):
        # a writer that takes a len() of every chunk, as a hashing sink does:
        # pickled arrays would reach it as PickleBuffers, which have none
        class Sink:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(bytes(data))
                return len(data)

        family = truncated_construction(300)
        family = Family.from_columns([q * scale for q in family.moduli()], family.a, family.x_bound * scale)
        sink = Sink()
        pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(family)
        assert pickle.loads(b"".join(sink.chunks)) == family

    def test_frozen(self):
        family = Family.from_columns([2, 4], [0, 1], 4)
        with pytest.raises(AttributeError):
            family.q = (3,)
        with pytest.raises(AttributeError):
            del family.x_bound
        assert family.moduli() == [2, 4] and family.size == 2

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_lines_read_in_any_order(self, rng, wide):
        family = truncated_construction(40)
        scale = 2**70 if wide else 1  # past int64: the sort compares Python ints
        family = Family.from_columns([q * scale for q in family.q.tolist()], family.a, family.x_bound * scale)
        header, *lines = dumps_family(family).splitlines(keepends=True)
        rng.shuffle(lines)
        assert loads_family(header + "".join(lines)) == family

    def test_construction_sorted_like_build(self):
        rng = random.Random(5)
        family = build_construction(ConstructionParams(x=10**5)).family
        rows = list(zip(family.a, family.q))
        rng.shuffle(rows)
        assert Family.build([Progression(a, q) for a, q in rows], family.x_bound) == family
        with pytest.raises(DomainError):
            Family.from_columns([q for _, q in rows], [a for a, _ in rows], family.x_bound)


class TestExactIntegers:
    """A column holds exactly the integers given: any other value raises
    TypeError, never truncated or parsed, and an unsigned value past int64
    keeps its value in an object column."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Family.from_columns([3.5, 5.9], [1.7, 2], 10),
            lambda: Family.from_columns(["3", "5"], ["1", "2"], 10),
            lambda: Family.from_columns([3, 2**70], [1, 2.5], 2**71),
            lambda: Family.from_columns(np.array([3.0, 5.0]), [1, 2], 10),
            lambda: Family.from_columns([3, 5], [1, 2j], 10),
            lambda: Family([Progression(1.5, 3)], 10),
            lambda: factor_table([4.5]),
            lambda: factor_table(["12"]),
            lambda: translate(Family.from_columns([3, 5], [1, 2], 10), 1.5),
            lambda: squarefull_reduce(Family.from_columns([3, 5], [1, 2], 10), 1.5),
        ],
    )
    def test_non_integers_raise(self, build):
        with pytest.raises(TypeError):
            build()

    def test_unsigned_past_int64(self):
        top = 2**63 + 5
        family = Family.from_columns(np.array([3, top], dtype=np.uint64), np.array([1, 2], dtype=np.uint64), top)
        assert family.q.dtype == object and family.a.dtype == np.int64
        assert [type(q) for q in family.q] == [int, int]
        assert family == Family.from_columns([3, top], [1, 2], top)

    def test_int64_taken_over_and_factored_in_place(self):
        moduli = np.array([12, 35])
        assert Family.from_columns(moduli, [1, 2], 35).q is moduli
        assert factor_table(moduli).cofactor.tolist() == [3, 7]
        assert moduli.tolist() == [12, 35]

    def test_items_view_holds_python_ints(self):
        # numpy scalars in, Python ints out, as from the equal family's columns
        family = Family([Progression(np.int64(1), np.int64(5)), Progression(2, 7)], 10)
        assert family == Family.from_columns([5, 7], [1, 2], 10)
        assert [type(v) for pr in family.items for v in (pr.residue, pr.modulus)] == [int] * 4
        assert json.dumps([pr.residue for pr in family.items]) == "[1, 2]"


def python_ints(value) -> bool:
    """Every number in value, a JSON-like tree, is a Python int (or float)."""
    if isinstance(value, dict):
        return all(map(python_ints, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(python_ints, value))
    return value is None or type(value) in (int, float, bool, str)


def test_outputs_hold_python_ints(tmp_path, capsys):
    family = build_construction(ConstructionParams(x=10**6)).family
    q, a = family.moduli(), family.a.tolist()
    a[500] = a[7] % q[500]
    meets = tmp_path / "meets.jsonl"
    write_family(Family.from_columns(q, a, family.x_bound), meets)
    assert main(["verify", "--in", str(meets)]) == 1
    witness = json.loads(capsys.readouterr().out.splitlines()[-1])["witness"]
    assert (witness["i"], witness["j"]) == (7, 500) and python_ints(witness)
    report = verify_family(read_family(meets))
    assert python_ints([report.witness.i, report.witness.j, report.witness.common])

    pair = tmp_path / "pair.jsonl"
    write_family(Family.build([Progression(1, 802), Progression(1, 1227)], 2406), pair)
    argv = ["--omega-cap", "3.5", "--prime-floor", "400", "--ratio-denom", "1.5"]
    assert main(["refine", "--in", str(pair), "--out", str(tmp_path / "c.json")] + argv) == 1
    assert python_ints(json.loads(capsys.readouterr().out.splitlines()[-1])["counterexample"])
    with pytest.raises(NotDisjointError) as caught:
        build_chain(read_family(pair), RefinementParams(x=2406, omega_cap=3.5, prime_floor=400, ratio_denominator=1.5))
    error = caught.value
    assert python_ints([error.first.modulus, error.first.residue, error.second.modulus, error.second.residue, error.common])

    squarefree = build_construction(ConstructionParams(x=10**4, squarefree_only=True)).family
    cert = build_chain(squarefree, RefinementParams(x=10**4, prime_floor=22, ratio_denominator=2))
    assert cert.base and python_ints(certificate_to_dict(cert))
