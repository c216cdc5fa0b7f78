"""A Family stores its moduli and residues as two int columns; its items
view of Progressions is built only when a caller asks for it."""

import hashlib
import json
import pickle
import random
import warnings

import pytest
from hypothesis import example, given, strategies as st

from apfam import family as family_module
from apfam.bounds import (
    _choose_and_reduce,
    alpha_exceeding_fraction,
    choose_alpha,
    squarefull_reduce,
)
from apfam.cli import main
from apfam.construction import ConstructionParams, build_construction, truncated_construction
from apfam.errors import DomainError, StructuralError
from apfam.family import (
    Family,
    Progression,
    density,
    dumps_family,
    family_digest,
    loads_family,
    read_family,
    translate,
    verify_family,
    write_family,
)
from apfam.refinement import RefinementParams, build_chain, check_certificate, filter_eligible
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
    density(again)

    assert verify_family(again).ok
    scale = 2**63  # the second family's moduli are past int64
    for q, x_bound in ((list(again.q), again.x_bound), ([m * scale for m in again.q[:250]], again.x_bound * scale)):
        a = list(again.a[: len(q)])
        assert verify_family(Family.from_columns(q, a, x_bound)).ok
        a[200] = a[3] % q[200]  # member 200 moved into member 3's class mod their gcd
        report = verify_family(Family.from_columns(q, a, x_bound))
        assert (report.witness.i, report.witness.j) == (3, 200)

    alpha = choose_alpha(family)
    assert squarefull_reduce(family, alpha) == _choose_and_reduce(family)[1]
    alpha_exceeding_fraction(family)

    squarefree = build_construction(ConstructionParams(x=10**4, squarefree_only=True)).family
    params = RefinementParams(x=10**4, prime_floor=22, ratio_denominator=2)
    filter_eligible(squarefree, params)
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
        assert pickle.dumps(by_items) == before  # by_items holds its view already
        assert by_columns.items == by_items.items  # builds by_columns' view
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
        family = Family.from_columns([q * scale for q in family.q], family.a, family.x_bound * scale)
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
