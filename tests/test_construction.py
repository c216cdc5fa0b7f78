import contextlib
import io
import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from apfam import construction
from apfam.construction import (
    DEFAULT_C,
    ConstructionParams,
    _member_count,
    assign_residue,
    build_construction,
    choose_prime,
    truncated_construction,
)
from apfam.errors import CapacityError, DomainError
from apfam.cli import main
from apfam.family import Family, dumps_family, family_digest, verify_family, write_family
from apfam.numtheory import FACTOR_LIMIT, factor_table, factorize, l_scale
from oracles import density, factorizations

X100 = [(0, 5), (2, 10), (3, 15), (4, 20), (8, 30), (39, 60)]


def as_pairs(family):
    return [(pr.residue, pr.modulus) for pr in family.items]


class TestParams:
    def test_defaults(self):
        p = ConstructionParams(x=100)
        assert p.c == pytest.approx(1 / math.sqrt(2))
        assert not p.squarefree_only

    def test_domain(self):
        with pytest.raises(DomainError):
            ConstructionParams(x=15)
        with pytest.raises(DomainError):
            ConstructionParams(x=100, c=-1)
        # L(c, x) < 2 leaves no prime to anchor on
        with pytest.raises(DomainError):
            ConstructionParams(x=16, c=0.1)


class TestChoosePrime:
    def test_values(self):
        # L(1/sqrt2, .): 100 -> 6.52, 10^4 -> 24.47, 10^6 -> 70.73
        assert choose_prime(ConstructionParams(x=100)) == 5
        assert choose_prime(ConstructionParams(x=10**4)) == 23
        assert choose_prime(ConstructionParams(x=10**6)) == 67

    def test_prime_below_scale(self):
        for x in (16, 100, 10**4, 10**5):
            params = ConstructionParams(x=x)
            p = choose_prime(params)
            assert sympy.isprime(p)
            assert p <= l_scale(params.c, x)
            assert sympy.nextprime(p) > l_scale(params.c, x)


def moduli(params):
    return list(build_construction(params).family.q)


class TestEnumerateModuli:
    # the construction's moduli: q = p*m <= x with every prime-power factor
    # of m below the anchor p
    def test_x_100(self):
        assert moduli(ConstructionParams(x=100)) == [5, 10, 15, 20, 30, 60]

    def test_squarefree(self):
        assert moduli(ConstructionParams(x=100, squarefree_only=True)) == [5, 10, 15, 30]

    def test_anchor_beyond_x_gives_nothing(self):
        # c = 3 puts the anchor at 151, past x = 16
        result = build_construction(ConstructionParams(x=16, c=3))
        assert result.p == 151 and result.family.size == 0

    def test_membership_rule(self):
        # every q = p*m <= x with prime-power factors of m below p, and no others
        params = ConstructionParams(x=10**4)
        assert choose_prime(params) == 23
        expected = []
        for m in range(1, 10**4 // 23 + 1):
            if all(p**e < 23 for p, e in sympy.factorint(m).items()):
                expected.append(23 * m)
        assert moduli(params) == expected

    def test_count_at_1e6(self):
        assert len(moduli(ConstructionParams(x=10**6))) == 2961

    @pytest.mark.parametrize("squarefree", [False, True])
    def test_member_count_is_the_walk(self, squarefree):
        # at x=16 the anchor is 2 for c=0.5 and 151 > x for c=3
        xs, cs = (16, 100, 1000, 12345, 10**5, 10**6), (0.5, 1 / math.sqrt(2), 1, 2)
        for x, c in [(16, 3)] + [(x, c) for x in xs for c in cs]:
            params = ConstructionParams(x=x, c=c, squarefree_only=squarefree)
            p, size = choose_prime(params), build_construction(params).size
            assert _member_count(x, p, squarefree) == size
            # capped: exact up to the cap, above it past the cap
            assert _member_count(x, p, squarefree, limit=size) == size
            if size:
                assert _member_count(x, p, squarefree, limit=size - 1) > size - 1

    @pytest.mark.parametrize("squarefree", [False, True])
    def test_capacity_fires_past_the_limit(self, monkeypatch, squarefree):
        # the limit counts every m the walk reaches, m = 1 included
        params = ConstructionParams(x=10**5, squarefree_only=squarefree)
        nodes = len(moduli(params))
        monkeypatch.setattr(construction, "MODULI_LIMIT", nodes)
        build_construction(params)
        monkeypatch.setattr(construction, "MODULI_LIMIT", nodes - 1)
        with pytest.raises(CapacityError, match=f"more than {nodes - 1} moduli at x=100000"):
            build_construction(params)


class TestAssignResidue:
    def test_chain_examples(self):
        anchor = assign_residue(5, 5)
        assert (anchor.residue, anchor.modulus) == (0, 5)
        assert assign_residue(10, 5).residue == 2
        assert assign_residue(60, 5).residue == 39

    def test_chain_congruences_at_60(self):
        # prime powers of 60 ascending: 3 < 4 < 5; chain pins 39 = 3 mod 4,
        # 4 mod 5 would be the next level up, and 0 mod 3 at the bottom
        pr = assign_residue(60, 5)
        assert pr.residue % 5 == 4
        assert pr.residue % 4 == 3
        assert pr.residue % 3 == 0

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            assign_residue(35, 5)  # 7 > 5
        with pytest.raises(DomainError):
            assign_residue(50, 5)  # p divides twice
        with pytest.raises(DomainError):
            assign_residue(12, 5)  # p absent


class TestBuildConstruction:
    def test_x_100_golden(self):
        result = build_construction(ConstructionParams(x=100))
        assert result.p == 5
        assert as_pairs(result.family) == X100
        assert density(result.family) == pytest.approx(7 / 15)

    def test_x_100_squarefree(self):
        result = build_construction(ConstructionParams(x=100, squarefree_only=True))
        assert as_pairs(result.family) == [(0, 5), (2, 10), (3, 15), (8, 30)]

    def test_degenerate_smallest(self):
        result = build_construction(ConstructionParams(x=16, c=0.5))
        assert result.p == 2
        assert as_pairs(result.family) == [(0, 2)]

    def test_families_verify(self):
        for x in (16, 100, 10**4):
            result = build_construction(ConstructionParams(x=x))
            assert verify_family(result.family).ok

    def test_predicted_size(self):
        params = ConstructionParams(x=10**4)
        result = build_construction(params)
        expected = 10**4 / (23 * l_scale(1 / (2 * params.c), 10**4))
        assert result.predicted_size == pytest.approx(expected)
        assert result.summary()["t"] == result.family.size

    @pytest.mark.parametrize(
        "x, squarefree, digest",
        [
            (10**6, False, "c8452a7fcc10f5674b506c4b53b6b5149206dd0ed7102d032e856d6a1f9573a1"),
            (10**7, False, "ad73110cc338fd905bdf6c4d228e9161aebbee0d0d9c9c47305d2a9db91a6751"),
            (10**8, False, "bcca8b1ae489837819cf8acfc57acbabe6ef1016ec7bac2c1283dbb12723e7a1"),
            (10**8, True, "0aa66bd45fc61cb6efab56214fd911c46990e31e6ddf672bd200bd5eac197178"),
        ],
    )
    def test_frozen_digest(self, x, squarefree, digest):
        # the families of the benchmark's table, byte for byte
        family = build_construction(ConstructionParams(x=x, squarefree_only=squarefree)).family
        assert family_digest(family) == digest

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.integers(min_value=16, max_value=200_000),
        c=st.floats(min_value=0.4, max_value=1.5),
        squarefree=st.booleans(),
    )
    def test_matches_per_member_oracle(self, x, c, squarefree):
        try:
            params = ConstructionParams(x=x, c=c, squarefree_only=squarefree)
        except DomainError:
            assume(False)
        result = build_construction(params)
        p = result.p
        # q = p*m for every m <= x // p whose prime powers (primes, when
        # squarefree) all lie below p
        expected = []
        for m in range(1, x // p + 1):
            parts = factorize(m).parts
            if all(r**e < p and (e == 1 or not squarefree) for r, e in parts):
                expected.append(assign_residue(p * m, p))
        assert result.family == Family(tuple(expected), x)

    @pytest.mark.parametrize("squarefree, members", [(False, 960), (True, 256)])
    def test_past_int64_takes_the_same_steps(self, squarefree, members):
        # x past int64 runs the walk on object columns of Python ints
        params = ConstructionParams(x=10**20, c=0.25, squarefree_only=squarefree)
        p = choose_prime(params)
        q, a, *_ = construction._walk(params, p)
        assert p == 23 and q.dtype == a.dtype == object
        assert q.size == _member_count(params.x, p, squarefree, construction.MODULI_LIMIT) == members
        family = build_construction(params).family
        assert sorted(zip(q.tolist(), a.tolist())) == list(zip(family.moduli(), family.a.tolist()))
        assert family.items == tuple(assign_residue(q, p) for q in family.moduli())
        assert verify_family(family).ok

    def test_residues_come_from_the_walk(self, monkeypatch):
        # no per-member CRT chain: the oracle's pieces are never called
        def refuse(*args):
            raise AssertionError("per-member CRT in the build path")

        monkeypatch.setattr(construction, "_chain_residue", refuse)
        monkeypatch.setattr(construction, "crt_pair", refuse)
        monkeypatch.setattr(construction, "factorize", refuse)
        assert as_pairs(build_construction(ConstructionParams(x=100)).family) == X100
        assert truncated_construction(300).size == 300

    def test_deterministic_bytes(self):
        a = dumps_family(build_construction(ConstructionParams(x=1000)).family)
        b = dumps_family(build_construction(ConstructionParams(x=1000)).family)
        assert a == b


class TestWalkFactorTable:
    """The walk supplies each construction's factor table from the tree it
    builds the members in, wherever factor_table would take the moduli."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(16, 3 * 10**7), st.floats(0.2, 2.2), st.booleans())
    @example(10**8, DEFAULT_C, False)
    @example(10**8, DEFAULT_C, True)
    def test_matches_factor_table(self, x, c, squarefree):
        try:
            params = ConstructionParams(x=x, c=c, squarefree_only=squarefree)
        except DomainError:  # no prime to anchor on
            assume(False)
        family = build_construction(params).family
        assert family._factors.supply is not None
        table, expected = family.factors, factor_table(family.q)
        assert [column.dtype for column in table] == [column.dtype for column in expected]
        # hits run member by member, each member's by prime, below the cofactor
        keys = table.index.astype(np.int64) << 32 | table.prime
        assert (keys[1:] > keys[:-1]).all()
        assert (table.prime < table.cofactor[table.index]).all()
        assert factorizations(table) == factorizations(expected)

    @pytest.mark.parametrize(
        "squarefree, code, out, err",
        [
            (False, 2, "", "error: modulus 92 is not squarefree\n"),
            (True, 0, '{"base_size": 0, "divisible_count": 0, "out": "c.json", "t": 0, "witness_prime": null}\n', ""),
        ],
    )
    def test_past_int64_refine_is_unchanged(self, tmp_path, monkeypatch, squarefree, code, out, err):
        # x past FACTOR_LIMIT: no table from the walk, and refine gives what
        # factor_table gave before the walk supplied tables anywhere
        monkeypatch.chdir(tmp_path)
        params = ConstructionParams(x=10**20, c=0.25, squarefree_only=squarefree)
        family = build_construction(params).family
        assert family._factors.supply is None and family.q.max() <= FACTOR_LIMIT
        write_family(family, "f.jsonl")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["refine", "--in", "f.jsonl", "--out", "c.json"]) == code
        assert (stdout.getvalue(), stderr.getvalue()) == (out, err)
        assert factorizations(family.factors) == factorizations(factor_table(family.q))


class TestTruncated:
    def test_exact_size_and_disjoint(self):
        f = truncated_construction(300)
        assert f.size == 300
        assert verify_family(f).ok

    def test_keeps_smallest_moduli(self):
        full = build_construction(ConstructionParams(x=10**6)).family
        part = truncated_construction(100)
        assert part.items == full.items[:100]

    # 2961 and 14784 members at x = 10**6 and 10**7: the last k each x
    # holds, and the first it does not
    @pytest.mark.parametrize("k, x", [(2961, 10**6), (2962, 10**7), (14784, 10**7), (14785, 10**8)])
    def test_cut_of_the_construction_at_decade_edges(self, k, x):
        full = build_construction(ConstructionParams(x=x)).family
        assert truncated_construction(k) == Family.from_columns(full.q[:k], full.a[:k], x)

    def test_domain(self):
        with pytest.raises(DomainError):
            truncated_construction(0)

    def test_past_the_ladder_refused(self):
        # x = 10**9, the ladder's top, holds fewer than 400000 members
        with pytest.raises(CapacityError, match="no supported x yields 400000 moduli"):
            truncated_construction(400000)
