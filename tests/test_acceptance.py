"""Acceptance suite: ten criteria, one test and one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each criterion reports as a
single PASSED/FAILED line, and a `criterion N PASS` summary prints when the
run is unbuffered (-s).
"""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

from apfam.bounds import bounds_report, rows_to_csv, squarefull_reduce
from apfam.cli import main
from apfam.construction import (
    ConstructionParams,
    assign_residue,
    build_construction,
)
from apfam.family import (
    Family,
    Progression,
    dumps_family,
    verify_family,
)
from apfam.numtheory import crt_pair, factorize, l_scale, psi, psi_star
from apfam.refinement import (
    RefinementParams,
    build_chain,
    check_certificate,
)
from apfam.solver import SearchConfig, solve_exact
from oracles import brute_force_oracle, density

X_VALUES = (100, 10**3, 10**4, 10**5, 10**6)
ORACLE_RANGE = range(2, 13)

X100_BYTES = (
    '{"x": 100, "count": 6}\n'
    '{"q": 5, "a": 0}\n'
    '{"q": 10, "a": 2}\n'
    '{"q": 15, "a": 3}\n'
    '{"q": 20, "a": 4}\n'
    '{"q": 30, "a": 8}\n'
    '{"q": 60, "a": 39}\n'
)


def report(n, text):
    print(f"criterion {n} PASS: {text}")


@pytest.fixture(scope="module")
def constructions():
    return {x: build_construction(ConstructionParams(x=x)) for x in X_VALUES}


@pytest.fixture(scope="module")
def solver_results():
    return {x: solve_exact(SearchConfig(x=x)) for x in ORACLE_RANGE}


@pytest.fixture(scope="module")
def squarefree_10k():
    return build_construction(ConstructionParams(x=10**4, squarefree_only=True))


def _random_alpha_family(rng):
    # disjoint family with a shared squarefull part: members alpha * P * m
    # with chain residues merged against a per-class residue b mod alpha
    alpha = rng.choice((4, 8, 9))
    anchor = rng.choice((7, 11, 13))
    coprime_pool = [
        m
        for m in range(1, 200)
        if math.gcd(m, alpha) == 1
        and all(e == 1 and p < anchor for p, e in factorize(m).parts)
    ]
    size = rng.randrange(2, min(8, len(coprime_pool)) + 1)
    multipliers = sorted(rng.sample(coprime_pool, size))
    class_of = {m: rng.choice((1, rng.randrange(alpha))) for m in multipliers}
    items = []
    for m in multipliers:
        chain = assign_residue(anchor * m, anchor)
        merged = crt_pair(chain.residue, chain.modulus, class_of[m], alpha)
        items.append(Progression(merged[0], alpha * anchor * m))
    x_bound = alpha * anchor * multipliers[-1]
    return Family.build(items, x_bound), alpha


SUITE_FAMILIES = []


def register(label, family):
    SUITE_FAMILIES.append((label, family))
    return family


def test_criterion_01_disjointness_oracle_equivalence():
    checked = 0
    for q1 in range(2, 25):
        for q2 in range(q1 + 1, 25):
            lcm = math.lcm(q1, q2)
            for a1 in range(q1):
                first = set(range(a1, lcm, q1))
                for a2 in range(q2):
                    empty = not (first & set(range(a2, lcm, q2)))
                    pair = Family.from_columns((q1, q2), (a1, a2), q2)
                    assert verify_family(pair).ok == empty
                    checked += 1
    assert checked == 42_251
    report(1, f"verify_family matched period scans on {checked} two-member families, moduli <= 24")


def test_criterion_02_construction_correctness(constructions):
    for x in X_VALUES:
        result = constructions[x]
        assert verify_family(result.family).ok, f"construction at {x} not disjoint"
        register(f"construction x={x}", result.family)
    assert dumps_family(constructions[100].family) == X100_BYTES
    sizes = {x: constructions[x].size for x in X_VALUES}
    report(2, f"constructions verified at all five x, x=100 byte-exact; sizes {sizes}")


def test_criterion_03_solver_vs_oracle(solver_results):
    for x in ORACLE_RANGE:
        expected = brute_force_oracle(x)
        result = solver_results[x]
        assert result.k_max == expected, f"f({x}): solver {result.k_max} != oracle {expected}"
        assert result.proven_optimal
        assert result.witness.size == expected
        assert verify_family(result.witness).ok
        register(f"solver witness x={x}", result.witness)
    report(3, f"solve_exact equals oracle on x in [2, 12], all witnesses verified")


def test_criterion_04_density_invariant(
    constructions, solver_results, squarefree_10k
):
    tight = register("seven-eighths", Family.build(
        [Progression(0, 2), Progression(1, 4), Progression(3, 8)], 8
    ))
    register("squarefree x=1e4", squarefree_10k.family)
    for x in X_VALUES:
        register(f"density construction x={x}", constructions[x].family)
    for x in ORACLE_RANGE:
        register(f"density solver x={x}", solver_results[x].witness)
    attained = Fraction(0)
    for label, family in SUITE_FAMILIES:
        assert verify_family(family).ok, f"{label} failed verification"
        d = density(family)
        assert d <= 1, f"{label} has density {d} > 1"
        attained = max(attained, d)
    assert attained >= Fraction(7, 8)
    report(4, f"density <= 1 on {len(SUITE_FAMILIES)} verified families, max {attained}")


def test_criterion_05_smooth_count_goldens_and_chain():
    assert psi(100, 5) == 34
    assert psi_star(100, 5) == 12
    for x in (10**3, 10**4):
        y = l_scale(1, x)
        plain = psi(x, y)
        star = psi_star(x, y)
        correction = sum(
            psi(x // (n * n), y) for n in range(2, math.isqrt(x) + 1) if n * n > y
        )
        assert plain > star
        assert star >= plain - correction
    report(5, "psi goldens hold and the correction chain is exact at 10^3, 10^4")


def test_criterion_06_tail_majorant():
    from apfam.bounds import omega_tail_count, omega_tail_majorant

    checked = []
    for x in (10**3, 10**4, 10**5):
        for c in (0.5, 1.0, 2.0):
            count = omega_tail_count(x, c)
            bound = omega_tail_majorant(x, c)
            assert count <= bound, f"majorant fails at x={x}, c={c}"
            checked.append((x, c, count, round(bound, 3)))
    report(6, f"tail count below majorant at all nine (x, c) points")


def test_criterion_07_refinement_certificates(squarefree_10k):
    family = squarefree_10k.family
    p = 23
    params = RefinementParams(x=10**4, prime_floor=p - 1, ratio_denominator=2)
    cert = build_chain(family, params)
    assert cert.witness_prime == p
    assert check_certificate(cert, family).ok

    # a multi-step chain exercises Properties 1-3 at every step
    a_group = [assign_residue(q, 401) for q in (802, 2406, 4010)]
    b_group = [
        Progression((assign_residue(q, 409).residue + 1) % q, q)
        for q in (818, 2454, 4090)
    ]
    stepped_family = Family.build(a_group + b_group, 4090)
    register("refinement six-member", stepped_family)
    stepped_params = RefinementParams(
        x=4090, omega_cap=3.5, prime_floor=400, ratio_denominator=1.5
    )
    stepped = build_chain(stepped_family, stepped_params)
    assert stepped.t >= 1
    assert check_certificate(stepped, stepped_family).ok
    sizes = [len(stepped.base)] + [len(s.survivors) for s in stepped.steps]
    product = 1
    for k, step in enumerate(stepped.steps):
        product *= step.prime
        # Property 1: survivors divisible by every chosen prime so far
        assert all(q % product == 0 for q in step.survivors)
        # Property 2: survivors pinned to the combined residue
        residue_of = {pr.modulus: pr.residue for pr in stepped_family.items}
        assert all(
            residue_of[q] % product == step.combined_residue for q in step.survivors
        )
        # Property 3: survivor count within prime * ratio of the previous set
        assert sizes[k + 1] * step.prime * stepped_params.ratio_denominator >= sizes[k]

    tampers = 0
    for cert_obj, fam_obj in ((cert, family), (stepped, stepped_family)):
        mutated = [
            dataclasses.replace(cert_obj, witness_prime=9973),
            dataclasses.replace(cert_obj, divisible_count=cert_obj.divisible_count + 1),
            dataclasses.replace(cert_obj, t=cert_obj.t + 1),
            dataclasses.replace(cert_obj, base=cert_obj.base[:-1]),
            dataclasses.replace(
                cert_obj,
                params=RefinementParams(
                    x=cert_obj.params.x,
                    omega_cap=1.0,
                    prime_floor=cert_obj.params.prime_floor,
                    ratio_denominator=cert_obj.params.ratio_denominator,
                ),
            ),
        ]
        if cert_obj.steps:
            step = cert_obj.steps[0]
            mutated.extend(
                [
                    dataclasses.replace(
                        cert_obj,
                        steps=(dataclasses.replace(step, prime=step.candidate_primes[-1]
                                                   if step.candidate_primes[-1] != step.prime
                                                   else step.candidate_primes[0]),)
                        + cert_obj.steps[1:],
                    ),
                    dataclasses.replace(
                        cert_obj,
                        steps=(dataclasses.replace(step, survivors=step.survivors[:-1]),)
                        + cert_obj.steps[1:],
                    ),
                    dataclasses.replace(
                        cert_obj,
                        steps=(dataclasses.replace(
                            step, combined_residue=step.combined_residue + 1),)
                        + cert_obj.steps[1:],
                    ),
                ]
            )
        for bad in mutated:
            assert not check_certificate(bad, fam_obj).ok
            tampers += 1
    report(7, f"certificates replayed, per-step properties hold, {tampers} tampers rejected")


def test_criterion_08_squarefull_reduction():
    rng = random.Random(20260814)
    families = 0
    while families < 120:
        family, alpha = _random_alpha_family(rng)
        assert verify_family(family).ok, f"assembled family not disjoint (alpha={alpha})"
        register(f"alpha family #{families}", family)
        reduced = squarefull_reduce(family, alpha)
        assert reduced.size >= 1
        assert verify_family(reduced).ok, f"reduction broke disjointness (alpha={alpha})"
        for pr in reduced.items:
            assert all(e == 1 for _, e in factorize(pr.modulus).parts)
            assert pr.modulus <= family.x_bound // alpha
        register(f"alpha-reduced #{families}", reduced)
        families += 1
    report(8, f"{families} random alpha families reduced; outcomes squarefree and verified")


def test_criterion_09_bench_performance(capsys):
    code = main(["bench", "--k", "20000"])
    out = capsys.readouterr().out
    summary = json.loads(out.strip().split("\n")[-1])
    assert code == 0 and summary["ok"]
    assert summary["pairs"] == 20000 * 19999 // 2
    assert summary["seconds"] < 30, f"verify took {summary['seconds']}s"
    report(9, f"20k-member verify in {summary['seconds']}s "
              f"({summary['pairs_per_second']} pairs/s)")


def test_criterion_10_trend_report(constructions):
    c = ConstructionParams.c
    rows = bounds_report(X_VALUES, [c], kinds=("f_lower",))
    text = rows_to_csv(rows)
    assert text.startswith("kind,x,c,exact,predicted,ratio")
    assert len(rows) == len(X_VALUES)
    for row, x in zip(rows, X_VALUES):
        assert row.exact == constructions[x].size
        assert row.predicted == pytest.approx(x / l_scale(math.sqrt(2), x), rel=1e-9)
        assert verify_family(constructions[x].family).ok
    ratios = {row.x: round(row.ratio, 3) for row in rows}
    report(10, f"f-lower report generated, witnesses verified; ratios {ratios}")
