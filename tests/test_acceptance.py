"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; any assertion failure marks that criterion red.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, lcm

import pytest

from codedmr import (
    JobSpec,
    audit_plan,
    balance_preconditions,
    build_sender_plan,
    comparison_table,
    count_identity_check,
    fano_matrix,
    load_formula,
    man_cover,
    man_matrix,
    run_pipeline,
    search_cover,
    straggler_run,
    verify_cover,
    worst_case_sweep,
)
from codedmr.fmt import decimal_trunc, printed_places
from codedmr.straggler import GOLDEN_ROWS, optimal_straggler_load

from test_balance import balanceable
from test_shuffle import transcript_bits


def _admissible_kappas(K: int, g: int) -> list[int]:
    return list(range(max(2, K - (g - 2)), K + 1))


def test_criterion_1_table2_reproduction():
    start = time.time()
    table = comparison_table()
    ours = [row.ours for row in table.rows]
    assert ours == [Fraction(1, 2), Fraction(6, 25), Fraction(3, 10), Fraction(7, 16)]
    for row in table.rows:
        assert row.simulated == row.ours, f"simulation mismatch on K={row.K}"
        assert row.decode_ok
    optimal = [row.optimal for row in table.rows]
    assert optimal == [
        Fraction(9, 20), Fraction(71, 420), Fraction(17, 70), Fraction(119, 360),
    ]
    for row, (_, _, _, printed_ours, printed_opt) in zip(table.rows, GOLDEN_ROWS):
        assert decimal_trunc(row.ours, printed_places(printed_ours)) == printed_ours
        assert decimal_trunc(row.optimal, printed_places(printed_opt)) == printed_opt
    elapsed = time.time() - start
    assert elapsed < 10.0, f"table took {elapsed:.1f}s, budget 10s"
    print(f"\nACCEPTANCE 1: PASS - four benchmark rows reproduced in {elapsed:.2f}s")


def test_criterion_2_formula_simulation_equivalence(suite):
    start = time.time()
    for name, m, cover in suite:
        g = cover.uniform_size
        spec = JobSpec(m, cover, m.K, 2)
        result = run_pipeline(spec)
        expected = load_formula(m.K, m.r, g)
        assert result.load == expected, f"{name}: {result.load} != {expected}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget 60s"
    print(
        f"ACCEPTANCE 2: PASS - measured load equals 2/g*(1-r/K) on "
        f"{len(suite)} constructions in {elapsed:.1f}s"
    )


def test_criterion_3_end_to_end_decode_correctness(suite):
    runs = 0
    for index, (name, m, cover) in enumerate(suite):
        rng = random.Random(0xC0DE + index)
        balanced_plan = None
        if balanceable(balance_preconditions(m, cover)):
            balanced_plan = build_sender_plan(m, cover)
        for setting in range(20):
            Q = m.K * rng.choice((1, 2))
            T = rng.randint(1, 12)
            spec = JobSpec(m, cover, Q, T, file_seed=rng.randrange(2**31))
            plan = None
            if balanced_plan is not None and setting % 2 == 0:
                plan = balanced_plan
            result = run_pipeline(spec, plan)
            assert result.reduce_result.ok, f"{name}: decode failed at setting {setting}"
            runs += 1
    # exhaustive straggler subsets for the two named cases
    for m, cover, Q in (
        (man_matrix(5, 2), None, 20),
        (fano_matrix(), None, 42),
    ):
        cover = man_cover(m) if m.K == 5 else search_cover(m, 3, mode="exact")
        g = cover.uniform_size
        spec = JobSpec(m, cover, Q, 4)
        for n_stragglers in range(0, g - 1):
            for subset in itertools.combinations(m.rows, n_stragglers):
                result = straggler_run(spec, subset)
                assert result.reduce_result.ok, f"straggler decode failed: {subset}"
                runs += 1
    print(f"ACCEPTANCE 3: PASS - {runs} pipelines matched the oracle byte-for-byte")


def test_criterion_4_counting_identity_and_cover_validity(suite):
    from codedmr import validate_matrix

    for name, m, cover in suite:
        assert validate_matrix(m).ok, f"{name}: matrix invalid"
        report = verify_cover(m, cover)
        assert report.ok, f"{name}: cover invalid"
        assert count_identity_check(cover, m), f"{name}: S*g != N*(K-r)"
    fano = fano_matrix()
    found = search_cover(fano, 3, mode="exact")
    assert found.size == 7 and found.uniform_size == 3
    assert verify_cover(fano, found).ok
    greedy = search_cover(fano, 3, mode="greedy", seed=0)
    assert verify_cover(fano, greedy).ok and count_identity_check(greedy, fano)
    print("ACCEPTANCE 4: PASS - every cover verifies and satisfies S*g = N*(K-r)")


def test_criterion_5_man_bound():
    for K in range(2, 11):
        for r in range(1, K):
            ours = load_formula(K, r, r + 1)
            optimal = Fraction(1, r) * (1 - Fraction(r, K))
            assert ours == Fraction(2 * r, r + 1) * optimal
            assert ours < 2 * optimal
    print("ACCEPTANCE 5: PASS - subset-placement load strictly below twice optimal, K <= 10")


def test_criterion_6_balanced_plans(suite):
    cases = []
    m = fano_matrix()
    cases.append((m, search_cover(m, 3, mode="exact"), 7, 16, 1))
    m = man_matrix(5, 2)
    cases.append((m, man_cover(m), 5, 8, 2))
    for m, cover, Q, T, gamma in cases:
        report = balance_preconditions(m, cover)
        assert balanceable(report) and report.gamma == gamma
        plan = build_sender_plan(m, cover)   # asserts residual regularity inside
        spec = JobSpec(m, cover, Q, T)
        result = run_pipeline(spec, plan)
        assert result.reduce_result.ok
        audit = audit_plan(plan, result.transcript)
        assert audit.balanced
        S, beta = cover.size, Q // m.K
        expected_each = Fraction(S * beta * T, m.K)
        assert audit.expected_each == expected_each
        for k in m.rows:
            coded, uncoded = audit.per_server[k]
            assert coded == uncoded == expected_each
            assert transcript_bits(spec, result.transcript)[0][k] == 2 * expected_each * 8
    # audit verdict holds on every suite construction whose cover meets
    # the balancing hypotheses
    balanced_count = 0
    for name, m, cover in suite:
        if not balanceable(balance_preconditions(m, cover)):
            continue
        plan = build_sender_plan(m, cover)
        result = run_pipeline(JobSpec(m, cover, m.K, 1), plan)
        assert audit_plan(plan, result.transcript).balanced, f"{name}: audit failed"
        balanced_count += 1
    assert balanced_count >= 10
    print(
        f"ACCEPTANCE 6: PASS - balanced plans split 2*S*beta*T/K bytes evenly "
        f"({balanced_count} suite constructions)"
    )


def test_criterion_7_straggler_scaling_law(suite):
    checked = 0
    for name, m, cover in suite:
        g = cover.uniform_size
        base = run_pipeline(JobSpec(m, cover, m.K, 1)).load
        for kappa in _admissible_kappas(m.K, g):
            Q = lcm(m.K, kappa)
            spec = JobSpec(m, cover, Q, 1)
            result = straggler_run(spec, m.rows[kappa:])
            assert result.load == Fraction(m.K, kappa) * base, (
                f"{name}, kappa={kappa}: scaling law violated"
            )
            total = comb(m.K, m.K - kappa)
            sweep = worst_case_sweep(spec, kappa, cap=24 if total <= 24 else 4)
            assert sweep.load == result.load
            assert all(load == sweep.load for _, load, _ in sweep.runs)
            checked += 1
    print(f"ACCEPTANCE 7: PASS - L(kappa) = (K/kappa) L(K) over {checked} scenarios")


def test_criterion_8_scheme_family_cross_checks(capsys):
    from codedmr import scheme_load, SchemeParameters, t_subset_cover, t_subset_matrix
    from codedmr import transversal_cover, transversal_matrix

    # family I on the built-in plane
    fano = fano_matrix()
    cover = search_cover(fano, 3, mode="exact")
    measured = run_pipeline(JobSpec(fano, cover, 7, 2)).load
    assert measured == scheme_load(SchemeParameters.bibd(7, 3)) == Fraction(2, 7)
    # family IV
    m = t_subset_matrix(7, 3)
    measured = run_pipeline(JobSpec(m, t_subset_cover(m), 7, 2)).load
    assert measured == scheme_load(SchemeParameters.t_design_2(7, 3)) == Fraction(6, 35)
    # family V
    m = transversal_matrix(3, 3)
    measured = run_pipeline(JobSpec(m, transversal_cover(m), 9, 2)).load
    assert measured == scheme_load(SchemeParameters.transversal(3, 3)) == Fraction(2, 9)
    # families II and III evaluate formula-only and say so in the output
    assert scheme_load(SchemeParameters.symmetric_bibd(7, 3)) == Fraction(2, 7)
    assert scheme_load(SchemeParameters.t_design_1(8, 4, 3)) == Fraction(3, 98)
    from codedmr.cli import main

    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    rows = {ln.split(",")[0]: ln for ln in out.strip().split("\n")[1:]}
    assert "formula-only" in rows["II"] and "formula-only" in rows["III"]
    assert "simulated" in rows["I"] and "simulated" in rows["IV"] and "simulated" in rows["V"]
    print("ACCEPTANCE 8: PASS - scheme-family loads match simulation where generators exist")
