import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from codedmr import (
    JobSpec,
    ShuffleError,
    audit_plan,
    balance_preconditions,
    build_sender_plan,
    comparison_table,
    fano_matrix,
    load_formula,
    man_cover,
    man_matrix,
    measured_load,
    optimal_straggler_load,
    search_cover,
    straggler_load_formula,
    straggler_run,
    worst_case_sweep,
)
from codedmr.fmt import decimal_str, decimal_trunc
from codedmr.straggler import optimal_load_is_extrapolated

from conftest import cover_members, plan_pairs
from test_balance import balanceable
from test_shuffle import reference_reduce_digest, transcript_bits


def man_spec(K, r, Q, T=4):
    m = man_matrix(K, r)
    return JobSpec(m, man_cover(m), Q, T)


class TestStragglerRun:
    def test_man_5_2_one_straggler_load_half(self):
        spec = man_spec(5, 2, 20)
        result = straggler_run(spec, ("5",))
        assert result.load == Fraction(1, 2)
        assert result.reduce_result.ok

    def test_man_7_4_two_stragglers(self):
        spec = man_spec(7, 4, 35)
        result = straggler_run(spec, ("6", "7"))
        assert result.load == Fraction(6, 25)
        assert result.reduce_result.ok

    def test_no_stragglers_reduces_to_base_formula(self):
        spec = man_spec(5, 2, 5)
        result = straggler_run(spec, ())
        assert result.load == load_formula(5, 2, 3)

    def test_an_unknown_plan_mode_is_a_value_error(self):
        with pytest.raises(ValueError) as err:
            straggler_run(man_spec(5, 2, 5), (), "fastest")
        assert str(err.value) == "unknown plan mode 'fastest'"

    def test_transcript_shape(self):
        spec = man_spec(5, 2, 20)
        result = straggler_run(spec, ("1",))
        assert len(result.transcript.transmissions) == 2 * spec.cover.size
        # payloads are (Q/kappa) * T bytes
        assert all(
            len(tx.payload) == (20 // 4) * 4 for tx in result.transcript.transmissions
        )

    def test_stragglers_never_transmit(self):
        spec = man_spec(5, 2, 20)
        result = straggler_run(spec, ("3",))
        senders = {tx.sender for tx in result.transcript.transmissions}
        assert "3" not in senders
        assert transcript_bits(spec, result.transcript, ("3",))[0]["3"] == 0

    def test_scaling_law_k_over_kappa(self):
        for K, r in [(5, 2), (6, 3), (7, 4)]:
            g = r + 1
            for kappa in range(max(2, K - (g - 2)), K + 1):
                spec = man_spec(K, r, lcm(K, kappa), T=2)
                base = run_base_load(spec)
                result = straggler_run(spec, spec.matrix.rows[kappa:])
                assert result.load == Fraction(K, kappa) * base

    def test_balanced_plan_hint_falls_back_when_unavailable(self):
        spec = man_spec(5, 2, 20)
        result = straggler_run(spec, ("5",), plan="balanced")
        # S=10 not divisible by kappa=4: fallback, run still correct
        assert "default" in result.plan_mode
        assert result.load == Fraction(1, 2)
        assert result.reduce_result.ok

    def test_explicit_plan_naming_a_straggler_rejected(self):
        spec = man_spec(6, 3, 30)
        plan = {i: rows[:2] for i, (rows, _) in enumerate(cover_members(spec.cover))}
        assert any("2" in pair for pair in plan.values())
        with pytest.raises(ShuffleError, match="senders must be participating rows"):
            straggler_run(spec, ("2",), plan)

    def test_balanced_plan_hint_balances_when_kappa_equals_k(self):
        spec = man_spec(5, 2, 5)
        result = straggler_run(spec, (), plan="balanced")
        assert result.plan_mode == "balanced"
        sent = set(transcript_bits(spec, result.transcript)[0].values())
        assert len(sent) == 1   # everyone sends the same byte count


# MAN(5,2): g = 3 tolerates one straggler.  (stragglers, the --stragglers
# value, Q, error text); a lone number is a count, the last servers failing
STRAGGLER_ERRORS = {
    "unknown label": (("x",), "x", 20, "unknown server labels ['x']"),
    "over tolerance": (("4", "5"), "4,5", 30, "2 stragglers exceed the tolerance g-2 = 1"),
    "Q not divisible": (("5",), "1", 5, "Q=5 is not divisible by 4 servers"),
    "every server failed": (
        ("1", "2", "3", "4", "5"), "1,2,3,4,5", 20, "5 stragglers exceed the tolerance g-2 = 1"
    ),
}


@pytest.mark.parametrize("case", STRAGGLER_ERRORS)
def test_straggler_error_is_a_value_error_and_exit_2(capsys, case):
    from codedmr.cli import main

    stragglers, flag, Q, text = STRAGGLER_ERRORS[case]
    with pytest.raises(ValueError) as err:
        straggler_run(man_spec(5, 2, Q), stragglers)
    assert str(err.value) == text
    code = main([
        "run", "--construction", "man", "--K", "5", "--r", "2", "--Q", str(Q),
        "--stragglers", flag,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {text}\n" and captured.out == ""


def run_base_load(spec):
    from codedmr import run_pipeline

    return run_pipeline(spec).load


class TestWorstCaseSweep:
    def test_man_5_2_kappa4_exhaustive(self):
        spec = man_spec(5, 2, 20)
        result = worst_case_sweep(spec, 4)
        assert len(result.runs) == result.total_subsets == 5
        assert not result.sampled
        assert result.load == Fraction(1, 2)
        assert all(load == result.load and ok for _, load, ok in result.runs)

    def test_kappa_equals_k_single_empty_subset(self):
        spec = man_spec(5, 2, 5)
        result = worst_case_sweep(spec, 5)
        assert result.total_subsets == 1
        assert result.load == load_formula(5, 2, 3)
        assert [load for _, load, _ in result.runs] == [result.load]

    def test_fano_kappa6_all_subsets_decode(self):
        m = fano_matrix()
        spec = JobSpec(m, search_cover(m, 3, mode="exact"), 42, 2)
        result = worst_case_sweep(spec, 6)
        assert len(result.runs) == 7
        assert result.load == Fraction(1, 3)   # (2/3) * (3/6)
        assert all(load == result.load and ok for _, load, ok in result.runs)

    def test_sampled_sweep_is_flagged_and_seeded(self):
        spec = man_spec(7, 4, 7 * 5, T=1)
        a = worst_case_sweep(spec, 5, cap=3, seed=9)
        b = worst_case_sweep(spec, 5, cap=3, seed=9)
        assert a.sampled and a.total_subsets == 21 and len(a.runs) == 3
        assert [s for s, _, _ in a.runs] == [s for s, _, _ in b.runs]

    def test_cover_verified_once_per_job(self, monkeypatch):
        import codedmr.shuffle

        calls = []
        verify = codedmr.shuffle.verify_cover
        monkeypatch.setattr(
            codedmr.shuffle, "verify_cover", lambda m, c: calls.append(1) or verify(m, c)
        )
        result = worst_case_sweep(man_spec(6, 3, 12), 4)
        assert len(result.runs) == 15
        assert len(calls) == 1

    def test_reduce_digests_once_per_function(self, monkeypatch):
        import codedmr.shuffle

        calls = []
        streams = codedmr.shuffle._digest_streams

        def counted(tag, head, tails, length):
            calls.append(tag)
            return streams(tag, head, tails, length)

        monkeypatch.setattr(codedmr.shuffle, "_digest_streams", counted)
        spec = man_spec(6, 3, 12)
        result = worst_case_sweep(spec, 4)
        assert len(result.runs) == 15 and all(ok for _, _, ok in result.runs)
        # a sweep reads only each run's verdict, so it digests no reduce output
        assert calls.count(b"reduce") == 0 and "reduce_outputs" not in spec.__dict__
        for stragglers in (("1", "2"), ("5", "6")):
            assert len(straggler_run(spec, stragglers).reduce_result.outputs) == 12
            assert calls.count(b"reduce") == spec.num_functions
        for q in range(1, spec.num_functions + 1):
            row = [v.tobytes() for v in spec.ivas[q - 1]]
            assert spec.reduce_outputs[q - 1] == reference_reduce_digest(q, row)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            worst_case_sweep(man_spec(5, 2, 5), 4, cap=0)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_kappa_below_two_rejected(self, kappa):
        with pytest.raises(ValueError, match=f"kappa={kappa} must be at least 2"):
            worst_case_sweep(man_spec(5, 2, 5), kappa)


class TestOptimalLoad:
    def test_table_values(self):
        assert optimal_straggler_load(5, 2, 4) == Fraction(9, 20)
        assert optimal_straggler_load(7, 4, 5) == Fraction(71, 420)
        assert optimal_straggler_load(7, 4, 4) == Fraction(17, 70)
        assert optimal_straggler_load(10, 3, 8) == Fraction(119, 360)

    def test_printed_precision_truncates(self):
        assert decimal_trunc(Fraction(17, 70), 4) == "0.2428"
        assert decimal_trunc(Fraction(119, 360), 4) == "0.3305"
        assert decimal_str(Fraction(17, 70), 4) == "0.2429"   # half-even differs

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            optimal_straggler_load(5, 2, 1)
        with pytest.raises(ValueError):
            optimal_straggler_load(5, 2, 2)    # 3 stragglers > r-1

    def test_kappa_above_K_is_a_value_error(self):
        """Not 0 from an empty summation."""
        with pytest.raises(ValueError, match="kappa=7 exceeds K=5"):
            optimal_straggler_load(5, 2, 7)

    @pytest.mark.parametrize("K, r", [(5, 6), (5, 5), (5, 0), (5, -1)])
    def test_r_outside_1_to_K_minus_1_is_a_value_error(self, K, r):
        """r = 6 > K = 5 once gave 0 from an empty summation."""
        with pytest.raises(ValueError, match=f"computation load r={r} out of range"):
            optimal_straggler_load(K, r, 5)

    def test_extrapolation_flag(self):
        assert not optimal_load_is_extrapolated(5, 2, 4)    # index 1
        assert optimal_load_is_extrapolated(10, 3, 6)       # index -1, clamped


def test_straggler_load_is_the_base_load_scaled_by_K_over_kappa():
    for K in range(2, 9):
        for r, g, kappa in itertools.product(range(1, K), range(2, K + 1), range(1, K + 1)):
            load = straggler_load_formula(K, r, g, kappa)
            assert load == load_formula(K, r, g) * Fraction(K, kappa)
            assert load == Fraction(2 * (K - r), g * kappa)
    with pytest.raises(ValueError, match="size < 2"):
        straggler_load_formula(5, 2, 1, 4)


@pytest.mark.parametrize("kappa", [0, -3])
def test_straggler_load_without_a_survivor_is_a_value_error(kappa):
    """Not a ZeroDivisionError at kappa = 0."""
    with pytest.raises(ValueError, match=f"kappa={kappa} must be at least 1 survivor"):
        straggler_load_formula(5, 2, 3, kappa)


def test_straggler_load_with_more_survivors_than_servers_is_a_value_error():
    """Not 2/7 at K = 5 and kappa = 7."""
    with pytest.raises(ValueError, match="kappa=7 exceeds K=5"):
        straggler_load_formula(5, 2, 3, 7)


class TestComparisonTable:
    def test_all_golden_rows_pass(self):
        table = comparison_table()
        assert table.ok
        assert [row.ours for row in table.rows] == [
            Fraction(1, 2), Fraction(6, 25), Fraction(3, 10), Fraction(7, 16),
        ]
        assert [row.optimal for row in table.rows] == [
            Fraction(9, 20), Fraction(71, 420), Fraction(17, 70), Fraction(119, 360),
        ]
        for row in table.rows:
            assert row.simulated == row.ours
            assert row.decode_ok

    def test_fault_injection_fails_the_table(self, monkeypatch):
        import codedmr.straggler as st

        original = st.straggler_load_formula
        monkeypatch.setattr(
            st, "straggler_load_formula",
            lambda K, r, g, kappa: original(K, r, g + 1, kappa),
        )
        table = st.comparison_table()
        assert not table.ok
        assert table.failures()


@st.composite
def man_straggler_cases(draw):
    """Small MAN(K,r) with a straggler set within the tolerance g-2."""
    K = draw(st.integers(3, 7))
    r = draw(st.integers(1, K - 1))
    m = man_matrix(K, r)
    stragglers = draw(st.lists(st.sampled_from(m.rows), max_size=r - 1, unique=True))
    return K, r, tuple(stragglers)


@settings(max_examples=60, deadline=None)
@given(man_straggler_cases())
def test_balanced_plan_exactly_when_preconditions_hold(case):
    K, r, stragglers = case
    kappa = K - len(stragglers)
    spec = man_spec(K, r, lcm(K, kappa), T=2)
    members = [rows for rows, _ in cover_members(spec.cover)]
    survivors = [k for k in spec.matrix.rows if k not in stragglers]
    alive = {sum(k in survivors for k in rows) for rows in members}
    counts = {sum(k in rows for rows in members) for k in survivors}
    holds = len(members) % kappa == 0 and len(counts) == 1 and len(alive) == 1
    assert balanceable(balance_preconditions(spec.matrix, spec.cover, survivors)) == holds

    result = straggler_run(spec, stragglers, plan="balanced")
    event(result.plan_mode)
    assert result.reduce_result.ok
    if not holds:
        assert result.plan_mode == "default (balanced unavailable)"
        assert result.plan is None and result.plan_fallback
        return
    assert result.plan_mode == "balanced" and result.plan_fallback is None
    assert plan_pairs(result.plan) == plan_pairs(build_sender_plan(spec.matrix, spec.cover, survivors))
    assert audit_plan(result.plan, result.transcript).balanced
    sent = {k: {"coded": 0, "uncoded": 0} for k in survivors}
    for tx in result.transcript.transmissions:
        sent[tx.sender][tx.kind] += len(tx.payload)
    assert len({n for per_kind in sent.values() for n in per_kind.values()}) == 1


def _survivor_case(name):
    from test_constructions import pg2_3_design

    from codedmr import bibd_matrix, transversal_cover, transversal_matrix

    if name.startswith("MAN"):
        m = man_matrix(*map(int, name[4:-1].split(",")))
        return m, man_cover(m)
    if name == "TD(3,3)":
        m = transversal_matrix(3, 3)
        return m, transversal_cover(m)
    m, g = (fano_matrix(), 3) if name == "fano" else (bibd_matrix(pg2_3_design()), 4)
    return m, search_cover(m, g, mode="exact")


@pytest.mark.parametrize("name", ["MAN(5,2)", "MAN(6,3)", "MAN(7,4)", "fano", "TD(3,3)", "PG(2,3)"])
def test_stragglers_within_tolerance_leave_every_member_two_survivors(name):
    """Why straggler_run counts no survivors: a sound member has g distinct
    rows, and at most g - 2 of them can fail."""
    m, cover = _survivor_case(name)
    R, _ = JobSpec(m, cover, m.K, 1).cover_index
    g = R.shape[1]
    assert all(len(set(rows)) == g for rows in R.tolist())
    for n in range(g - 1):
        for failed in itertools.combinations(range(m.K), n):
            assert (~np.isin(R, failed)).sum(axis=1).min() >= 2, failed
