from fractions import Fraction
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from codedmr import (
    JobSpec,
    ShuffleError,
    StragglerScenario,
    balance_preconditions,
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


def man_spec(K, r, Q, T=4):
    m = man_matrix(K, r)
    return JobSpec(m, man_cover(m), Q, T)


class TestStragglerRun:
    def test_man_5_2_one_straggler_load_half(self):
        spec = man_spec(5, 2, 20)
        scenario = StragglerScenario.from_stragglers(spec, ("5",))
        result = straggler_run(spec, scenario)
        assert result.load == Fraction(1, 2)
        assert result.reduce_result.ok

    def test_man_7_4_two_stragglers(self):
        spec = man_spec(7, 4, 35)
        scenario = StragglerScenario.from_stragglers(spec, ("6", "7"))
        result = straggler_run(spec, scenario)
        assert result.load == Fraction(6, 25)
        assert result.reduce_result.ok

    def test_no_stragglers_reduces_to_base_formula(self):
        spec = man_spec(5, 2, 5)
        scenario = StragglerScenario.from_stragglers(spec, ())
        result = straggler_run(spec, scenario)
        assert result.load == load_formula(5, 2, 3)

    def test_transcript_shape(self):
        spec = man_spec(5, 2, 20)
        scenario = StragglerScenario.from_stragglers(spec, ("1",))
        result = straggler_run(spec, scenario)
        assert len(result.transcript.transmissions) == 2 * spec.cover.size
        # payloads are (Q/kappa) * T bytes
        assert all(
            len(tx.payload) == (20 // 4) * 4 for tx in result.transcript.transmissions
        )

    def test_stragglers_never_transmit(self):
        spec = man_spec(5, 2, 20)
        scenario = StragglerScenario.from_stragglers(spec, ("3",))
        result = straggler_run(spec, scenario)
        senders = {tx.sender for tx in result.transcript.transmissions}
        assert "3" not in senders
        assert result.transcript.sent_bits["3"] == 0

    def test_too_many_stragglers_rejected(self):
        spec = man_spec(5, 2, 30)   # g = 3 tolerates one straggler
        with pytest.raises(ValueError, match="tolerance"):
            scenario = StragglerScenario.from_stragglers(spec, ("4", "5"))
            straggler_run(spec, scenario)

    def test_q_must_divide_among_survivors(self):
        spec = man_spec(5, 2, 5)
        with pytest.raises(ValueError, match="divisible"):
            StragglerScenario.from_stragglers(spec, ("5",))

    def test_scaling_law_k_over_kappa(self):
        for K, r in [(5, 2), (6, 3), (7, 4)]:
            g = r + 1
            for kappa in range(max(2, K - (g - 2)), K + 1):
                spec = man_spec(K, r, lcm(K, kappa), T=2)
                base = run_base_load(spec)
                scenario = StragglerScenario.from_stragglers(
                    spec, spec.matrix.rows[kappa:]
                )
                result = straggler_run(spec, scenario)
                assert result.load == Fraction(K, kappa) * base

    def test_balanced_plan_hint_falls_back_when_unavailable(self):
        spec = man_spec(5, 2, 20)
        scenario = StragglerScenario.from_stragglers(spec, ("5",))
        result = straggler_run(spec, scenario, plan="balanced")
        # S=10 not divisible by kappa=4: fallback, run still correct
        assert "default" in result.plan_mode
        assert result.load == Fraction(1, 2)
        assert result.reduce_result.ok

    def test_explicit_plan_naming_a_straggler_rejected(self):
        spec = man_spec(6, 3, 30)
        scenario = StragglerScenario.from_stragglers(spec, ("2",))
        plan = {i: tuple(member.rows[:2]) for i, member in enumerate(spec.cover.members)}
        assert any("2" in pair for pair in plan.values())
        with pytest.raises(ShuffleError, match="senders must be participating rows"):
            straggler_run(spec, scenario, plan)

    def test_balanced_plan_hint_balances_when_kappa_equals_k(self):
        spec = man_spec(5, 2, 5)
        scenario = StragglerScenario.from_stragglers(spec, ())
        result = straggler_run(spec, scenario, plan="balanced")
        assert result.plan_mode == "balanced"
        sent = set(result.transcript.sent_bits.values())
        assert len(sent) == 1   # everyone sends the same byte count


def run_base_load(spec):
    from codedmr import run_pipeline

    return run_pipeline(spec).load


class TestWorstCaseSweep:
    def test_man_5_2_kappa4_exhaustive(self):
        spec = man_spec(5, 2, 20)
        result = worst_case_sweep(spec, 4)
        assert len(result.runs) == result.total_subsets == 5
        assert result.all_equal and not result.sampled
        assert result.max_load == result.min_load == Fraction(1, 2)
        assert all(ok for _, _, ok in result.runs)

    def test_kappa_equals_k_single_empty_subset(self):
        spec = man_spec(5, 2, 5)
        result = worst_case_sweep(spec, 5)
        assert result.total_subsets == 1
        assert result.max_load == load_formula(5, 2, 3)

    def test_fano_kappa6_all_subsets_decode(self):
        m = fano_matrix()
        spec = JobSpec(m, search_cover(m, 3, mode="exact"), 42, 2)
        result = worst_case_sweep(spec, 6)
        assert len(result.runs) == 7
        assert result.max_load == Fraction(1, 3)   # (2/3) * (3/6)
        assert all(ok for _, _, ok in result.runs)

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
        digest = codedmr.shuffle.reduce_digest
        monkeypatch.setattr(
            codedmr.shuffle, "reduce_digest", lambda q, ivas: calls.append(q) or digest(q, ivas)
        )
        spec = man_spec(6, 3, 12)
        result = worst_case_sweep(spec, 4)
        assert len(result.runs) == 15 and all(ok for _, _, ok in result.runs)
        assert len(calls) <= spec.num_functions
        for q in range(1, spec.num_functions + 1):
            assert spec.reduce_outputs[q - 1] == digest(q, [v.tobytes() for v in spec.ivas[q - 1]])

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            worst_case_sweep(man_spec(5, 2, 5), 4, cap=0)


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

    def test_extrapolation_flag(self):
        assert not optimal_load_is_extrapolated(5, 2, 4)    # index 1
        assert optimal_load_is_extrapolated(10, 3, 6)       # index -1, clamped


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
        table = st.comparison_table(simulate=False)
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
    scenario = StragglerScenario.from_stragglers(spec, stragglers)
    members = spec.cover.members
    survivors = scenario.survivors
    alive = {sum(k in survivors for k in member.rows) for member in members}
    counts = {sum(k in member.rows for member in members) for k in survivors}
    holds = len(members) % kappa == 0 and len(counts) == 1 and len(alive) == 1
    assert balance_preconditions(spec.matrix, spec.cover, survivors).ok == holds

    result = straggler_run(spec, scenario, plan="balanced")
    event(result.plan_mode)
    assert result.reduce_result.ok
    if not holds:
        assert result.plan_mode == "default (balanced unavailable)"
        return
    assert result.plan_mode == "balanced"
    sent = {k: {"coded": 0, "uncoded": 0} for k in survivors}
    for tx in result.transcript.transmissions:
        sent[tx.sender][tx.kind] += len(tx.payload)
    assert len({n for per_kind in sent.values() for n in per_kind.values()}) == 1
