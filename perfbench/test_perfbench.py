"""Tests of the benchmark itself, on tiny jobs: MAN(5,2) and the Fano plane."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from codedmr import balance, shuffle

ROOT = Path(__file__).resolve().parent.parent
MAN52 = workloads.Job("MAN(5,2)", Q=5, T=4, man=(5, 2), plan="balanced")
FANO = workloads.Job("Fano", Q=42, T=4, difference_set=(0, 1, 3), v=7, g=3, kappa=6)
TINY = (MAN52, FANO)


def _bindings() -> dict:
    return {
        (mod, attr): getattr(importlib.import_module(f"codedmr.{mod}"), attr)
        for mod, attr, *_ in spans.SPANNED + spans.COUNTED
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_by_name_with_its_unit(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    times = run.LAYER_TIMES if trace else run.END_TO_END
    assert all(result["metrics"][name]["value"] > 0 for name in times)
    assert (tmp_path / "trace-tiny-3.jsonl").exists() == bool(trace)


def test_tampered_broadcast_fails_the_op(tmp_path, monkeypatch):
    def flip(tx):
        return dataclasses.replace(tx, payload=bytes([tx.payload[0] ^ 1]) + tx.payload[1:])

    monkeypatch.setattr(shuffle, "run_pipeline", functools.partial(shuffle.run_pipeline, tamper=flip))
    res = workloads.run_pass((MAN52,), 0, tmp_path, {})
    assert (res.attempted, res.failed) == (2, 1)
    assert res.failures == ["MAN(5,2) run: reduce_result.ok"]


def test_flipped_transcript_byte_fails_the_op(tmp_path, monkeypatch):
    save = shuffle.save_transcript

    def save_and_flip(path, spec, transcript):
        save(path, spec, transcript)
        data = bytearray(Path(path).read_bytes())
        data[-1] ^= 0xFF
        Path(path).write_bytes(data)

    monkeypatch.setattr(shuffle, "save_transcript", save_and_flip)
    res = workloads.run_pass((MAN52,), 0, tmp_path, {})
    assert res.failed == 1
    assert res.failures == ["MAN(5,2) run: load_transcript round trip"]


def test_transcript_digest_is_pinned_at_the_pin_seed(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PINNED_SHA256, "MAN(5,2)", "0" * 64)
    pinned = workloads.run_pass((MAN52,), workloads.PIN_SEED, tmp_path, {})
    assert pinned.failures == ["MAN(5,2) run: transcript sha256"]
    reference: dict[str, str] = {}
    for _ in range(2):
        assert workloads.run_pass((MAN52,), workloads.PIN_SEED + 1, tmp_path, reference).failed == 0
    reference["MAN(5,2)"] = "0" * 64
    assert workloads.run_pass((MAN52,), workloads.PIN_SEED + 1, tmp_path, reference).failed == 1


def test_failed_ops_are_counted_and_the_pass_goes_on(tmp_path, monkeypatch):
    budget = dataclasses.replace(FANO, name="Fano budget", max_nodes=0, kappa=None)

    def too_deep(adj):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(balance, "perfect_matching", too_deep)
    untraced, traced = run.measure((budget, MAN52, FANO), 0, 0, tmp_path, trace=True)
    for res in [untraced[0], traced[0][0]]:
        assert (res.attempted, res.failed) == (1 + 1 + 2 + 3 * 7, 2)
        assert res.failures[0].startswith("Fano budget setup: CoverBudgetError after ")
        assert res.failures[1].startswith("MAN(5,2) setup: RecursionError after ")
    layers, problems = run.per_layer(untraced, traced)
    assert problems == []
    assert (layers["covers.budget_exhausted"], layers["balance.errors"]) == (1, 1)


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        counts.append(run.per_layer(*run.measure(TINY, 1, 0, tmp_path, trace=True))[0])
    names = run.LAYER_COUNTS
    assert {n: counts[0][n] for n in names} == {n: counts[1][n] for n in names}
    assert counts[0]["straggler.scenarios"] == 3 * 7
    assert counts[0]["balance.matching_calls"] == 2
    # MAN(5,2): S=10 members; Fano: S=7 members in one run and 3 x 7 scenarios.
    assert counts[0]["shuffle.broadcasts"] == 2 * 10 + 2 * 7 * (1 + 3 * 7)


def test_decode_rate_counts_sweeps_or_else_pipeline_runs(tmp_path):
    assert workloads.run_pass((FANO,), 0, tmp_path, {}).scenarios == 3 * 7
    assert workloads.run_pass((MAN52,), 0, tmp_path, {}).scenarios == 1


def test_traced_run_leaves_no_wrapper_behind(tmp_path):
    before = _bindings()
    rec = spans.Recorder()
    with pytest.raises(KeyboardInterrupt):
        with spans.installed(rec):
            assert all(_bindings()[key] is not fn for key, fn in before.items())
            raise KeyboardInterrupt
    run.measure(TINY, 0, 0, tmp_path, trace=True)
    assert all(_bindings()[key] is fn for key, fn in before.items())


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    rec.spans = [
        spans.Span("outer", 0.0, 10.0, None, 1),
        spans.Span("inner", 2.0, 5.0, 0, 1),
        spans.Span("inner", 6.0, 7.0, 0, 1),
    ]
    assert rec.self_times() == {"outer": 6.0, "inner": 4.0}


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "man-jobs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
