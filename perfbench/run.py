"""Benchmark of the codedmr pipeline, one workload per process.

    python3 perfbench/run.py --workload man-jobs --seed 0 --seconds 50 --trace 0

Runs passes over the workload's ops (see workloads.py) until --seconds
have elapsed and checks every output.  With --trace 0 it reports the
end-to-end metrics of untraced passes; with --trace 1 it alternates
untraced and traced passes and reports per-layer self times and counts,
writing the spans to .perfbench/trace-<workload>-<seed>.jsonl.  The last
line of standard output is one JSON object; the exit code is 1 when any
check failed and 2 without ``src/codedmr`` to import (run it from a
codedmr checkout).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END = {   # name -> unit
    "pass_s": "s",
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-layer self times: metric -> span name (see spans.SPANNED).
LAYER_TIMES = {
    "constructions.build_s": "constructions.build",
    "covers.cover_s": "covers.cover",
    "balance.plan_s": "balance.plan",
    "matrix.verify_s": "matrix.verify",
    "shuffle.map_s": "shuffle.map",
    "shuffle.exchange_s": "shuffle.exchange",
    "shuffle.reduce_s": "shuffle.reduce",
    "shuffle.save_s": "shuffle.save",
    "shuffle.load_s": "shuffle.load",
}
LAYER_COUNTS = (
    "constructions.cells",
    "covers.members",
    "covers.budget_exhausted",
    "balance.matching_calls",
    "balance.errors",
    "matrix.verify_calls",
    "shuffle.digests",
    "shuffle.broadcasts",
    "shuffle.payload_bytes",
    "shuffle.transcript_bytes",
    "straggler.scenarios",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "B" if name.endswith("_bytes") else "count" for name in LAYER_COUNTS},
    "trace.overhead_ratio": "ratio",
}


def measure(jobs, seed: int, seconds: float, workdir: Path, trace: bool):
    """Passes until *seconds* have elapsed: (untraced results, [(traced result, recorder)]).

    With *trace*, passes alternate untraced and traced, ending with at
    least one of each.  A full collection before each pass starts every
    pass from the same heap.
    """
    import workloads

    reference_sha: dict[str, str] = {}
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if trace and len(traced) < len(untraced):
            rec = spans.Recorder()
            with spans.installed(rec):
                res = workloads.run_pass(jobs, seed, workdir, reference_sha, rec.op)
            traced.append((res, rec))
        else:
            untraced.append(workloads.run_pass(jobs, seed, workdir, reference_sha))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return untraced, traced


def _rate(res) -> float:
    return res.scenarios / res.decode_seconds if res.decode_seconds else 0.0


def end_to_end(untraced) -> dict[str, float]:
    """Medians over passes; the decode rate is the run's total (scenarios / time)."""
    decode_seconds = sum(r.decode_seconds for r in untraced)
    return {
        "pass_s": statistics.median(r.seconds for r in untraced),
        "setup_s": statistics.median(r.setup_seconds for r in untraced),
        "scenarios_per_s": sum(r.scenarios for r in untraced) / decode_seconds
        if decode_seconds else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_counts(res, rec) -> dict[str, int]:
    """Exact per-pass counts of one traced pass."""
    n_spans = rec.span_counts()
    return {
        "constructions.cells": rec.counts["constructions.cells"],
        "covers.members": rec.counts["covers.members"],
        "covers.budget_exhausted": rec.errors["covers.cover: CoverBudgetError"],
        "balance.matching_calls": rec.counts["balance.matching_calls"],
        "balance.errors": sum(
            n for key, n in rec.errors.items() if key.startswith("balance.plan:")
        ),
        "matrix.verify_calls": n_spans["matrix.verify"],
        "shuffle.digests": rec.counts["shuffle.digests"],
        "shuffle.broadcasts": rec.counts["shuffle.broadcasts"],
        "shuffle.payload_bytes": rec.counts["shuffle.payload_bytes"],
        "shuffle.transcript_bytes": res.transcript_bytes,
        "straggler.scenarios": n_spans["straggler.run"],
    }


def per_layer(untraced, traced) -> tuple[dict[str, float], list[str]]:
    """Median self times over traced passes, exact counts, and the overhead.

    Counts that differ between traced passes are returned as a failure.
    """
    self_times = [rec.self_times() for _, rec in traced]
    metrics: dict[str, float] = {
        name: statistics.median(t.get(span, 0.0) for t in self_times)
        for name, span in LAYER_TIMES.items()
    }
    counts = [layer_counts(res, rec) for res, rec in traced]
    metrics.update(counts[0])
    problems = [
        f"trace: {name} differs between passes ({sorted({c[name] for c in counts})})"
        for name in LAYER_COUNTS
        if any(c[name] != counts[0][name] for c in counts)
    ]
    metrics["trace.overhead_ratio"] = statistics.median(
        res.seconds for res, _ in traced
    ) / statistics.median(r.seconds for r in untraced)
    return metrics, problems


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f}  n={len(values)}"


def report(workload: str, untraced, traced, metrics, units, failures, attempted, failed) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {workload}: {len(untraced)} untraced, {len(traced)} traced passes")
    print(f"  pass_s         {_quartiles([r.seconds for r in untraced])}")
    print(f"  setup_s        {_quartiles([r.setup_seconds for r in untraced])}")
    print(f"  scenarios/s    {_quartiles([_rate(r) for r in untraced])}")
    if traced:
        selfs = [rec.self_times() for _, rec in traced]
        for span in sorted({name for t in selfs for name in t}):
            print(f"  self {span:<22} {statistics.median(t.get(span, 0.0) for t in selfs):.4f} s")
        for key, n in sorted(traced[0][1].errors.items()):
            print(f"  error {key} x{n}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  ops: {failed} failed of {attempted}")
    for line in sorted(set(failures)):
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "codedmr" / "__init__.py").is_file():
        print(f"perfbench: no codedmr sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    jobs = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced = measure(jobs, args.seed, args.seconds, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir)

    passes = untraced + [res for res, _ in traced]
    failures = [line for r in passes for line in r.failures]
    if args.trace:
        metrics, problems = per_layer(untraced, traced)
        failures += problems
        units = PER_LAYER
        spans.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl",
                          [rec for _, rec in traced])
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    report(args.workload, untraced, traced, metrics, units, failures, attempted, failed)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
