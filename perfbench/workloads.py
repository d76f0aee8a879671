"""Benchmark workloads: jobs, one pass over their ops, and output checks.

A job is what one ``codedmr run`` (plus, with ``kappa``, one ``codedmr
sweep`` for each of SWEEP_FILES input files) does: build the matrix and
cover, optionally a balanced sender plan, run the pipeline, and save and
reload its transcript.  Each op runs under a catch that records the
exception class and time to failure, so a pass always finishes.  Library
functions are looked up through their modules on every call, which is
what lets the traced run swap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace
from math import comb
from pathlib import Path
from typing import Callable

from codedmr import balance, constructions, covers, matrix, shuffle, straggler


@dataclass(frozen=True)
class Job:
    name: str
    Q: int                                   # reduce functions
    T: int                                   # intermediate-value bytes
    man: tuple[int, int] | None = None       # subset placement MAN(K, r) ...
    difference_set: tuple[int, ...] = ()     # ... or the cyclic design it develops mod v
    v: int = 0
    g: int = 0                               # exact cover search member size
    max_nodes: int | None = None
    plan: str = "default"                    # "default" | "balanced"
    kappa: int | None = None                 # then also sweep every straggler subset


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # One big default-plan job, whose shuffle and persistence carry its time,
    # and two balanced-plan jobs, whose planning carries theirs.
    "man-jobs": (
        Job("MAN(15,7)", Q=15, T=16, man=(15, 7)),
        Job("MAN(12,5)", Q=12, T=64, man=(12, 5), plan="balanced"),
        Job("MAN(11,4)", Q=11, T=64, man=(11, 4), plan="balanced"),
    ),
    "design-sweep": (
        Job("PG(2,3)", Q=143, T=64, difference_set=(0, 1, 3, 9), v=13, g=4, kappa=11),
    ),
    # Not in BENCHMARK.json: its ops fail on purpose, to show known defects
    # (a RecursionError in the balancer, an exhausted cover search budget).
    "known-defects": (
        Job("MAN(13,5)", Q=13, T=64, man=(13, 5), plan="balanced"),
        Job("PG(2,4)", Q=21, T=64, difference_set=(0, 1, 4, 14, 16), v=21, g=5,
            max_nodes=10000),
    ),
}

# A job with kappa sweeps the files of this many file seeds (seed, seed+1,
# ...), so that the sweeps are half of each pass and a run of design-sweep
# times some twelve of them for scenarios_per_s.
SWEEP_FILES = 3

# sha256 of the saved transcript at PIN_SEED, so a refactor that changes
# a single transcript byte shows as a failed op.  At other seeds every
# pass must reproduce the transcript of the run's first pass.
PIN_SEED = 0
PINNED_SHA256 = {
    "MAN(15,7)": "eaac3925eb9c224f19efc21ec3af599037b8f0120c48915cf5e48275aaba2dda",
    "MAN(12,5)": "29f7fc7eb310ca115b56fc40dadf66fe42a2d314c529f7e8fbb2affd9b99eff0",
}


@dataclass
class PassResult:
    seconds: float = 0.0          # wall time of the library calls
    setup_seconds: float = 0.0    # matrix, cover and sender plan
    decode_seconds: float = 0.0   # worst_case_sweep calls, or run_pipeline for a job without
    scenarios: int = 0            # sweep scenarios, or pipeline runs, decoded in that time
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)   # "op: reason"
    transcript_bytes: int = 0


def cyclic_design_text(base: tuple[int, ...], v: int) -> str:
    """Design file of the v translates of *base* mod v, points 0..v-1."""
    blocks = [" ".join(str((x + i) % v) for x in base) for i in range(v)]
    return "\n".join([f"{v} {v} {len(base)}", " ".join(map(str, range(v))), *blocks]) + "\n"


def run_pass(
    jobs: tuple[Job, ...],
    seed: int,
    workdir: Path,
    reference_sha: dict[str, str],
    op_scope: Callable[[str], contextlib.AbstractContextManager] = contextlib.nullcontext,
) -> PassResult:
    """Run every op of *jobs* once, checking each op's outputs.

    *reference_sha* carries transcript digests from pass to pass; the
    first pass of a run fills it.  *op_scope* opens a context around the
    library calls of each op (the traced run's root span).
    """
    res = PassResult()
    for i, job in enumerate(jobs):
        _run_job(job, seed, Path(workdir) / f"job{i}.bin", reference_sha, res, op_scope)
    return res


def _attempt(res: PassResult, name: str, op_scope, work: Callable, count: int = 1):
    """Time ``work()``; an exception marks *count* ops failed and gives None."""
    res.attempted += count
    start = time.perf_counter()
    try:
        with op_scope(name):
            out = work()
    except Exception as exc:
        out = None
        _fail(res, name, f"{type(exc).__name__} after {time.perf_counter() - start:.3f} s", count)
    elapsed = time.perf_counter() - start
    res.seconds += elapsed
    return out, elapsed


def _fail(res: PassResult, name: str, reason: str, count: int = 1) -> None:
    res.failed += count
    res.failures.append(f"{name}: {reason}")


def _setup(job: Job):
    if job.man is not None:
        m = constructions.man_matrix(*job.man)
        cover = covers.man_cover(m)
    else:
        design = constructions.ingest_design(cyclic_design_text(job.difference_set, job.v))
        m = constructions.bibd_matrix(design)
        cover = covers.search_cover(m, job.g, mode="exact", max_nodes=job.max_nodes)
    plan = balance.build_sender_plan(m, cover) if job.plan == "balanced" else None
    return m, cover, plan


def _pipeline(spec: shuffle.JobSpec, plan, path: Path):
    start = time.perf_counter()
    result = shuffle.run_pipeline(spec, None if plan is None else plan.as_mapping())
    decode = time.perf_counter() - start
    shuffle.save_transcript(path, spec, result.transcript)
    _, loaded = shuffle.load_transcript(path)
    return result, loaded, decode


def _records(transmissions) -> list[tuple]:
    return [(tx.sender, tx.member, tx.kind, tx.payload) for tx in transmissions]


def _run_job(job, seed, path, reference_sha, res, op_scope) -> None:
    built, elapsed = _attempt(res, f"{job.name} setup", op_scope, lambda: _setup(job))
    res.setup_seconds += elapsed
    if built is None:
        return
    m, cover, plan = built
    if not matrix.verify_cover(m, cover).ok or not matrix.count_identity_check(cover, m):
        _fail(res, f"{job.name} setup", "verify_cover or count_identity_check")
        return
    spec = shuffle.JobSpec(m, cover, job.Q, job.T, file_seed=seed)

    name = f"{job.name} run"
    out, _ = _attempt(res, name, op_scope, lambda: _pipeline(spec, plan, path))
    if out is not None:
        result, loaded, decode = out
        if job.kappa is None:   # a sweeping job's rate is that of its sweeps alone
            res.decode_seconds += decode
            res.scenarios += 1
        data = path.read_bytes()
        res.transcript_bytes += len(data)
        sha = hashlib.sha256(data).hexdigest()
        want = (PINNED_SHA256.get(job.name) if seed == PIN_SEED else None) or (
            reference_sha.setdefault(job.name, sha)
        )
        bad = [
            check
            for check, ok in (
                ("reduce_result.ok", result.reduce_result.ok),
                ("load_formula", result.load == matrix.load_formula(m.K, m.r, spec.g)),
                ("audit_plan", plan is None
                 or balance.audit_plan(plan, result.transcript).balanced),
                ("load_transcript round trip",
                 _records(loaded) == _records(result.transcript.transmissions)),
                ("transcript sha256", sha == want),
            )
            if not ok
        ]
        if bad:
            _fail(res, name, ", ".join(bad))

    if job.kappa is not None:
        for i in range(SWEEP_FILES):
            _sweep(job, replace(spec, file_seed=seed + i), seed, res, op_scope)


def _sweep(job, spec, seed, res, op_scope) -> None:
    """Every (K - kappa)-subset of stragglers; each scenario is one op."""
    m = spec.matrix
    total = comb(m.K, m.K - job.kappa)
    name = f"{job.name} sweep kappa={job.kappa} file_seed={spec.file_seed}"
    sweep, elapsed = _attempt(
        res, name, op_scope,
        lambda: straggler.worst_case_sweep(spec, job.kappa, cap=total, seed=seed),
        count=total,
    )
    if sweep is None:
        return
    res.decode_seconds += elapsed
    res.scenarios += len(sweep.runs)
    expected = straggler.straggler_load_formula(m.K, m.r, spec.g, job.kappa)
    good = [s for s, load, ok in sweep.runs if ok and load == expected]
    if len(good) != total:
        _fail(res, name, f"{total - len(good)} of {total} scenarios failed decode "
              "or straggler_load_formula", total - len(good))
