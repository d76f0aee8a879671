"""Full-straggler runs: survivors reduce everything, load scales by K/kappa.

A straggler run is the no-straggler run over the survivors: the same
two broadcasts per cover member, carried out by ``shuffle.run_pipeline``
with the failed servers passed as its ``stragglers``.  A scenario is
just those labels: ``run_pipeline`` checks them once, as it builds the
run's duty array, and rejects a Q the survivors cannot split evenly.
This module checks that a scenario is within tolerance, resolves the
sender plan over the survivors (the only place a run's balanced plan is
built), and sweeps or tabulates scenarios.

Because every exchange round involves only two senders, the scheme
tolerates up to g-2 failed servers: each cover member still has two
surviving rows to carry its round.  The surviving kappa servers split
the Q functions evenly, payloads grow to (Q/kappa)*T bytes, and the
measured load becomes (2/g)*(K-r)/kappa regardless of which servers
failed.  The known optimal load for the subset placement under full
stragglers is provided as a comparison oracle only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping

from . import balance, shuffle
from .covers import man_cover
from .constructions import SchemeParameters, man_matrix
from .fmt import decimal_trunc, printed_places
from .matrix import load_formula
from .shuffle import JobSpec, PipelineResult, SenderPlan
# Not called here: tracing tools swap these module attributes, so they
# stay bound.
from .balance import perfect_matching  # noqa: F401
from .shuffle import default_plan, run_map_phase, run_reduce, run_shuffle  # noqa: F401


def straggler_load_formula(K: int, r: int, g: int, kappa: int) -> Fraction:
    """Closed-form load of a straggler run: ``load_formula``'s
    (2/g)(1 - r/K) scaled by K/kappa, that is (2/g)(K - r)/kappa.
    Raises ValueError for fewer than one survivor or more than K."""
    if kappa < 1:
        raise ValueError(f"kappa={kappa} must be at least 1 survivor")
    if kappa > K:
        raise ValueError(f"kappa={kappa} exceeds K={K}")
    return load_formula(K, r, g) * Fraction(K, kappa)


def straggler_run(
    spec: JobSpec,
    stragglers: Iterable[str] = (),
    plan: str | SenderPlan | Mapping[int, tuple[str, str]] = "default",
) -> PipelineResult:
    """Simulate one straggler scenario end to end: the servers labelled
    *stragglers* fail.

    Stragglers map nothing and never transmit; at most g - 2 may fail,
    so every member keeps two surviving rows.  The transcript has 2S
    transmissions of (Q/kappa)*T bytes.  *plan* is "default", "balanced" (over the
    survivors, kept on ``result.plan`` and passed to ``run_pipeline`` as
    it is; when the balancing preconditions fail, the default plan, with
    the reason on ``result.plan_fallback``) or an explicit plan: a
    ``SenderPlan`` or a member -> (coded, uncoded) map.  ``run_pipeline``
    rejects unknown labels and a Q the survivors cannot split evenly.
    A cover that fails verification is the ShuffleError of
    ``spec.cover_index``, read before any balancing.
    """
    failed = set(stragglers)
    survivors = [k for k in spec.matrix.rows if k not in failed]
    n_stragglers = spec.matrix.K - len(survivors)
    if n_stragglers > spec.g - 2:
        raise ValueError(f"{n_stragglers} stragglers exceed the tolerance g-2 = {spec.g - 2}")
    # A ShuffleError on a broken cover, before any balancing.  Every
    # verified member has g distinct rows, so at most g - 2 stragglers
    # leave each at least two survivors.
    spec.cover_index

    plan_mode = plan if isinstance(plan, str) else "explicit"
    resolved = None if isinstance(plan, str) else plan
    balanced = fallback = None
    if plan == "balanced":
        try:
            resolved = balanced = balance.build_sender_plan(spec.matrix, spec.cover, survivors)
        except balance.BalanceError as exc:
            plan_mode, fallback = "default (balanced unavailable)", str(exc)
    elif isinstance(plan, str) and plan != "default":
        raise ValueError(f"unknown plan mode {plan!r}")
    result = shuffle.run_pipeline(spec, resolved, stragglers=failed)
    result.plan_mode, result.plan, result.plan_fallback = plan_mode, balanced, fallback
    return result


@dataclass
class SweepResult:
    """Loads over every (or a sampled set of) straggler subsets, which
    share the one *load*."""

    runs: list[tuple[tuple[str, ...], Fraction, bool]]   # (stragglers, load, decode ok)
    load: Fraction
    sampled: bool
    total_subsets: int


def worst_case_sweep(
    spec: JobSpec,
    kappa: int,
    plan: str = "default",
    cap: int = 2000,
    seed: int = 0,
) -> SweepResult:
    """Run every straggler subset of size K - kappa.

    A run's load is its 2S payloads of (Q/kappa)*T bytes over Q*N*T, that
    is 2S/(kappa*N), whichever servers fail: every subset gives the one
    load.  When the subset count exceeds *cap*, a seeded sample is swept
    instead and flagged as such.
    """
    if cap < 1:
        raise ValueError(f"cap={cap} must be at least 1")
    if kappa < 2:
        raise ValueError(f"kappa={kappa} must be at least 2 survivors")
    rows = spec.matrix.rows
    n_stragglers = spec.matrix.K - kappa
    if n_stragglers < 0:
        raise ValueError(f"kappa={kappa} exceeds K={spec.matrix.K}")
    total = comb(spec.matrix.K, n_stragglers)
    sampled = total > cap
    if not sampled:
        subsets = list(itertools.combinations(rows, n_stragglers))
    else:
        rng = random.Random(seed)
        picked: set[tuple[str, ...]] = set()
        while len(picked) < cap:
            picked.add(tuple(sorted(rng.sample(rows, n_stragglers))))
        subsets = sorted(picked)
    runs = []
    for subset in subsets:
        result = straggler_run(spec, subset, plan)
        runs.append((subset, result.load, result.reduce_result.ok))
    return SweepResult(runs=runs, load=runs[0][1], sampled=sampled, total_subsets=total)


def optimal_straggler_load(K: int, r: int, kappa: int) -> Fraction:
    """Known optimal load for the subset placement under full stragglers.

    Comparison oracle only; this package does not implement the scheme
    attaining it.  The summation's lower index is clamped to 1 when
    r + kappa - K is not positive (see optimal_load_is_extrapolated).
    Raises ValueError for r outside [1, K - 1], as ``load_formula``
    does, whose (2/2)(1 - r/K) is the factor before the summation, and
    for kappa outside [2, K].
    """
    factor = load_formula(K, r, 2)
    if kappa < 2:
        raise ValueError("need at least two survivors")
    if kappa > K:
        raise ValueError(f"kappa={kappa} exceeds K={K}")
    if K - kappa > r - 1:
        raise ValueError(
            f"{K - kappa} stragglers exceed the reference scheme's tolerance r-1={r - 1}"
        )
    total = sum(
        Fraction(comb(r, i) * comb(K - r - 1, kappa - i - 1), i * comb(K - 1, kappa - 1))
        for i in range(max(1, r + kappa - K), min(r, kappa - 1) + 1)
    )
    return factor * total


def optimal_load_is_extrapolated(K: int, r: int, kappa: int) -> bool:
    """True when the summation's stated lower index r + kappa - K is <= 0
    and the clamp to 1 kicked in."""
    return r + kappa - K <= 0


@dataclass
class ComparisonRow:
    K: int
    r: int
    N: int
    g: int
    kappa: int
    ours: Fraction
    optimal: Fraction
    printed_ours: str | None
    printed_optimal: str | None
    simulated: Fraction | None
    decode_ok: bool | None
    extrapolated: bool
    passed: bool | None
    golden: bool


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]

    @property
    def ok(self) -> bool:
        return all(row.passed for row in self.rows if row.golden)

    def failures(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.golden and not row.passed]


# Golden benchmark rows for the subset placement under full stragglers:
# (K, r, kappa, reference load of this scheme, reference optimal load).
# The reference decimals are truncated, not rounded; comparisons at
# printed precision must truncate the exact rationals the same way.
GOLDEN_ROWS: tuple[tuple[int, int, int, str, str], ...] = (
    (5, 2, 4, "0.5", "0.45"),
    (7, 4, 5, "0.24", "0.169"),
    (7, 4, 4, "0.3", "0.2428"),
    (10, 3, 8, "0.4375", "0.3305"),
)


def comparison_row(
    K: int,
    r: int,
    kappa: int,
    printed_ours: str | None = None,
    printed_optimal: str | None = None,
    simulate: bool = True,
) -> ComparisonRow:
    """Build one comparison row, optionally backing ours by simulation."""
    p = SchemeParameters.t_design_2(K, K - r)   # MAN(K, r) is family IV at (K, K - r)
    ours = straggler_load_formula(K, r, p.g, kappa)
    optimal = optimal_straggler_load(K, r, kappa)
    simulated = decode_ok = None
    if simulate:
        matrix = man_matrix(K, r)
        spec = JobSpec(matrix, man_cover(matrix), lcm(K, kappa), 4)   # the load is T-free
        result = straggler_run(spec, matrix.rows[kappa:])
        simulated = result.load
        decode_ok = result.reduce_result.ok
    passed = None
    if printed_ours is not None and printed_optimal is not None:
        passed = (
            decimal_trunc(ours, printed_places(printed_ours)) == printed_ours
            and decimal_trunc(optimal, printed_places(printed_optimal)) == printed_optimal
            and (simulated is None or (simulated == ours and bool(decode_ok)))
        )
    return ComparisonRow(
        K=K, r=r, N=p.N, g=p.g, kappa=kappa,
        ours=ours, optimal=optimal,
        printed_ours=printed_ours, printed_optimal=printed_optimal,
        simulated=simulated, decode_ok=decode_ok,
        extrapolated=optimal_load_is_extrapolated(K, r, kappa),
        passed=passed,
        golden=printed_ours is not None,
    )


def comparison_table() -> ComparisonTable:
    """The four golden benchmark rows, each backed by simulation."""
    return ComparisonTable([comparison_row(*row) for row in GOLDEN_ROWS])
