"""Full-straggler runs: survivors reduce everything, load scales by K/kappa.

A straggler run is the no-straggler run over the survivors: the same
two broadcasts per cover member, carried out by ``shuffle.run_pipeline``
with the failed servers passed as its ``stragglers``.  This module
checks that a scenario is within tolerance, resolves the sender plan
over the survivors, and sweeps or tabulates scenarios.

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
from typing import Mapping

from . import balance, shuffle
from .covers import man_cover
from .constructions import man_matrix
from .fmt import decimal_trunc, printed_places
from .shuffle import JobSpec, PipelineResult
# Not called here: tracing tools swap these module attributes, so they
# stay bound.
from .balance import perfect_matching  # noqa: F401
from .shuffle import default_plan, run_map_phase, run_reduce, run_shuffle  # noqa: F401


@dataclass(frozen=True)
class StragglerScenario:
    """Survivor set and failed servers, both in matrix row order."""

    survivors: tuple[str, ...]
    stragglers: tuple[str, ...]

    @classmethod
    def from_stragglers(cls, spec: JobSpec, stragglers) -> "StragglerScenario":
        """Build a scenario from the failed-server labels.

        The survivors split the Q functions into contiguous blocks, so Q
        must divide evenly among them.
        """
        straggler_set = set(stragglers)
        unknown = straggler_set - set(spec.matrix.rows)
        if unknown:
            raise ValueError(f"unknown straggler labels {sorted(unknown)}")
        survivors = tuple(k for k in spec.matrix.rows if k not in straggler_set)
        if len(survivors) < 2:
            raise ValueError("at least two servers must survive")
        if spec.num_functions % len(survivors):
            raise ValueError(
                f"Q={spec.num_functions} is not divisible by kappa={len(survivors)} survivors"
            )
        return cls(survivors, tuple(k for k in spec.matrix.rows if k in straggler_set))

    @property
    def kappa(self) -> int:
        return len(self.survivors)


def straggler_load_formula(K: int, r: int, g: int, kappa: int) -> Fraction:
    """Closed-form load (2/g) * (K - r) / kappa of a straggler run."""
    return Fraction(2, g) * Fraction(K - r, kappa)


def straggler_run(
    spec: JobSpec,
    scenario: StragglerScenario,
    plan: str | Mapping[int, tuple[str, str]] = "default",
) -> PipelineResult:
    """Simulate one straggler scenario end to end.

    Stragglers map nothing and never transmit; every member must keep at
    least two surviving rows.  The transcript has 2S transmissions of
    (Q/kappa)*T bytes.  *plan* is "default", "balanced" (over the
    survivors, falling back to the default plan when the balancing
    preconditions fail) or an explicit member -> (coded, uncoded) map.
    """
    K = spec.matrix.K
    g = spec.g
    n_stragglers = K - scenario.kappa
    if not 0 <= n_stragglers <= g - 2:
        raise ValueError(
            f"{n_stragglers} stragglers exceed the tolerance g-2 = {g - 2}"
        )
    survivor_set = set(scenario.survivors)
    for idx, member in enumerate(spec.cover.members):
        alive = sum(1 for k in member.rows if k in survivor_set)
        if alive < 2:
            raise ValueError(f"member {idx} has {alive} surviving rows, needs 2")

    plan_mode = plan if isinstance(plan, str) else "explicit"
    resolved = None if isinstance(plan, str) else dict(plan)
    if plan == "balanced":
        try:
            resolved = balance.build_sender_plan(
                spec.matrix, spec.cover, scenario.survivors
            ).as_mapping()
        except balance.BalanceError:
            plan_mode = "default (balanced unavailable)"
    elif isinstance(plan, str) and plan != "default":
        raise ValueError(f"unknown plan mode {plan!r}")
    result = shuffle.run_pipeline(spec, resolved, stragglers=scenario.stragglers)
    result.plan_mode = plan_mode
    return result


@dataclass
class SweepResult:
    """Loads over every (or a sampled set of) straggler subsets."""

    runs: list[tuple[tuple[str, ...], Fraction, bool]]   # (stragglers, load, decode ok)
    max_load: Fraction
    min_load: Fraction
    all_equal: bool
    sampled: bool
    total_subsets: int


def worst_case_sweep(
    spec: JobSpec,
    kappa: int,
    plan: str = "default",
    cap: int = 2000,
    seed: int = 0,
) -> SweepResult:
    """Run every straggler subset of size K - kappa and compare loads.

    Uniform covers give the same load for every subset, which the sweep
    asserts.  When the subset count exceeds *cap*, a seeded sample is
    swept instead and flagged as such.
    """
    if cap < 1:
        raise ValueError(f"cap={cap} must be at least 1")
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
        scenario = StragglerScenario.from_stragglers(spec, subset)
        result = straggler_run(spec, scenario, plan)
        runs.append((subset, result.load, result.reduce_result.ok))
    loads = [load for _, load, _ in runs]
    all_equal = len(set(loads)) == 1
    if not all_equal:
        raise RuntimeError(
            "straggler load varied across subsets of a uniform cover: "
            f"{sorted(set(loads))}"
        )
    return SweepResult(
        runs=runs,
        max_load=max(loads),
        min_load=min(loads),
        all_equal=all_equal,
        sampled=sampled,
        total_subsets=total,
    )


def optimal_straggler_load(K: int, r: int, kappa: int) -> Fraction:
    """Known optimal load for the subset placement under full stragglers.

    Comparison oracle only; this package does not implement the scheme
    attaining it.  The summation's lower index is clamped to 1 when
    r + kappa - K is not positive (see optimal_load_is_extrapolated).
    """
    if kappa < 2:
        raise ValueError("need at least two survivors")
    if K - kappa > r - 1:
        raise ValueError(
            f"{K - kappa} stragglers exceed the reference scheme's tolerance r-1={r - 1}"
        )
    lo = max(1, r + kappa - K)
    hi = min(r, kappa - 1)
    total = Fraction(0)
    for i in range(lo, hi + 1):
        total += Fraction(1, i) * Fraction(
            comb(r, i) * comb(K - r - 1, kappa - i - 1), comb(K - 1, kappa - 1)
        )
    return (1 - Fraction(r, K)) * total


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
    iva_bytes: int = 4,
) -> ComparisonRow:
    """Build one comparison row, optionally backing ours by simulation."""
    g = r + 1
    N = comb(K, r)
    ours = straggler_load_formula(K, r, g, kappa)
    optimal = optimal_straggler_load(K, r, kappa)
    simulated = None
    decode_ok = None
    if simulate:
        matrix = man_matrix(K, r)
        spec = JobSpec(matrix, man_cover(matrix), lcm(K, kappa), iva_bytes)
        stragglers = matrix.rows[kappa:]
        result = straggler_run(spec, StragglerScenario.from_stragglers(spec, stragglers))
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
        K=K, r=r, N=N, g=g, kappa=kappa,
        ours=ours, optimal=optimal,
        printed_ours=printed_ours, printed_optimal=printed_optimal,
        simulated=simulated, decode_ok=decode_ok,
        extrapolated=optimal_load_is_extrapolated(K, r, kappa),
        passed=passed,
        golden=printed_ours is not None,
    )


def comparison_table(simulate: bool = True, iva_bytes: int = 4) -> ComparisonTable:
    """The four golden benchmark rows, simulation-backed by default."""
    rows = [
        comparison_row(K, r, kappa, po, popt, simulate=simulate, iva_bytes=iva_bytes)
        for K, r, kappa, po, popt in GOLDEN_ROWS
    ]
    return ComparisonTable(rows)


def extended_comparison_rows(
    params: list[tuple[int, int, int]], iva_bytes: int = 4
) -> list[ComparisonRow]:
    """Formula-only rows beyond the golden set, marked non-golden."""
    out = []
    for K, r, kappa in params:
        row = comparison_row(K, r, kappa, simulate=False, iva_bytes=iva_bytes)
        out.append(row)
    return out
