"""Command-line front end: construct, run, verify, and tabulate.

Subcommands:
  run     build a job from flags, run the full pipeline, emit artifacts
          (a balanced plan is audited and saved as plan.json and audit.csv)
  table1  closed-form loads of the design-based scheme families (CSV)
  table2  straggler-load benchmark rows vs the optimal reference (CSV)
  verify  check a matrix file and a cover file against each other
  sweep   run every straggler subset of a given survivor count

Exit codes: 0 ok, 1 invariant or verdict failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

from . import balance, constructions, covers, shuffle, straggler
from .constructions import SchemeParameters
from .fmt import decimal_str, fraction_str
from .matrix import (
    BinaryComputingMatrix,
    FormatError,
    IdentityCover,
    count_identity_check,
    format_cover,
    format_matrix,
    parse_cover,
    parse_matrix,
    validate_matrix,
    verify_cover,
)

USAGE_ERROR = 2
INVARIANT_ERROR = 1

# Most nodes an exact cover search of `run` or `sweep` may open before it
# fails (exit 1).  The PG(2,3) cover takes 111,154; PG(2,4) with g=5 has
# none within reach, and a million nodes take about 2.6 s of the whole
# `codedmr run` (one core of an Intel Xeon server).
CLI_MAX_NODES = 1_000_000


def _load_json_value(x: Fraction) -> dict[str, str]:
    return {"fraction": fraction_str(x), "decimal": decimal_str(x, 4)}


@dataclass
class Construction:
    name: str
    matrix: BinaryComputingMatrix
    analytic: Callable[[BinaryComputingMatrix], IdentityCover] | None
    default_g: int
    params: dict[str, int]


# A construction built from integer flags: its matrix builder, its
# analytic cover and its scheme family's ``SchemeParameters`` builder,
# whose parameters are its flags, in the order the matrix builder takes
# them.
Generator = namedtuple("Generator", "matrix cover family")


def _params(build: Callable) -> tuple[str, ...]:
    """The parameter names of a builder, in order."""
    return tuple(inspect.signature(build).parameters)


# Every construction of `run` and `sweep`, in --construction order: a
# generated one's row, or None for the two built from a block design.
# MAN(K, r) is, up to column order and labels, the t-subset matrix at
# v = K, t = K - r, so its family is IV's there (g = r + 1).
_CONSTRUCTIONS: dict[str, Generator | None] = {
    "man": Generator(constructions.man_matrix, covers.man_cover,
                     lambda K, r: SchemeParameters.t_design_2(K, K - r)),
    "tsubset": Generator(constructions.t_subset_matrix, covers.t_subset_cover,
                         SchemeParameters.t_design_2),
    "fano": None,
    "transversal": Generator(constructions.transversal_matrix, covers.transversal_cover,
                             SchemeParameters.transversal),
    "bibd": None,
}


def build_construction(name: str, **flags) -> Construction:
    """The matrix, analytic cover and default g of a ``run`` construction,
    from its flag values, a flag not given being None or absent (*design*
    is a design file path).  A family's g is its ``SchemeParameters`` g,
    for parameters that the generator has already accepted."""
    if name not in _CONSTRUCTIONS:
        raise FormatError(f"unknown construction {name!r}")
    gen = _CONSTRUCTIONS[name]
    if gen is not None:
        own = {flag: flags.get(flag) for flag in _params(gen.family)}
        missing = [flag for flag, value in own.items() if value is None]
        if missing:
            raise FormatError(f"construction {name!r} needs --" + " --".join(missing))
        m = gen.matrix(*own.values())
        return Construction(name, m, gen.cover, gen.family(*own.values()).g, own)
    if name == "fano":
        d, own = constructions.fano_design(), {}
    else:
        if flags.get("design") is None:
            raise FormatError("construction 'bibd' needs --design FILE")
        d = constructions.ingest_design(Path(flags["design"]).read_text())
        own = {"v": d.v, "k": d.block_size}
    m = constructions.bibd_matrix(d)
    return Construction(name, m, None, SchemeParameters.bibd(d.v, d.block_size).g, own)


def build_cover(
    c: Construction, mode: str | None = None, g: int | None = None, seed: int = 0
) -> tuple[IdentityCover, str]:
    """The cover of *mode* (analytic when the construction has one, else
    exact) at member size *g* (the construction's default when None)."""
    if mode is None:
        mode = "analytic" if c.analytic is not None else "exact"
    if mode == "analytic":
        if c.analytic is None:
            raise FormatError(f"no analytic cover for construction {c.name!r}")
        return c.analytic(c.matrix), "analytic"
    g = c.default_g if g is None else g
    if g < 2:   # a usage error, not a search that found no cover
        raise ValueError(f"g={g} must be at least 2")
    return covers.search_cover(c.matrix, g, mode=mode, seed=seed, max_nodes=CLI_MAX_NODES), mode


def _parse_stragglers(spec_text: str, matrix: BinaryComputingMatrix) -> tuple[str, ...]:
    """Either a count (the last that many servers fail) or comma-separated
    labels; a lone label takes a trailing comma (``5,``)."""
    try:
        count = int(spec_text)
    except ValueError:
        return tuple(tok for tok in spec_text.split(",") if tok)
    if count < 0 or count >= matrix.K:
        raise FormatError(f"straggler count {count} out of range "
                          f"(write --stragglers {count}, to fail server {count})")
    return matrix.rows[matrix.K - count :] if count else ()


def _apply_config(args) -> None:
    """Fill the flags not given from the config file: each key a flag of
    the table ``_FLAGS`` that the subcommand has (``sweep`` has no
    ``stragglers``), read as that flag's type."""
    if args.config is None:
        return
    for raw in Path(args.config).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"config line must be key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FLAGS or not hasattr(args, key):
            raise FormatError(f"unknown config key {key!r}")
        if getattr(args, key) is None:   # flags override config
            setattr(args, key, _FLAGS[key][0](value))


def _construct(args, command: str) -> tuple[Construction, IdentityCover, str]:
    """The construction, cover and cover mode ``run`` and ``sweep`` build
    from their flags and config file."""
    _apply_config(args)
    # defaults after the config file, which fills only flags not given
    args.plan = "default" if args.plan is None else args.plan
    args.seed = 0 if args.seed is None else args.seed
    if args.construction is None:
        raise FormatError(f"{command} needs --construction (flag or config)")
    con = build_construction(args.construction, **vars(args))
    return (con, *build_cover(con, args.cover, args.g, args.seed))


def cmd_run(args) -> int:
    con, cover, cover_mode = _construct(args, "run")
    Q = args.Q if args.Q is not None else con.matrix.K
    T = args.T if args.T is not None else 16
    spec = shuffle.JobSpec(con.matrix, cover, Q, T, file_seed=args.seed)

    summary: dict = {
        "construction": con.name,
        "params": con.params,
        "K": con.matrix.K,
        "N": con.matrix.N,
        "r": con.matrix.r,
        "g": spec.g,
        "S": cover.size,
        "Q": Q,
        "T": T,
        "seed": args.seed,
        "cover_mode": cover_mode,
    }
    failures: list[str] = []
    warnings: list[str] = []

    stragglers = () if args.stragglers is None else _parse_stragglers(args.stragglers, con.matrix)
    result = straggler.straggler_run(spec, stragglers, args.plan)
    transcript = result.transcript
    reduce_ok = result.reduce_result.ok
    load = result.load
    failed = [k for k in con.matrix.rows if k in stragglers]    # row order
    kappa = con.matrix.K - len(failed)
    expected = straggler.straggler_load_formula(con.matrix.K, con.matrix.r, spec.g, kappa)
    summary["plan"] = result.plan_mode
    if result.plan_fallback is not None:
        warnings.append(
            f"balanced plan unavailable ({result.plan_fallback}); using default plan"
        )
    if args.stragglers is not None:
        summary["stragglers"] = failed
        summary["kappa"] = kappa
    audit = None if result.plan is None else balance.audit_plan(result.plan, transcript)
    if audit is not None:
        summary["audit"] = {
            "balanced": audit.balanced,
            "expected_bytes_each_kind": fraction_str(audit.expected_each),
            "per_server": {
                k: {"coded_bytes": cb, "uncoded_bytes": ub}
                for k, (cb, ub) in sorted(audit.per_server.items())
            },
        }
        if not audit.balanced:
            failures.append("audit: transmission bytes are not balanced")

    summary["transmissions"] = transcript.senders.size
    summary["total_bits"] = transcript.total_bits
    summary["load"] = _load_json_value(load)
    summary["expected_load"] = _load_json_value(expected)
    summary["load_matches_formula"] = load == expected
    summary["reduce_ok"] = reduce_ok
    if not reduce_ok:
        failures.append("reduce outputs mismatch the central oracle")
    if load != expected:
        failures.append(
            f"measured load {fraction_str(load)} != formula {fraction_str(expected)}"
        )
    summary["warnings"] = warnings
    summary["failures"] = failures
    summary["ok"] = not failures

    if args.out is not None:
        log = shuffle.transcript_log(spec, transcript)   # a refused log makes no DIR
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "transcript.bin").write_bytes(log)
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        (out / "matrix.txt").write_text(format_matrix(con.matrix))
        (out / "cover.txt").write_text(format_cover(cover))
        if audit is not None:
            (out / "plan.json").write_text(result.plan.to_json() + "\n")
            (out / "audit.csv").write_text(audit.to_csv())

    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        params = " ".join(f"{k}={v}" for k, v in con.params.items())
        print(f"construction: {con.name} {params}".rstrip())
        print(f"K={con.matrix.K} N={con.matrix.N} r={con.matrix.r} "
              f"g={spec.g} S={cover.size} Q={Q} T={T}")
        print(f"cover: {cover_mode}  plan: {summary['plan']}")
        print(f"transmissions: {transcript.senders.size}  "
              f"total_bits: {transcript.total_bits}")
        print(f"load: {fraction_str(load)} = {decimal_str(load)} "
              f"(formula {fraction_str(expected)}, "
              f"{'match' if load == expected else 'MISMATCH'})")
        print(f"reduce: {'ok' if reduce_ok else 'FAILED'}")
        for w in warnings:
            print(f"warning: {w}")
        for f in failures:
            print(f"failure: {f}")
        print(f"verdict: {'ok' if not failures else 'FAILED'}")
    return 0 if not failures else INVARIANT_ERROR


# ---------------------------------------------------------------------------
# table1: scheme-family parameter table.
# ---------------------------------------------------------------------------

_DEFAULT_TABLE1 = """\
I v=7 k=3 kappa=6
II v=7 k=3 kappa=7
III v=8 k=4 t=3 kappa=27
IV v=7 t=3 kappa=5
V n=3 k=3 kappa=8
"""


# scheme id -> SchemeParameters constructor, whose parameters are the
# row's keys
_SCHEMES = {
    "I": SchemeParameters.bibd,
    "II": SchemeParameters.symmetric_bibd,
    "III": SchemeParameters.t_design_1,
    "IV": SchemeParameters.t_design_2,
    "V": SchemeParameters.transversal,
}


def _parse_table1_params(text: str) -> list[tuple[str, dict[str, int]]]:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scheme, *toks = line.split()
        if scheme not in _SCHEMES:
            raise FormatError(f"unknown scheme id {scheme!r}")
        kv: dict[str, int] = {}
        for tok in toks:
            if "=" not in tok:
                raise FormatError(f"expected key=value, got {tok!r}")
            key, _, value = tok.partition("=")
            kv[key] = int(value)
        for key in _params(_SCHEMES[scheme]):
            if key not in kv:
                raise FormatError(f"scheme {scheme} needs key {key!r}")
        rows.append((scheme, kv))
    return rows


def _simulate_scheme(scheme: str, params: dict[str, int]) -> Fraction | None:
    """Measured load when a ``run`` construction builds the matrix of the
    row whose own keys are *params*: Fano for family I's (7, 3), else the
    generated construction whose family is the row's."""
    family = _SCHEMES[scheme]
    generated = (n for n, gen in _CONSTRUCTIONS.items() if gen is not None and gen.family == family)
    name = "fano" if scheme == "I" and params == {"v": 7, "k": 3} else next(generated, None)
    if name is None:
        return None   # general block-design generation is out of scope
    con = build_construction(name, **params)
    cover, _ = build_cover(con)
    spec = shuffle.JobSpec(con.matrix, cover, con.matrix.K, 2)
    return shuffle.run_pipeline(spec).load


def cmd_table1(args) -> int:
    text = Path(args.params).read_text() if args.params else _DEFAULT_TABLE1
    rows = _parse_table1_params(text)
    lines = [
        "scheme,params,K,N,r,load_fraction,load_decimal,kappa,"
        "straggler_fraction,straggler_decimal,simulated_fraction,simulated_decimal,note"
    ]
    failures = []
    for scheme, kv in rows:
        kappa = kv.pop("kappa", None)
        build = _SCHEMES[scheme]
        own = {key: kv[key] for key in _params(build)}   # a row may carry other keys
        p = build(**own)
        load = constructions.scheme_load(p)
        s_frac = s_dec = ""
        if kappa is not None:
            s_load = constructions.scheme_load(p, survivors=kappa)
            s_frac, s_dec = fraction_str(s_load), decimal_str(s_load)
        simulated = _simulate_scheme(scheme, own)
        if simulated is None:
            sim_frac = sim_dec = ""
            note = "formula-only (no generator)"
        else:
            sim_frac, sim_dec = fraction_str(simulated), decimal_str(simulated)
            note = "simulated"
            if simulated != load:
                failures.append(
                    f"scheme {scheme}: simulation {fraction_str(simulated)} "
                    f"!= formula {fraction_str(load)}"
                )
        params = " ".join(f"{k}={v}" for k, v in sorted(kv.items()))
        lines.append(
            f"{scheme},{params},{p.K},{p.N},{p.r},"
            f"{fraction_str(load)},{decimal_str(load)},"
            f"{kappa if kappa is not None else ''},{s_frac},{s_dec},"
            f"{sim_frac},{sim_dec},{note}"
        )
    csv_text = "\n".join(lines) + "\n"
    _emit_csv(args, csv_text, "table1.csv")
    for f in failures:
        print(f"failure: {f}", file=sys.stderr)
    return 0 if not failures else INVARIANT_ERROR


# ---------------------------------------------------------------------------
# table2: straggler benchmark rows.
# ---------------------------------------------------------------------------

_EXTENDED_ROWS = ((6, 2, 5), (8, 3, 7), (9, 4, 8))


def cmd_table2(args) -> int:
    table = straggler.comparison_table()
    rows = list(table.rows)
    if args.extended:
        rows.extend(
            straggler.comparison_row(K, r, kappa, simulate=False) for K, r, kappa in _EXTENDED_ROWS
        )
    lines = [
        "K,r,N,g,kappa,load_ours,load_optimal,load_ours_fraction,"
        "load_optimal_fraction,printed_ours,printed_optimal,simulated,"
        "decode_ok,extrapolated,golden,pass"
    ]
    for row in rows:
        lines.append(
            f"{row.K},{row.r},{row.N},{row.g},{row.kappa},"
            f"{decimal_str(row.ours)},{decimal_str(row.optimal)},"
            f"{fraction_str(row.ours)},{fraction_str(row.optimal)},"
            f"{row.printed_ours or ''},{row.printed_optimal or ''},"
            f"{fraction_str(row.simulated) if row.simulated is not None else ''},"
            f"{'' if row.decode_ok is None else str(row.decode_ok).lower()},"
            f"{str(row.extrapolated).lower()},{str(row.golden).lower()},"
            f"{'' if row.passed is None else ('pass' if row.passed else 'FAIL')}"
        )
    _emit_csv(args, "\n".join(lines) + "\n", "table2.csv")
    if not table.ok:
        for row in table.failures():
            print(
                f"failure: row (K={row.K}, r={row.r}, kappa={row.kappa}) "
                "does not match its reference values",
                file=sys.stderr,
            )
        return INVARIANT_ERROR
    return 0


def cmd_verify(args) -> int:
    matrix = parse_matrix(Path(args.matrix).read_text())
    # relabelled over the matrix once, for verify_cover and the counts both
    cover = parse_cover(Path(args.cover).read_text()).index(matrix)
    m_report = validate_matrix(matrix)
    c_report = verify_cover(matrix, cover)
    counting_ok = None if cover.uniform_size is None else count_identity_check(cover, matrix)
    # how many members hold each server; regular when all counts are equal
    report = balance.balance_preconditions(matrix, cover)
    counts, regular = report.counts, report.row_regular
    expected = Fraction(sum(counts.values()), matrix.K)
    ok = m_report.ok and c_report.ok and counting_ok is not False
    payload = {
        "matrix": {
            "ok": m_report.ok,
            "K": matrix.K, "N": matrix.N, "r": matrix.r,
            "violations": m_report.violations,
            "warnings": m_report.warnings,
        },
        "cover": {
            "ok": c_report.ok,
            "S": cover.size,
            "g": cover.uniform_size,
            "malformed": [[i, reason] for i, reason in c_report.malformed],
            "missing": [list(e) for e in c_report.missing],
            "overlapping": [list(e) for e in c_report.overlapping],
        },
        "counting_identity": counting_ok,
        "row_regularity": {
            "regular": regular,
            "expected": fraction_str(expected),
            "counts": dict(sorted(counts.items())),
        },
        "ok": ok,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"matrix: {'ok' if m_report.ok else 'INVALID'} "
              f"(K={matrix.K}, N={matrix.N}, r={matrix.r})")
        for v in m_report.violations:
            print(f"  violation: {v}")
        for w in m_report.warnings:
            print(f"  warning: {w}")
        print(f"cover: {'ok' if c_report.ok else 'INVALID'} "
              f"(S={cover.size}, g={cover.uniform_size})")
        for i, reason in c_report.malformed:
            print(f"  malformed member {i}: {reason}")
        for k, f in c_report.missing:
            print(f"  missing: ({k}, {f})")
        for k, f in c_report.overlapping:
            print(f"  overlap: ({k}, {f})")
        if counting_ok is not None:
            print(f"counting identity S*g = N*(K-r): {'ok' if counting_ok else 'VIOLATED'}")
        print(f"row regularity: {'regular' if regular else 'irregular'} "
              f"(expected {fraction_str(expected)} per server)")
        print(f"verdict: {'ok' if ok else 'FAILED'}")
    return 0 if ok else INVARIANT_ERROR


def cmd_sweep(args) -> int:
    con, cover, _ = _construct(args, "sweep")
    kappa = args.kappa
    if kappa < 2:   # before lcm(K, kappa) makes Q from it
        raise ValueError(f"kappa={kappa} must be at least 2 survivors")
    Q = args.Q if args.Q is not None else lcm(con.matrix.K, kappa)
    T = args.T if args.T is not None else 4
    spec = shuffle.JobSpec(con.matrix, cover, Q, T, file_seed=args.seed)
    result = straggler.worst_case_sweep(spec, kappa, plan=args.plan, cap=args.cap, seed=args.seed)
    expected = straggler.straggler_load_formula(con.matrix.K, con.matrix.r, spec.g, kappa)
    lines = ["stragglers,load_fraction,load_decimal,decode_ok"]
    for subset, load, ok in result.runs:
        lines.append(
            f"{'+'.join(subset)},{fraction_str(load)},{decimal_str(load)},{str(ok).lower()}"
        )
    _emit_csv(args, "\n".join(lines) + "\n", "sweep.csv")
    # a run's load depends on the subset's size alone, so the worst is the best
    all_ok = result.load == expected and all(ok for _, _, ok in result.runs)
    print(
        f"sweep: kappa={kappa} subsets={len(result.runs)}/{result.total_subsets}"
        f"{' (sampled)' if result.sampled else ''} "
        f"worst={fraction_str(result.load)} best={fraction_str(result.load)} "
        f"formula={fraction_str(expected)} verdict={'ok' if all_ok else 'FAILED'}",
        file=sys.stderr,
    )
    return 0 if all_ok else INVARIANT_ERROR


def _emit_csv(args, csv_text: str, filename: str) -> None:
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(csv_text)
    print(csv_text, end="")


# Each value flag that a config file may also set, in --help order: name
# -> (type, choices, help).  `run` has them all, `sweep` all but
# --stragglers; --config and sweep's --kappa and --cap are no config keys.
_FLAGS: dict[str, tuple[type, tuple[str, ...] | None, str | None]] = {
    "construction": (str, tuple(_CONSTRUCTIONS), None),
    **dict.fromkeys(("K", "r", "v", "t", "n", "k"), (int, None, None)),
    "design": (str, None, "design file for construction 'bibd'"),
    "Q": (int, None, "number of reduce functions"),
    "T": (int, None, "intermediate value size in bytes"),
    "seed": (int, None, None),
    "cover": (str, ("analytic", "exact", "greedy"), None),
    "g": (int, None, "member size for cover search"),
    "plan": (str, ("default", "balanced"), None),
    "out": (str, None, "artifact directory"),
    "stragglers": (str, None, "failed-server count, or labels: '5,' fails server 5"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        kind, choices, help_text = _FLAGS[name]
        p.add_argument(f"--{name}", type=kind, choices=choices, help=help_text)


def _add_construction_flags(p: argparse.ArgumentParser) -> None:
    _add_flags(p, *(name for name in _FLAGS if name != "stragglers"))
    p.add_argument("--config", help="flat key=value config file (flags win)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codedmr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one job end to end")
    _add_construction_flags(p_run)
    _add_flags(p_run, "stragglers")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_t1 = sub.add_parser("table1", help="scheme-family load table")
    p_t1.add_argument("--params", help="parameter file (one scheme per line)")
    p_t1.add_argument("--out")
    p_t1.set_defaults(func=cmd_table1)

    p_t2 = sub.add_parser("table2", help="straggler benchmark table")
    p_t2.add_argument("--extended", action="store_true")
    p_t2.add_argument("--out")
    p_t2.set_defaults(func=cmd_table2)

    p_ver = sub.add_parser("verify", help="verify a matrix/cover file pair")
    p_ver.add_argument("matrix")
    p_ver.add_argument("cover")
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="sweep straggler subsets")
    _add_construction_flags(p_sw)
    p_sw.add_argument("--kappa", type=int, required=True, help="survivor count")
    p_sw.add_argument("--cap", type=int, default=2000)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, constructions.DesignError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:   # an interpreter fault, not a verdict: no exit 1
        raise
    except (
        shuffle.ShuffleError,
        balance.BalanceError,
        covers.CoverSearchError,
        RuntimeError,
    ) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return INVARIANT_ERROR


if __name__ == "__main__":
    sys.exit(main())
