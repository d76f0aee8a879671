"""Command-line front end: construct, run, verify, and tabulate.

Subcommands:
  run     build a job from flags, run the full pipeline, emit artifacts
  table1  closed-form loads of the design-based scheme families (CSV)
  table2  straggler-load benchmark rows vs the optimal reference (CSV)
  verify  check a matrix file and a cover file against each other
  sweep   run every straggler subset of a given survivor count

Exit codes: 0 ok, 1 invariant or verdict failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

from . import balance, constructions, covers, shuffle, straggler
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


def _load_json_value(x: Fraction) -> dict[str, str]:
    return {"fraction": fraction_str(x), "decimal": decimal_str(x, 4)}


@dataclass
class Construction:
    name: str
    matrix: BinaryComputingMatrix
    analytic: Callable[[BinaryComputingMatrix], IdentityCover] | None
    default_g: int | None
    params: dict[str, int]


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise FormatError(
            f"construction {args.construction!r} needs --" + " --".join(missing)
        )


def build_construction(args) -> Construction:
    name = args.construction
    if name == "man":
        _require(args, ["K", "r"])
        m = constructions.man_matrix(args.K, args.r)
        return Construction(name, m, covers.man_cover, args.r + 1,
                            {"K": args.K, "r": args.r})
    if name == "tsubset":
        _require(args, ["v", "t"])
        m = constructions.t_subset_matrix(args.v, args.t)
        return Construction(name, m, covers.t_subset_cover, args.v - args.t + 1,
                            {"v": args.v, "t": args.t})
    if name == "fano":
        m = constructions.fano_matrix()
        return Construction(name, m, None, 3, {})
    if name == "transversal":
        _require(args, ["k", "n"])
        m = constructions.transversal_matrix(args.k, args.n)
        return Construction(name, m, covers.transversal_cover, args.n,
                            {"k": args.k, "n": args.n})
    if name == "bibd":
        if args.design is None:
            raise FormatError("construction 'bibd' needs --design FILE")
        design = constructions.ingest_design(Path(args.design).read_text())
        m = constructions.bibd_matrix(design)
        v, k = design.v, design.block_size
        g = (v - 1) // (k - 1) if (v - 1) % (k - 1) == 0 else None
        return Construction(name, m, None, g, {"v": v, "k": k})
    raise FormatError(f"unknown construction {name!r}")


def build_cover(c: Construction, args) -> tuple[IdentityCover, str]:
    mode = args.cover
    if mode is None:
        mode = "analytic" if c.analytic is not None else "exact"
    if mode == "analytic":
        if c.analytic is None:
            raise FormatError(f"no analytic cover for construction {c.name!r}")
        return c.analytic(c.matrix), "analytic"
    g = args.g if args.g is not None else c.default_g
    if g is None:
        raise FormatError("cover search needs --g for this construction")
    cover = covers.search_cover(c.matrix, g, mode=mode, seed=args.seed)
    return cover, mode


def _parse_stragglers(spec_text: str, matrix: BinaryComputingMatrix) -> tuple[str, ...]:
    """Either a count (the last that many servers fail) or explicit labels."""
    try:
        count = int(spec_text)
    except ValueError:
        labels = tuple(tok for tok in spec_text.split(",") if tok)
        return labels
    if count < 0 or count >= matrix.K:
        raise FormatError(f"straggler count {count} out of range")
    return matrix.rows[matrix.K - count :] if count else ()


def _apply_config(args, parser_keys: dict[str, type]) -> None:
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
        if key not in parser_keys:
            raise FormatError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:   # flags override config
            setattr(args, key, parser_keys[key](value))


_RUN_CONFIG_KEYS = {
    "construction": str, "K": int, "r": int, "v": int, "t": int, "n": int, "k": int,
    "design": str, "Q": int, "T": int, "seed": int, "cover": str, "g": int,
    "plan": str, "stragglers": str, "out": str,
}


def cmd_run(args) -> int:
    _apply_config(args, _RUN_CONFIG_KEYS)
    if args.construction is None:
        raise FormatError("run needs --construction (flag or config)")
    con = build_construction(args)
    cover, cover_mode = build_cover(con, args)
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
    scenario = straggler.StragglerScenario.from_stragglers(spec, stragglers)
    plan: str | dict = args.plan
    plan_obj = None
    if args.stragglers is None and args.plan == "balanced":
        try:
            plan_obj = balance.build_sender_plan(con.matrix, cover)
            plan = plan_obj.as_mapping()
        except balance.BalanceError as exc:
            warnings.append(f"balanced plan unavailable ({exc}); using default plan")
            plan = "default"
    result = straggler.straggler_run(spec, scenario, plan)
    transcript = result.transcript
    reduce_ok = result.reduce_result.ok
    load = result.load
    expected = straggler.straggler_load_formula(
        con.matrix.K, con.matrix.r, spec.g, scenario.kappa
    )
    summary["plan"] = "balanced" if plan_obj is not None else result.plan_mode
    if args.stragglers is not None:
        summary["stragglers"] = list(scenario.stragglers)
        summary["kappa"] = scenario.kappa
    if plan_obj is not None:
        audit = balance.audit_plan(plan_obj, transcript)
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

    summary["transmissions"] = len(transcript.transmissions)
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        shuffle.save_transcript(out / "transcript.bin", spec, transcript)
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        (out / "matrix.txt").write_text(format_matrix(con.matrix))
        (out / "cover.txt").write_text(format_cover(cover))
        if plan_obj is not None:
            (out / "plan.json").write_text(plan_obj.to_json() + "\n")
            (out / "audit.csv").write_text(
                balance.audit_plan(plan_obj, transcript).to_csv()
            )

    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        params = " ".join(f"{k}={v}" for k, v in con.params.items())
        print(f"construction: {con.name} {params}".rstrip())
        print(f"K={con.matrix.K} N={con.matrix.N} r={con.matrix.r} "
              f"g={spec.g} S={cover.size} Q={Q} T={T}")
        print(f"cover: {cover_mode}  plan: {summary['plan']}")
        print(f"transmissions: {len(transcript.transmissions)}  "
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


# scheme id -> SchemeParameters constructor and the keys it takes, in order
_SCHEMES = {
    "I": (constructions.SchemeParameters.bibd, ("v", "k")),
    "II": (constructions.SchemeParameters.symmetric_bibd, ("v", "k")),
    "III": (constructions.SchemeParameters.t_design_1, ("v", "k", "t")),
    "IV": (constructions.SchemeParameters.t_design_2, ("v", "t")),
    "V": (constructions.SchemeParameters.transversal, ("k", "n")),
}


def _parse_table1_params(text: str) -> list[tuple[str, dict[str, int]]]:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        scheme = toks[0]
        if scheme not in _SCHEMES:
            raise FormatError(f"unknown scheme id {scheme!r}")
        kv: dict[str, int] = {}
        for tok in toks[1:]:
            if "=" not in tok:
                raise FormatError(f"expected key=value, got {tok!r}")
            key, _, value = tok.partition("=")
            kv[key] = int(value)
        for key in _SCHEMES[scheme][1]:
            if key not in kv:
                raise FormatError(f"scheme {scheme} needs key {key!r}")
        rows.append((scheme, kv))
    return rows


def _scheme_params(scheme: str, kv: dict[str, int]) -> constructions.SchemeParameters:
    build, keys = _SCHEMES[scheme]
    return build(*(kv[key] for key in keys))


def _simulate_scheme(scheme: str, kv: dict[str, int]) -> Fraction | None:
    """Measured load when a matrix generator exists for the row."""
    if scheme == "I":
        if kv.get("v") == 7 and kv.get("k") == 3:
            m = constructions.fano_matrix()
            cover = covers.search_cover(m, 3, mode="exact")
        else:
            return None   # general block-design generation is out of scope
    elif scheme == "IV":
        m = constructions.t_subset_matrix(kv["v"], kv["t"])
        cover = covers.t_subset_cover(m)
    elif scheme == "V":
        m = constructions.transversal_matrix(kv["k"], kv["n"])
        cover = covers.transversal_cover(m)
    else:
        return None
    spec = shuffle.JobSpec(m, cover, m.K, 2)
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
        p = _scheme_params(scheme, kv)
        load = constructions.scheme_load(p)
        s_frac = s_dec = ""
        if kappa is not None:
            s_load = constructions.scheme_load(p, survivors=kappa)
            s_frac, s_dec = fraction_str(s_load), decimal_str(s_load)
        simulated = _simulate_scheme(scheme, kv)
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
        rows.extend(straggler.extended_comparison_rows(list(_EXTENDED_ROWS)))
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
    cover = parse_cover(Path(args.cover).read_text())
    m_report = validate_matrix(matrix)
    c_report = verify_cover(matrix, cover)
    counting_ok = None
    if cover.uniform_size is not None:
        counting_ok = count_identity_check(cover, matrix)
    # how many members hold each server; regular when all counts are equal
    counts = balance.balance_preconditions(matrix, cover).counts
    expected = Fraction(sum(counts.values()), matrix.K)
    regular = all(n == expected for n in counts.values())
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
    _apply_config(args, _RUN_CONFIG_KEYS)
    if args.construction is None:
        raise FormatError("sweep needs --construction (flag or config)")
    con = build_construction(args)
    cover, cover_mode = build_cover(con, args)
    kappa = args.kappa
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
    all_ok = (
        result.all_equal
        and result.max_load == expected
        and all(ok for _, _, ok in result.runs)
    )
    print(
        f"sweep: kappa={kappa} subsets={len(result.runs)}/{result.total_subsets}"
        f"{' (sampled)' if result.sampled else ''} "
        f"worst={fraction_str(result.max_load)} best={fraction_str(result.min_load)} "
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


def _add_construction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", choices=["man", "tsubset", "fano", "transversal", "bibd"])
    p.add_argument("--K", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--design", help="design file for construction 'bibd'")
    p.add_argument("--Q", type=int, help="number of reduce functions")
    p.add_argument("--T", type=int, help="intermediate value size in bytes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cover", choices=["analytic", "exact", "greedy"])
    p.add_argument("--g", type=int, help="member size for cover search")
    p.add_argument("--plan", choices=["default", "balanced"], default="default")
    p.add_argument("--out", help="artifact directory")
    p.add_argument("--config", help="flat key=value config file (flags win)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codedmr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one job end to end")
    _add_construction_flags(p_run)
    p_run.add_argument("--stragglers", help="failed-server count or comma-separated labels")
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
