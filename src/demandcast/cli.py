"""Command-line interface.

Subcommands: ingest, diagnose, fit, search, report, forecast.  Configuration
precedence is command-line flags over config-file entries over built-in
defaults; the output directory additionally falls back to the DEMANDCAST_OUT
environment variable.  Exit codes: 0 success, 1 usage, 2 bad input, 3 data
insufficiency, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from ._version import VERSION
from .diagnostics import (
    acf,
    overdifferencing_risk,
    pacf,
    recommend_differencing,
    unit_root_profile,
)
from .errors import (
    DataError,
    DemandcastError,
    InsufficientDataError,
    NumericalError,
    SpecError,
)
from .estimation import (
    SarimaSpec,
    fit,
    forecast,
    load_fit,
    save_fit,
)
from .evaluation import (
    StudyReport,
    StudyTable,
    render_report,
    run_study,
    write_results_csv,
    write_study_outputs,
)
from .metrics import dynamic_metrics, one_step_metrics
from .pipeline import (
    ImputationStrategy,
    STRATEGY_ORDER,
    assemble,
    impute,
    missing_dates,
    parse_records,
    write_bundle_csv,
)
from .selection import CandidateSet, StepwiseConfig, evaluate_grid, fixed_grid, stepwise_search
from .series import SplitSpec, default_split, split

OUT_ENV = "DEMANDCAST_OUT"

IMPUTE_CHOICES = ("drop", "mean", "median", "mode", "interp", "all")
GRID_CHOICES = ("arima-table", "sarima-table", "stepwise")
FORMAT_CHOICES = ("md", "csv")

_STRATEGY_BY_FLAG = {
    "drop": ImputationStrategy.DROP,
    "mean": ImputationStrategy.MEAN,
    "median": ImputationStrategy.MEDIAN,
    "mode": ImputationStrategy.MODE,
    "interp": ImputationStrategy.INTERPOLATE,
}


@dataclass
class RunConfig:
    """Effective settings for one CLI invocation."""

    command: str
    input: Path | None = None
    out_dir: Path = Path("demandcast_out")
    split: SplitSpec = None
    season: int = 7
    grid: str | None = None
    specs: tuple[SarimaSpec, ...] = ()
    impute: str | None = None
    seed: int = 0
    format: str = "md"
    jobs: int = 1
    horizon: int = 7
    model: Path | None = None
    allow_nonconverged: bool = False

    def __post_init__(self) -> None:
        if self.split is None:
            self.split = default_split()

    def describe(self) -> list[str]:
        pairs = {
            "command": self.command,
            "input": "" if self.input is None else str(self.input),
            "out_dir": str(self.out_dir),
            "split": self.split.describe(),
            "season": self.season,
            "grid": self.grid or "",
            "spec": ";".join(s.label() for s in self.specs),
            "impute": self.impute or "",
            "seed": self.seed,
            "format": self.format,
            "jobs": self.jobs,
            "horizon": self.horizon,
            "model": "" if self.model is None else str(self.model),
            "allow_nonconverged": str(self.allow_nonconverged).lower(),
            "version": VERSION,
        }
        return [f"{key}={pairs[key]}" for key in sorted(pairs)]


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise SpecError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="raw daily CSV to ingest")
    sub.add_argument("--out-dir", help=f"output directory (or ${OUT_ENV})")
    sub.add_argument("--split", help="train/test split: count:N, frac:F or date:YYYY-MM-DD")
    sub.add_argument("--season", type=int, help="seasonal period in days (default 7)")
    sub.add_argument("--impute", choices=IMPUTE_CHOICES, help="imputation dataset selection")
    sub.add_argument("--seed", type=int, help="seed for optimizer restarts (default 0)")
    sub.add_argument("--format", choices=FORMAT_CHOICES, help="stdout table format (default md)")
    sub.add_argument("--jobs", type=int, help="parallel workers for grid evaluation (default 1)")
    sub.add_argument("--config", help="JSON file with defaults for any of these flags")
    sub.add_argument(
        "--print-config", action="store_true",
        help="print the effective configuration and exit",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="demandcast", description="Daily demand forecasting toolkit")
    parser.add_argument("--version", action="version", version=f"demandcast {VERSION}")
    commands = parser.add_subparsers(dest="command", metavar="command")
    specs = {
        "ingest": "parse the raw CSV and write the five imputation datasets",
        "diagnose": "unit-root and correlogram diagnostics per dataset",
        "fit": "fit one model spec and serialize it",
        "search": "evaluate a candidate grid or run the stepwise search",
        "report": "full study: every grid on every imputation dataset",
        "forecast": "load a serialized fit and emit forecasts",
    }
    subs = {}
    for name, help_text in specs.items():
        sub = commands.add_parser(name, help=help_text, description=help_text)
        _add_common(sub)
        subs[name] = sub
    for name in ("fit", "search", "report"):
        subs[name].add_argument(
            "--spec", action="append", dest="spec",
            help="model orders p,d,q or p,d,q,P,D,Q,s (repeatable)",
        )
    for name in ("search", "report"):
        subs[name].add_argument("--grid", choices=GRID_CHOICES, help="candidate grid to evaluate")
    subs["fit"].add_argument(
        "--allow-nonconverged", action="store_true",
        help="keep a fit whose optimizer missed its tolerance",
    )
    subs["forecast"].add_argument("--model", help="serialized fit file (default OUT/model.txt)")
    subs["forecast"].add_argument("--horizon", type=int, help="days ahead to forecast (default 7)")
    return parser


_CONFIG_KEYS = {
    "input", "out_dir", "split", "season", "grid", "spec", "impute",
    "seed", "format", "jobs", "horizon", "model", "allow_nonconverged",
}


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"config file {p} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise SpecError(f"config file {p} has unknown keys: {sorted(unknown)}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name: str, default):
        value = getattr(args, name, None)
        if value is not None and value is not False and value != []:
            return value
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return default

    out_default = os.environ.get(OUT_ENV) or "demandcast_out"
    raw_specs = pick("spec", None)
    if raw_specs is None:
        specs: tuple[SarimaSpec, ...] = ()
    elif isinstance(raw_specs, str):
        specs = (SarimaSpec.parse(raw_specs),)
    else:
        specs = tuple(SarimaSpec.parse(str(s)) for s in raw_specs)
    split_raw = pick("split", None)
    split_spec = SplitSpec.parse(split_raw) if isinstance(split_raw, str) else (split_raw or default_split())
    season = int(pick("season", 7))
    if season < 1:
        raise SpecError(f"--season must be >= 1, got {season}")
    seed = int(pick("seed", 0))
    jobs = int(pick("jobs", 1))
    if jobs < 1:
        raise SpecError(f"--jobs must be >= 1, got {jobs}")
    horizon = int(pick("horizon", 7))
    model = pick("model", None)
    input_path = pick("input", None)
    return RunConfig(
        command=args.command,
        input=Path(input_path) if input_path else None,
        out_dir=Path(pick("out_dir", out_default)),
        split=split_spec,
        season=season,
        grid=pick("grid", None),
        specs=specs,
        impute=pick("impute", None),
        seed=seed,
        format=str(pick("format", "md")),
        jobs=jobs,
        horizon=horizon,
        model=Path(model) if model else None,
        allow_nonconverged=bool(pick("allow_nonconverged", False)),
    )


def _require_input(cfg: RunConfig) -> Path:
    if cfg.input is None:
        raise SpecError(f"{cfg.command} needs --input pointing at the raw daily CSV")
    return cfg.input


def _ensure_out(cfg: RunConfig) -> Path:
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    return cfg.out_dir


def _selected_strategies(cfg: RunConfig, default: str) -> list[ImputationStrategy]:
    choice = cfg.impute or default
    if choice == "all":
        return list(STRATEGY_ORDER)
    if choice not in _STRATEGY_BY_FLAG:
        raise SpecError(f"--impute must be one of {IMPUTE_CHOICES}, got {choice!r}")
    return [_STRATEGY_BY_FLAG[choice]]


def _single_bundle(cfg: RunConfig, default: str = "drop"):
    strategies = _selected_strategies(cfg, default)
    if len(strategies) != 1:
        raise SpecError(f"{cfg.command} needs a single imputation choice, not 'all'")
    records = parse_records(_require_input(cfg))
    return impute(assemble(records), strategies[0])


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: RunConfig) -> int:
    records = parse_records(_require_input(cfg))
    base = assemble(records)
    out = _ensure_out(cfg)
    gaps = missing_dates(base)
    print(f"calendar days: {len(base)} ({base.start_date.isoformat()} to {base.end_date.isoformat()})")
    print(f"observed days: {len(base) - len(gaps)}")
    print(f"missing days: {len(gaps)}")
    lines = [
        f"calendar_days={len(base)}",
        f"observed_days={len(base) - len(gaps)}",
        f"missing_days={len(gaps)}",
    ]
    lines += [d.isoformat() for d in gaps]
    (out / "gap_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for strategy in _selected_strategies(cfg, "all"):
        bundle = impute(base, strategy)
        path = out / f"{bundle.name}.csv"
        write_bundle_csv(bundle, path)
        handled = "dropped" if strategy is ImputationStrategy.DROP else "imputed"
        print(f"wrote {path} ({len(bundle.series)} rows, {bundle.n_imputed} {handled})")
    print(f"wrote {out / 'gap_report.txt'}")
    return 0


def _correlogram_rows(series, max_d: int = 1):
    from .series import DifferenceSpec, difference

    rows = []
    for d in range(max_d + 1):
        w = series if d == 0 else difference(series, DifferenceSpec(d=d))
        max_lag = min(40, len(w) // 2 - 1)
        if max_lag < 1:
            raise InsufficientDataError("series too short for a correlogram")
        a = acf(w, max_lag)
        p = pacf(w, max_lag)
        for lag in range(1, max_lag + 1):
            rows.append((d, lag, a.values[lag - 1], p.values[lag - 1], a.band))
    return rows


def cmd_diagnose(cfg: RunConfig) -> int:
    records = parse_records(_require_input(cfg))
    base = assemble(records)
    out = _ensure_out(cfg)
    for strategy in _selected_strategies(cfg, "all"):
        bundle = impute(base, strategy)
        series = bundle.series
        profile = unit_root_profile(series, max_d=2)
        print(f"== {bundle.name} ==")
        print("  d  statistic   p-value     lags  nobs   underflow")
        adf_lines = ["diff_order,statistic,p_value,used_lags,n_effective,regression,p_underflow"]
        for d, res in profile:
            mark = "*" if res.p_value_clamped else ""
            print(
                f"  {d}  {res.statistic:9.3f}   {res.p_value:.3e}  {res.used_lags:4d}  "
                f"{res.n_effective:5d}  {mark}"
            )
            adf_lines.append(
                f"{d},{res.statistic:.10g},{res.p_value:.10g},{res.used_lags},"
                f"{res.n_effective},{res.regression},{'true' if res.p_value_clamped else 'false'}"
            )
        (out / f"{bundle.name}_adf.csv").write_text("\n".join(adf_lines) + "\n", encoding="utf-8")
        top_d, top_res = profile[-1]
        if top_d >= 2 and overdifferencing_risk(top_res):
            print(
                f"  over-differencing risk: d={top_d} p-value underflows "
                f"({top_res.p_value:.3g})"
            )
        if len(series) > 2 * cfg.season:
            strength = acf(series, cfg.season).values[cfg.season - 1]
            print(f"  seasonal strength (lag-{cfg.season} autocorrelation): {strength:.3f}")
        try:
            rec = recommend_differencing(series, s=cfg.season)
            print(f"  recommended differencing: d={rec.d}")
        except (InsufficientDataError, DemandcastError) as exc:
            print(f"  differencing recommendation unavailable: {exc}")
        corr_lines = ["diff_order,lag,acf,pacf,band"]
        for d, lag, av, pv, band in _correlogram_rows(series):
            corr_lines.append(f"{d},{lag},{av:.10g},{pv:.10g},{band:.10g}")
        (out / f"{bundle.name}_correlogram.csv").write_text(
            "\n".join(corr_lines) + "\n", encoding="utf-8"
        )
        print(f"  wrote {out / f'{bundle.name}_adf.csv'} and {out / f'{bundle.name}_correlogram.csv'}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    if len(cfg.specs) != 1:
        raise SpecError("fit needs exactly one --spec p,d,q or p,d,q,P,D,Q,s")
    spec = cfg.specs[0]
    bundle = _single_bundle(cfg)
    train, test = split(bundle.series, cfg.split)
    fit_result = fit(spec, train, seed=cfg.seed)
    if not fit_result.converged and not cfg.allow_nonconverged:
        raise NumericalError(
            f"fit of {spec.label()} did not converge; rerun with --allow-nonconverged to keep it"
        )
    train_m = one_step_metrics(fit_result, train)
    test_m = dynamic_metrics(fit_result, train, test)
    out = _ensure_out(cfg)
    model_path = out / "model.txt"
    save_fit(
        fit_result,
        model_path,
        metadata={"dataset": bundle.name, "split": cfg.split.describe(), "season": str(cfg.season)},
    )
    print(f"fit {spec.label()} on {bundle.name} (train {len(train)} days, test {len(test)} days)")
    print(
        f"loglik={fit_result.loglik:.3f} aic={fit_result.aic:.3f} bic={fit_result.bic:.3f} "
        f"converged={'true' if fit_result.converged else 'false'}"
    )
    print(f"train MAPE (one-step): {train_m.mape:.3f}")
    print(f"test MAPE (dynamic): {test_m.mape:.3f}")
    print(f"wrote {model_path}")
    return 0


def _grid_for(cfg: RunConfig) -> CandidateSet:
    if cfg.specs:
        return CandidateSet(specs=cfg.specs, source="explicit", name="explicit")
    grid = cfg.grid or "stepwise"
    if grid in ("arima-table", "sarima-table"):
        return fixed_grid(grid)
    if grid == "stepwise":
        raise SpecError("stepwise has no fixed candidate set")
    raise SpecError(f"--grid must be one of {GRID_CHOICES}, got {grid!r}")


def _print_table(report: StudyReport, fmt: str) -> None:
    sys.stdout.write(render_report(report, fmt).decode("utf-8"))


def _stepwise_holdout(bundle, cfg: RunConfig):
    """Stepwise search on the training side, then its winner evaluated on the split.

    Returns (stepwise ranking, holdout results of the winner).
    """
    train, _ = split(bundle.series, cfg.split)
    ranked = stepwise_search(train, StepwiseConfig(s=cfg.season), seed=cfg.seed)
    best = ranked.best
    if best is None:
        raise NumericalError(f"stepwise search produced no usable candidate on {bundle.name}")
    holdout = evaluate_grid(
        bundle.series, cfg.split,
        CandidateSet(specs=(best.spec,), source="stepwise", name="stepwise"),
        seed=cfg.seed, jobs=cfg.jobs,
    )
    return ranked, holdout


def cmd_search(cfg: RunConfig) -> int:
    bundle = _single_bundle(cfg)
    out = _ensure_out(cfg)
    grid_choice = cfg.grid or ("explicit" if cfg.specs else "stepwise")
    if grid_choice == "stepwise" and not cfg.specs:
        ranked, holdout = _stepwise_holdout(bundle, cfg)
        table = StudyTable(dataset=bundle.name, grid="stepwise", results=ranked)
        best = ranked.best
        print(f"stepwise winner on {bundle.name}: {best.spec.label()} (aic {best.aic:.3f})")
        row = holdout.rows[0]
        if not row.failed:
            print(f"holdout test MAPE: {row.test_mape:.3f}")
    else:
        candidates = _grid_for(cfg)
        ranked = evaluate_grid(bundle.series, cfg.split, candidates, seed=cfg.seed, jobs=cfg.jobs)
        table = StudyTable(dataset=bundle.name, grid=candidates.name, results=ranked)
    report = StudyReport(tables=(table,), split=cfg.split, seed=cfg.seed)
    _print_table(report, cfg.format)
    write_results_csv([table], out / f"{bundle.name}_results.csv")
    (out / f"{bundle.name}_results.md").write_bytes(render_report(report, "md"))
    print(f"wrote {out / f'{bundle.name}_results.csv'}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    records = parse_records(_require_input(cfg))
    out = _ensure_out(cfg)
    if cfg.grid == "stepwise" and not cfg.specs:
        # one stepwise winner per dataset, evaluated on the common split
        base = assemble(records)
        tables = []
        for strategy in _selected_strategies(cfg, "all"):
            bundle = impute(base, strategy)
            _, holdout = _stepwise_holdout(bundle, cfg)
            tables.append(StudyTable(dataset=bundle.name, grid="stepwise", results=holdout))
        report = StudyReport(tables=tuple(tables), split=cfg.split, seed=cfg.seed)
    else:
        if cfg.specs:
            grids = [CandidateSet(specs=cfg.specs, source="explicit", name="explicit")]
        elif cfg.grid:
            grids = [_grid_for(cfg)]
        else:
            grids = [fixed_grid("arima-table"), fixed_grid("sarima-table")]
        report = run_study(records, cfg.split, grids, seed=cfg.seed, jobs=cfg.jobs)
    paths = write_study_outputs(report, out)
    best = report.best_model
    if best is not None:
        dataset, spec, value = best
        print(f"best holdout accuracy: {spec.label()} on {dataset} (test MAPE {value:.3f})")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    model_path = cfg.model or (cfg.out_dir / "model.txt")
    fit_result, metadata = load_fit(model_path)
    impute_choice = cfg.impute or metadata.get("dataset") or "drop"
    label_to_flag = {"dropna": "drop", "mean": "mean", "median": "median", "mode": "mode", "interp": "interp"}
    if impute_choice in label_to_flag:
        impute_choice = label_to_flag[impute_choice]
    if impute_choice == "all":
        raise SpecError("forecast needs a single imputation choice, not 'all'")
    strategy = _STRATEGY_BY_FLAG.get(impute_choice)
    if strategy is None:
        raise SpecError(f"unknown imputation {impute_choice!r}")
    records = parse_records(_require_input(cfg))
    bundle = impute(assemble(records), strategy)
    fc = forecast(fit_result, bundle.series, cfg.horizon)
    out = _ensure_out(cfg)
    lines = ["date,point,lower95,upper95"]
    for date, point, lo, hi in zip(fc.dates(), fc.point, fc.lower95, fc.upper95):
        lines.append(f"{date.isoformat()},{point:.10g},{lo:.10g},{hi:.10g}")
    (out / "forecast.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"forecast {fit_result.spec.label()} from {bundle.name}, horizon {cfg.horizon}")
    for date, point, lo, hi in zip(fc.dates(), fc.point, fc.lower95, fc.upper95):
        print(f"  {date.isoformat()}  {point:12.3f}  [{lo:.3f}, {hi:.3f}]")
    print(f"wrote {out / 'forecast.csv'}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "diagnose": cmd_diagnose,
    "fit": cmd_fit,
    "search": cmd_search,
    "report": cmd_report,
    "forecast": cmd_forecast,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        cfg = _merge_config(args)
        if getattr(args, "print_config", False):
            for line in cfg.describe():
                print(line)
            return 0
        return _COMMANDS[cfg.command](cfg)
    except SpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"data insufficiency: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
