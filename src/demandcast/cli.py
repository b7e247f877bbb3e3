"""Command-line interface.

Subcommands: ingest, diagnose, fit, search, report, forecast.  Each setting
is one field of :class:`RunConfig`, which declares its flag, config-file key,
default, checks and the commands whose flag it is; any command rejects the
flag of a setting it does not read, while one config file may serve every
command (each key is validated, whether the command reads it or not).
Configuration precedence is command-line flags over config-file entries over
built-in defaults; the output directory additionally falls back to the
DEMANDCAST_OUT environment variable.  Exit codes: 0 success, 1 usage, 2 bad
input, 3 data insufficiency, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from ._version import VERSION
from .diagnostics import _recommended_order, _unit_root_tests, acf, overdifferencing_risk, pacf
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
    STRATEGY_LABELS,
    STRATEGY_ORDER,
    ImputationStrategy,
    assemble,
    impute,
    missing_dates,
    parse_records,
    write_bundle_csv,
)
from .selection import (
    GRID_KINDS,
    CandidateSet,
    StepwiseConfig,
    _stepwise_holdout,
    evaluate_grid,
    fixed_grid,
)
from .series import SplitSpec, default_split, split

OUT_ENV = "DEMANDCAST_OUT"


def _setting(default, help_text: str, parse=str, *, choices=(), minimum=None,
             commands=(), action="store"):
    """A RunConfig field: its default, flag help, parser and checks.

    ``parse`` turns a flag string or a config-file value into the field's
    type; ``choices`` and ``minimum`` are checked on the parsed value.  The
    flag belongs to ``commands``, or to every command when that is empty.
    """
    return field(default=default, metadata={
        "help": help_text, "parse": parse, "choices": choices, "minimum": minimum,
        "commands": commands, "action": action,
    })


def _integer(raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise TypeError(raw)
    return int(raw)


def _boolean(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError(raw)
    return raw


def _optional_path(raw) -> Path | None:
    return Path(raw) if raw else None


def _specs(raw) -> tuple[SarimaSpec, ...]:
    return tuple(SarimaSpec.parse(str(s)) for s in ([raw] if isinstance(raw, str) else raw))


@dataclass
class RunConfig:
    """Effective settings for one CLI invocation.

    Every field after ``command`` is one setting: its flag is ``--`` plus the
    name with dashes, its config-file key is the name, and its default is the
    field default.
    """

    command: str
    input: Path | None = _setting(None, "raw daily CSV to ingest", _optional_path)
    out_dir: Path = _setting(Path("demandcast_out"), f"output directory (or ${OUT_ENV})", Path)
    split: SplitSpec = _setting(
        default_split(), "train/test split: count:N, frac:F or date:YYYY-MM-DD", SplitSpec.parse,
        commands=("fit", "search", "report"),
    )
    season: int = _setting(
        7, "seasonal period in days", _integer, minimum=1,
        commands=("diagnose", "fit", "search", "report"),
    )
    grid: str | None = _setting(
        None, "candidate grid to evaluate", choices=(*GRID_KINDS, "stepwise"),
        commands=("search", "report"),
    )
    spec: tuple[SarimaSpec, ...] = _setting(
        (), "model orders p,d,q or p,d,q,P,D,Q,s (repeatable)", _specs,
        commands=("fit", "search", "report"), action="append",
    )
    impute: str | None = _setting(
        None, "imputation dataset selection", choices=(*(s.value for s in ImputationStrategy), "all")
    )
    seed: int = _setting(
        0, "seed for optimizer restarts", _integer, minimum=0,
        commands=("fit", "search", "report"),
    )
    format: str = _setting("md", "stdout table format", choices=("md", "csv"), commands=("search",))
    jobs: int = _setting(
        1, "worker processes for every fit, stepwise searches per dataset included", _integer, minimum=1,
        commands=("search", "report"),
    )
    horizon: int = _setting(7, "days ahead to forecast", _integer, minimum=1, commands=("forecast",))
    model: Path | None = _setting(
        None, "serialized fit file (default OUT/model.txt)", _optional_path, commands=("forecast",)
    )
    allow_nonconverged: bool = _setting(
        False, "keep a fit whose optimizer missed its tolerance", _boolean,
        commands=("fit",), action="store_true",
    )

    def describe(self) -> list[str]:
        pairs = {f.name: _show(getattr(self, f.name)) for f in fields(self)}
        pairs["version"] = VERSION
        return [f"{key}={pairs[key]}" for key in sorted(pairs)]


_SETTINGS = fields(RunConfig)[1:]


def _show(value) -> str:
    """A setting as ``--print-config`` writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, SplitSpec):
        return value.describe()
    if isinstance(value, tuple):
        return ";".join(s.label() for s in value)
    return str(value)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise SpecError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="demandcast", description="Daily demand forecasting toolkit")
    parser.add_argument("--version", action="version", version=f"demandcast {VERSION}")
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        sub = commands.add_parser(name, help=command.__doc__, description=command.__doc__)
        for setting in _SETTINGS:
            meta = setting.metadata
            if meta["commands"] and name not in meta["commands"]:
                continue
            shown = _show(setting.default)
            help_text = meta["help"] + (f" (default {shown})" if shown else "")
            extra = {"metavar": "{" + ",".join(meta["choices"]) + "}"} if meta["choices"] else {}
            sub.add_argument(
                _flag(setting.name), action=meta["action"], default=None, help=help_text, **extra
            )
        sub.add_argument("--config", help="JSON file with defaults for any of these flags")
        sub.add_argument(
            "--print-config", action="store_true",
            help="print the effective configuration and exit",
        )
    return parser


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
    unknown = set(data) - {s.name for s in _SETTINGS}
    if unknown:
        raise SpecError(f"config file {p} has unknown keys: {sorted(unknown)}")
    return data


def _check(setting, raw):
    """Parse one flag or config-file value and apply its setting's checks."""
    meta, flag = setting.metadata, _flag(setting.name)
    try:
        value = meta["parse"](raw)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid value for {flag}: {raw!r}") from exc
    if meta["choices"] and value not in meta["choices"]:
        raise SpecError(f"{flag} must be one of {meta['choices']}, got {value!r}")
    if meta["minimum"] is not None and value < meta["minimum"]:
        raise SpecError(f"{flag} must be >= {meta['minimum']}, got {value}")
    return value


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from the first source that gives it: flag, config file, environment."""
    sources = [vars(args)]
    if args.config:
        sources.append(_load_config_file(args.config))
    sources.append({"out_dir": os.environ.get(OUT_ENV) or None})
    values = {}
    for setting in _SETTINGS:
        raw = next((src[setting.name] for src in sources if src.get(setting.name) is not None), None)
        if raw is not None:
            values[setting.name] = _check(setting, raw)
    return RunConfig(command=args.command, **values)


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


def _load(cfg: RunConfig, default: str, single: bool = False):
    """Parsed input records and the imputation strategies named by --impute, else ``default``.

    ``single`` commands work on one dataset and reject ``all``.
    """
    choice = cfg.impute or default
    if choice == "all":
        if single:
            raise SpecError(f"{cfg.command} needs a single imputation choice, not 'all'")
        strategies = STRATEGY_ORDER
    else:
        try:
            strategies = (ImputationStrategy(choice),)
        except ValueError:
            raise SpecError(f"unknown imputation {choice!r}") from None
    return parse_records(_require_input(cfg)), strategies


def _single_bundle(cfg: RunConfig, default: str):
    records, (strategy,) = _load(cfg, default, single=True)
    return impute(assemble(records), strategy)


def _grids(cfg: RunConfig, default: tuple[str, ...]) -> list[CandidateSet | StepwiseConfig]:
    """Grids from --spec, else --grid, else ``default``; ``stepwise`` searches at --season."""
    if cfg.spec:
        return [CandidateSet(specs=cfg.spec, source="explicit", name="explicit")]
    kinds = (cfg.grid,) if cfg.grid else default
    return [StepwiseConfig(s=cfg.season) if kind == "stepwise" else fixed_grid(kind) for kind in kinds]


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: RunConfig) -> int:
    """parse the raw CSV and write the five imputation datasets"""
    records, strategies = _load(cfg, "all")
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
    for strategy in strategies:
        bundle = impute(base, strategy)
        path = out / f"{bundle.name}.csv"
        write_bundle_csv(bundle, path)
        handled = "dropped" if strategy is ImputationStrategy.DROP else "imputed"
        print(f"wrote {path} ({len(bundle.series)} rows, {bundle.n_imputed} {handled})")
    print(f"wrote {out / 'gap_report.txt'}")
    return 0


def _correlogram_lines(tests) -> list[str]:
    """Correlogram CSV lines of the series differenced 0 and 1 times, as ``tests`` holds them."""
    lines = ["diff_order,lag,acf,pacf,band"]
    for d, w, _ in tests[:2]:
        max_lag = min(40, len(w) // 2 - 1)
        if max_lag < 1:
            raise InsufficientDataError("series too short for a correlogram")
        a, p = acf(w, max_lag), pacf(w, max_lag)
        for lag, av, pv in zip(range(1, max_lag + 1), a.values, p.values):
            lines.append(f"{d},{lag},{av:.10g},{pv:.10g},{a.band:.10g}")
    return lines


def cmd_diagnose(cfg: RunConfig) -> int:
    """unit-root and correlogram diagnostics per dataset"""
    records, strategies = _load(cfg, "all")
    base = assemble(records)
    out = _ensure_out(cfg)
    for strategy in strategies:
        bundle = impute(base, strategy)
        series = bundle.series
        tests = list(_unit_root_tests(series))
        print(f"== {bundle.name} ==")
        print("  d  statistic   p-value     lags  nobs   underflow")
        adf_lines = ["diff_order,statistic,p_value,used_lags,n_effective,regression,p_underflow"]
        for d, _, res in tests:
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
        top_d, _, top_res = tests[-1]
        if overdifferencing_risk(top_res):
            print(f"  over-differencing risk: d={top_d} p-value underflows ({top_res.p_value:.3g})")
        if len(series) > 2 * cfg.season:
            strength = acf(series, cfg.season).values[cfg.season - 1]
            print(f"  seasonal strength (lag-{cfg.season} autocorrelation): {strength:.3f}")
        try:
            print(f"  recommended differencing: d={_recommended_order(series, tests)}")
        except DemandcastError as exc:
            print(f"  differencing recommendation unavailable: {exc}")
        (out / f"{bundle.name}_correlogram.csv").write_text(
            "\n".join(_correlogram_lines(tests)) + "\n", encoding="utf-8"
        )
        print(f"  wrote {out / f'{bundle.name}_adf.csv'} and {out / f'{bundle.name}_correlogram.csv'}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    """fit one model spec and serialize it"""
    if len(cfg.spec) != 1:
        raise SpecError("fit needs exactly one --spec p,d,q or p,d,q,P,D,Q,s")
    spec = cfg.spec[0]
    bundle = _single_bundle(cfg, "drop")
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


def cmd_search(cfg: RunConfig) -> int:
    """evaluate a candidate grid or run the stepwise search"""
    bundle = _single_bundle(cfg, "drop")
    out = _ensure_out(cfg)
    (grid,) = _grids(cfg, ("stepwise",))
    if isinstance(grid, StepwiseConfig):
        ranked, row = _stepwise_holdout(grid, *split(bundle.series, cfg.split), cfg.seed)
        if row is None:
            raise NumericalError(f"stepwise search: no candidate could be fitted on {bundle.name}")
        print(f"stepwise winner on {bundle.name}: {row.spec.label()} (aic {ranked.best.aic:.3f})")
        if not row.failed:
            print(f"holdout test MAPE: {row.test_mape:.3f}")
    else:
        ranked = evaluate_grid(bundle.series, cfg.split, grid, seed=cfg.seed, jobs=cfg.jobs)
    table = StudyTable(dataset=bundle.name, grid=grid.name, results=ranked)
    report = StudyReport(tables=(table,), split=cfg.split, seed=cfg.seed)
    sys.stdout.write(render_report(report, cfg.format).decode("utf-8"))
    write_results_csv([table], out / f"{bundle.name}_results.csv")
    (out / f"{bundle.name}_results.md").write_bytes(render_report(report, "md"))
    print(f"wrote {out / f'{bundle.name}_results.csv'}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """full study: every grid on every imputation dataset"""
    records, strategies = _load(cfg, "all")
    out = _ensure_out(cfg)
    report = run_study(
        records, cfg.split, _grids(cfg, GRID_KINDS), seed=cfg.seed, jobs=cfg.jobs, strategies=strategies
    )
    paths = write_study_outputs(report, out)
    best = report.best_model
    if best is not None:
        dataset, spec, value = best
        print(f"best holdout accuracy: {spec.label()} on {dataset} (test MAPE {value:.3f})")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    """load a serialized fit and emit forecasts"""
    model_path = cfg.model or (cfg.out_dir / "model.txt")
    fit_result, metadata = load_fit(model_path)
    # the fit's dataset label names the default imputation choice; a label that
    # names none is a fault of the fit file, unless --impute overrides it
    dataset = metadata.get("dataset") or STRATEGY_LABELS[ImputationStrategy.DROP]
    by_label = {label: strategy.value for strategy, label in STRATEGY_LABELS.items()}
    choice = by_label.get(dataset, dataset)
    if cfg.impute is None and choice not in by_label.values():
        raise DataError(f"fit file {model_path}: dataset {dataset!r} names no imputation dataset")
    bundle = _single_bundle(cfg, choice)
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
    command.__name__.removeprefix("cmd_"): command
    for command in (cmd_ingest, cmd_diagnose, cmd_fit, cmd_search, cmd_report, cmd_forecast)
}

# exit code and stderr prefix per error type
_EXIT_CODES = {
    SpecError: (1, "usage error"),
    DataError: (2, "input error"),
    InsufficientDataError: (3, "data insufficiency"),
    NumericalError: (4, "numerical failure"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        cfg = _merge_config(args)
        if args.print_config:
            for line in cfg.describe():
                print(line)
            return 0
        return _COMMANDS[cfg.command](cfg)
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(v for kind, v in _EXIT_CODES.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
