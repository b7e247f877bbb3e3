"""Study orchestration and deterministic reporting.

A study fits every candidate grid on every imputation dataset and collects
the ranked tables into one report.  Rendering is fully deterministic (fixed
float formats, no timestamps), so identical inputs and seed give
byte-identical report files.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import VERSION
from .errors import SpecError
from .pipeline import STRATEGY_ORDER, ImputationStrategy, RawRecord, assemble, impute
from .selection import CandidateSet, EvaluationRow, RankedResults, StepwiseConfig, _grid_tasks, _run_tasks
from .series import SplitSpec

__all__ = [
    "StudyTable",
    "StudyReport",
    "run_study",
    "render_report",
    "write_study_outputs",
]


@dataclass(frozen=True)
class StudyTable:
    """Ranked results of one candidate grid on one imputation dataset."""

    dataset: str
    grid: str
    results: RankedResults

    @property
    def all_failed(self) -> bool:
        return all(row.failed for row in self.results.rows)


@dataclass(frozen=True)
class StudyReport:
    """Everything needed to reproduce and render a full comparison study."""

    tables: tuple[StudyTable, ...]
    split: SplitSpec
    seed: int
    version: str = VERSION

    @property
    def best_model(self) -> tuple[str, "object", float] | None:
        """(dataset, spec, test_mape) of the globally best holdout accuracy."""
        best = None
        for table in self.tables:
            for row in table.results.rows:
                if row.failed or not np.isfinite(row.test_mape):
                    continue
                if best is None or row.test_mape < best[2]:
                    best = (table.dataset, row.spec, row.test_mape)
        return best


def run_study(
    records: Sequence[RawRecord],
    split_spec: SplitSpec,
    grids: list[CandidateSet | StepwiseConfig],
    seed: int = 0,
    jobs: int = 1,
    strategies: tuple[ImputationStrategy, ...] = STRATEGY_ORDER,
) -> StudyReport:
    """Evaluate every grid on the imputation dataset of each strategy, all five by default.

    A :class:`StepwiseConfig` grid tables each dataset's stepwise winner on
    the holdout.  With ``jobs > 1`` all fits of the study run in the
    process's worker pool, forked on the first pooled call, reused by later
    calls with the same worker count and joined at exit; its workers run the
    library as it was loaded at fork time.  The report does not depend on
    ``jobs``.  A dataset whose fits all fail is kept in the report (flagged
    by the renderer).
    """
    if not grids:
        raise SpecError("run_study needs at least one candidate grid")
    base = assemble(records)
    bundles = [impute(base, strategy) for strategy in strategies]
    pairs = [(bundle, grid) for bundle in bundles for grid in grids]
    tasks = [_grid_tasks(bundle.series, split_spec, grid, seed) for bundle, grid in pairs]
    results = iter(_run_tasks([task for pair_tasks in tasks for task in pair_tasks], jobs))
    tables = []
    for (bundle, grid), pair_tasks in zip(pairs, tasks):
        rows = [next(results) for _ in pair_tasks]
        if isinstance(grid, StepwiseConfig):  # its task returns (ranking, holdout row of the winner)
            ranked, winner = rows[0]
            rows = ranked.rows if winner is None else [winner]  # no winner: every visited fit failed
        tables.append(StudyTable(bundle.name, grid.name, RankedResults(tuple(rows), "test_mape")))
    return StudyReport(tables=tuple(tables), split=split_spec, seed=seed)


def classify_row(row: EvaluationRow, grid: str) -> str:
    """Model-family label used in the comparison tables."""
    if grid == "stepwise":
        return "auto-arima"
    spec = row.spec
    if spec.is_seasonal:
        return "SARIMA"
    if spec.p > 0 and spec.q > 0:
        return "ARMA models"
    return "AR/MA models"


def _fmt(value: float) -> str:
    return "-" if not np.isfinite(value) else f"{value:.3f}"


def _markdown_table(table: StudyTable) -> list[str]:
    lines = [f"## {table.dataset} ({table.grid})", ""]
    if table.all_failed:
        lines.append("All candidate fits failed on this dataset:")
        lines.append("")
        for row in table.results.rows:
            lines.append(f"- {row.spec.label()}: {row.error}")
        lines.append("")
        return lines
    lines.append("| Models | Order | test_MAPE | train_MAPE | AIC | BIC |")
    lines.append("| --- | --- | --- | --- | --- | --- |")
    notes = []
    for row in table.results.rows:
        order = row.spec.label()
        if row.failed:
            notes.append(f"- {order} failed: {row.error}")
            continue
        if not row.converged:
            order += " *"
        lines.append(
            f"| {classify_row(row, table.grid)} | {order} | {_fmt(row.test_mape)} "
            f"| {_fmt(row.train_mape)} | {_fmt(row.aic)} | {_fmt(row.bic)} |"
        )
    lines.append("")
    if any(not row.converged and not row.failed for row in table.results.rows):
        lines.append("\\* optimizer stopped before meeting its tolerance")
        lines.append("")
    if notes:
        lines.append("Failed fits:")
        lines.extend(notes)
        lines.append("")
    return lines


def render_report(report: StudyReport, fmt: str = "md") -> bytes:
    """Render the study as Markdown or CSV; output bytes are deterministic."""
    if fmt == "md":
        lines = [
            "# Demand model comparison",
            "",
            f"- split: {report.split.describe()}",
            f"- seed: {report.seed}",
            f"- toolkit version: {report.version}",
            "",
        ]
        best = report.best_model
        if best is not None:
            dataset, spec, value = best
            lines.append(f"Best holdout accuracy: {spec.label()} on {dataset} (test MAPE {value:.3f})")
            lines.append("")
        for table in report.tables:
            lines.extend(_markdown_table(table))
        return ("\n".join(lines).rstrip("\n") + "\n").encode("utf-8")
    if fmt == "csv":
        return _results_csv(report.tables)
    raise SpecError(f"format must be 'md' or 'csv', got {fmt!r}")


def _csv_value(value: float) -> str:
    return "" if not np.isfinite(value) else f"{value:.10g}"


def _csv_row(table: StudyTable, row: EvaluationRow) -> list[str]:
    return [
        table.dataset,
        table.grid,
        classify_row(row, table.grid),
        row.spec.label(),
        _csv_value(row.test_mape),
        _csv_value(row.train_mape),
        _csv_value(row.aic),
        _csv_value(row.bic),
        _csv_value(row.loglik),
        "true" if row.converged else "false",
        row.error or "",
    ]


def _results_csv(tables: tuple[StudyTable, ...] | list[StudyTable]) -> bytes:
    """The rows of ``tables`` as CSV: the bytes of the CSV report and of each results file."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["dataset", "grid", "models", "order", "test_mape", "train_mape",
         "aic", "bic", "loglik", "converged", "error"]
    )
    for table in tables:
        for row in table.results.rows:
            writer.writerow(_csv_row(table, row))
    return buf.getvalue().encode("utf-8")


def write_results_csv(tables: list[StudyTable], path: str | Path) -> None:
    """Per-dataset results file: same columns as the full CSV report."""
    Path(path).write_bytes(_results_csv(tables))


def write_study_outputs(report: StudyReport, out_dir: str | Path) -> list[Path]:
    """Write report.md, report.csv and one results CSV per dataset."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt, name in (("md", "report.md"), ("csv", "report.csv")):
        path = out / name
        path.write_bytes(render_report(report, fmt))
        written.append(path)
    datasets: dict[str, list[StudyTable]] = {}
    for table in report.tables:
        datasets.setdefault(table.dataset, []).append(table)
    for dataset, tables in datasets.items():
        path = out / f"{dataset}_results.csv"
        write_results_csv(tables, path)
        written.append(path)
    return written
