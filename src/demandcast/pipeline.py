"""Raw CSV ingestion and construction of the five imputation datasets.

The raw exports carry one row per day with a date column, the daily maximum
demand in MW and a handful of auxiliary energy columns.  Only the demand
column feeds the models; the rest ride along in :class:`RawRecord.extras` for
provenance.  Missing demand days are handled five ways (drop, mean, median,
mode, linear interpolation) and each strategy yields its own named dataset so
the downstream comparisons can quantify how the choice of imputation moves
the results.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, InsufficientDataError
from .series import ONE_DAY, TimeSeries


class ImputationStrategy(Enum):
    """How missing demand days are resolved before modelling."""

    DROP = "drop"
    MEAN = "mean"
    MEDIAN = "median"
    MODE = "mode"
    INTERPOLATE = "interp"


# Dataset (and output file) label per strategy.
STRATEGY_LABELS: dict[ImputationStrategy, str] = {
    ImputationStrategy.DROP: "dropna",
    ImputationStrategy.MEAN: "mean",
    ImputationStrategy.MEDIAN: "median",
    ImputationStrategy.MODE: "mode",
    ImputationStrategy.INTERPOLATE: "interp",
}

STRATEGY_ORDER: tuple[ImputationStrategy, ...] = (
    ImputationStrategy.DROP,
    ImputationStrategy.MEAN,
    ImputationStrategy.MEDIAN,
    ImputationStrategy.MODE,
    ImputationStrategy.INTERPOLATE,
)


@dataclass(frozen=True)
class RawRecord:
    """One daily row from the source export; ``max_demand_mw`` is None when absent."""

    date: dt.date
    max_demand_mw: float | None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_demand_mw is not None and not self.max_demand_mw > 0:
            raise DataError(f"demand must be strictly positive when present, got {self.max_demand_mw}")


@dataclass(frozen=True)
class DatasetBundle:
    """A named, gap-free dataset produced by one imputation strategy."""

    name: str
    strategy: ImputationStrategy
    series: TimeSeries
    n_imputed: int

    def __post_init__(self) -> None:
        if not self.series.is_complete:
            raise DataError(f"bundle {self.name!r} must be gap-free")


# Canonical column keys for the raw export, in file order.
CANONICAL_COLUMNS = (
    "date",
    "max_demand_mw",
    "shortage_during_max_demand_mw",
    "energy_met_mu",
    "drawal_schedule_mu",
    "od_ud_mu",
    "max_od_mw",
    "energy_shortage_mu",
)


def _normalize_header(cell: str) -> str:
    return "".join(ch for ch in cell.lower() if ch.isalnum())


def _classify_column(cell: str) -> str | None:
    """Map a header cell onto a canonical column key, tolerating case and spacing."""
    h = _normalize_header(cell)
    if h.startswith("date"):
        return "date"
    # shortage columns first: their names can embed "max demand" as a phrase
    if "energyshortage" in h:
        return "energy_shortage_mu"
    if "shortage" in h:
        return "shortage_during_max_demand_mw"
    if "maxdemand" in h or "maximumdemand" in h:
        return "max_demand_mw"
    if "energymet" in h:
        return "energy_met_mu"
    if "drawal" in h:
        return "drawal_schedule_mu"
    if "maxod" in h:
        return "max_od_mw"
    if h.startswith("od") or "odud" in h:
        return "od_ud_mu"
    return None


def _parse_date(cell: str) -> dt.date | None:
    cell = cell.strip()
    # fast path for the exports' zero-padded DD/MM/YYYY; the loop below is
    # the definition, so anything else (and an invalid day) goes through it
    if len(cell) == 10 and cell[2] == cell[5] == "/" and cell.isascii():
        day, month, year = cell[:2], cell[3:5], cell[6:]
        if day.isdigit() and month.isdigit() and year.isdigit():
            try:
                return dt.date(int(year), int(month), int(day))
            except ValueError:
                pass
    for fmt in ("%d/%m/%Y", "%Y-%m-%d"):
        try:
            return dt.datetime.strptime(cell, fmt).date()
        except ValueError:
            continue
    return None


def _parse_float(cell: str) -> float | None:
    cell = cell.strip().replace(",", "")
    if not cell:
        return None
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _decode_text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8 text: {exc}") from None


def parse_records(source) -> list[RawRecord]:
    """Read raw daily rows from a CSV path, text stream or byte stream.

    Dates accept DD/MM/YYYY or ISO YYYY-MM-DD.  An unparseable date is fatal
    (with its row number); an unparseable or non-positive demand value just
    becomes an absent-demand record.
    """
    close_after = False
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise DataError(f"input file not found: {path}")
        stream = open(path, "r", newline="", encoding="utf-8-sig")
        close_after = True
    elif isinstance(source, (bytes, bytearray)):
        stream = io.StringIO(_decode_text(bytes(source)))
    elif hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, bytes):
            raw = _decode_text(raw)
        stream = io.StringIO(raw)
    else:
        raise DataError(f"unsupported record source: {type(source).__name__}")

    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("input is empty: no header row") from None
        columns: list[str | None] = [_classify_column(cell) for cell in header]
        if "date" not in columns or "max_demand_mw" not in columns:
            raise DataError(
                "malformed header: need at least a date column and a maximum-demand column, "
                f"got {header!r}"
            )
        date_idx = columns.index("date")
        demand_idx = columns.index("max_demand_mw")
        extra_cols = [
            (j, key) for j, key in enumerate(columns) if key is not None and j not in (date_idx, demand_idx)
        ]
        records: list[RawRecord] = []
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(date_idx, demand_idx):
                raise DataError(f"row {reader.line_num}: too few columns ({len(row)})")
            date = _parse_date(row[date_idx])
            if date is None:
                raise DataError(f"row {reader.line_num}: unparseable date {row[date_idx]!r}")
            demand = _parse_float(row[demand_idx])
            if demand is not None and demand <= 0:
                demand = None
            extras = {key: _parse_float(row[j]) for j, key in extra_cols if j < len(row)}
            records.append(RawRecord(date=date, max_demand_mw=demand, extras=extras))
        if not records:
            raise DataError("input has a header but no data rows")
        return records
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8 text: {exc}") from None
    finally:
        if close_after:
            stream.close()


def assemble(records: list[RawRecord]) -> TimeSeries:
    """Build a calendar-complete daily series spanning min..max record date.

    Days with no record, or whose record has absent demand, become NaN slots.
    Duplicate dates are fatal.
    """
    if not records:
        raise DataError("no records to assemble")
    if not any(r.max_demand_mw is not None for r in records):
        raise DataError("no record carries a present demand value")
    seen: set[dt.date] = set()
    for r in records:
        if r.date in seen:
            raise DataError(f"duplicate record for {r.date.isoformat()}")
        seen.add(r.date)
    start = min(seen)
    n = (max(seen) - start).days + 1
    values = np.full(n, np.nan)
    for r in records:
        if r.max_demand_mw is not None:
            values[(r.date - start).days] = r.max_demand_mw
    return TimeSeries(start, values)


def _mode_value(present: np.ndarray) -> float:
    counts = Counter(present.tolist())
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return float(best[0])


def impute(series: TimeSeries, strategy: ImputationStrategy) -> DatasetBundle:
    """Resolve missing days per ``strategy`` and return the named dataset.

    Drop compacts the series onto consecutive synthetic dates starting at the
    first observed day, which stretches lag-k relations across unequal real
    gaps; that distortion is accepted and documented rather than hidden.
    """
    values = series.values
    missing = np.isnan(values)
    present = values[~missing]
    if present.size < 2:
        raise InsufficientDataError(
            f"imputation needs at least 2 present values, found {present.size}"
        )
    n_missing = int(missing.sum())
    if strategy is ImputationStrategy.DROP:
        first_present = int(np.flatnonzero(~missing)[0])
        out = TimeSeries(series.start_date + first_present * ONE_DAY, present)
    elif strategy is ImputationStrategy.MEAN:
        out = _fill(series, float(np.mean(present)))
    elif strategy is ImputationStrategy.MEDIAN:
        out = _fill(series, float(np.median(present)))
    elif strategy is ImputationStrategy.MODE:
        out = _fill(series, _mode_value(present))
    elif strategy is ImputationStrategy.INTERPOLATE:
        idx = np.arange(len(series), dtype=float)
        filled = values.copy()
        # linear inside gaps, nearest present value at the edges
        filled[missing] = np.interp(idx[missing], idx[~missing], present)
        out = TimeSeries(series.start_date, filled)
    else:  # pragma: no cover - enum is closed
        raise DataError(f"unknown strategy {strategy}")
    return DatasetBundle(
        name=STRATEGY_LABELS[strategy], strategy=strategy, series=out, n_imputed=n_missing
    )


def _fill(series: TimeSeries, value: float) -> TimeSeries:
    filled = series.values.copy()
    filled[np.isnan(filled)] = value
    return TimeSeries(series.start_date, filled)


def build_all(records: list[RawRecord]) -> tuple[DatasetBundle, ...]:
    """Assemble once and impute under every strategy, in canonical order."""
    base = assemble(records)
    return tuple(impute(base, strategy) for strategy in STRATEGY_ORDER)


def missing_dates(series: TimeSeries) -> list[dt.date]:
    return [series.date_at(int(i)) for i in np.flatnonzero(np.isnan(series.values))]


def write_bundle_csv(bundle: DatasetBundle, path: str | Path) -> None:
    """Write a dataset as a two-column CSV (date, max_demand_mw)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "max_demand_mw"])
        for date, value in zip(bundle.series.dates(), bundle.series.values):
            writer.writerow([date.isoformat(), f"{value:.10g}"])
