"""Raw CSV ingestion and construction of the five imputation datasets.

The raw exports carry one row per day with a date column, the daily maximum
demand in MW and a handful of auxiliary energy columns.  :func:`parse_records`
reads an export into columns (:class:`Records`): day ordinals and demand as
arrays, the auxiliary cells kept raw and parsed into a :class:`RawRecord`'s
``extras`` only when that record is asked for, since only the demand column
feeds the models.  :func:`assemble` lays the demand onto a gap-marked daily
calendar.  Missing demand days are handled five ways (drop, mean, median,
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
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, islice, zip_longest
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
    """The definition of a date cell: DD/MM/YYYY or ISO YYYY-MM-DD, padding ignored."""
    cell = cell.strip()
    for fmt in ("%d/%m/%Y", "%Y-%m-%d"):
        try:
            return dt.datetime.strptime(cell, fmt).date()
        except ValueError:
            continue
    return None


_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# the digit positions of DD/MM/YYYY, and the weights that turn them into (day, month, year)
_DMY_DIGITS = [0, 1, 3, 4, 6, 7, 8, 9]
_DMY_WEIGHTS = np.array([
    [10, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 10, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1000, 100, 10, 1],
], dtype=np.int32)


def _parse_dates(cells: Sequence[str]) -> np.ndarray:
    """Day ordinals of date cells, 0 where a cell is not a date.

    Ten-character ASCII ``DD/MM/YYYY`` cells, as the exports write them, are
    read in one vectorised pass whose calendar check takes month lengths from
    ``datetime64[M]``; every other cell, and every cell that pass rejects,
    goes through :func:`_parse_date`.
    """
    n = len(cells)
    fixed = np.fromiter(map(len, cells), dtype=np.intp, count=n) == 10
    text = "".join(compress(cells, fixed.tolist()))
    # one byte per character; a non-ASCII one becomes "?", so its cell fails this pass
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8).reshape(-1, 10)
    digits = codes[:, _DMY_DIGITS].astype(np.int32) - ord("0")
    day, month, year = _DMY_WEIGHTS @ digits.T
    ok = (codes[:, 2] == ord("/")) & (codes[:, 5] == ord("/")) & ((digits >= 0) & (digits <= 9)).all(axis=1)
    ok &= (day >= 1) & (month >= 1) & (month <= 12) & (year >= 1)
    first = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day = first.astype("datetime64[D]")
    ok &= day <= ((first + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    ordinals = np.zeros(n, dtype=np.int64)
    ordinals[np.flatnonzero(fixed)[ok]] = first_day[ok].astype(np.int64) + (day[ok] - 1 + _EPOCH_ORDINAL)
    for i in np.flatnonzero(ordinals == 0):
        date = _parse_date(cells[i])
        if date is not None:
            ordinals[i] = date.toordinal()
    return ordinals


def _parse_float(cell: str) -> float | None:
    cell = cell.strip().replace(",", "")
    if not cell:
        return None
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _demand_value(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        value = _parse_float(cell)
        return math.nan if value is None else value


def _parse_demand(cells: Sequence[str]) -> np.ndarray:
    """Demand in MW per cell; NaN where absent, non-finite or not positive."""
    demand = np.fromiter(map(_demand_value, cells), dtype=float, count=len(cells))
    demand[~(np.isfinite(demand) & (demand > 0))] = np.nan
    return demand


def _decode_text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8 text: {exc}") from None


def _read_text(source) -> str:
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise DataError(f"input file not found: {path}")
        try:
            source = path.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read input file {path}: {exc.strerror or exc}") from None
    elif hasattr(source, "read"):
        source = source.read()
        if isinstance(source, str):
            return source
    elif not isinstance(source, (bytes, bytearray)):
        raise DataError(f"unsupported record source: {type(source).__name__}")
    return _decode_text(bytes(source))


def _has_data(row: list[str]) -> bool:
    return bool("".join(row).strip())


def _line_of(text: str, record: int) -> int:
    """The reader's ``line_num`` at data row ``record``, counting only rows with data."""
    reader = csv.reader(io.StringIO(text, newline=""))
    for _ in islice(filter(_has_data, reader), record + 2):  # + 2: the header, then rows 0..record
        pass
    return reader.line_num


class Records(Sequence[RawRecord]):
    """The rows of one export, held as columns.

    Day ordinals and demand (NaN where absent) are arrays; the auxiliary
    columns keep their raw cells, with None where a row stops short of the
    column.  Indexing, iteration and ``==`` behave as for a list of
    :class:`RawRecord`, and a record (with its parsed ``extras``) is built
    only when it is asked for.
    """

    __slots__ = ("_ordinals", "_demand", "_extras")

    def __init__(self, ordinals: np.ndarray, demand: np.ndarray,
                 extras: tuple[tuple[str, Sequence[str | None]], ...]):
        ordinals.setflags(write=False)
        demand.setflags(write=False)
        self._ordinals = ordinals
        self._demand = demand
        self._extras = extras

    def __len__(self) -> int:
        return int(self._ordinals.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self._ordinals[i], self._demand[i],
                           tuple((key, cells[i]) for key, cells in self._extras))
        demand = float(self._demand[i])
        return RawRecord(
            date=dt.date.fromordinal(int(self._ordinals[i])),
            max_demand_mw=None if math.isnan(demand) else demand,
            extras={key: _parse_float(cells[i]) for key, cells in self._extras if cells[i] is not None},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def parse_records(source) -> Records:
    """Read raw daily rows from a CSV path, text stream or byte stream.

    Dates accept DD/MM/YYYY or ISO YYYY-MM-DD.  An unparseable date is fatal
    (with its row number); an unparseable or non-positive demand value just
    becomes an absent-demand record.  The rows come back as columns, see
    :class:`Records`.
    """
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        rows = list(filter(_has_data, reader))
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError("input is empty: no header row")
    columns: list[str | None] = [_classify_column(cell) for cell in header]
    if "date" not in columns or "max_demand_mw" not in columns:
        raise DataError(
            "malformed header: need at least a date column and a maximum-demand column, "
            f"got {header!r}"
        )
    date_idx = columns.index("date")
    demand_idx = columns.index("max_demand_mw")
    if not rows:
        raise DataError("input has a header but no data rows")
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    short = np.flatnonzero(widths <= max(date_idx, demand_idx))
    # the first faulty row in file order is reported, so only the dates
    # before the first short row can be at fault
    n_ok = int(short[0]) if short.size else len(rows)
    # one tuple of cells per column, None where a row stops short
    cells = list(zip_longest(*rows))
    cells.extend([(None,) * len(rows)] * (len(columns) - len(cells)))
    ordinals = _parse_dates(cells[date_idx][:n_ok])
    bad = np.flatnonzero(ordinals == 0)
    if bad.size:
        first = int(bad[0])
        raise DataError(f"row {_line_of(text, first)}: unparseable date {cells[date_idx][first]!r}")
    if short.size:
        raise DataError(f"row {_line_of(text, n_ok)}: too few columns ({widths[n_ok]})")
    extras = tuple((key, cells[j]) for j, key in enumerate(columns)
                   if key is not None and j not in (date_idx, demand_idx))
    return Records(ordinals, _parse_demand(cells[demand_idx]), extras)


def _columns(records: Sequence[RawRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Day ordinals and demand (NaN where absent) of a sequence of records."""
    if isinstance(records, Records):
        return records._ordinals, records._demand
    n = len(records)
    ordinals = np.fromiter((r.date.toordinal() for r in records), dtype=np.int64, count=n)
    demand = np.fromiter((math.nan if r.max_demand_mw is None else r.max_demand_mw for r in records),
                         dtype=float, count=n)
    return ordinals, demand


def assemble(records: Sequence[RawRecord]) -> TimeSeries:
    """Build a calendar-complete daily series spanning min..max record date.

    Days with no record, or whose record has absent demand, become NaN slots.
    Duplicate dates are fatal.
    """
    ordinals, demand = _columns(records)
    if not ordinals.size:
        raise DataError("no records to assemble")
    if np.isnan(demand).all():
        raise DataError("no record carries a present demand value")
    order = np.argsort(ordinals, kind="stable")
    ordered = ordinals[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        first = dt.date.fromordinal(int(ordinals[repeats.min()]))
        raise DataError(f"duplicate record for {first.isoformat()}")
    start = int(ordered[0])
    values = np.full(int(ordered[-1]) - start + 1, np.nan)
    values[ordinals - start] = demand
    return TimeSeries(dt.date.fromordinal(start), values)


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


def build_all(records: Sequence[RawRecord]) -> tuple[DatasetBundle, ...]:
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
