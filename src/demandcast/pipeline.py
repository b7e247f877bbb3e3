"""Raw CSV ingestion and construction of the five imputation datasets.

The raw exports carry one row per day with a date column, the daily maximum
demand in MW and a handful of auxiliary energy columns.  :func:`parse_records`
reads an export into columns (:class:`Records`): day ordinals and demand as
arrays, each source row kept whole and split into a :class:`RawRecord`'s
``extras`` only when that record is asked for, since only the demand column
feeds the models.  Text without a ``"`` character, as the exports and
:func:`write_bundle_csv` write it, is read with NumPy on its UTF-8 bytes: row
ends and commas are found in one pass and the date and demand cells are read
from byte spans.  Text with a quote, or with a line longer than
``csv.field_size_limit()``, is read by ``csv.reader``.  Both readers feed one
body with one short-row rule, one date parser and one error path.
:func:`assemble` lays the demand onto a gap-marked daily
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
from itertools import islice
from pathlib import Path
from typing import NamedTuple

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
_COMMA, _NEWLINE = ord(","), ord("\n")
# the weights that turn the ten digit codes of a DD/MM/YYYY or a YYYY-MM-DD
# cell into (day, month, year); separator positions weigh 0
_DMY_WEIGHTS = np.array([
    [10, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 10, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1000, 100, 10, 1],
])
_ISO_WEIGHTS = np.array([
    [0, 0, 0, 0, 0, 0, 0, 0, 10, 1],
    [0, 0, 0, 0, 0, 10, 1, 0, 0, 0],
    [1000, 100, 10, 1, 0, 0, 0, 0, 0, 0],
])
_DMY_DIGITS, _ISO_DIGITS = _DMY_WEIGHTS.any(axis=0), _ISO_WEIGHTS.any(axis=0)
# both formats in one float product, a BLAS call that is exact on these integers
_DATE_WEIGHTS = np.vstack([_DMY_WEIGHTS, _ISO_WEIGHTS]).T.astype(float)


class _Spans(NamedTuple):
    """The cells of one column as spans of a UTF-8 buffer, ``data[starts[i]:ends[i]]``."""

    data: bytes
    starts: np.ndarray
    ends: np.ndarray

    def cell(self, i: int) -> str:
        return self.data[self.starts[i]:self.ends[i]].decode("utf-8", "surrogatepass")


def _spans(cells: Sequence[str]) -> _Spans:
    encoded = [cell.encode("utf-8", "surrogatepass") for cell in cells]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    ends = np.cumsum(lengths)
    return _Spans(b"".join(encoded), ends - lengths, ends)


def _parse_dates(cells: _Spans) -> np.ndarray:
    """Day ordinals of date cells, 0 where a cell is not a date.

    Ten-byte ASCII ``DD/MM/YYYY`` and ``YYYY-MM-DD`` cells, as the exports
    write them, are read in one vectorised pass over the bytes whose calendar
    check takes month lengths from ``datetime64[M]``; every other cell, and
    every cell that pass rejects, goes through :func:`_parse_date`.
    """
    fixed = np.flatnonzero(cells.ends - cells.starts == 10)
    codes = np.frombuffer(cells.data, dtype=np.uint8)[cells.starts[fixed, None] + np.arange(10)]
    digits = codes - float(ord("0"))
    is_digit = (digits >= 0) & (digits <= 9)
    dmy = (codes[:, 2] == ord("/")) & (codes[:, 5] == ord("/")) & is_digit[:, _DMY_DIGITS].all(axis=1)
    iso = (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-")) & is_digit[:, _ISO_DIGITS].all(axis=1)
    fields = digits @ _DATE_WEIGHTS
    day, month, year = np.where(dmy, fields[:, :3].T, fields[:, 3:].T).astype(np.int64)
    ok = (dmy | iso) & (day >= 1) & (month >= 1) & (month <= 12) & (year >= 1)
    first = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day = first.astype("datetime64[D]")
    ok &= day <= ((first + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    ordinals = np.zeros(cells.starts.size, dtype=np.int64)
    ordinals[fixed[ok]] = first_day[ok].astype(np.int64) + (day[ok] - 1 + _EPOCH_ORDINAL)
    for i in np.flatnonzero(ordinals == 0):
        date = _parse_date(cells.cell(i))
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


def _demand_value(cell: bytes) -> float:
    try:
        return float(cell)  # reads bytes as ASCII; a cell it rejects is read as text below
    except ValueError:
        value = _parse_float(cell.decode("utf-8", "surrogatepass"))
        return math.nan if value is None else value


def _parse_demand(cells: _Spans) -> np.ndarray:
    """Demand in MW per cell; NaN where absent, non-finite or not positive."""
    data = cells.data
    demand = np.fromiter((_demand_value(data[a:b]) for a, b in zip(cells.starts.tolist(), cells.ends.tolist())),
                         dtype=float, count=cells.starts.size)
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


class _CsvRows(list):
    """Data rows as ``csv.reader`` reads them, the only reader for quoted cells."""

    def __init__(self, rows):
        super().__init__(rows)
        self.widths = np.fromiter(map(len, self), dtype=np.intp, count=len(self))

    def column(self, j: int) -> _Spans:
        return _spans([row[j] if j < len(row) else "" for row in self])


class _SpanRows:
    """Data rows of quote-free CSV text as byte spans of its UTF-8 encoding.

    Without a quote character every comma is a delimiter and every LF a row
    end, so :meth:`column` finds one column's cells in every row from the
    delimiter positions at once, and a row is split into cells only when it
    is indexed.
    """

    def __init__(self, body: str):
        """``body`` is the text after the header line, with LF row ends."""
        if body and not body.endswith("\n"):
            body += "\n"
        self._data = body.encode("utf-8", "surrogatepass")
        codes = np.frombuffer(self._data, dtype=np.uint8)
        # every delimiter and row end, and the start of the cell each one closes
        self._seps = np.flatnonzero((codes == _COMMA) | (codes == _NEWLINE))
        self._cell_starts = np.concatenate(([0], self._seps + 1))[:-1]
        self._last = np.flatnonzero(codes[self._seps] == _NEWLINE)
        self._first = np.concatenate(([0], self._last + 1))[:-1]
        self.widths = self._last - self._first + 1

    def __len__(self) -> int:
        return self._last.size

    def __getitem__(self, i: int) -> list[str]:
        row = self._data[self._cell_starts[self._first[i]]:self._seps[self._last[i]]]
        return row.decode("utf-8", "surrogatepass").split(",")

    def line_bytes(self) -> int:
        """The byte length of the longest row."""
        return int((self._seps[self._last] - self._cell_starts[self._first]).max(initial=0))

    def column(self, j: int) -> _Spans:
        has = self.widths > j
        k = np.where(has, self._first + j, self._last)
        ends = self._seps[k]
        return _Spans(self._data, np.where(has, self._cell_starts[k], ends), ends)


def _read_rows(text: str) -> tuple[list[str], _SpanRows | _CsvRows]:
    """The header and the data rows of non-empty text.

    Text without a ``"`` is read as byte spans, with CRLF and lone CR taken
    as LF row ends as ``csv.reader`` takes them.  Quoted text, and text with
    a line longer than ``csv.field_size_limit()`` (so that the reader raises
    its own error), go through ``csv.reader``.
    """
    if '"' not in text:
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        head, _, body = text.partition("\n")
        rows = _SpanRows(body)
        if max(len(head), rows.line_bytes()) <= csv.field_size_limit():
            return head.split(",") if head else [], rows
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return next(reader), _CsvRows(reader)
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None


def _has_data(row: list[str]) -> bool:
    return bool("".join(row).strip())


def _line_of(text: str, row: int) -> int:
    """The reader's ``line_num`` at data row ``row``, blank rows included."""
    reader = csv.reader(io.StringIO(text, newline=""))
    for _ in islice(reader, row + 2):  # + 2: the header, then rows 0..row
        pass
    return reader.line_num


class Records(Sequence[RawRecord]):
    """The rows of one export, held as columns.

    Day ordinals and demand (NaN where absent) are arrays; each record keeps
    the index of its source row, whose auxiliary cells are split and parsed
    into ``extras`` only when the record is asked for.  Indexing, iteration
    and ``==`` behave as for a list of :class:`RawRecord`.
    """

    __slots__ = ("_ordinals", "_demand", "_rows", "_index", "_extras")

    def __init__(self, ordinals: np.ndarray, demand: np.ndarray, rows: Sequence[list[str]],
                 index: np.ndarray, extras: tuple[tuple[str, int], ...]):
        ordinals.setflags(write=False)
        demand.setflags(write=False)
        self._ordinals = ordinals
        self._demand = demand
        self._rows = rows
        self._index = index
        self._extras = extras

    def __len__(self) -> int:
        return int(self._ordinals.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self._ordinals[i], self._demand[i], self._rows, self._index[i], self._extras)
        demand = float(self._demand[i])
        cells = self._rows[self._index[i]]
        return RawRecord(
            date=dt.date.fromordinal(int(self._ordinals[i])),
            max_demand_mw=None if math.isnan(demand) else demand,
            extras={key: _parse_float(cells[j]) for key, j in self._extras if j < len(cells)},
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
    if not text:
        raise DataError("input is empty: no header row")
    header, rows = _read_rows(text)
    columns: list[str | None] = [_classify_column(cell) for cell in header]
    if "date" not in columns or "max_demand_mw" not in columns:
        raise DataError(
            "malformed header: need at least a date column and a maximum-demand column, "
            f"got {header!r}"
        )
    date_idx = columns.index("date")
    demand_idx = columns.index("max_demand_mw")
    dates = rows.column(date_idx)
    ordinals = _parse_dates(dates)
    short = rows.widths <= max(date_idx, demand_idx)
    # a blank row has no date, so only the rows without one, and the short
    # rows, are looked at for data; the first of them with data is the fault
    blank = []
    for i in np.flatnonzero((ordinals == 0) | short).tolist():
        if _has_data(rows[i]):
            if short[i]:
                raise DataError(f"row {_line_of(text, i)}: too few columns ({rows.widths[i]})")
            raise DataError(f"row {_line_of(text, i)}: unparseable date {dates.cell(i)!r}")
        blank.append(i)
    index = np.delete(np.arange(len(rows)), blank)
    if not index.size:
        raise DataError("input has a header but no data rows")
    extras = tuple((key, j) for j, key in enumerate(columns)
                   if key is not None and j not in (date_idx, demand_idx))
    return Records(ordinals[index], _parse_demand(rows.column(demand_idx))[index], rows, index, extras)


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

    Drop compacts the series onto consecutive synthetic dates ending at the
    last observed day, so forecasts and date splits on it follow the real
    calendar from its end; its start moves later by one day per missing day
    inside the span.  Compacting stretches lag-k relations across unequal
    real gaps; that distortion is accepted and documented rather than hidden.
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
        last_present = int(np.flatnonzero(~missing)[-1])
        out = TimeSeries(series.start_date + (last_present + 1 - present.size) * ONE_DAY, present)
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
