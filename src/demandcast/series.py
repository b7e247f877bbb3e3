"""Calendar-indexed daily series plus differencing, integration and splitting.

A :class:`TimeSeries` is an evenly spaced daily sequence: slot ``i`` holds the
value for ``start_date + i`` days and ``NaN`` marks a missing day.  The
transforms in this module are the backbone of everything downstream, so they
are written to be exactly invertible: ``integrate(difference(x), spec,
dropped_initials(x, spec))`` reproduces ``x`` up to float rounding.  A
:class:`DifferenceSpec` lists the differencing passes once; ``difference``
and ``dropped_initials`` run them in one loop and ``integrate`` undoes them
in reverse.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError, SpecError

ONE_DAY = dt.timedelta(days=1)


@dataclass(frozen=True)
class TimeSeries:
    """Daily series of values; NaN marks a missing day.

    The value array is copied on construction and frozen, so instances can be
    shared freely between pipeline stages.
    """

    start_date: dt.date
    values: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.start_date, dt.date) or isinstance(self.start_date, dt.datetime):
            raise DataError("start_date must be a datetime.date")
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("series values must be a non-empty 1-d sequence")
        if np.isinf(arr).any():
            raise DataError("series values must be finite or NaN")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end_date(self) -> dt.date:
        return self.start_date + (len(self) - 1) * ONE_DAY

    def date_at(self, i: int) -> dt.date:
        if not -len(self) <= i < len(self):
            raise IndexError(f"slot {i} out of range for series of length {len(self)}")
        if i < 0:
            i += len(self)
        return self.start_date + i * ONE_DAY

    def dates(self) -> list[dt.date]:
        return [self.start_date + i * ONE_DAY for i in range(len(self))]

    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.values).sum())

    @property
    def is_complete(self) -> bool:
        return self.n_missing == 0

    def require_complete(self, what: str = "operation") -> np.ndarray:
        if not self.is_complete:
            raise DataError(f"{what} requires a gap-free series ({self.n_missing} missing values)")
        return self.values


@dataclass(frozen=True)
class DifferenceSpec:
    """Differencing orders: ``d`` regular passes and ``D`` seasonal passes at lag ``s``.

    The one statement of the operator (1-B)^d (1-B^s)^D: :attr:`lags` lists its
    passes in application order, and :func:`difference`, :func:`integrate`,
    forecasting and simulation all read them from here.
    """

    d: int = 0
    D: int = 0
    s: int = 1

    def __post_init__(self) -> None:
        for name in ("d", "D", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise SpecError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.d < 0 or self.d > 2:
            raise SpecError(f"regular differencing order d must be in 0..2, got {self.d}")
        if self.D < 0 or self.D > 1:
            raise SpecError(f"seasonal differencing order D must be 0 or 1, got {self.D}")
        if self.s < 1:
            raise SpecError(f"seasonal period s must be >= 1, got {self.s}")
        if self.D > 0 and self.s < 2:
            raise SpecError("seasonal differencing requires a period of at least 2")

    @property
    def lags(self) -> tuple[int, ...]:
        """Lag of each pass in application order: ``D`` passes at ``s``, then ``d`` at 1."""
        return (self.s,) * self.D + (1,) * self.d

    @property
    def n_dropped(self) -> int:
        """Observations consumed from the head of a series by one application."""
        return sum(self.lags)

    @property
    def polynomials(self) -> list[np.ndarray]:
        """Lag polynomial 1 - B^lag of each pass in application order, lag 0 first."""
        return [np.concatenate(([1.0], np.zeros(lag - 1), [-1.0])) for lag in self.lags]


def _passes(series: TimeSeries, spec: DifferenceSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """Apply the passes of ``spec``; returns the result and the head each pass dropped."""
    w = series.require_complete("differencing")
    if len(series) <= spec.n_dropped:
        raise InsufficientDataError(
            f"series of length {len(series)} is too short to difference with d={spec.d}, D={spec.D}, s={spec.s}"
        )
    heads = []
    for lag in spec.lags:
        heads.append(w[:lag])
        w = w[lag:] - w[:-lag]
    return w, heads


def difference(series: TimeSeries, spec: DifferenceSpec) -> TimeSeries:
    """Apply ``D`` seasonal passes at lag ``s`` and then ``d`` regular passes.

    The result starts ``d + D*s`` days after the input; the dropped leading
    values are recoverable via :func:`dropped_initials`.
    """
    w, _ = _passes(series, spec)
    return TimeSeries(series.start_date + spec.n_dropped * ONE_DAY, w)


def dropped_initials(series: TimeSeries, spec: DifferenceSpec) -> np.ndarray:
    """Leading values consumed by :func:`difference`, in the order dropped.

    Each pass drops the first ``lag`` values of its input (``s`` for a
    seasonal pass, one for a regular pass); :func:`integrate` consumes this
    array back to front.
    """
    _, heads = _passes(series, spec)
    return np.concatenate(heads or [np.zeros(0)])


def integrate(differenced: TimeSeries, spec: DifferenceSpec, initial_values: np.ndarray) -> TimeSeries:
    """Invert :func:`difference` given the dropped leading values.

    ``initial_values`` must hold exactly ``d + D*s`` entries as produced by
    :func:`dropped_initials`.  The passes are undone in reverse order; undoing
    one at lag ``l`` makes each residue class mod ``l`` a running sum from its
    dropped value.
    """
    init = np.asarray(initial_values, dtype=float)
    if init.ndim != 1 or init.size != spec.n_dropped:
        raise SpecError(
            f"integration with d={spec.d}, D={spec.D}, s={spec.s} needs {spec.n_dropped} initial values, got {init.size}"
        )
    if not np.isfinite(init).all():
        raise DataError("initial values for integration must be finite")
    w = differenced.require_complete("integration")
    idx = init.size
    for lag in reversed(spec.lags):
        idx -= lag
        out = np.empty(w.size + lag)
        for r0, head in enumerate(init[idx: idx + lag]):
            out[r0::lag] = np.concatenate(([head], head + np.cumsum(w[r0::lag])))
        w = out
    start = differenced.start_date - spec.n_dropped * ONE_DAY
    return TimeSeries(start, w)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split rule: last-``count`` days, fraction of length, or cut date."""

    mode: str
    value: object

    _MODES = ("count", "fraction", "date")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise SpecError(f"split mode must be one of {self._MODES}, got {self.mode!r}")
        if self.mode == "count":
            if not isinstance(self.value, (int, np.integer)) or isinstance(self.value, bool) or self.value < 1:
                raise SpecError("count split needs a positive integer number of test days")
            object.__setattr__(self, "value", int(self.value))
        elif self.mode == "fraction":
            f = self.value
            if not isinstance(f, (int, float, np.integer, np.floating)) or isinstance(f, bool) or not 0.0 < f < 1.0:
                raise SpecError(f"fraction split needs a number in (0, 1), got {f!r}")
            object.__setattr__(self, "value", float(f))
        elif not isinstance(self.value, dt.date) or isinstance(self.value, dt.datetime):
            raise SpecError("date split needs a datetime.date cut point")

    @classmethod
    def by_count(cls, n_test: int) -> "SplitSpec":
        return cls("count", n_test)

    @classmethod
    def by_fraction(cls, train_fraction: float) -> "SplitSpec":
        return cls("fraction", train_fraction)

    @classmethod
    def by_date(cls, last_train_date: dt.date) -> "SplitSpec":
        return cls("date", last_train_date)

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        """Parse the CLI form ``count:N``, ``frac:F`` or ``date:YYYY-MM-DD``."""
        kind, _, raw = text.partition(":") if isinstance(text, str) else ("", "", "")
        if not raw:
            raise SpecError(f"split must look like count:N, frac:F or date:YYYY-MM-DD, got {text!r}")
        try:
            if kind == "count":
                return cls.by_count(int(raw))
            if kind == "frac":
                return cls.by_fraction(float(raw))
            if kind == "date":
                return cls.by_date(dt.date.fromisoformat(raw))
        except (ValueError, SpecError) as exc:
            raise SpecError(f"bad split {text!r}: {exc}") from exc
        raise SpecError(f"unknown split kind {kind!r} (expected count, frac or date)")

    def describe(self) -> str:
        if self.mode == "count":
            return f"count:{self.value}"
        if self.mode == "fraction":
            return f"frac:{self.value:g}"
        return f"date:{self.value.isoformat()}"


def default_split() -> SplitSpec:
    """Hold out the final 365 days, the evaluation window used throughout."""
    return SplitSpec.by_count(365)


def split(series: TimeSeries, spec: SplitSpec) -> tuple[TimeSeries, TimeSeries]:
    """Chronological train/test split; both sides keep their true start dates."""
    n = len(series)
    if spec.mode == "count":
        n_train = n - spec.value
    elif spec.mode == "fraction":
        n_train = int(np.floor(n * spec.value))
    else:
        n_train = (spec.value - series.start_date).days + 1
    if n_train < 1 or n_train >= n:
        raise DataError(
            f"split {spec.describe()} is degenerate for a series of {n} days "
            f"(train would hold {n_train})"
        )
    train = TimeSeries(series.start_date, series.values[:n_train])
    test = TimeSeries(series.start_date + n_train * ONE_DAY, series.values[n_train:])
    return train, test
