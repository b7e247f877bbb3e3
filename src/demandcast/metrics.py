"""Forecast-accuracy metrics.

Train accuracy uses one-step-ahead in-sample predictions (actual minus the
one-step innovation), test accuracy uses a dynamic multi-step forecast over the
full holdout; keeping the two regimes explicit avoids quietly comparing
numbers that mean different things.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SpecError
from .estimation import SarimaFit, forecast
from .series import TimeSeries


def mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute percentage error: 100/n * sum |a - p| / |a|."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.ndim != 1 or a.shape != p.shape:
        raise SpecError(f"mape needs equal-length 1-d arrays, got {a.shape} and {p.shape}")
    if a.size == 0:
        raise SpecError("mape needs at least one point")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise DataError("mape inputs must be finite")
    if np.any(a == 0.0):
        raise DataError("mape is undefined when an actual value is zero")
    return float(100.0 * np.mean(np.abs(a - p) / np.abs(a)))


@dataclass(frozen=True)
class FitMetrics:
    """Accuracy of one model on one evaluation side."""

    mape: float
    n_points: int
    horizon_kind: str

    def __post_init__(self) -> None:
        if self.horizon_kind not in ("one-step", "dynamic"):
            raise SpecError(f"horizon_kind must be 'one-step' or 'dynamic', got {self.horizon_kind!r}")


def one_step_metrics(fit_result: SarimaFit, train: TimeSeries) -> FitMetrics:
    """In-sample one-step accuracy on the original scale.

    The innovation at each step is the one-step prediction error of the
    differenced series, and differencing is a known linear map of past
    values, so actual minus innovation is the one-step prediction of the
    original series.
    """
    if fit_result.residuals is None:
        raise SpecError("one-step metrics need a fit with stored residuals")
    skip = fit_result.spec.diff_spec.n_dropped
    actual = train.require_complete("one-step evaluation")[skip:]
    if actual.size != fit_result.residuals.size:
        raise SpecError(
            f"training series of length {len(train)} does not match the fit "
            f"({fit_result.residuals.size} residuals after dropping {skip})"
        )
    predicted = actual - fit_result.residuals
    return FitMetrics(mape=mape(actual, predicted), n_points=int(actual.size), horizon_kind="one-step")


def dynamic_metrics(fit_result: SarimaFit, train: TimeSeries, test: TimeSeries) -> FitMetrics:
    """Multi-step accuracy over the holdout, forecasting from the end of train."""
    fc = forecast(fit_result, train, horizon=len(test), max_horizon=len(test))
    return FitMetrics(
        mape=mape(test.require_complete("evaluation"), fc.point),
        n_points=len(test),
        horizon_kind="dynamic",
    )
