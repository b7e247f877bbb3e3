"""Stationarity and correlation diagnostics.

Covers the augmented Dickey-Fuller unit-root test with AIC lag selection,
autocorrelation and partial-autocorrelation estimates with confidence bands,
and a differencing-order recommendation; both the unit-root profile and the
recommendation draw their ADF tests from one lazy loop over orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _adfdata
from .errors import DataError, InsufficientDataError, NumericalError, SpecError
from .series import DifferenceSpec, TimeSeries, difference

P_CLAMP = 1e-8

REGRESSIONS = ("n", "c", "ct")


@dataclass(frozen=True)
class AdfResult:
    """Outcome of one augmented Dickey-Fuller test.

    ``statistic`` is the t-ratio on the lagged level; small (very negative)
    values reject the unit-root null.  ``p_value_clamped`` is set when the
    response surface under- or overflowed and the p-value was pinned to the
    [1e-8, 1 - 1e-8] range.
    """

    statistic: float
    p_value: float
    used_lags: int
    n_effective: int
    regression: str
    p_value_clamped: bool = False


@dataclass(frozen=True)
class CorrelogramResult:
    """ACF or PACF values for lags 1..L with a flat 1.96/sqrt(n) band."""

    kind: str
    values: np.ndarray
    band: float

    def __post_init__(self) -> None:
        if self.kind not in ("acf", "pacf"):
            raise SpecError(f"kind must be 'acf' or 'pacf', got {self.kind!r}")
        arr = np.array(self.values, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def max_lag(self) -> int:
        return int(self.values.size)

    def value_at(self, lag: int) -> float:
        if not 1 <= lag <= self.max_lag:
            raise IndexError(f"lag {lag} outside 1..{self.max_lag}")
        return float(self.values[lag - 1])


def _normal_cdf(x: float) -> float:
    """Standard normal CDF: erf near zero and erfc in the tails, the split of SciPy's normal CDF."""
    t = x * math.sqrt(0.5)
    if abs(t) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(t)
    tail = 0.5 * math.erfc(abs(t))
    return 1.0 - tail if t > 0 else tail


def _mackinnon_pvalue(stat: float, regression: str) -> tuple[float, bool]:
    """Approximate p-value for the tau statistic; clamped outside the surface."""
    if stat <= _adfdata.TAU_MIN[regression]:
        return P_CLAMP, True
    if stat >= _adfdata.TAU_MAX[regression]:
        return 1.0 - P_CLAMP, True
    if stat <= _adfdata.TAU_STAR[regression]:
        coeffs = _adfdata.SMALL_P[regression]
    else:
        coeffs = _adfdata.LARGE_P[regression]
    p = _normal_cdf(float(np.polyval(coeffs[::-1], stat)))
    if p < P_CLAMP:
        return P_CLAMP, True
    if p > 1.0 - P_CLAMP:
        return 1.0 - P_CLAMP, True
    return p, False


def _adf_design(x: np.ndarray, lag: int, regression: str) -> np.ndarray:
    """Augmented matrix [deterministics, x_{t-1}, dx_{t-1..t-lag}, dx_t] of the test regression.

    The last column is the response.  Any lag order k <= ``lag`` keeps the
    sample and uses the regressor prefix of ``ntrend + 1 + k`` columns.
    """
    dx = np.diff(x)
    m = dx.size - lag
    cols = []
    if regression in ("c", "ct"):
        cols.append(np.ones(m))
    if regression == "ct":
        cols.append(np.arange(1.0, m + 1.0))
    cols.append(x[lag: x.size - 1])
    for j in range(1, lag + 1):
        cols.append(dx[lag - j: dx.size - j])
    cols.append(dx[lag:])
    return np.vstack(cols).T  # column-major, as LAPACK's QR takes it without a copy


def _r_factor(A: np.ndarray) -> np.ndarray:
    """R of the QR factorisation of an augmented matrix with full-rank regressors.

    Rank is judged on diag(R) with the cut-off ``lstsq`` applies for
    ``rcond=None``: eps * max(rows, columns) relative to the largest entry.
    """
    R = np.linalg.qr(A, mode="r")
    diag = np.abs(np.diag(R)[:-1])
    if not diag.min() > np.finfo(float).eps * max(A.shape) * diag.max():
        raise NumericalError("singular regression matrix in unit-root test")
    return R


def default_max_lag(n: int) -> int:
    """Schwert rule: floor(12 * (n/100)^0.25)."""
    return int(np.floor(12.0 * (n / 100.0) ** 0.25))


def adf_test(series: TimeSeries, regression: str = "c", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller test with AIC lag selection over 0..max_lag.

    Candidate lags are compared on a common sample trimmed at ``max_lag``;
    the winning lag is then refit on its own full sample, which sets
    ``n_effective = n - used_lags - 1``.
    """
    if regression not in REGRESSIONS:
        raise SpecError(f"regression must be one of {REGRESSIONS}, got {regression!r}")
    x = series.require_complete("the unit-root test")
    n = x.size
    if n < 20:
        raise InsufficientDataError(f"unit-root test needs at least 20 observations, got {n}")
    if float(np.ptp(x)) == 0.0:
        raise DataError("unit-root test is undefined for a constant series")
    ntrend = {"n": 0, "c": 1, "ct": 2}[regression]
    if max_lag is None:
        max_lag = default_max_lag(n)
    if max_lag < 0:
        raise SpecError(f"max_lag must be non-negative, got {max_lag}")
    hard_cap = (n - 1) // 2 - ntrend - 2
    max_lag = min(max_lag, max(hard_cap, 0))

    # lag choice: same trimmed sample for every candidate, AIC on the Gaussian
    # log-likelihood of the residuals; one QR gives every candidate's SSR as
    # the squared tail of the response column of R
    A = _adf_design(x, max_lag, regression)
    m = A.shape[0]
    if m <= max_lag + ntrend + 2:
        raise InsufficientDataError("series too short for the requested lag order")
    tail_ssr = np.cumsum(_r_factor(A)[::-1, -1] ** 2)[::-1]
    ncols = ntrend + 1 + np.arange(max_lag + 1)
    llf = -m / 2.0 * (np.log(2.0 * np.pi) + np.log(tail_ssr[ncols] / m) + 1.0)
    best_lag = int(np.argmin(-2.0 * llf + 2.0 * ncols))

    # the chosen lag refit on its own sample, which the check above leaves at
    # least two residual degrees of freedom; row ntrend of R^-1 gives the
    # x_{t-1} coefficient and its variance factor, (X'X)^-1 = R^-1 R^-T
    A = _adf_design(x, best_lag, regression)
    R = _r_factor(A)
    k = A.shape[1] - 1
    row = np.linalg.solve(R[:k, :k].T, np.eye(k)[ntrend])
    se = float(np.sqrt(R[k, k] ** 2 / (A.shape[0] - k) * (row @ row)))
    if se == 0.0 or not np.isfinite(se):
        raise NumericalError("degenerate standard error in unit-root test")
    stat = float(row @ R[:k, k]) / se
    p, clamped = _mackinnon_pvalue(stat, regression)
    return AdfResult(
        statistic=stat,
        p_value=p,
        used_lags=best_lag,
        n_effective=A.shape[0],
        regression=regression,
        p_value_clamped=clamped,
    )


def _acf_values(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations of ``x`` for lags 1..max_lag with the 1/n denominator."""
    xd = x - x.mean()
    denom = float(xd @ xd)
    if denom == 0.0:
        raise DataError("autocorrelation is undefined for a constant series")
    vals = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        vals[k - 1] = float(xd[:-k] @ xd[k:]) / denom
    return vals


def _pacf_values(x: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Partial autocorrelations of ``x`` for lags 1..max_lag and the AR(max_lag) coefficients.

    Both come from one Durbin-Levinson pass on the sample ACF of ``x``.
    """
    rho = _acf_values(x, max_lag)
    pac = np.empty(max_lag)
    a = np.zeros(max_lag)
    v = 1.0
    for k in range(1, max_lag + 1):
        if k == 1:
            kappa = rho[0]
        else:
            num = rho[k - 1] - a[: k - 1] @ rho[: k - 1][::-1]
            kappa = num / v
        v *= 1.0 - kappa * kappa
        if not np.isfinite(kappa) or v <= 0.0:
            raise NumericalError(
                f"Durbin-Levinson recursion broke down at lag {k}: "
                "autocorrelation sequence is not positive definite"
            )
        a[: k - 1] = a[: k - 1] - kappa * a[: k - 1][::-1]
        a[k - 1] = kappa
        pac[k - 1] = kappa
    return pac, a


def acf(series: TimeSeries, max_lag: int) -> CorrelogramResult:
    """Sample autocorrelations for lags 1..max_lag with the 1/n denominator.

    The biased normalisation keeps |value| <= 1 at every lag.
    """
    x = series.require_complete("autocorrelation")
    n = x.size
    if not 1 <= max_lag < n:
        raise SpecError(f"max_lag must be in 1..{n - 1}, got {max_lag}")
    return CorrelogramResult(kind="acf", values=_acf_values(x, max_lag), band=1.96 / np.sqrt(n))


def pacf(series: TimeSeries, max_lag: int) -> CorrelogramResult:
    """Partial autocorrelations via the Durbin-Levinson recursion on the sample ACF."""
    n = len(series)
    if not 1 <= max_lag <= n // 2:
        raise SpecError(f"max_lag must be in 1..n/2 = {n // 2}, got {max_lag}")
    x = series.require_complete("autocorrelation")
    return CorrelogramResult(kind="pacf", values=_pacf_values(x, max_lag)[0], band=1.96 / np.sqrt(n))


def _unit_root_tests(series: TimeSeries, max_d: int = 2, regression: str = "c"):
    """Lazily yield (d, the series differenced d times, its ADF result) for d = 0..max_d."""
    for d in range(max_d + 1):
        w = series if d == 0 else difference(series, DifferenceSpec(d=d))
        yield d, w, adf_test(w, regression=regression)


def unit_root_profile(
    series: TimeSeries, max_d: int = 2, regression: str = "c"
) -> list[tuple[int, AdfResult]]:
    """ADF results for the series differenced 0..max_d times."""
    return [(d, result) for d, _, result in _unit_root_tests(series, max_d, regression)]


OVERDIFFERENCE_P = 1e-6
_ALPHA = 0.05


def overdifferencing_risk(result: AdfResult) -> bool:
    """Whether an ADF result on a differenced series signals over-differencing.

    A p-value this far below any sensible significance level says the series
    was already stationary before the last difference was taken; differencing
    again only inflates the moving-average side of the model.
    """
    return result.p_value < OVERDIFFERENCE_P


def _recommended_order(series: TimeSeries, tests, alpha: float = _ALPHA) -> int:
    """First order in ``tests`` (from :func:`_unit_root_tests`) rejecting at ``alpha``; draws no further."""
    if len(series) < 50:
        raise InsufficientDataError(
            f"differencing recommendation needs at least 50 observations, got {len(series)}"
        )
    if not 0 < alpha < 1:
        raise SpecError(f"alpha must be in (0, 1), got {alpha}")
    for d, w, result in tests:
        if result.p_value < alpha:
            lag1 = acf(w, 1).values[0]
            if lag1 < -0.5:
                warnings.warn(
                    f"d={d} rejects the unit root but lag-1 autocorrelation is "
                    f"{lag1:.3f}; the series may be over-differenced",
                    stacklevel=3,
                )
            return d
    raise InsufficientDataError(
        "no differencing order up to 2 achieves stationarity at the "
        f"{alpha:g} level; the series resists unit-root modelling"
    )


def recommend_differencing(series: TimeSeries, s: int = 7, alpha: float = _ALPHA) -> DifferenceSpec:
    """Smallest d in 0..2 whose ADF test rejects the unit root at ``alpha``.

    Only regular differencing is recommended; the seasonal period is carried
    through for downstream use.  When the chosen order looks over-differenced
    (lag-1 autocorrelation below -0.5) a warning is issued rather than an
    error, since the recommendation is still the smallest admissible order.
    """
    return DifferenceSpec(d=_recommended_order(series, _unit_root_tests(series), alpha), D=0, s=s)
