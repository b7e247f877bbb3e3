"""Maximum-likelihood SARIMA estimation through the exact Gaussian likelihood.

Model: multiplicative seasonal ARIMA (p,d,q)(P,D,Q,s).  The differenced
series is demeaned by the intercept (stored as the process mean) and the
seasonal and regular lag polynomials are expanded into a single ARMA.
Ansley's transform (Biometrika 1979) replaces every value from the p-th on
by its MA part, which makes the covariance banded; one banded Cholesky
factorisation of it gives the exact one-step innovations and their
variances, with no recursion over time, and the same factor extended past
the data gives the conditional-mean forecasts (Brockwell & Davis 1991,
5.3).  The innovation variance is profiled out in closed form so the
optimizer only searches the ARMA coefficients.

When the spec has no regular ARMA terms (p = q = 0, P + Q > 0), every lag
of the expanded polynomials is a multiple of the season s, and the model is
s independent ARMA(P,Q) processes, one on each subseries w[j::s].  The
likelihood then runs at stride g = s: the transformed series is laid out as
the s columns of a ceil(n/s)-row matrix, and one band covariance of the
compressed ARMA, of state dimension max(P, Q + 1) rather than
max(Ps, Qs + 1), is factored once and applies to every column.  Any other
spec runs at stride 1, which is the same computation on a one-column matrix.

The autocovariances of the first p values come from the stationary state
covariance, solved by the LAPACK calls of SciPy's bilinear Lyapunov method
(``dgees``, ``dtrsyl``) made directly, with the same arithmetic and without
SciPy's Python layers.  Each likelihood pass of :func:`fit` maps optimizer
coordinates straight to the expanded polynomials; only the final pass builds
and checks :class:`SarimaParams`.

Every lag-polynomial recursion a(B) y = b(B) x runs through
:func:`_lag_recursion`: the MA(infinity) weights of the band covariance and
of the forecast variance, the forecasts on the undifferenced scale, and
simulated paths.  It convolves b with x, then solves a(B) by the banded
triangular solve (``dtbtrs``) that also yields the innovations.

Optimization runs in an unconstrained space: each coefficient block is
parameterized by partial autocorrelations kappa = (1 - KAPPA_MARGIN) tanh(z).
A bare tanh saturates to exactly +-1 in floating point, which puts a root on
the unit circle; the margin keeps every visited point strictly stationary and
invertible, so a fitted model is always accepted by :func:`forecast` and
:func:`log_likelihood`.

L-BFGS-B takes the objective and its gradient from one function
(:func:`_value_and_gradient`), whose gradient is SciPy's own forward
difference with SciPy's step, computed without SciPy's per-evaluation
layers; the search visits the same points and returns the same result as
L-BFGS-B differencing the objective itself.  GRAD_MAX_EVALS still counts
likelihood passes, difference passes included.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy  # submodules load on first use, so importing the package skips them
from numpy.lib.stride_tricks import sliding_window_view

from .diagnostics import _pacf_values
from .errors import DataError, InsufficientDataError, NumericalError, SpecError
from .series import DifferenceSpec, TimeSeries, difference

# the likelihood is plain NumPy/SciPy; the flag stays because the benchmark's
# environment stamp (perfbench/run.py) still records it
HAVE_NUMBA = False

# expanded lag-polynomial degree cap; beyond this the band width makes the
# factorisation and the Lyapunov solve impractically slow
MAX_EXPANDED_ORDER = 70

FIT_FORMAT = "demandcast-fit"
FIT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SarimaSpec:
    """Model orders (p,d,q)(P,D,Q,s) plus the intercept switch.

    ``with_intercept=None`` resolves to the convention used throughout: fit a
    mean term only when the model does no differencing (d + D == 0).
    """

    p: int
    d: int
    q: int
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 1
    with_intercept: bool | None = None

    def __post_init__(self) -> None:
        for name in ("p", "d", "q", "P", "D", "Q", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise SpecError(f"order {name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if min(self.p, self.q, self.P, self.Q) < 0:
            raise SpecError(f"orders must be non-negative, got {self.label()}")
        self.diff_spec  # building the DifferenceSpec checks d, D and s
        if (self.P or self.Q) and self.s < 2:
            raise SpecError("seasonal terms need a seasonal period of at least 2")
        if self.ar_order > MAX_EXPANDED_ORDER or self.ma_order > MAX_EXPANDED_ORDER:
            raise SpecError(
                f"expanded order {max(self.ar_order, self.ma_order)} exceeds the "
                f"cap of {MAX_EXPANDED_ORDER}"
            )
        if self.with_intercept is None:
            object.__setattr__(self, "with_intercept", self.d + self.D == 0)

    @property
    def ar_order(self) -> int:
        return self.p + self.P * self.s

    @property
    def ma_order(self) -> int:
        return self.q + self.Q * self.s

    @property
    def state_dim(self) -> int:
        return max(self.ar_order, self.ma_order + 1)

    @property
    def k_params(self) -> int:
        """Coefficients plus intercept plus the innovation variance."""
        return self.p + self.q + self.P + self.Q + int(self.with_intercept) + 1

    @property
    def diff_spec(self) -> DifferenceSpec:
        return DifferenceSpec(d=self.d, D=self.D, s=self.s)

    @property
    def is_seasonal(self) -> bool:
        return self.s > 1 and (self.P > 0 or self.D > 0 or self.Q > 0)

    def label(self) -> str:
        base = f"({self.p},{self.d},{self.q})"
        if self.P or self.D or self.Q:
            return f"{base}({self.P},{self.D},{self.Q},{self.s})"
        return base

    @classmethod
    def parse(cls, text: str) -> "SarimaSpec":
        """Parse the CLI form ``p,d,q`` or ``p,d,q,P,D,Q,s``."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) not in (3, 7):
            raise SpecError(f"spec must have 3 or 7 comma-separated orders, got {text!r}")
        try:
            nums = [int(part) for part in parts]
        except ValueError as exc:
            raise SpecError(f"bad spec {text!r}: {exc}") from exc
        if len(nums) == 3:
            return cls(*nums)
        return cls(p=nums[0], d=nums[1], q=nums[2], P=nums[3], D=nums[4], Q=nums[5], s=nums[6])


@dataclass(frozen=True)
class SarimaParams:
    """Parameter values for a :class:`SarimaSpec`.

    ``mean`` is the process mean of the differenced series, not the
    regression-form intercept; use :attr:`intercept_for` to convert.
    """

    mean: float = 0.0
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    seasonal_ar: tuple[float, ...] = ()
    seasonal_ma: tuple[float, ...] = ()
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("ar", "ma", "seasonal_ar", "seasonal_ma"):
            vals = tuple(float(v) for v in getattr(self, name))
            if any(not np.isfinite(v) for v in vals):
                raise SpecError(f"{name} coefficients must be finite")
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not np.isfinite(self.mean):
            raise SpecError("mean must be finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise SpecError(f"sigma2 must be positive, got {self.sigma2}")

    def intercept_for(self, spec: SarimaSpec) -> float:
        """Regression-form intercept c = mean * (1 - sum of expanded AR coefficients)."""
        ar_rec, _ = expand_polynomials(spec, self)
        return self.mean * (1.0 - float(np.sum(ar_rec)))


def _check_dims(spec: SarimaSpec, params: SarimaParams) -> None:
    got = (len(params.ar), len(params.ma), len(params.seasonal_ar), len(params.seasonal_ma))
    want = (spec.p, spec.q, spec.P, spec.Q)
    if got != want:
        raise SpecError(
            f"parameter block sizes {got} do not match spec {spec.label()} orders {want}"
        )


def _lag_product(regular: np.ndarray, seasonal: np.ndarray, s: int) -> np.ndarray:
    """Coefficients after lag 0 of (1 + sum_i regular_i B^i)(1 + sum_j seasonal_j B^(j s)).

    With one factor empty the product is the other factor; ``+ 0.0`` turns
    -0.0 into 0.0 as the convolution does, so both routes give the same bits.
    """
    if not seasonal.size:
        return regular + 0.0
    seasonal_poly = np.zeros(seasonal.size * s + 1)
    seasonal_poly[0] = 1.0
    seasonal_poly[s::s] = seasonal
    if not regular.size:
        return seasonal_poly[1:] + 0.0
    return np.convolve(np.concatenate(([1.0], regular)), seasonal_poly)[1:]


def expand_polynomials(spec: SarimaSpec, params: SarimaParams) -> tuple[np.ndarray, np.ndarray]:
    """Multiply regular and seasonal lag polynomials into recursion form.

    Returns (ar, ma) where the model is
    ``w_t = sum_i ar[i-1] w_{t-i} + e_t + sum_j ma[j-1] e_{t-j}``.
    """
    _check_dims(spec, params)
    ar, ma, seasonal_ar, seasonal_ma = (
        np.asarray(block, dtype=float) for block in (params.ar, params.ma, params.seasonal_ar, params.seasonal_ma)
    )
    return -_lag_product(-ar, -seasonal_ar, spec.s), _lag_product(ma, seasonal_ma, spec.s)


# ---------------------------------------------------------------------------
# partial-autocorrelation reparameterization


def pacf_to_coeffs(kappa: np.ndarray) -> np.ndarray:
    """Map partial autocorrelations in (-1,1) to stationary AR coefficients."""
    # plain floats: the blocks are short, and NumPy's per-step overhead
    # would dominate each Durbin-Levinson step
    a: list[float] = []
    for k in np.asarray(kappa, dtype=float).tolist():
        a = [x - k * y for x, y in zip(a, reversed(a))] + [k]
    return np.array(a, dtype=float)


def coeffs_to_pacf(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pacf_to_coeffs`; fails if the block is not stationary."""
    a = np.asarray(coeffs, dtype=float).copy()
    m = a.size
    kappa = np.zeros(m)
    for j in range(m - 1, -1, -1):
        kj = a[j]
        if not np.isfinite(kj) or abs(kj) >= 1.0:
            raise NumericalError("coefficient block is outside the stationary region")
        kappa[j] = kj
        prev = a[:j]
        a = (prev + kj * prev[::-1]) / (1.0 - kj * kj)
    return kappa


# optimizer coordinates z map to partial autocorrelations KAPPA_SCALE * tanh(z):
# tanh saturates to exactly +-1 in floating point, and the scale keeps
# |kappa| <= 1 - KAPPA_MARGIN there, so a fitted root stays strictly off the
# unit circle
KAPPA_MARGIN = 1e-6
KAPPA_SCALE = 1.0 - KAPPA_MARGIN


def _z_blocks(z: np.ndarray, spec: SarimaSpec) -> list[np.ndarray]:
    """Lag-polynomial coefficients c of each block at optimizer coordinates z.

    Blocks are ordered ar, ma, seasonal_ar, seasonal_ma, and each polynomial
    is 1 + sum_i c_i B^i, so an AR block is the negated recursion form.
    """
    blocks = []
    pos = 0
    for size in (spec.p, spec.q, spec.P, spec.Q):
        blocks.append(-pacf_to_coeffs(KAPPA_SCALE * np.tanh(z[pos: pos + size])) if size else np.zeros(0))
        pos += size
    return blocks


def _z_to_polynomials(z: np.ndarray, spec: SarimaSpec) -> tuple[np.ndarray, np.ndarray]:
    """``expand_polynomials(spec, _z_to_params(z, spec))`` without building or checking parameters."""
    ar, ma, seasonal_ar, seasonal_ma = _z_blocks(z, spec)
    return -_lag_product(ar, seasonal_ar, spec.s), _lag_product(ma, seasonal_ma, spec.s)


def _z_to_params(z: np.ndarray, spec: SarimaSpec) -> SarimaParams:
    """Coefficients at optimizer coordinates z, with zero mean and unit innovation variance."""
    ar, ma, seasonal_ar, seasonal_ma = _z_blocks(z, spec)
    return SarimaParams(ar=tuple(-ar), ma=tuple(ma), seasonal_ar=tuple(-seasonal_ar), seasonal_ma=tuple(seasonal_ma))


def _block_admissible(coeffs: tuple[float, ...], is_ma: bool) -> bool:
    """Schur-Cohn test of one coefficient block, in recursion form.

    The lag polynomial has every root strictly outside the unit circle
    exactly when each partial autocorrelation of its step-down recursion
    (:func:`coeffs_to_pacf`) lies in (-1, 1).  The roots of the expanded
    polynomial are those of its regular and seasonal factors (a factor in
    x = B^s has its roots outside the unit circle exactly when its roots in
    x are), so each block is tested on its own; unlike a root finder, the
    test stays exact for clustered near-unit roots.
    """
    c = np.asarray(coeffs, dtype=float)
    try:
        coeffs_to_pacf(-c if is_ma else c)
    except NumericalError:
        return False
    return True


def is_stationary(spec: SarimaSpec, params: SarimaParams) -> bool:
    _check_dims(spec, params)
    return _block_admissible(params.ar, is_ma=False) and _block_admissible(params.seasonal_ar, is_ma=False)


def is_invertible(spec: SarimaSpec, params: SarimaParams) -> bool:
    _check_dims(spec, params)
    return _block_admissible(params.ma, is_ma=True) and _block_admissible(params.seasonal_ma, is_ma=True)


def _admissible_polynomials(spec: SarimaSpec, params: SarimaParams) -> tuple[np.ndarray, np.ndarray]:
    """Expanded (ar, ma) of a stationary, invertible model; SpecError otherwise."""
    if not is_stationary(spec, params):
        raise SpecError(f"autoregressive polynomial of {spec.label()} is not stationary")
    if not is_invertible(spec, params):
        raise SpecError(f"moving-average polynomial of {spec.label()} is not invertible")
    return expand_polynomials(spec, params)


# ---------------------------------------------------------------------------
# exact innovations by Ansley's transform


def _companion_matrix(tcol: np.ndarray) -> np.ndarray:
    r = tcol.size
    T = np.zeros((r, r))
    T[:, 0] = tcol
    if r > 1:
        T[np.arange(r - 1), np.arange(1, r)] = 1.0
    return T


def _state_space(ar_rec: np.ndarray, ma_rec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = max(len(ar_rec), len(ma_rec) + 1)
    tcol = np.zeros(r)
    tcol[: len(ar_rec)] = ar_rec
    rvec = np.zeros(r)
    rvec[0] = 1.0
    rvec[1: len(ma_rec) + 1] = ma_rec
    return tcol, rvec


# refinement passes of the stationary covariance, until its residual is below
# LYAPUNOV_RTOL * max|P0|: the autocovariances of the first p values are read
# from P0, so a residual acts as an error in the shock covariance (a seasonal
# AR root at -0.99999 left the log-likelihood 2.6e-9 relative off without
# refinement)
LYAPUNOV_RTOL = 1e-14
LYAPUNOV_REFINEMENTS = 3


def _no_sort(wr: float, wi: float) -> None:
    """Eigenvalue selector for ``dgees``, which leaves the Schur form unsorted."""


@functools.lru_cache(maxsize=None)
def _dgees_lwork(r: int) -> int:
    """SciPy's optimal ``dgees`` workspace query at dimension r; LAPACK works it
    out from r alone, so it is asked once per dimension."""
    return int(scipy.linalg.lapack.dgees(_no_sort, np.zeros((r, r)), lwork=-1)[-2][0])


def _stationary_state_cov(tcol: np.ndarray, rvec: np.ndarray) -> np.ndarray:
    """Solve P = T P T' + R R' for the stationary initial state covariance.

    Each pass does the arithmetic of ``scipy.linalg.solve_discrete_lyapunov``
    with ``method="bilinear"``, in its order, without its Python layers: the
    transform B = (T' - I)(T' + I)^-1 turns X = T X T' + Q into the
    continuous equation B'X + XB = -2 (T + I)^-1 Q (T' + I)^-1, which the
    real Schur form of B' (``dgees``) and ``dtrsyl`` solve (Bartels-Stewart).
    B and its Schur form depend on T only, so the passes share them.

    The bilinear solver stays fast at large state dimensions but loses
    digits when T has an eigenvalue near -1; each refinement pass solves for
    the correction that cancels the current residual, for at most
    LYAPUNOV_REFINEMENTS passes.
    """
    lapack = scipy.linalg.lapack
    r = tcol.size
    T = _companion_matrix(tcol)
    Q = rvec[:, None] * rvec
    eye = np.eye(r)
    try:
        # one stacked call; each inverse is the same LAPACK solve as alone
        tt_inv, t_inv = np.linalg.inv(np.stack((T.T + eye, T + eye)))
    except np.linalg.LinAlgError as exc:  # T has an eigenvalue -1
        raise NumericalError(f"stationary covariance solve failed: {exc}") from exc
    b = np.dot(T.T - eye, tt_inv)
    if not np.isfinite(b).all():
        raise NumericalError("stationary covariance solve failed: the bilinear transform is not finite")
    s, _, _, _, u, _, info = lapack.dgees(_no_sort, b.T, lwork=_dgees_lwork(r))
    if info != 0:
        raise NumericalError(f"stationary covariance solve failed: no Schur form (LAPACK dgees info {info})")
    P0 = np.zeros_like(Q)
    residual = Q
    for _ in range(LYAPUNOV_REFINEMENTS + 1):
        c = 2 * np.dot(np.dot(t_inv, residual), tt_inv)
        if not np.isfinite(c).all():
            raise NumericalError("stationary covariance solve failed: non-finite right-hand side")
        y, scale, info = lapack.dtrsyl(s, s, u.T.dot((-c).dot(u)), tranb="T")
        if info < 0:
            raise NumericalError(f"stationary covariance solve failed: LAPACK dtrsyl info {info}")
        if info == 1:
            warnings.warn(
                'Input "a" has an eigenvalue pair whose sum is very close to or exactly zero. '
                "The solution is obtained via perturbing the coefficients.",
                RuntimeWarning, stacklevel=2,
            )
        y *= scale
        step = u.dot(y).dot(u.T)
        P0 = P0 + (step + step.T) / 2.0
        if not np.isfinite(P0).all():
            raise NumericalError("stationary covariance solve returned non-finite values")
        residual = T @ P0 @ T.T + Q - P0
        if np.abs(residual).max() <= LYAPUNOV_RTOL * (1.0 + np.abs(P0).max()):
            break
    return P0


def _band_covariance(ar_rec: np.ndarray, ma_rec: np.ndarray, rows: int) -> np.ndarray:
    """Covariance of Ansley's transform of the ARMA, in LAPACK lower band storage.

    With p = len(ar_rec) and q = len(ma_rec), z_t = w_t for t < p and
    z_t = w_t - sum_i ar_i w_{t-i}, the MA part, after; unit innovation
    variance.  (Ansley 1979 starts the MA part at max(p, q); any start from p
    on gives the same innovations, and starting at p needs no stationary
    covariance for a pure MA.)  Entry (t, s), s <= t, is gamma(t - s) when
    t < p, g_{t-s} = sum_{j >= t-s} theta_j psi_{j-t+s} when s < p <= t, and
    the MA autocovariance c_{t-s} when p <= s; all vanish beyond
    r - 1 = max(p - 1, q) sub-diagonals.  Row k of the result holds
    sub-diagonal k: ``ab[k, s] = Cov(z_{s+k}, z_s)``.
    """
    p, q = ar_rec.size, ma_rec.size
    tcol, rvec = _state_space(ar_rec, ma_rec)
    kd = tcol.size - 1
    theta = np.concatenate(([1.0], ma_rec))
    ab = np.zeros((kd + 1, rows), order="F")
    ab[: q + 1] = np.convolve(theta, theta[::-1])[q:, None]
    if p:
        # gamma(k) = (T^k P0)[0, 0] from the refined stationary covariance: a
        # Yule-Walker solve for gamma loses digits next to a double unit root
        gamma = np.zeros(kd + 1)
        x = np.zeros(kd + 2)  # trailing zero: x[1:] is the companion shift of x[:-1]
        x[:-1] = _stationary_state_cov(tcol, rvec)[:, 0]
        for k in range(p):
            gamma[k] = x[0]
            x[:-1] = x[1:] + tcol * x[0]
        g = np.zeros(kd + 1)
        if q:
            psi = _lag_recursion(theta, np.concatenate(([1.0], -ar_rec)), np.eye(1, q + 1)[0])
            g[: q + 1] = np.convolve(theta, psi[::-1])[q:]
        else:
            g[0] = 1.0  # theta = psi = (1,)
        both_below_p = np.arange(kd + 1)[:, None] + np.arange(p) < p
        ab[:, :p] = np.where(both_below_p, gamma[:, None], g[:, None])
    return ab


def _lag_recursion(b: np.ndarray, a: np.ndarray, x: np.ndarray, past: np.ndarray | None = None) -> np.ndarray:
    """y with a(B) y = b(B) x over the span of x, lag-0 coefficients first and a[0] = 1.

    ``past`` holds values of y before x, oldest first; its last len(a) - 1
    start the recursion, which otherwise starts from zeros.  b(B) x is a
    convolution, and a(B) over the span of x is a unit lower-triangular band
    Toeplitz matrix, solved by ``dtbtrs`` as in :func:`_whiten`.
    """
    n, m = x.size, a.size - 1
    rhs = np.convolve(b, x)[:n]
    if past is not None and m:
        # a_i y_{t-i} with t - i < 0 moves to the right-hand side
        rhs[:m] -= np.convolve(a, past[past.size - m:])[m: m + n]
    kd = min(m, n - 1)
    ab = np.empty((kd + 1, n), order="F")
    ab[:] = a[: kd + 1, None]
    y, info = scipy.linalg.lapack.dtbtrs(ab, rhs, uplo="L")
    if info != 0:
        raise NumericalError(f"lag-polynomial recursion failed (LAPACK dtbtrs info {info})")
    return y


def _stride(spec: SarimaSpec) -> int:
    """Spacing g of every lag of the expanded polynomials: s for a pure seasonal ARMA, else 1."""
    return spec.s if spec.p == spec.q == 0 and spec.P + spec.Q > 0 else 1


def _whiten(w: np.ndarray, ar_rec: np.ndarray, ma_rec: np.ndarray, stride: int, extra: int = 0):
    """Band Cholesky factor C of the covariance of one column of z, and U with C U = z.

    z is Ansley's transform of w (see :func:`_band_covariance`), laid out with
    z_t at (row, column) = divmod(t, stride).  Every lag of ar_rec and ma_rec
    is a multiple of ``stride``, so the columns are independent ARMAs with
    the coefficients ar_rec[stride-1::stride] and ma_rec[stride-1::stride],
    and one factor C over ceil((len(w) + extra) / stride) rows serves them
    all.  U solves the rows that hold data; a shorter column's zero-padded
    last row comes after its data, so it cannot change them.  The rows of C
    beyond the data carry the covariance of z there, for forecasting.
    """
    n, p = w.size, ar_rec.size
    if p:
        z = np.convolve(w, np.concatenate(([1.0], -ar_rec)))[:n]
        z[:p] = w[:p]
    else:
        z = w + 0.0  # the convolution with (1,), -0.0 included
    rows = -(-n // stride)
    if rows * stride == n:
        zm = z
    else:
        zm = np.zeros(rows * stride)
        zm[:n] = z
    ab = _band_covariance(ar_rec[stride - 1:: stride], ma_rec[stride - 1:: stride], -(-(n + extra) // stride))
    c, info = scipy.linalg.lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise NumericalError(f"covariance of the series is not positive definite (LAPACK info {info})")
    u, info = scipy.linalg.lapack.dtbtrs(c[:, :rows], zm.reshape(rows, stride), uplo="L")
    if info != 0 or not np.isfinite(u).all():
        raise NumericalError("triangular solve for the innovations failed")
    return c, u


def _innovations(w: np.ndarray, ar_rec: np.ndarray, ma_rec: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step innovations v and their variances f at unit innovation variance, in time order.

    z differs from w by a combination of past values only, so the one-step
    prediction errors of z are those of w: v = U * diag(C), f = diag(C)^2,
    row by row in every column (see :func:`_whiten`).
    """
    c, u = _whiten(w, ar_rec, ma_rec, stride)
    d = c[0, :, None]
    return (u * d).ravel()[: w.size], np.repeat(d * d, stride)[: w.size]


def _concentrated_loglik(v: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Profile out sigma2; returns (loglik at the profiled variance, sigma2 hat)."""
    n = v.size
    ssq = float((v * v / f).sum())
    if ssq <= 0.0 or not np.isfinite(ssq):
        raise NumericalError("degenerate innovation sum in likelihood")
    sigma2 = ssq / n
    ll = -0.5 * n * (math.log(2.0 * math.pi) + 1.0 + math.log(sigma2)) - 0.5 * float(np.log(f).sum())
    return ll, sigma2


def _prepare(series: TimeSeries, spec: SarimaSpec) -> np.ndarray:
    """Difference per the spec and enforce the minimum-length precondition."""
    series.require_complete("estimation")
    w = difference(series, spec.diff_spec).values if spec.d or spec.D else series.values
    if w.size <= max(spec.ar_order, spec.ma_order) + 1:
        raise InsufficientDataError(
            f"only {w.size} observations remain after differencing; "
            f"spec {spec.label()} needs more than {max(spec.ar_order, spec.ma_order) + 1}"
        )
    return w


def log_likelihood(spec: SarimaSpec, params: SarimaParams, series: TimeSeries) -> float:
    """Exact Gaussian log-likelihood of the differenced, demeaned series."""
    _check_dims(spec, params)
    w = _prepare(series, spec)
    ar_rec, ma_rec = _admissible_polynomials(spec, params)
    wc = w - params.mean
    v, f = _innovations(wc, ar_rec, ma_rec, _stride(spec))
    s2 = params.sigma2
    n = v.size
    return float(
        -0.5 * (n * math.log(2.0 * math.pi * s2) + np.sum(np.log(f)) + np.sum(v * v / f) / s2)
    )


@dataclass(frozen=True)
class SarimaFit:
    """A fitted model: spec, parameter estimates and fit diagnostics.

    ``residuals`` holds the one-step innovations on the differenced scale and
    is ``None`` for fits reloaded from disk.
    """

    spec: SarimaSpec
    params: SarimaParams
    loglik: float
    aic: float
    bic: float
    n_obs: int
    converged: bool
    residuals: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.residuals is not None:
            arr = np.array(self.residuals, dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, "residuals", arr)


@dataclass(frozen=True)
class Forecast:
    """Point forecasts with variance and a symmetric 95% interval."""

    start_date: dt.date
    point: np.ndarray
    variance: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray

    def __post_init__(self) -> None:
        for name in ("point", "variance", "lower95", "upper95"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return int(self.point.size)

    def dates(self) -> list[dt.date]:
        return [self.start_date + dt.timedelta(days=i) for i in range(self.horizon)]


# ---------------------------------------------------------------------------
# starting values


def _shrink_into_region(coeffs: np.ndarray, is_ma: bool) -> np.ndarray | None:
    """Scale roots outward (coeff_i *= lam^i) until the block is admissible.

    Returns the partial autocorrelations of the scaled block, each inside
    (-0.98, 0.98), or None when no scaling admits it.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.isfinite(coeffs).all():
        return None
    for lam in (1.0, 0.97, 0.93, 0.85, 0.7, 0.5, 0.25):
        scaled = coeffs * lam ** np.arange(1, coeffs.size + 1)
        try:
            kappa = coeffs_to_pacf(-scaled if is_ma else scaled)
        except NumericalError:
            continue
        if np.all(np.abs(kappa) < 0.98):
            return kappa
    return None


def _long_ar_residuals(wc: np.ndarray, a_long: np.ndarray) -> np.ndarray:
    """resid[t] = wc[t] - sum_i a_long[i] wc[t-1-i] from t = len(a_long) on, zero before.

    One product of the reversed lag windows with a_long.  The windows are
    not BLAS-strided, so NumPy sums each row in lag order, as a loop of
    one-dimensional dot products over the same windows does.
    """
    order = a_long.size
    resid = np.zeros(wc.size)
    resid[order:] = wc[order:] - sliding_window_view(wc, order)[:-1, ::-1] @ a_long
    return resid


def _hannan_rissanen_start(wc: np.ndarray, spec: SarimaSpec) -> np.ndarray:
    """Regression-based start coordinates z0 (see :func:`_z_to_params`); zeros if any step fails."""
    zeros = np.zeros(spec.p + spec.q + spec.P + spec.Q)
    ar_lags = list(range(1, spec.p + 1)) + [spec.s * i for i in range(1, spec.P + 1)]
    ma_lags = list(range(1, spec.q + 1)) + [spec.s * i for i in range(1, spec.Q + 1)]
    n = wc.size
    max_lag = max(ar_lags + ma_lags)
    resid = None
    t_start = max_lag
    if ma_lags:
        long_order = min(max(10, 2 * max_lag), n // 4)
        if long_order < 1 or n - long_order < 20:
            return zeros
        try:
            _, a_long = _pacf_values(wc, long_order)
        except (DataError, NumericalError):
            return zeros
        resid = _long_ar_residuals(wc, a_long)
        t_start = max(max_lag, long_order + max(ma_lags))
    if n - t_start < 10 + len(ar_lags) + len(ma_lags):
        return zeros
    cols = [wc[t_start - lag: n - lag] for lag in ar_lags]
    cols += [resid[t_start - lag: n - lag] for lag in ma_lags]
    X = np.column_stack(cols)
    y = wc[t_start:]
    try:
        beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    except np.linalg.LinAlgError:
        return zeros
    if rank < X.shape[1] or not np.isfinite(beta).all():
        return zeros
    # beta holds ar, seasonal_ar, ma, seasonal_ma; z orders the blocks as _z_to_params reads them
    p, P, q = spec.p, spec.P, spec.q
    zs = []
    for coeffs, is_ma in (
        (beta[:p], False), (beta[p + P: p + P + q], True), (beta[p: p + P], False), (beta[p + P + q:], True)
    ):
        kappa = _shrink_into_region(coeffs, is_ma)
        if kappa is None:
            return zeros
        zs.append(np.arctanh(kappa / KAPPA_SCALE))
    return np.concatenate(zs)


# ---------------------------------------------------------------------------
# fitting


NM_MAX_EVALS = 5000
NM_XATOL = 1e-8
MAX_RESTARTS = 2
RESTART_MIN_GAIN = 1e-4
# likelihood passes one L-BFGS-B search may spend, gradient differences included
GRAD_MAX_EVALS = 3000
# SciPy's absolute finite-difference step for L-BFGS-B (its ``eps`` default)
_DIFF_STEP = 1e-8


def _profile_objective(wc: np.ndarray, spec: SarimaSpec, stride: int):
    """Negative concentrated log-likelihood at optimizer coordinates z, inf where the pass fails."""

    def objective(z: np.ndarray) -> float:
        # L-BFGS-B has proposed NaN coordinates on near-integrated series
        if not np.isfinite(z).all():
            return np.inf
        try:
            v, f = _innovations(wc, *_z_to_polynomials(z, spec), stride)
            ll, _ = _concentrated_loglik(v, f)
        except (NumericalError, FloatingPointError):
            return np.inf
        return -ll if np.isfinite(ll) else np.inf

    return objective


def _value_and_gradient(objective, z: np.ndarray) -> tuple[float, np.ndarray]:
    """objective(z) and its forward-difference gradient, as SciPy's L-BFGS-B differences it.

    Coordinate i steps by _DIFF_STEP, or by SciPy's fallback
    sqrt(eps) * sign(z_i) * max(1, |z_i|) where z_i + _DIFF_STEP rounds back
    to z_i, and the difference is divided by the step as represented,
    (z_i + h_i) - z_i.  The arithmetic and its order are SciPy's, so the
    gradient has the same bits as the one L-BFGS-B computes without ``jac``.
    """
    f0 = objective(z)
    h = np.where((z + _DIFF_STEP) - z == 0,
                 np.finfo(float).eps ** 0.5 * np.where(z >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(z)),
                 _DIFF_STEP)
    values = np.empty(z.size)
    for i in range(z.size):
        x = z.copy()
        x[i] = z[i] + h[i]
        values[i] = objective(x)
    return f0, (values - f0) / ((z + h) - z)


def _minimize_once(objective, z0: np.ndarray) -> "scipy.optimize.OptimizeResult":
    """One local search: gradient-based first, simplex fallback.

    L-BFGS-B on the unconstrained coordinates converges in a few hundred
    evaluations where Nelder-Mead needs thousands; the simplex run remains
    as a fallback for the rare starts where finite-difference gradients hit
    an inadmissible (infinite) likelihood region and the line search aborts.

    L-BFGS-B takes the objective and its gradient from one call
    (:func:`_value_and_gradient`), so it visits the points, and returns the
    result, that it would reach by differencing the objective itself.  Each
    of its evaluations costs dim + 1 likelihood passes, so its cap is
    GRAD_MAX_EVALS // (dim + 1): GRAD_MAX_EVALS still counts passes, and the
    search stops at the same iterate as a cap of GRAD_MAX_EVALS on SciPy's
    own count, which includes the difference passes.
    """
    res = scipy.optimize.minimize(
        lambda z: _value_and_gradient(objective, z), z0, method="L-BFGS-B", jac=True,
        options={"maxfun": GRAD_MAX_EVALS // (z0.size + 1), "ftol": 1e-11, "gtol": 1e-7},
    )
    if res.success and np.isfinite(res.fun):
        return res
    fallback_start = res.x if np.isfinite(res.fun) else z0
    nm = scipy.optimize.minimize(
        objective, fallback_start, method="Nelder-Mead",
        options={"xatol": NM_XATOL, "fatol": 1e-10, "maxfev": NM_MAX_EVALS, "maxiter": NM_MAX_EVALS},
    )
    if np.isfinite(res.fun) and res.fun < nm.fun:
        return res
    return nm


def fit(spec: SarimaSpec, series: TimeSeries, seed: int = 0) -> SarimaFit:
    """Maximize the exact likelihood over stationary, invertible parameters.

    The search starts from regression-based coefficients and runs a
    gradient-based local optimizer (with a simplex fallback); seeded
    perturbation restarts continue only while they keep improving the
    optimum.  The innovation variance is profiled out, so the search space
    holds only the lag coefficients.  The gradient is SciPy's forward
    difference of the likelihood, computed here so that one call returns
    both (:func:`_minimize_once`).
    """
    w = _prepare(series, spec)
    n = w.size
    if float(np.ptp(w)) == 0.0:
        raise NumericalError(f"cannot fit {spec.label()} to a constant series")
    if n < 10 * spec.k_params:
        warnings.warn(
            f"fitting {spec.label()} with only {n} observations for "
            f"{spec.k_params} parameters; estimates may be unstable",
            stacklevel=2,
        )
    mu = float(w.mean()) if spec.with_intercept else 0.0
    wc = w - mu
    dim = spec.p + spec.q + spec.P + spec.Q
    stride = _stride(spec)
    objective = _profile_objective(wc, spec, stride)

    if dim == 0:
        z_best = np.empty(0)
        converged = True
    else:
        z0 = _hannan_rissanen_start(wc, spec)
        if not np.isfinite(objective(z0)):
            z0 = np.zeros(dim)
        rng = np.random.default_rng(seed)
        best = _minimize_once(objective, z0)
        for _ in range(MAX_RESTARTS):
            z_try = best.x + rng.normal(0.0, 0.2, size=dim)
            res = _minimize_once(objective, z_try)
            improved = res.fun < best.fun - RESTART_MIN_GAIN
            if res.fun < best.fun:
                best = res
            if not improved:
                break
        if not np.isfinite(best.fun):
            raise NumericalError(f"no admissible parameter point found for {spec.label()}")
        z_best = best.x
        converged = bool(best.success)

    params = _z_to_params(z_best, spec)
    v, f = _innovations(wc, *_admissible_polynomials(spec, params), stride)
    loglik, sigma2 = _concentrated_loglik(v, f)
    params = replace(params, mean=mu, sigma2=sigma2)
    k = spec.k_params
    return SarimaFit(
        spec=spec,
        params=params,
        loglik=loglik,
        aic=2.0 * k - 2.0 * loglik,
        bic=k * math.log(n) - 2.0 * loglik,
        n_obs=n,
        converged=converged,
        residuals=v,
    )


# ---------------------------------------------------------------------------
# forecasting and simulation


def _integrated_ar(ar_rec: np.ndarray, diff: DifferenceSpec) -> np.ndarray:
    """Lag polynomial phi(B)(1-B)^d(1-B^s)^D of the undifferenced series, lag 0 first."""
    poly = np.append(1.0, -ar_rec)
    for factor in reversed(diff.polynomials):
        poly = np.convolve(poly, factor)
    return poly


def default_horizon_cap(spec: SarimaSpec) -> int:
    return max(3 * spec.s, 365)


def forecast(
    fit_result: SarimaFit,
    series: TimeSeries,
    horizon: int,
    max_horizon: int | None = None,
) -> Forecast:
    """Dynamic forecasts from the end of ``series`` under the fitted model.

    ``series`` should be the training series or an extension of it; the
    factorisation is redone, so any gap-free continuation is accepted.  Interval
    width comes from the MA-infinity representation, hence it is
    non-decreasing in the horizon.
    """
    spec, params = fit_result.spec, fit_result.params
    cap = default_horizon_cap(spec) if max_horizon is None else int(max_horizon)
    if not isinstance(horizon, (int, np.integer)) or isinstance(horizon, bool) or horizon < 1:
        raise SpecError(f"horizon must be a positive integer, got {horizon!r}")
    if horizon > cap:
        raise SpecError(f"horizon {horizon} exceeds the cap of {cap}")
    w = _prepare(series, spec)
    wc = w - params.mean
    ar_rec, ma_rec = _admissible_polynomials(spec, params)
    g = _stride(spec)
    n, q = wc.size, ma_rec.size
    ahead = min(horizon, q)
    c, u = _whiten(wc, ar_rec, ma_rec, g, extra=ahead)
    # E[z_{n+h} | w] = sum_{s<n} C[n+h, s] u_s (Brockwell & Davis 1991, 5.3),
    # summed down the column of n+h in the strided layout of _whiten;
    # C[s+k, s] = c[k, s] vanishes for k > q/g, so z_hat is zero from h = q on
    row, col = np.divmod(n + np.arange(ahead)[:, None], g)
    k = np.arange(1, q // g + 1)
    s = np.minimum(row - k, u.shape[0] - 1)
    z_hat = np.zeros(horizon)
    z_hat[:ahead] = np.where((row - k) * g + col < n, c[k, s] * u[s, col], 0.0).sum(axis=1)
    # a(B) y_t = z_t + phi(1) mean with a(B) = phi(B)(1-B)^d(1-B^s)^D, so each
    # y_{n+h} follows by recursion from the last len(a) - 1 values of the series
    a = _integrated_ar(ar_rec, spec.diff_spec)
    points = _lag_recursion(np.ones(1), a, z_hat + (1.0 - ar_rec.sum()) * params.mean, past=series.values)
    psi = _lag_recursion(np.append(1.0, ma_rec), a, np.eye(1, horizon)[0])
    variance = params.sigma2 * np.cumsum(psi * psi)
    half = 1.96 * np.sqrt(variance)
    start = series.end_date + dt.timedelta(days=1)
    return Forecast(
        start_date=start,
        point=points,
        variance=variance,
        lower95=points - half,
        upper95=points + half,
    )


def simulate(
    spec: SarimaSpec,
    params: SarimaParams,
    n: int,
    seed: int,
    start_date: dt.date = dt.date(2000, 1, 1),
) -> TimeSeries:
    """Draw a Gaussian sample path of length ``n`` from the model.

    The ARMA core is simulated with a burn-in of at least ten state
    dimensions, the mean is added, then the passes of ``spec.diff_spec`` are
    undone in reverse order, 1-B then 1-B^s, from zero initial values.
    """
    _check_dims(spec, params)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise SpecError(f"sample length must be a positive integer, got {n!r}")
    ar_rec, ma_rec = _admissible_polynomials(spec, params)
    r = spec.state_dim
    burn = 10 * r + 100
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(params.sigma2), size=n + burn)
    path = _lag_recursion(np.append(1.0, ma_rec), np.append(1.0, -ar_rec), eps)[burn:]
    path = path + params.mean
    for factor in reversed(spec.diff_spec.polynomials):
        path = _lag_recursion(np.ones(1), factor, path)
    return TimeSeries(start_date, path)


# ---------------------------------------------------------------------------
# serialization


def save_fit(fit_result: SarimaFit, path: str | Path, metadata: dict[str, str] | None = None) -> None:
    """Write a fit as versioned key=value text with full-precision floats."""
    spec, params = fit_result.spec, fit_result.params
    lines = [
        f"format={FIT_FORMAT}/{FIT_FORMAT_VERSION}",
        f"spec={spec.p},{spec.d},{spec.q},{spec.P},{spec.D},{spec.Q},{spec.s}",
        f"with_intercept={'true' if spec.with_intercept else 'false'}",
        f"mean={params.mean:.17g}",
    ]
    for name in ("ar", "ma", "seasonal_ar", "seasonal_ma"):
        for i, value in enumerate(getattr(params, name), start=1):
            lines.append(f"{name}.{i}={value:.17g}")
    lines += [
        f"sigma2={params.sigma2:.17g}",
        f"loglik={fit_result.loglik:.17g}",
        f"aic={fit_result.aic:.17g}",
        f"bic={fit_result.bic:.17g}",
        f"n_obs={fit_result.n_obs}",
        f"converged={'true' if fit_result.converged else 'false'}",
    ]
    for key, value in (metadata or {}).items():
        if "=" in key or any(s != s.strip() or len(s.splitlines()) > 1 for s in (key, str(value))):
            raise SpecError(f"metadata key/value must be single-line and unpadded, got {key!r}: {value!r}")
        lines.append(f"meta.{key}={value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_fit(path: str | Path) -> tuple[SarimaFit, dict[str, str]]:
    """Read a fit written by :func:`save_fit`; returns (fit, metadata)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"fit file not found: {path}")
    pairs: dict[str, str] = {}
    metadata: dict[str, str] = {}
    coeffs: dict[str, dict[int, float]] = {"ar": {}, "ma": {}, "seasonal_ar": {}, "seasonal_ma": {}}
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in seen:
            raise DataError(f"{path}:{lineno}: repeated key {key!r}")
        seen.add(key)
        if key.startswith("meta."):
            metadata[key[5:]] = value
            continue
        base, dot, idx = key.partition(".")
        if dot and base in coeffs:
            try:
                coeffs[base][int(idx)] = float(value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad coefficient line: {exc}") from exc
            continue
        pairs[key] = value

    def boolean(key: str) -> bool:
        if pairs[key] not in ("true", "false"):
            raise DataError(f"fit file {path}: {key} must be true or false, got {pairs[key]!r}")
        return pairs[key] == "true"

    try:
        fmt, _, version = pairs["format"].partition("/")
        if fmt != FIT_FORMAT or int(version) > FIT_FORMAT_VERSION:
            raise DataError(f"unsupported fit format {pairs['format']!r}")
        order = [int(v) for v in pairs["spec"].split(",")]
        spec = SarimaSpec(
            p=order[0], d=order[1], q=order[2], P=order[3], D=order[4], Q=order[5], s=order[6],
            with_intercept=boolean("with_intercept"),
        )
        blocks = {}
        for name, want in (("ar", spec.p), ("ma", spec.q), ("seasonal_ar", spec.P), ("seasonal_ma", spec.Q)):
            got = coeffs[name]
            if sorted(got) != list(range(1, want + 1)):
                raise DataError(f"fit file has {len(got)} {name} coefficients, spec wants {want}")
            blocks[name] = tuple(got[i] for i in range(1, want + 1))
        params = SarimaParams(
            mean=float(pairs["mean"]),
            ar=blocks["ar"],
            ma=blocks["ma"],
            seasonal_ar=blocks["seasonal_ar"],
            seasonal_ma=blocks["seasonal_ma"],
            sigma2=float(pairs["sigma2"]),
        )
        # the one admissibility rule of fit and forecast; its SpecError is a
        # ValueError, so a model they would refuse is a malformed file here
        _admissible_polynomials(spec, params)
        n_obs = int(pairs["n_obs"])
        if n_obs < 0:
            raise DataError(f"fit file {path}: n_obs must be >= 0, got {n_obs}")
        fit_result = SarimaFit(
            spec=spec,
            params=params,
            loglik=float(pairs["loglik"]),
            aic=float(pairs["aic"]),
            bic=float(pairs["bic"]),
            n_obs=n_obs,
            converged=boolean("converged"),
            residuals=None,
        )
    except KeyError as exc:
        raise DataError(f"fit file {path} is missing required key {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise DataError(f"fit file {path} is malformed: {exc}") from exc
    return fit_result, metadata
