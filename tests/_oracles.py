"""Independent reference implementations used to check the library.

Everything here is computed by a different route than the package uses:
the joint Gaussian likelihood goes through an explicit Toeplitz covariance
and scipy's multivariate normal, conditional means through the same
covariance and a dense solve, the partial autocorrelations through a
direct solve of the Yule-Walker system, predictions through brute-force
recursion on the ARMA difference equation, the reference Kalman filter
through a Kronecker-product stationary covariance and a full covariance
update at every step, the AR(2) likelihood in closed form, and OLS
t-ratios and the ARMA likelihood in exact rational arithmetic.  The NumPy
Durbin-Levinson loop is kept as the bit-exact reference for the library's
plain-float one, the loop over lag windows for the long-autoregression
residuals, and a search on which SciPy differences the objective itself
for the fit's own gradient.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import linalg, optimize, signal, stats

# impulse-response length; inverse roots are capped at 0.98 so the tail
# is below 0.98**5000 ~ 1e-44 and truncation error is irrelevant
PSI_LENGTH = 6000
ROOT_MARGIN = 0.98


def max_inverse_root(poly_tail: np.ndarray) -> float:
    """Largest |root| of z^k + c1 z^(k-1) + ... + ck given the tail (c1..ck)."""
    tail = np.asarray(poly_tail, dtype=float)
    if tail.size == 0:
        return 0.0
    roots = np.roots(np.concatenate(([1.0], tail)))
    return float(np.max(np.abs(roots))) if roots.size else 0.0


def draw_arma_coeffs(rng: np.random.Generator, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample AR and MA coefficients with inverse roots below 0.98."""
    while True:
        ar = rng.uniform(-1.2, 1.2, size=p)
        if max_inverse_root(-ar) < ROOT_MARGIN:
            break
    while True:
        ma = rng.uniform(-1.2, 1.2, size=q)
        if max_inverse_root(ma) < ROOT_MARGIN:
            break
    return ar, ma


def psi_weights(ar: np.ndarray, ma: np.ndarray, length: int = PSI_LENGTH) -> np.ndarray:
    """MA-infinity weights from the transfer function (1 + ma) / (1 - ar)."""
    imp = np.zeros(length)
    imp[0] = 1.0
    num = np.concatenate(([1.0], np.asarray(ma, dtype=float)))
    den = np.concatenate(([1.0], -np.asarray(ar, dtype=float)))
    psi = signal.lfilter(num, den, imp)
    assert np.max(np.abs(psi[-50:])) < 1e-12, "impulse response not negligible at truncation"
    return psi


def pacf_to_coeffs_numpy(kappa: np.ndarray) -> np.ndarray:
    """AR coefficients from partial autocorrelations by the Durbin-Levinson loop on NumPy slices."""
    kappa = np.asarray(kappa, dtype=float)
    a = np.zeros(kappa.size)
    for j in range(kappa.size):
        kj = kappa[j]
        prev = a[:j].copy()
        a[:j] = prev - kj * prev[::-1]
        a[j] = kj
    return a


def arma_autocovariance(ar: np.ndarray, ma: np.ndarray, sigma2: float, nlags: int) -> np.ndarray:
    """gamma(0..nlags-1) of a stationary ARMA via the truncated MA-infinity sum."""
    psi = psi_weights(ar, ma)
    return np.array(
        [sigma2 * float(psi[: PSI_LENGTH - k] @ psi[k:]) for k in range(nlags)]
    )


def mvn_loglik(ar, ma, mean: float, sigma2: float, y: np.ndarray) -> float:
    """Exact Gaussian log-density of y under a stationary ARMA model."""
    y = np.asarray(y, dtype=float)
    gamma = arma_autocovariance(np.asarray(ar, float), np.asarray(ma, float), sigma2, y.size)
    cov = linalg.toeplitz(gamma)
    return float(stats.multivariate_normal(mean=np.full(y.size, mean), cov=cov).logpdf(y))


def conditional_mean(ar, ma, mean: float, sigma2: float, y: np.ndarray, horizon: int) -> np.ndarray:
    """E[y_{n+h} | y_1..y_n], h = 1..horizon, under a stationary Gaussian ARMA.

    The joint covariance of past and future is the explicit Toeplitz matrix
    of the autocovariances; the past block is solved by LU, not Cholesky.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    gamma = arma_autocovariance(np.asarray(ar, float), np.asarray(ma, float), sigma2, n + horizon)
    cov = linalg.toeplitz(gamma)
    weights = np.linalg.solve(cov[:n, :n], y - mean)
    return mean + cov[n:, :n] @ weights


def sample_acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelations at lags 1..max_lag with the 1/n covariance denominator."""
    x = np.asarray(x, dtype=float)
    xd = x - x.mean()
    denom = float(xd @ xd)
    return np.array([float(xd[:-k] @ xd[k:]) / denom for k in range(1, max_lag + 1)])


def pacf_by_toeplitz_solve(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Partial autocorrelations by solving each Yule-Walker system directly.

    The order-k regression of x_t on its first k lags, in the sample
    autocovariance metric, has normal equations Toeplitz(rho[0..k-1]) phi =
    rho[1..k]; the k-th partial autocorrelation is phi_k.
    """
    rho = sample_acf(x, max_lag)
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        row = np.concatenate(([1.0], rho[: k - 1]))
        phi = np.linalg.solve(linalg.toeplitz(row), rho[:k])
        out[k - 1] = phi[-1]
    return out


def ols_tstat(y: np.ndarray, x: np.ndarray, col: int) -> float:
    """t-ratio of one coefficient in an ordinary least-squares fit."""
    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    dof = y.size - x.shape[1]
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(x.T @ x)
    return float(beta[col] / np.sqrt(cov[col, col]))


def ols_tstat_exact(y: np.ndarray, x: np.ndarray, col: int) -> float:
    """t-ratio of one OLS coefficient from the normal equations in exact rationals.

    Every float input is converted to a ``Fraction`` without rounding, X'X is
    solved by Gauss-Jordan elimination in rationals, and only the final
    square root is taken in floating point.
    """
    X = [[Fraction(float(v)) for v in row] for row in np.asarray(x, dtype=float)]
    Y = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    k = len(X[0])
    xty = [sum(row[i] * yv for row, yv in zip(X, Y)) for i in range(k)]
    # the solution of [X'X | X'y | e_col] holds beta and column col of (X'X)^-1
    solution = _solve_exact([
        [sum(row[i] * row[j] for row in X) for j in range(k)] + [xty[i], Fraction(int(i == col))]
        for i in range(k)
    ])
    beta = [row[0] for row in solution]
    ssr = sum(v * v for v in Y) - sum(b * v for b, v in zip(beta, xty))
    t2 = beta[col] ** 2 * (len(Y) - k) / (ssr * solution[col][1])
    return math.copysign(math.sqrt(float(t2)), beta[col])


def _solve_exact(aug: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan elimination of a rational augmented matrix [A | B]; returns the rows of A^-1 B."""
    k = len(aug)
    aug = [row[:] for row in aug]
    for c in range(k):
        pivot = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [v / lead for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def mvn_loglik_exact(ar, ma, mean: float, sigma2: float, y: np.ndarray) -> float:
    """Exact Gaussian log-density of y under a stationary ARMA, in exact rationals.

    Every float input is converted to a ``Fraction`` without rounding.  The
    autocovariances gamma(0..p) solve the linear system
    gamma(k) - sum_i ar_i gamma(|k-i|) = sigma2 sum_{j>=k} ma_j psi_{j-k},
    later lags follow by the AR recursion, and the Durbin-Levinson recursion
    on the resulting Toeplitz covariance gives the one-step prediction errors
    and their variances.  Only the final logs are taken in floating point.
    """
    phi = [Fraction(float(v)) for v in np.asarray(ar, dtype=float)]
    theta = [Fraction(1)] + [Fraction(float(v)) for v in np.asarray(ma, dtype=float)]
    s2 = Fraction(float(sigma2))
    x = [Fraction(float(v)) - Fraction(float(mean)) for v in np.asarray(y, dtype=float)]
    p, q, n = len(phi), len(theta) - 1, len(x)
    psi = [Fraction(1)]
    for j in range(1, q + 1):
        psi.append(theta[j] + sum(phi[i - 1] * psi[j - i] for i in range(1, min(j, p) + 1)))
    rhs = [s2 * sum(theta[j] * psi[j - k] for j in range(k, q + 1)) for k in range(max(p, q, n) + 1)]
    aug = [[Fraction(int(k == m)) for m in range(p + 1)] + [rhs[k]] for k in range(p + 1)]
    for k in range(p + 1):
        for i in range(1, p + 1):
            aug[k][abs(k - i)] -= phi[i - 1]
    gamma = [row[0] for row in _solve_exact(aug)]
    for k in range(p + 1, n):
        gamma.append(sum(phi[i - 1] * gamma[k - i] for i in range(1, p + 1)) + rhs[k])
    # Durbin-Levinson: coeffs predict x_k from x_{k-1}, ..., x_0 with error variance v
    coeffs: list[Fraction] = []
    v = gamma[0]
    quad, logdet = x[0] * x[0] / v, math.log(v)
    for k in range(1, n):
        kappa = (gamma[k] - sum(c * gamma[k - 1 - j] for j, c in enumerate(coeffs))) / v
        coeffs = [c - kappa * r for c, r in zip(coeffs, reversed(coeffs))] + [kappa]
        v *= 1 - kappa * kappa
        err = x[k] - sum(c * x[k - 1 - j] for j, c in enumerate(coeffs))
        quad += err * err / v
        logdet += math.log(v)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + float(quad))


def kalman_loglik(ar, ma, mean: float, sigma2: float, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Textbook dense Kalman filter: (log-likelihood, innovation variances, innovations).

    Harvey's companion form with state dimension r = max(p, q + 1).  The
    initial covariance solves vec(P0) = (I - T kron T)^-1 vec(R R') directly,
    and every step updates the full r x r covariance: no rank-one
    recursion and no steady-state shortcut.
    """
    ar = np.asarray(ar, dtype=float)
    ma = np.asarray(ma, dtype=float)
    r = max(ar.size, ma.size + 1)
    T = np.zeros((r, r))
    T[: ar.size, 0] = ar
    T[:-1, 1:] = np.eye(r - 1)
    R = np.zeros(r)
    R[0] = 1.0
    R[1: ma.size + 1] = ma
    Q = sigma2 * np.outer(R, R)
    P = np.linalg.solve(np.eye(r * r) - np.kron(T, T), Q.ravel()).reshape(r, r)
    a = np.zeros(r)
    ll = 0.0
    fs = np.empty(len(y))
    vs = np.empty(len(y))
    for t, obs in enumerate(np.asarray(y, dtype=float) - mean):
        f = P[0, 0]
        v = obs - a[0]
        fs[t] = f
        vs[t] = v
        ll -= 0.5 * (np.log(2.0 * np.pi * f) + v * v / f)
        gain = P[:, 0] / f
        a = T @ (a + gain * v)
        P = T @ (P - np.outer(gain, P[0, :])) @ T.T + Q
    return float(ll), fs, vs


def ar2_loglik(ar, sigma2: float, y: np.ndarray) -> float:
    """Exact Gaussian log-likelihood of a zero-mean stationary AR(2), in closed form.

    The first two values are jointly normal with the stationary covariance;
    each later value is normal around its two-lag prediction.  Differences
    such as gamma0 - gamma1 are formed from the coefficients, not by
    subtraction, so the form stays accurate next to a double unit root.
    """
    a1, a2 = (float(c) for c in ar)
    y = np.asarray(y, dtype=float)
    g0 = sigma2 * (1.0 - a2) / ((1.0 + a2) * (1.0 - a2 - a1) * (1.0 - a2 + a1))
    g0_minus_g1 = g0 * (1.0 - a2 - a1) / (1.0 - a2)
    g0_plus_g1 = g0 * (1.0 - a2 + a1) / (1.0 - a2)
    x0, x1 = y[0], y[1]
    det = g0_minus_g1 * g0_plus_g1
    quad = (g0 * (x0 - x1) ** 2 + 2.0 * g0_minus_g1 * x0 * x1) / det
    head = -0.5 * (2.0 * np.log(2.0 * np.pi) + np.log(det) + quad)
    e = y[2:] - a1 * y[1:-1] - a2 * y[:-2]
    tail = -0.5 * (e.size * np.log(2.0 * np.pi * sigma2) + float(e @ e) / sigma2)
    return float(head + tail)


def long_ar_residuals_loop(wc: np.ndarray, a_long: np.ndarray) -> np.ndarray:
    """Long-autoregression residuals by one dot product per time step, zero before len(a_long)."""
    order, n = a_long.size, wc.size
    resid = np.zeros(n)
    for t in range(order, n):
        resid[t] = wc[t] - float(a_long @ wc[t - order: t][::-1])
    return resid


def search_with_scipy_differences(objective, z0: np.ndarray, grad_max_evals: int,
                                  nm_max_evals: int, nm_xatol: float) -> optimize.OptimizeResult:
    """One local search with L-BFGS-B differencing ``objective`` itself (no ``jac``).

    SciPy then computes the 2-point gradient with its absolute step and counts
    every difference pass towards ``maxfun``; a failed or non-finite search
    falls back to Nelder-Mead as the library's search does.
    """
    res = optimize.minimize(
        objective, z0, method="L-BFGS-B",
        options={"maxfun": grad_max_evals, "ftol": 1e-11, "gtol": 1e-7},
    )
    if res.success and np.isfinite(res.fun):
        return res
    nm = optimize.minimize(
        objective, res.x if np.isfinite(res.fun) else z0, method="Nelder-Mead",
        options={"xatol": nm_xatol, "fatol": 1e-10, "maxfev": nm_max_evals, "maxiter": nm_max_evals},
    )
    if np.isfinite(res.fun) and res.fun < nm.fun:
        return res
    return nm
