import datetime as dt
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import FIXTURE_CSV, START, make_series
from demandcast import (
    DataError,
    InsufficientDataError,
    NumericalError,
    SarimaParams,
    SarimaSpec,
    SpecError,
    TimeSeries,
    expand_polynomials,
    fit,
    forecast,
    load_fit,
    log_likelihood,
    save_fit,
    simulate,
)
from demandcast import estimation
from demandcast.estimation import (
    KAPPA_SCALE,
    LYAPUNOV_REFINEMENTS,
    LYAPUNOV_RTOL,
    MAX_EXPANDED_ORDER,
    _companion_matrix,
    _innovations,
    _integrated_ar,
    _lag_product,
    _lag_recursion,
    _state_space,
    _stationary_state_cov,
    _stride,
    _z_to_params,
    _z_to_polynomials,
    coeffs_to_pacf,
    default_horizon_cap,
    is_invertible,
    is_stationary,
    pacf_to_coeffs,
)
from demandcast.selection import fixed_grid
from demandcast.series import difference

MA_UNIT_ROOT_CSV = FIXTURE_CSV.parent / "ma_unit_root_train.csv"


class TestSarimaSpec:
    def test_parse_three_and_seven_part_forms(self):
        assert SarimaSpec.parse("1,1,2") == SarimaSpec(1, 1, 2)
        assert SarimaSpec.parse("0,0,0,6,1,3,7") == SarimaSpec(0, 0, 0, P=6, D=1, Q=3, s=7)

    @pytest.mark.parametrize("text", ["1,1", "1,1,1,1", "a,0,0", "1,0,0,1,0,1", ""])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(SpecError):
            SarimaSpec.parse(text)

    def test_label_round_trips_through_parse(self):
        spec = SarimaSpec(2, 1, 1, P=1, D=1, Q=2, s=12)
        assert spec.label() == "(2,1,1)(1,1,2,12)"
        assert SarimaSpec.parse("2,1,1,1,1,2,12") == spec

    def test_intercept_defaults_to_stationary_case(self):
        assert SarimaSpec(1, 0, 1).with_intercept is True
        assert SarimaSpec(1, 1, 1).with_intercept is False
        assert SarimaSpec(0, 0, 0, P=0, D=1, Q=1, s=7).with_intercept is False
        assert SarimaSpec(1, 1, 0, with_intercept=True).with_intercept is True

    def test_parameter_count(self):
        # coefficients + innovation variance + intercept when present
        assert SarimaSpec(0, 0, 0).k_params == 2
        assert SarimaSpec(1, 1, 1).k_params == 3
        assert SarimaSpec(1, 0, 1, P=1, D=0, Q=1, s=7).k_params == 6

    def test_state_dimension(self):
        # r = max(p + P*s, q + Q*s + 1)
        assert SarimaSpec(1, 0, 0).state_dim == 1
        assert SarimaSpec(0, 0, 1).state_dim == 2
        assert SarimaSpec(0, 0, 0, P=6, D=1, Q=3, s=7).state_dim == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=-1, d=0, q=0),
            dict(p=0, d=3, q=0),
            dict(p=0, d=0, q=0, D=2, s=7),
            dict(p=0, d=0, q=0, P=1, s=1),
            dict(p=0, d=0, q=0, s=0),
            dict(p=0, d=0, q=0, P=11, s=7),
        ],
    )
    def test_rejects_bad_orders(self, kwargs):
        with pytest.raises(SpecError):
            SarimaSpec(**kwargs)

    def test_expanded_order_cap_value(self):
        assert SarimaSpec(0, 0, 0, P=10, s=7).ar_order == MAX_EXPANDED_ORDER


class TestSarimaParams:
    def test_rejects_bad_sigma2(self):
        with pytest.raises(SpecError):
            SarimaParams(sigma2=0.0)
        with pytest.raises(SpecError):
            SarimaParams(sigma2=-1.0)

    def test_intercept_conversion(self):
        spec = SarimaSpec(1, 0, 0)
        params = SarimaParams(mean=10.0, ar=(0.5,))
        assert params.intercept_for(spec) == pytest.approx(5.0)


class TestExpandPolynomials:
    def test_seasonal_product_lands_on_cross_lags(self):
        spec = SarimaSpec(1, 0, 0, P=1, D=0, Q=0, s=7)
        params = SarimaParams(ar=(0.5,), seasonal_ar=(0.3,))
        ar_rec, ma_rec = expand_polynomials(spec, params)
        want = np.zeros(8)
        want[0], want[6], want[7] = 0.5, 0.3, -0.15
        np.testing.assert_allclose(ar_rec, want, atol=1e-15)
        assert ma_rec.size == 0

    def test_ma_product_keeps_positive_convention(self):
        spec = SarimaSpec(0, 0, 1, P=0, D=0, Q=1, s=4)
        params = SarimaParams(ma=(0.4,), seasonal_ma=(0.2,))
        _, ma_rec = expand_polynomials(spec, params)
        want = np.zeros(5)
        want[0], want[3], want[4] = 0.4, 0.2, 0.08
        np.testing.assert_allclose(ma_rec, want, atol=1e-15)

    def test_plain_arma_passes_through(self):
        spec = SarimaSpec(2, 0, 1)
        params = SarimaParams(ar=(0.5, -0.2), ma=(0.3,))
        ar_rec, ma_rec = expand_polynomials(spec, params)
        np.testing.assert_allclose(ar_rec, [0.5, -0.2])
        np.testing.assert_allclose(ma_rec, [0.3])

    @pytest.mark.parametrize("s", [1, 7])
    def test_product_with_an_empty_factor_equals_the_convolution(self, s):
        # the short cut must keep the convolution's bits, -0.0 turned into 0.0 included
        factor = np.array([0.5, -0.0, -1e-300, 0.0, 0.3])
        empty = np.empty(0)
        seasonal_poly = np.zeros(factor.size * s + 1)
        seasonal_poly[0], seasonal_poly[s::s] = 1.0, factor
        for got, want in (
            (_lag_product(factor, empty, s), np.convolve(np.concatenate(([1.0], factor)), [1.0])[1:]),
            (_lag_product(empty, factor, s), np.convolve([1.0], seasonal_poly)[1:]),
        ):
            assert got.tobytes() == want.tobytes()
        assert _lag_product(empty, empty, s).size == 0

    @given(
        orders=st.one_of(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0), st.just(0), st.just(1)),
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.just(7)),
        ),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=200)
    def test_objective_path_is_bit_equal_to_validated_path(self, orders, data):
        # the objective skips SarimaParams; it must still build the same
        # polynomials, bit for bit, including z = +-20, where kappa sits on
        # the KAPPA_SCALE bound
        p, q, P, Q, s = orders
        spec = SarimaSpec(p, 0, q, P=P, Q=Q, s=s)
        coordinate = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([-20.0, 20.0]))
        z = np.array(data.draw(st.lists(coordinate, min_size=p + q + P + Q, max_size=p + q + P + Q)), dtype=float)
        got = _z_to_polynomials(z, spec)
        want = expand_polynomials(spec, _z_to_params(z, spec))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestPacfTransform:
    @given(
        kappa=st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=5),
    )
    @settings(deadline=None, max_examples=100)
    def test_round_trip(self, kappa):
        k = np.asarray(kappa)
        coeffs = pacf_to_coeffs(k)
        np.testing.assert_allclose(coeffs_to_pacf(coeffs), k, atol=1e-10)

    @given(kappa=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=100)
    def test_image_is_always_stationary(self, kappa):
        coeffs = pacf_to_coeffs(np.asarray(kappa))
        assert _oracles.max_inverse_root(-coeffs) < 1.0 + 1e-9

    def test_order_one_is_identity(self):
        np.testing.assert_allclose(pacf_to_coeffs(np.array([0.7])), [0.7])

    @pytest.mark.parametrize("size", [*range(8), 40, 84])
    def test_equals_numpy_recursion(self, size):
        # the plain-float loop does the NumPy loop's arithmetic in its order
        rng = np.random.default_rng(size)
        for _ in range(100):
            kappa = KAPPA_SCALE * rng.uniform(-1.0, 1.0, size)
            got, want = pacf_to_coeffs(kappa), _oracles.pacf_to_coeffs_numpy(kappa)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


ROLLING_SPEC = SarimaSpec(0, 0, 0, P=6, D=1, Q=3, s=7)
ROLLING_PARAMS = SarimaParams(
    seasonal_ar=(-1.045, -0.8467, -0.598752, -0.34358, -0.152, -0.05),
    seasonal_ma=(-0.335, 0.1165, -0.05),
    sigma2=3.0,
)
NEVER_STEADY_R2 = (SarimaSpec(0, 0, 1), SarimaParams(mean=1.0, ma=(-0.99999,), sigma2=2.0))
NEVER_STEADY_R8 = (
    SarimaSpec(0, 0, 0, P=1, Q=1, s=7),
    SarimaParams(mean=-3.0, seasonal_ar=(0.5,), seasonal_ma=(-0.9999,), sigma2=0.5),
)


def _filter_output(spec, params, series, stride):
    """Innovations and their variances from the library's likelihood kernel at ``stride``."""
    w = difference(series, spec.diff_spec).values if spec.diff_spec.n_dropped else series.values
    ar_rec, ma_rec = expand_polynomials(spec, params)
    v, f = _innovations(w - params.mean, ar_rec, ma_rec, stride)
    return w, v, f


def _oracle_case(spec, params, n):
    return spec, params, simulate(spec, params, n=n, seed=41)


class TestLogLikelihood:
    def test_white_noise_closed_form(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=40)
        spec = SarimaSpec(0, 0, 0, with_intercept=True)
        params = SarimaParams(mean=0.3, sigma2=1.7)
        got = log_likelihood(spec, params, make_series(y))
        want = -0.5 * y.size * math.log(2 * math.pi * 1.7) - float(
            np.sum((y - 0.3) ** 2)
        ) / (2 * 1.7)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize(
        "spec,params,series",
        [
            *(
                (
                    SarimaSpec(len(ar), 0, len(ma), with_intercept=True),
                    SarimaParams(mean=0.5, ar=ar, ma=ma, sigma2=1.3),
                    make_series(np.random.default_rng(22).normal(size=10) * 2.0),
                )
                for ar, ma in [((0.6,), ()), ((), (0.5,)), ((0.4, 0.25), (-0.3, 0.1))]
            ),
            _oracle_case(SarimaSpec(1, 0, 0), SarimaParams(mean=2.0, ar=(0.6,), sigma2=1.5), 60),
            _oracle_case(SarimaSpec(0, 0, 1), SarimaParams(ma=(-0.99999,), sigma2=0.7), 60),
            _oracle_case(*NEVER_STEADY_R8, 150),
            _oracle_case(ROLLING_SPEC, ROLLING_PARAMS, 150),
        ],
        ids=["ar1", "ma1", "arma22", "r1", "near-unit-ma", "never-steady-r8", "rolling-r42"],
    )
    def test_matches_joint_gaussian_oracle(self, spec, params, series):
        w, _, _ = _filter_output(spec, params, series, _stride(spec))
        ar_rec, ma_rec = expand_polynomials(spec, params)
        want = _oracles.mvn_loglik(ar_rec, ma_rec, params.mean, params.sigma2, w)
        assert log_likelihood(spec, params, series) == pytest.approx(want, abs=1e-8)

    def test_invariant_to_date_relabeling(self):
        y = np.random.default_rng(23).normal(size=30)
        spec = SarimaSpec(1, 0, 0)
        params = SarimaParams(ar=(0.4,))
        a = log_likelihood(spec, params, TimeSeries(dt.date(2001, 5, 5), y))
        b = log_likelihood(spec, params, TimeSeries(dt.date(2019, 1, 1), y))
        assert a == b

    def test_differencing_reduces_to_white_noise(self):
        rng = np.random.default_rng(24)
        eps = rng.normal(size=50)
        walk = make_series(np.cumsum(eps))
        spec = SarimaSpec(0, 1, 0)
        params = SarimaParams(sigma2=1.2)
        got = log_likelihood(spec, params, walk)
        want = log_likelihood(
            SarimaSpec(0, 0, 0, with_intercept=False), params, make_series(eps[1:])
        )
        assert got == pytest.approx(want, abs=1e-10)

    def test_nonstationary_params_rejected(self):
        series = make_series(np.random.default_rng(25).normal(size=30))
        with pytest.raises(SpecError, match="stationar"):
            log_likelihood(SarimaSpec(1, 0, 0), SarimaParams(ar=(1.01,)), series)

    def test_noninvertible_params_rejected(self):
        series = make_series(np.random.default_rng(26).normal(size=30))
        with pytest.raises(SpecError, match="invertib"):
            log_likelihood(SarimaSpec(0, 0, 1), SarimaParams(ma=(1.2,)), series)

    def test_gapped_series_rejected(self):
        y = np.array([1.0, np.nan, 2.0, 1.5, 0.5] * 10)
        with pytest.raises(DataError):
            log_likelihood(SarimaSpec(0, 0, 0), SarimaParams(), make_series(y))

    def test_too_short_after_differencing(self):
        with pytest.raises(InsufficientDataError):
            log_likelihood(
                SarimaSpec(1, 2, 0), SarimaParams(ar=(0.5,)), make_series([1.0, 2.0, 3.0, 4.0])
            )


class TestFilterKernel:
    # each pure seasonal case runs at the spec's stride and at stride 1
    @pytest.mark.parametrize(
        "case, stride", [(NEVER_STEADY_R2, 1), (NEVER_STEADY_R8, 7), (NEVER_STEADY_R8, 1)],
        ids=["r2", "r8", "r8-stride1"],
    )
    def test_long_never_steady_run_matches_dense_filter(self, case, stride):
        spec, params = case
        series = simulate(spec, params, n=3713, seed=42)
        w, _, f = _filter_output(spec, params, series, stride)
        # the innovation variance still moves in the last two weeks: a filter
        # with a steady-state shortcut would never switch here
        assert np.ptp(f[-14:]) > 0
        ar_rec, ma_rec = expand_polynomials(spec, params)
        want, f_dense, _ = _oracles.kalman_loglik(ar_rec, ma_rec, params.mean, params.sigma2, w)
        np.testing.assert_allclose(f * params.sigma2, f_dense, rtol=1e-10)
        assert log_likelihood(spec, params, series) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("phi", [-0.9999, -0.99999])
    def test_seasonal_root_near_minus_one_matches_dense_filter(self, phi):
        # the bilinear Lyapunov solve loses digits next to an eigenvalue -1,
        # and the first seven autocovariances are read from its solution
        spec = SarimaSpec(0, 0, 0, P=1, s=7)
        params = SarimaParams(mean=1.0, seasonal_ar=(phi,), sigma2=1.3)
        series = simulate(spec, params, n=300, seed=5)
        ar_rec, ma_rec = expand_polynomials(spec, params)
        want, _, _ = _oracles.kalman_loglik(ar_rec, ma_rec, params.mean, params.sigma2, series.values)
        assert log_likelihood(spec, params, series) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "margin, sign",
        [pytest.param(m, -1.0, id=f"{m:g}") for m in (5e-2, 1e-3, 1e-5, 1e-6)]
        + [
            pytest.param(
                m, 1.0, id=f"same-sign-{m:g}",
                marks=pytest.mark.xfail(
                    strict=True, raises=(AssertionError, NumericalError),
                    reason="the bilinear Lyapunov solve loses the stationary variances when both "
                    "partial autocorrelations are near +1 (ROADMAP item 4)",
                ),
            )
            for m in (1e-5, 1e-6)
        ],
    )
    def test_double_unit_root_matches_closed_form(self, margin, sign):
        # kappa = (1 - margin, -(1 - margin)) puts two autoregressive roots
        # next to 1: the stationary covariance grows like 1/margin^2, and
        # gamma0 - gamma1 is a tiny difference of two huge autocovariances
        # that the factorisation must resolve; kappa = (1 - margin, 1 - margin)
        # puts one root next to 1 and one next to -1
        ar = pacf_to_coeffs(np.array([1.0 - margin, sign * (1.0 - margin)]))
        spec = SarimaSpec(2, 0, 0, with_intercept=False)
        params = SarimaParams(ar=tuple(ar), sigma2=2.0)
        series = simulate(SarimaSpec(0, 1, 0), SarimaParams(), n=120, seed=44)
        want = _oracles.ar2_loglik(ar, 2.0, series.values)
        assert log_likelihood(spec, params, series) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "spec, params",
        [
            pytest.param(
                SarimaSpec(2, 0, 0),
                SarimaParams(mean=0.3, ar=tuple(pacf_to_coeffs(np.array([1 - 1e-6, -(1 - 1e-6)]))), sigma2=2.0),
                id="ar2-opposite-1e-06",
            ),
            pytest.param(
                SarimaSpec(0, 0, 0, P=1, s=7), SarimaParams(mean=0.3, seasonal_ar=(-0.99999,), sigma2=2.0),
                id="sar1-minus-0.99999",
            ),
            pytest.param(
                SarimaSpec(1, 0, 0, P=1, s=7),
                SarimaParams(mean=0.3, ar=(0.999,), seasonal_ar=(0.999,), sigma2=2.0),
                id="ar1xsar1-0.999",
            ),
            pytest.param(
                SarimaSpec(2, 0, 1), SarimaParams(mean=0.3, ar=(0.5, -0.3), ma=(0.4,), sigma2=2.0),
                id="arma21",
            ),
            pytest.param(
                SarimaSpec(2, 0, 0),
                SarimaParams(mean=0.3, ar=tuple(pacf_to_coeffs(np.array([1 - 1e-4, 1 - 1e-4]))), sigma2=2.0),
                id="ar2-same-1e-04",
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="the bilinear Lyapunov solve is ~1e-9 off when both partial "
                    "autocorrelations are near +1 (ROADMAP item 4)",
                ),
            ),
            pytest.param(
                SarimaSpec(1, 0, 0, P=1, s=7),
                SarimaParams(mean=0.3, ar=(0.99999,), seasonal_ar=(0.99999,), sigma2=2.0),
                id="ar1xsar1-0.99999",
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="the bilinear Lyapunov solve is ~4e-7 off next to a regular and a "
                    "seasonal unit root (ROADMAP item 4)",
                ),
            ),
        ],
    )
    def test_matches_exact_rational_oracle(self, spec, params):
        walk = make_series(np.cumsum(np.random.default_rng(61).normal(size=40)))
        ar_rec, ma_rec = expand_polynomials(spec, params)
        want = _oracles.mvn_loglik_exact(ar_rec, ma_rec, params.mean, params.sigma2, walk.values)
        assert log_likelihood(spec, params, walk) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "case, stride",
        [((ROLLING_SPEC, ROLLING_PARAMS), 7), (NEVER_STEADY_R8, 7), ((ROLLING_SPEC, ROLLING_PARAMS), 1),
         (NEVER_STEADY_R8, 1)],
        ids=["rolling-r42", "never-steady-r8", "rolling-r42-stride1", "never-steady-r8-stride1"],
    )
    def test_innovations_match_dense_filter(self, case, stride):
        spec, params = case
        series = simulate(spec, params, n=400, seed=46)
        w, v, f = _filter_output(spec, params, series, stride)
        ar_rec, ma_rec = expand_polynomials(spec, params)
        _, f_dense, v_dense = _oracles.kalman_loglik(ar_rec, ma_rec, params.mean, params.sigma2, w)
        np.testing.assert_allclose(f * params.sigma2, f_dense, rtol=1e-12)
        np.testing.assert_allclose(v, v_dense, rtol=0, atol=1e-9 * np.abs(v).max())


PURE_SEASONAL_ROWS = [spec for spec in fixed_grid("sarima-table").specs if spec.p == spec.q == 0]
SEASONAL_AR_PACF = (0.6, -0.3, 0.2, -0.1, 0.05, -0.02)
SEASONAL_MA_PACF = (0.5, -0.25, 0.1, -0.05, 0.02, -0.01)


class TestStride:
    def test_only_pure_seasonal_specs_are_strided(self):
        assert len(PURE_SEASONAL_ROWS) == 8
        assert all(_stride(spec) == 7 for spec in PURE_SEASONAL_ROWS)
        for spec in (SarimaSpec(1, 0, 0, P=6, Q=3, s=7), SarimaSpec(0, 0, 1, P=1, s=7), SarimaSpec(2, 1, 1),
                     SarimaSpec(0, 0, 0, D=1, s=7)):
            assert _stride(spec) == 1

    @pytest.mark.parametrize("spec", PURE_SEASONAL_ROWS, ids=lambda spec: spec.label())
    def test_strided_kernel_equals_stride_one(self, spec, monkeypatch):
        # 733 days leave 733 or 726 differenced values, neither a multiple of
        # the season, so the last row of some columns is padding
        params = SarimaParams(
            mean=1.0 if spec.with_intercept else 0.0,
            seasonal_ar=tuple(pacf_to_coeffs(np.array(SEASONAL_AR_PACF[: spec.P]))),
            seasonal_ma=tuple(-pacf_to_coeffs(np.array(SEASONAL_MA_PACF[: spec.Q]))),
            sigma2=2.0,
        )
        series = simulate(spec, params, n=733, seed=48)
        horizons = (1, 14, 56)

        def kernel_output(stride):
            _, v, f = _filter_output(spec, params, series, stride)
            fcs = [forecast(make_fit(spec, params), series, horizon=h).point for h in horizons]
            return v, f, log_likelihood(spec, params, series), fcs

        v, f, loglik, fcs = kernel_output(7)
        monkeypatch.setattr(estimation, "_stride", lambda spec: 1)
        v1, f1, loglik1, fcs1 = kernel_output(1)
        np.testing.assert_allclose(f, f1, rtol=1e-12)
        np.testing.assert_allclose(v, v1, rtol=1e-12, atol=1e-12 * np.abs(v1).max())
        assert loglik == pytest.approx(loglik1, rel=1e-12)
        for got, want in zip(fcs, fcs1):
            np.testing.assert_allclose(got, want, rtol=1e-12)


def _seasonal_reversal_case(p, P, Q):
    return SarimaSpec(p, 0, 0, P=P, Q=Q, s=7), SarimaParams(
        mean=0.3,
        ar=(0.5,) * p,
        seasonal_ar=tuple(pacf_to_coeffs(np.array(SEASONAL_AR_PACF[:P]))),
        seasonal_ma=tuple(-pacf_to_coeffs(np.array(SEASONAL_MA_PACF[:Q]))),
        sigma2=2.0,
    )


_RANDOM_KAPPA = np.random.default_rng(13).uniform(-0.9, 0.9, (2, 8))
ITEM_4_REVERSAL = "the bilinear Lyapunov solve makes the two time directions disagree (ROADMAP item 4)"
REVERSAL_CASES = [
    pytest.param(SarimaSpec(1, 0, 0), SarimaParams(mean=0.3, ar=(0.7,), sigma2=2.0), id="ar1"),
    pytest.param(SarimaSpec(1, 0, 1), SarimaParams(mean=0.3, ar=(0.6,), ma=(0.4,), sigma2=2.0), id="arma11"),
    pytest.param(SarimaSpec(0, 0, 1), SarimaParams(mean=0.3, ma=(-0.99999,), sigma2=2.0), id="ma-0.99999"),
    pytest.param(
        SarimaSpec(8, 0, 8),
        SarimaParams(
            mean=0.3, ar=tuple(pacf_to_coeffs(_RANDOM_KAPPA[0])), ma=tuple(-pacf_to_coeffs(_RANDOM_KAPPA[1])),
            sigma2=2.0,
        ),
        id="random-808",
    ),
    pytest.param(*_seasonal_reversal_case(1, 6, 2), id="(1,0,0)(6,0,2,7)"),
    pytest.param(*_seasonal_reversal_case(1, 6, 3), id="(1,0,0)(6,0,3,7)"),
    # pure seasonal: the strided kernel
    pytest.param(*_seasonal_reversal_case(0, 6, 3), id="(0,0,0)(6,0,3,7)-strided"),
]
# the reversal asymmetry of these was measured at 6.6e-13 (n = 730) and 1.2e-12
# (n = 3713) for AR(2), and at 2.0e-9 and 2.6e-10 for AR(1)xSAR(1)
NEAR_UNIT_REVERSAL_CASES = [
    pytest.param(
        SarimaSpec(2, 0, 0),
        SarimaParams(mean=0.3, ar=tuple(pacf_to_coeffs(np.array([1 - 1e-4, 1 - 1e-4]))), sigma2=2.0),
        id="ar2-same-1e-04",
    ),
    pytest.param(
        SarimaSpec(1, 0, 0, P=1, s=7),
        SarimaParams(mean=0.3, ar=(0.99999,), seasonal_ar=(0.99999,), sigma2=2.0),
        id="ar1xsar1-0.99999",
    ),
]


class TestTimeReversal:
    """A stationary Gaussian ARMA has a symmetric Toeplitz covariance, so its exact
    likelihood is the same forwards and backwards, and an affine map of the data
    shifts it by -n log|c|.  The kernel computes each side through different
    start-up covariances and band factors, so these are O(n) checks at any n."""

    @staticmethod
    def _sample(spec, params, n):
        return simulate(spec, params, n=n, seed=7).values

    @pytest.mark.parametrize("n", [730, 3713])
    @pytest.mark.parametrize(
        "spec, params",
        [
            *REVERSAL_CASES,
            *(
                pytest.param(
                    *case.values, id=case.id,
                    marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4_REVERSAL),
                )
                for case in NEAR_UNIT_REVERSAL_CASES
            ),
        ],
    )
    def test_likelihood_is_invariant_under_time_reversal(self, spec, params, n):
        w = self._sample(spec, params, n)
        forwards = log_likelihood(spec, params, make_series(w))
        backwards = log_likelihood(spec, params, make_series(w[::-1]))
        assert backwards == pytest.approx(forwards, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [730, 3713])
    @pytest.mark.parametrize("spec, params", REVERSAL_CASES + NEAR_UNIT_REVERSAL_CASES)
    def test_affine_map_shifts_the_likelihood_by_the_jacobian(self, spec, params, n):
        a, c = 3.0, -2.5
        w = self._sample(spec, params, n)
        mapped = replace(params, mean=a + c * params.mean, sigma2=params.sigma2 * c * c)
        want = log_likelihood(spec, params, make_series(w)) - n * math.log(abs(c))
        assert log_likelihood(spec, mapped, make_series(a + c * w)) == pytest.approx(want, rel=1e-13, abs=0.0)


def _scipy_refined_state_cov(tcol, rvec):
    """The refinement loop of ``_stationary_state_cov`` around SciPy's bilinear solve, and its pass count."""
    T = _companion_matrix(tcol)
    Q = np.outer(rvec, rvec)
    P0 = np.zeros_like(Q)
    residual = Q
    for passes in range(1, LYAPUNOV_REFINEMENTS + 2):
        step = scipy.linalg.solve_discrete_lyapunov(T, residual, method="bilinear")
        P0 = P0 + (step + step.T) / 2.0
        residual = T @ P0 @ T.T + Q - P0
        if np.abs(residual).max() <= LYAPUNOV_RTOL * (1.0 + np.abs(P0).max()):
            break
    return P0, passes


class TestLyapunovSolve:
    @pytest.mark.parametrize(
        "spec, params, min_passes",
        [
            pytest.param(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.5,)), 1, id="r1"),
            pytest.param(
                SarimaSpec(2, 0, 0), SarimaParams(ar=tuple(pacf_to_coeffs(np.array([1 - 1e-4, 1 - 1e-4])))), 1,
                id="ar2-same-1e-04",
            ),
            pytest.param(
                SarimaSpec(2, 0, 0), SarimaParams(ar=tuple(pacf_to_coeffs(np.array([1 - 1e-4, -(1 - 1e-4)])))), 1,
                id="ar2-opposite-1e-04",
            ),
            pytest.param(*NEVER_STEADY_R8, 1, id="r8"),
            pytest.param(ROLLING_SPEC, ROLLING_PARAMS, 1, id="rolling-r42"),
            pytest.param(SarimaSpec(0, 0, 0, P=1, s=7), SarimaParams(seasonal_ar=(-0.9999,)), 2, id="sar1-minus-0.9999"),
        ],
    )
    def test_direct_solve_equals_scipy_bilinear(self, spec, params, min_passes):
        # the solve makes SciPy's LAPACK calls itself; the arithmetic is the
        # same, so the refined covariance must be equal, not merely close
        tcol, rvec = _state_space(*expand_polynomials(spec, params))
        want, passes = _scipy_refined_state_cov(tcol, rvec)
        assert passes >= min_passes
        np.testing.assert_array_equal(_stationary_state_cov(tcol, rvec), want)

    def test_perturbed_sylvester_solve_still_warns(self):
        # roots exp(+-i pi/3) on the unit circle give the transform an
        # eigenvalue pair that sums to zero, and dtrsyl perturbs it (info 1)
        tcol, rvec = np.array([1.0, -1.0]), np.array([1.0, 0.0])
        with pytest.warns(RuntimeWarning, match="eigenvalue pair"):
            want, _ = _scipy_refined_state_cov(tcol, rvec)
        with pytest.warns(RuntimeWarning, match="eigenvalue pair"):
            got = _stationary_state_cov(tcol, rvec)
        np.testing.assert_array_equal(got, want)

    def test_singular_bilinear_transform_is_a_numerical_error(self):
        # T = -1 makes I + T singular
        with pytest.raises(NumericalError):
            _stationary_state_cov(np.array([-1.0]), np.array([1.0]))


# an optimizer coordinate where tanh is saturated: kappa = +-KAPPA_SCALE
SATURATED_Z = 40.0


class TestParameterBound:
    SPECS = [
        SarimaSpec(0, 1, 1),
        SarimaSpec(2, 0, 2),
        SarimaSpec(1, 1, 1, P=1, D=1, Q=1, s=7),
        SarimaSpec(0, 0, 0, P=2, Q=2, s=7),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_parameters_at_the_bound_are_admissible(self, spec, sign):
        # one partial autocorrelation at the bound, the others inside
        dim = spec.p + spec.q + spec.P + spec.Q
        series = simulate(SarimaSpec(0, 1, 0), SarimaParams(), n=120, seed=44)
        for i in range(dim):
            z = np.full(dim, 0.3)
            z[i] = sign * SATURATED_Z
            params = _z_to_params(z, spec)
            assert np.isfinite(log_likelihood(spec, params, series))
            fc = forecast(make_fit(spec, params), series, horizon=10)
            assert np.isfinite(fc.point).all() and np.isfinite(fc.variance).all()

    def test_moving_average_blocks_at_the_bound_are_admissible(self):
        spec = SarimaSpec(0, 1, 2, P=0, D=1, Q=2, s=7)
        series = simulate(SarimaSpec(0, 1, 0), SarimaParams(), n=120, seed=45)
        for signs in ([1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, 1, -1]):
            params = _z_to_params(np.asarray(signs) * SATURATED_Z, spec)
            assert np.isfinite(log_likelihood(spec, params, series))
            forecast(make_fit(spec, params), series, horizon=10)

    def test_unit_root_ma_input_stays_inside_the_bound(self):
        # the first 200 days of a generated daily export; a search over bare
        # tanh coordinates saturates here to an MA coefficient of exactly
        # -1.0, which forecast then rejects as not invertible
        y = np.loadtxt(MA_UNIT_ROOT_CSV, delimiter=",", skiprows=1, usecols=1)
        series = make_series(y, dt.date(2013, 1, 1))
        result = fit(SarimaSpec(0, 2, 1), series)
        assert -KAPPA_SCALE <= result.params.ma[0] < -0.999
        forecast(result, series, horizon=56)

    @given(
        spec=st.sampled_from(
            [SarimaSpec(0, 2, 1), SarimaSpec(0, 1, 1), SarimaSpec(1, 2, 0), SarimaSpec(1, 0, 1),
             SarimaSpec(0, 1, 2), SarimaSpec(0, 0, 0, P=1, D=1, Q=1, s=7)]
        ),
        seed=st.integers(0, 2**16),
        phi=st.floats(-0.9, 0.95),
        drift=st.floats(-2.0, 2.0),
    )
    @settings(deadline=None, max_examples=12)
    def test_any_fit_is_accepted_by_forecast(self, spec, seed, phi, drift):
        noise = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(phi,)), n=140, seed=seed).values
        series = make_series(100.0 + drift * np.arange(140) + noise)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit(spec, series)
        fc = forecast(result, series, horizon=14)
        assert np.isfinite(fc.point).all()
        assert log_likelihood(spec, result.params, series) == pytest.approx(result.loglik, rel=1e-9)


class TestFit:
    def test_white_noise_fit_is_exact(self):
        rng = np.random.default_rng(27)
        y = rng.normal(loc=7.0, scale=2.0, size=200)
        series = make_series(y)
        result = fit(SarimaSpec(0, 0, 0), series)
        assert result.converged
        assert result.params.mean == pytest.approx(y.mean(), abs=1e-12)
        demeaned = y - y.mean()
        np.testing.assert_allclose(result.residuals, demeaned, atol=1e-12)
        assert result.params.sigma2 == pytest.approx(float(np.mean(demeaned**2)), abs=1e-12)
        n, k = y.size, 2
        want_ll = -0.5 * n * (
            math.log(2 * math.pi) + 1.0 + math.log(float(np.mean(demeaned**2)))
        )
        assert result.loglik == pytest.approx(want_ll, abs=1e-10)
        assert result.aic == 2 * k - 2 * result.loglik
        assert result.bic == k * math.log(n) - 2 * result.loglik
        assert result.n_obs == n

    def test_ar1_recovery(self, ar1_series):
        result = fit(SarimaSpec(1, 0, 0), ar1_series)
        assert result.converged
        assert result.params.ar[0] == pytest.approx(0.7, abs=0.08)
        assert result.params.mean == pytest.approx(50.0, abs=1.0)
        assert result.params.sigma2 == pytest.approx(4.0, rel=0.25)

    def test_ma1_recovery(self):
        series = simulate(SarimaSpec(0, 0, 1), SarimaParams(ma=(0.5,)), n=1500, seed=28)
        result = fit(SarimaSpec(0, 0, 1), series)
        assert result.params.ma[0] == pytest.approx(0.5, abs=0.08)

    def test_seasonal_recovery(self, seasonal_series):
        result = fit(SarimaSpec(0, 0, 0, P=1, s=7), seasonal_series)
        assert result.params.seasonal_ar[0] == pytest.approx(0.6, abs=0.08)

    def test_fitted_params_admissible(self, ar1_series):
        result = fit(SarimaSpec(2, 0, 1), ar1_series)
        assert is_stationary(result.spec, result.params)
        assert is_invertible(result.spec, result.params)

    def test_seed_changes_restarts_not_correctness(self, ar1_series):
        a = fit(SarimaSpec(1, 0, 0), ar1_series, seed=0)
        b = fit(SarimaSpec(1, 0, 0), ar1_series, seed=99)
        assert a.params.ar[0] == pytest.approx(b.params.ar[0], abs=1e-4)

    def test_differenced_model_drops_intercept(self, ar1_series):
        result = fit(SarimaSpec(0, 1, 1), ar1_series)
        assert result.params.mean == 0.0
        assert result.spec.with_intercept is False

    def test_small_sample_warns(self):
        y = np.random.default_rng(29).normal(size=25)
        with pytest.warns(UserWarning, match="unstable"):
            fit(SarimaSpec(1, 0, 1), make_series(y))

    def test_constant_series_fails_cleanly(self):
        with pytest.raises((NumericalError, DataError)):
            fit(SarimaSpec(1, 0, 0), make_series(np.full(60, 3.0)))

    def test_too_short_series(self):
        with pytest.raises(InsufficientDataError):
            fit(SarimaSpec(3, 0, 0), make_series(np.arange(4.0)))


def _search_case(name):
    """(spec, series) of a named search case."""
    if name == "ma-unit-root":
        y = np.loadtxt(MA_UNIT_ROOT_CSV, delimiter=",", skiprows=1, usecols=1)
        return SarimaSpec(0, 2, 1), make_series(y, dt.date(2013, 1, 1))
    if name == "seasonal":
        series = simulate(SarimaSpec(0, 0, 0, P=1, s=7), SarimaParams(mean=100.0, seasonal_ar=(0.6,)), n=700, seed=5)
        return SarimaSpec(0, 0, 0, P=1, D=1, Q=1, s=7), series
    if name == "random-walk":
        return SarimaSpec(2, 0, 0), make_series(np.cumsum(np.random.default_rng(44).normal(size=120)))
    series = simulate(SarimaSpec(1, 0, 0), SarimaParams(mean=50.0, ar=(0.7,), sigma2=4.0), n=600, seed=11)
    return {"ar1": SarimaSpec(1, 0, 0), "ar2": SarimaSpec(2, 0, 0)}[name], series


def _objective_and_start(name):
    """A fresh fit objective of the named case, and the fit's regression start."""
    spec, series = _search_case(name)
    w = estimation._prepare(series, spec)
    wc = w - w.mean() if spec.with_intercept else w
    return estimation._profile_objective(wc, spec, _stride(spec)), estimation._hannan_rissanen_start(wc, spec)


def _reference_search(objective, z0):
    return _oracles.search_with_scipy_differences(
        objective, z0, estimation.GRAD_MAX_EVALS, estimation.NM_MAX_EVALS, estimation.NM_XATOL
    )


class TestSearchMatchesScipyDifferences:
    """The fit's own difference gradient is bit for bit the one SciPy's L-BFGS-B computes."""

    @staticmethod
    def assert_same_search(got, want):
        assert got.x.tobytes() == want.x.tobytes()
        assert got.fun == want.fun
        assert got.success == want.success
        assert got.message == want.message

    def run_both(self, name, z0=None):
        objective, start = _objective_and_start(name)
        z0 = start if z0 is None else np.asarray(z0, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = estimation._minimize_once(objective, z0)
            want = _reference_search(_objective_and_start(name)[0], z0)
        self.assert_same_search(got, want)
        return got

    @pytest.mark.parametrize("name", ["ar1", "ar2", "ma-unit-root", "seasonal"])
    def test_same_search_from_the_fit_start(self, name):
        result = self.run_both(name)
        assert result.success

    def test_ma_unit_root_search_saturates(self):
        result = self.run_both("ma-unit-root")
        assert abs(result.x[0]) > 5.0  # theta within ~1e-5 of -1

    def test_same_search_from_an_inadmissible_start(self):
        objective, _ = _objective_and_start("random-walk")
        z0 = np.array([7.0, 7.0])  # both partial autocorrelations within 2e-6 of +1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert objective(z0) == np.inf
        result = self.run_both("random-walk", z0)
        assert np.isfinite(result.fun)

    @pytest.mark.parametrize("cap", [12, 13, 14, 30])
    def test_same_stop_on_the_evaluation_cap(self, cap, monkeypatch):
        monkeypatch.setattr(estimation, "GRAD_MAX_EVALS", cap)
        monkeypatch.setattr(estimation, "NM_MAX_EVALS", 60)
        objective, z0 = _objective_and_start("ar2")
        lbfgsb = scipy.optimize.minimize(
            lambda z: estimation._value_and_gradient(objective, z), z0, method="L-BFGS-B", jac=True,
            options={"maxfun": cap // 3, "ftol": 1e-11, "gtol": 1e-7},
        )
        assert "EXCEEDS LIMIT" in lbfgsb.message
        self.run_both("ar2")

    def test_gradient_falls_back_to_a_relative_step_where_the_step_rounds_away(self):
        calls = []

        def objective(z):
            calls.append(z.copy())
            return float(np.sum(z * z))

        z = np.array([1e9, -1e9, 0.5])
        f0, grad = estimation._value_and_gradient(objective, z)
        steps = np.array(calls[1:]) - z  # one probe per coordinate
        assert grad.tobytes() == scipy.optimize.approx_fprime(z, objective, 1e-8).tobytes()
        assert np.count_nonzero(steps) == 3
        assert np.diag(steps).tolist() == [2.0**-26 * 1e9, -(2.0**-26) * 1e9, (0.5 + 1e-8) - 0.5]

    def test_regression_start_equals_the_loop_form(self, monkeypatch):
        rng = np.random.default_rng(3)
        cases = [(SarimaSpec(p, 0, q, P=P, Q=Q, s=7), make_series(np.cumsum(rng.normal(size=n))))
                 for p, q, P, Q, n in [(1, 1, 0, 0, 80), (2, 2, 0, 0, 300), (0, 1, 1, 1, 500), (1, 0, 0, 2, 260)]]
        with_product = [estimation._hannan_rissanen_start(s.values - s.values.mean(), spec) for spec, s in cases]
        monkeypatch.setattr(estimation, "_long_ar_residuals", _oracles.long_ar_residuals_loop)
        with_loop = [estimation._hannan_rissanen_start(s.values - s.values.mean(), spec) for spec, s in cases]
        assert [z.tobytes() for z in with_product] == [z.tobytes() for z in with_loop]
        assert all(np.any(z != 0.0) for z in with_product)

    @given(n=st.integers(180, 400), order=st.integers(1, 89), seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=40)
    def test_long_ar_coefficients_equal_the_pacf_map(self, n, order, seed):
        # the start reads the Durbin-Levinson pass's own coefficients, which
        # must be the bits pacf_to_coeffs makes from its partial autocorrelations
        wc = np.random.default_rng(seed).normal(size=n).cumsum()
        pac, coeffs = estimation._pacf_values(wc - wc.mean(), order)
        assert coeffs.tobytes() == pacf_to_coeffs(pac).tobytes()

    @given(n=st.integers(5, 400), order=st.integers(1, 40), seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=40)
    def test_long_ar_residuals_equal_the_loop_form(self, n, order, seed):
        order = min(order, n - 1)
        rng = np.random.default_rng(seed)
        wc = rng.normal(size=n).cumsum() * 100.0
        a_long = rng.normal(size=order) * 0.3
        got = estimation._long_ar_residuals(wc, a_long)
        assert got.tobytes() == _oracles.long_ar_residuals_loop(wc, a_long).tobytes()

    @pytest.mark.parametrize("name", ["ar1", "seasonal"])
    def test_fit_is_unchanged_and_makes_the_same_passes(self, name, monkeypatch):
        spec, series = _search_case(name)
        passes = []
        innovations = estimation._innovations
        monkeypatch.setattr(estimation, "_innovations", lambda *args: passes.append(1) or innovations(*args))
        result = fit(spec, series)
        lean = len(passes)
        # the reference: SciPy differences the objective itself
        monkeypatch.setattr(estimation, "_minimize_once", _reference_search)
        passes.clear()
        reference = fit(spec, series)
        assert len(passes) == lean
        assert result.loglik == reference.loglik
        assert result.params == reference.params
        assert result.converged == reference.converged
        assert result.residuals.tobytes() == reference.residuals.tobytes()


class TestForecast:
    def test_ar1_hand_computed_path(self):
        # filter at exact parameters: last observation 10, phi 0.5
        y = np.zeros(60)
        y[-1] = 10.0
        series = make_series(y)
        fake = make_fit(SarimaSpec(1, 0, 0, with_intercept=False), SarimaParams(ar=(0.5,)))
        fc = forecast(fake, series, horizon=3)
        np.testing.assert_allclose(fc.point, [5.0, 2.5, 1.25], atol=1e-8)
        np.testing.assert_allclose(fc.variance, [1.0, 1.25, 1.3125], atol=1e-8)

    def test_white_noise_band_is_flat(self):
        series = make_series(np.random.default_rng(30).normal(size=80) + 100.0)
        result = fit(SarimaSpec(0, 0, 0), series)
        fc = forecast(result, series, horizon=7)
        np.testing.assert_allclose(fc.point, np.full(7, result.params.mean), atol=1e-9)
        np.testing.assert_allclose(fc.variance, np.full(7, result.params.sigma2), atol=1e-9)
        np.testing.assert_allclose(fc.upper95, fc.point + 1.96 * np.sqrt(fc.variance))
        np.testing.assert_allclose(fc.lower95, fc.point - 1.96 * np.sqrt(fc.variance))

    def test_random_walk_variance_grows_linearly(self):
        rng = np.random.default_rng(31)
        series = make_series(np.cumsum(rng.normal(size=150)))
        fake = make_fit(SarimaSpec(0, 1, 0), SarimaParams(sigma2=2.0))
        fc = forecast(fake, series, horizon=5)
        np.testing.assert_allclose(fc.point, np.full(5, series.values[-1]), atol=1e-9)
        np.testing.assert_allclose(fc.variance, 2.0 * np.arange(1.0, 6.0), atol=1e-9)

    def test_variance_is_non_decreasing(self, ar1_series):
        result = fit(SarimaSpec(1, 0, 1), ar1_series)
        fc = forecast(result, ar1_series, horizon=30)
        assert np.all(np.diff(fc.variance) >= -1e-12)

    def test_seasonal_prediction_uses_only_season_lags(self):
        # for a pure seasonal AR the one-step predictor is phi * x[n+1-s];
        # changing any other observation must not move it
        spec = SarimaSpec(0, 0, 0, P=1, s=7, with_intercept=False)
        params = SarimaParams(seasonal_ar=(0.6,))
        fake = make_fit(spec, params)
        base = simulate(spec, params, n=100, seed=32).values.copy()
        fc_base = forecast(fake, make_series(base), horizon=1)
        perturbed = base.copy()
        perturbed[-2] += 5.0  # not a multiple of the season from the forecast origin
        fc_pert = forecast(fake, make_series(perturbed), horizon=1)
        assert fc_base.point[0] == pytest.approx(fc_pert.point[0], abs=1e-9)
        assert fc_base.point[0] == pytest.approx(0.6 * base[-7], abs=1e-9)

    def test_forecast_dates_continue_the_series(self, ar1_series):
        result = fit(SarimaSpec(0, 0, 0), ar1_series)
        fc = forecast(result, ar1_series, horizon=2)
        assert fc.start_date == ar1_series.end_date + dt.timedelta(days=1)
        assert fc.dates()[1] == ar1_series.end_date + dt.timedelta(days=2)

    def test_horizon_validation(self, ar1_series):
        result = fit(SarimaSpec(0, 0, 0), ar1_series)
        with pytest.raises(SpecError):
            forecast(result, ar1_series, horizon=0)
        with pytest.raises(SpecError):
            forecast(result, ar1_series, horizon=366)
        fc = forecast(result, ar1_series, horizon=400, max_horizon=400)
        assert fc.horizon == 400

    def test_default_cap_scales_with_season(self):
        assert default_horizon_cap(SarimaSpec(1, 0, 0)) == 365
        assert default_horizon_cap(SarimaSpec(0, 0, 0, D=1, s=200)) == 600


def _oracle_forecast(spec, params, series, horizon):
    """Conditional-mean forecast of the original series by an independent route.

    The differenced values come from convolving with the differencing
    polynomial, their conditional mean from the Toeplitz oracle, and the
    original scale from the differencing recursion run forwards.
    """
    delta = np.array([1.0])
    for _ in range(spec.d):
        delta = np.convolve(delta, [1.0, -1.0])
    for _ in range(spec.D):
        delta = np.convolve(delta, np.r_[1.0, np.zeros(spec.s - 1), -1.0])
    y = series.values
    w = np.convolve(y, delta)[delta.size - 1: y.size]
    ar_rec, ma_rec = expand_polynomials(spec, params)
    w_hat = _oracles.conditional_mean(ar_rec, ma_rec, params.mean, params.sigma2, w, horizon)
    out = list(y)
    for value in w_hat:
        out.append(value - float(delta[1:] @ np.asarray(out[: -delta.size: -1])))
    return np.asarray(out[y.size:])


class TestForecastOracle:
    @pytest.mark.parametrize("horizon", [1, 14, 56])
    @pytest.mark.parametrize(
        "spec,params",
        [
            (SarimaSpec(2, 1, 1), SarimaParams(ar=(0.5, -0.3), ma=(0.4,), sigma2=1.1)),
            NEVER_STEADY_R2,
            (SarimaSpec(0, 0, 0, P=1, D=1, Q=1, s=7), SarimaParams(seasonal_ar=(0.5,), seasonal_ma=(-0.6,))),
            (ROLLING_SPEC, ROLLING_PARAMS),
        ],
        ids=["arma21-d1", "near-unit-ma", "seasonal-d1", "rolling-r42"],
    )
    def test_matches_conditional_mean(self, spec, params, horizon):
        sample = simulate(spec, params, n=150, seed=47)
        series = TimeSeries(sample.start_date, sample.values + 100.0)
        fc = forecast(make_fit(spec, params), series, horizon=horizon)
        np.testing.assert_allclose(fc.point, _oracle_forecast(spec, params, series, horizon), rtol=1e-8)

    @given(seed=st.integers(0, 2**16), p=st.integers(0, 3), q=st.integers(0, 3))
    @settings(deadline=None, max_examples=25)
    def test_random_arma_matches_joint_gaussian_oracles(self, seed, p, q):
        ar, ma = _oracles.draw_arma_coeffs(np.random.default_rng(seed), p, q)
        spec = SarimaSpec(p, 0, q)
        params = SarimaParams(mean=50.0, ar=tuple(ar), ma=tuple(ma), sigma2=1.5)
        series = simulate(spec, params, n=80, seed=seed)
        want = _oracles.mvn_loglik(ar, ma, params.mean, params.sigma2, series.values)
        assert log_likelihood(spec, params, series) == pytest.approx(want, abs=1e-8)
        fc = forecast(make_fit(spec, params), series, horizon=14)
        want_points = _oracles.conditional_mean(ar, ma, params.mean, params.sigma2, series.values, 14)
        np.testing.assert_allclose(fc.point, want_points, rtol=1e-8)


class TestSimulate:
    def test_deterministic_in_seed(self):
        spec = SarimaSpec(1, 0, 0)
        params = SarimaParams(ar=(0.5,))
        a = simulate(spec, params, n=50, seed=1)
        b = simulate(spec, params, n=50, seed=1)
        c = simulate(spec, params, n=50, seed=2)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_white_noise_moments(self):
        series = simulate(
            SarimaSpec(0, 0, 0), SarimaParams(mean=5.0, sigma2=4.0), n=20000, seed=33
        )
        assert float(series.values.mean()) == pytest.approx(5.0, abs=0.06)
        assert float(series.values.var()) == pytest.approx(4.0, rel=0.05)

    def test_ar1_autocorrelation(self):
        series = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.7,)), n=20000, seed=34)
        got = _oracles.sample_acf(series.values, 1)[0]
        assert got == pytest.approx(0.7, abs=0.03)

    def test_integrated_path_differences_back(self):
        params = SarimaParams(sigma2=2.0)
        walk = simulate(SarimaSpec(0, 1, 0), params, n=5000, seed=35)
        steps = np.diff(walk.values)
        assert float(steps.var()) == pytest.approx(2.0, rel=0.1)

    def test_start_date_and_length(self):
        series = simulate(
            SarimaSpec(0, 0, 0), SarimaParams(), n=10, seed=0, start_date=dt.date(1999, 9, 9)
        )
        assert len(series) == 10
        assert series.start_date == dt.date(1999, 9, 9)

    def test_rejects_explosive_model(self):
        with pytest.raises(SpecError):
            simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(1.05,)), n=10, seed=0)

    def test_subnormal_coefficient_is_admissible(self):
        # a root finder divides by the last coefficient and overflows here
        params = SarimaParams(ar=(5e-324,), ma=(-5e-324,))
        assert is_stationary(SarimaSpec(1, 0, 1), params)
        assert len(simulate(SarimaSpec(1, 0, 1), params, n=10, seed=0)) == 10


def _rolling_integrated_ar() -> np.ndarray:
    ar_rec, _ = expand_polynomials(ROLLING_SPEC, ROLLING_PARAMS)
    return _integrated_ar(ar_rec, ROLLING_SPEC.diff_spec)


class TestLagRecursion:
    """The one recursion of forecast, simulate and the band covariance, against ``lfilter``."""

    @pytest.mark.parametrize(
        "b,a,n",
        [
            (np.array([1.0, 0.4, -0.2]), np.array([1.0, -0.5, 0.3]), 300),
            (np.array([1.0, 0.3]), _integrated_ar(np.array([0.5, -0.3]), SarimaSpec(2, 1, 1).diff_spec), 200),
            (np.array([1.0]), _rolling_integrated_ar(), 14),
            (np.append(1.0, expand_polynomials(ROLLING_SPEC, ROLLING_PARAMS)[1]), _rolling_integrated_ar(), 14),
            (np.array([1.0]), _rolling_integrated_ar(), 120),
            (np.random.default_rng(51).normal(size=9), np.array([1.0]), 4),
        ],
        ids=["stationary", "integrated-d1", "rolling-points-h14", "rolling-psi-h14", "rolling-h120", "no-ar-long-b"],
    )
    @pytest.mark.parametrize("with_past", [False, True])
    def test_matches_lfilter(self, b, a, n, with_past):
        rng = np.random.default_rng(52)
        x = rng.normal(size=n)
        past = rng.normal(size=a.size + 5).cumsum() + 100.0
        if with_past:
            got = _lag_recursion(b, a, x, past=past)
            # lfiltic reads past outputs newest first; no past inputs
            want = scipy.signal.lfilter(b, a, x, zi=scipy.signal.lfiltic(b, a, past[::-1]))[0]
        else:
            got = _lag_recursion(b, a, x)
            want = scipy.signal.lfilter(b, a, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestSaveLoad:
    def test_round_trip_is_exact(self, tmp_path, ar1_series):
        result = fit(SarimaSpec(1, 0, 1), ar1_series)
        path = tmp_path / "model.txt"
        save_fit(result, path, metadata={"dataset": "interp", "split": "count:365"})
        loaded, meta = load_fit(path)
        assert loaded.spec == result.spec
        assert loaded.params == result.params
        assert loaded.loglik == result.loglik
        assert loaded.aic == result.aic
        assert loaded.bic == result.bic
        assert loaded.n_obs == result.n_obs
        assert loaded.converged == result.converged
        assert loaded.residuals is None
        assert meta == {"dataset": "interp", "split": "count:365"}

    def test_save_is_deterministic(self, tmp_path, ar1_series):
        result = fit(SarimaSpec(1, 0, 0), ar1_series)
        save_fit(result, tmp_path / "a.txt")
        save_fit(result, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_seasonal_round_trip(self, tmp_path, seasonal_series):
        result = fit(SarimaSpec(0, 0, 0, P=1, s=7), seasonal_series)
        path = tmp_path / "model.txt"
        save_fit(result, path)
        loaded, meta = load_fit(path)
        assert loaded.params.seasonal_ar == result.params.seasonal_ar
        assert meta == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_fit(tmp_path / "nope.txt")

    def test_missing_key_is_rejected(self, tmp_path, ar1_series):
        result = fit(SarimaSpec(0, 0, 0), ar1_series)
        path = tmp_path / "model.txt"
        save_fit(result, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("sigma2=")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="sigma2"):
            load_fit(path)

    def test_wrong_coefficient_count_is_rejected(self, tmp_path, ar1_series):
        result = fit(SarimaSpec(1, 0, 0), ar1_series)
        path = tmp_path / "model.txt"
        save_fit(result, path)
        path.write_text(path.read_text() + "ar.2=0.1\n")
        with pytest.raises(DataError, match="coefficients"):
            load_fit(path)

    def test_future_format_version_is_rejected(self, tmp_path, ar1_series):
        result = fit(SarimaSpec(0, 0, 0), ar1_series)
        path = tmp_path / "model.txt"
        save_fit(result, path)
        text = path.read_text().replace("/1", "/99", 1)
        path.write_text(text)
        with pytest.raises(DataError, match="format"):
            load_fit(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace("converged=true", "converged=yes"), "converged must be"),
            (lambda text: text.replace("with_intercept=true", "with_intercept=1"), "with_intercept must be"),
            (lambda text: re.sub(r"n_obs=\d+", "n_obs=-5", text), "n_obs must be"),
            (lambda text: text + "mean=5\n", "repeated key 'mean'"),
            (lambda text: re.sub(r"ar\.1=\S+", "ar.1=1.5", text), "model.txt is malformed: .* not stationary"),
        ],
        ids=["converged", "with_intercept", "n_obs", "repeated", "not-stationary"],
    )
    def test_malformed_value_is_rejected(self, tmp_path, ar1_series, edit, message):
        result = fit(SarimaSpec(1, 0, 0), ar1_series)
        assert result.converged and result.spec.with_intercept
        path = tmp_path / "model.txt"
        save_fit(result, path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(DataError, match=message):
            load_fit(path)

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("just some words\n")
        with pytest.raises(DataError):
            load_fit(path)

    def test_metadata_must_be_single_line(self, tmp_path, ar1_series):
        result = fit(SarimaSpec(0, 0, 0), ar1_series)
        with pytest.raises(SpecError):
            save_fit(result, tmp_path / "m.txt", metadata={"note": "a\nb"})

    @pytest.mark.parametrize("where", ["key", "value"])
    @pytest.mark.parametrize("text", ["a\rb", "a\x0bb", "a\x1cb", "a\u2028b", "x "])
    def test_metadata_that_would_not_read_back_is_rejected(self, tmp_path, ar1_series, text, where):
        # load_fit splits on every str.splitlines boundary and strips each line
        result = fit(SarimaSpec(0, 0, 0), ar1_series)
        metadata = {text: "v"} if where == "key" else {"note": text}
        with pytest.raises(SpecError):
            save_fit(result, tmp_path / "m.txt", metadata=metadata)
        assert not (tmp_path / "m.txt").exists()


def make_fit(spec: SarimaSpec, params: SarimaParams) -> "object":
    """A SarimaFit carrying fixed parameters, for forecasting at known values."""
    from demandcast import SarimaFit

    return SarimaFit(
        spec=spec,
        params=params,
        loglik=0.0,
        aic=0.0,
        bic=0.0,
        n_obs=0,
        converged=True,
        residuals=None,
    )
