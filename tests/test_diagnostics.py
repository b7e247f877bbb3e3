import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import make_series
from demandcast import (
    AdfResult,
    DataError,
    InsufficientDataError,
    NumericalError,
    SarimaParams,
    SarimaSpec,
    SpecError,
    acf,
    adf_test,
    overdifferencing_risk,
    pacf,
    recommend_differencing,
    simulate,
)
from demandcast import _adfdata
from demandcast.diagnostics import (
    P_CLAMP,
    _mackinnon_pvalue,
    default_max_lag,
    unit_root_profile,
)
from demandcast.series import DifferenceSpec, difference


def random_walk(n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=n))


class TestAcf:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        got = acf(make_series(x), 20)
        np.testing.assert_allclose(got.values, _oracles.sample_acf(x, 20), atol=1e-12)

    def test_band_is_two_sigma(self):
        x = np.random.default_rng(1).normal(size=400)
        assert acf(make_series(x), 5).band == pytest.approx(1.96 / 20.0)

    def test_ar1_acf_decays_geometrically(self):
        series = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.8,)), n=20000, seed=2)
        got = acf(series, 5)
        for k in range(1, 6):
            assert got.value_at(k) == pytest.approx(0.8**k, abs=0.03)

    @given(seed=st.integers(0, 2**31), n=st.integers(10, 200))
    @settings(deadline=None, max_examples=50)
    def test_biased_normalisation_keeps_unit_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * rng.choice([1e-6, 1.0, 1e6])
        got = acf(make_series(x), n - 1)
        assert np.all(np.abs(got.values) <= 1.0 + 1e-12)

    def test_rejects_constant_series(self):
        with pytest.raises(DataError):
            acf(make_series(np.ones(50)), 5)

    def test_rejects_bad_lag_range(self):
        series = make_series(np.arange(10.0))
        with pytest.raises(SpecError):
            acf(series, 0)
        with pytest.raises(SpecError):
            acf(series, 10)


class TestPacf:
    def test_matches_yule_walker_solve(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500).cumsum()
        got = pacf(make_series(x), 25)
        want = _oracles.pacf_by_toeplitz_solve(x, 25)
        np.testing.assert_allclose(got.values, want, atol=1e-10)

    def test_first_value_equals_lag_one_acf(self):
        x = np.random.default_rng(4).normal(size=120)
        series = make_series(x)
        assert pacf(series, 10).value_at(1) == acf(series, 10).value_at(1)

    def test_ar2_cuts_off_after_lag_two(self):
        series = simulate(
            SarimaSpec(2, 0, 0), SarimaParams(ar=(0.5, 0.3)), n=5000, seed=5
        )
        got = pacf(series, 8)
        assert abs(got.value_at(2)) > 0.2
        for k in range(3, 9):
            assert abs(got.value_at(k)) < 0.08

    def test_lag_cap_is_half_the_sample(self):
        series = make_series(np.random.default_rng(6).normal(size=40))
        pacf(series, 20)
        with pytest.raises(SpecError):
            pacf(series, 21)

    def test_near_singular_sequence_stays_finite(self):
        # an alternating series pushes the lag-1 partial close to -1; the
        # recursion must either survive with finite values or refuse cleanly
        x = np.tile([1.0, -1.0], 32)
        try:
            got = pacf(make_series(x), 16)
        except NumericalError:
            return
        assert np.all(np.isfinite(got.values))
        assert got.value_at(1) == pytest.approx(-(64 - 1) / 64, abs=1e-12)


class TestMackinnonSurface:
    # textbook 5% / 1% critical values pin the surface down independently
    @pytest.mark.parametrize(
        "regression,stat,expected",
        [
            ("c", -2.86, 0.05),
            ("c", -3.43, 0.01),
            ("c", -2.57, 0.10),
            ("n", -1.95, 0.05),
            ("ct", -3.41, 0.05),
        ],
    )
    def test_known_critical_values(self, regression, stat, expected):
        p, clamped = _mackinnon_pvalue(stat, regression)
        assert p == pytest.approx(expected, abs=0.005)
        assert not clamped

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    def test_monotone_in_statistic(self, regression):
        grid = np.linspace(-6.0, 0.5, 80)
        ps = [_mackinnon_pvalue(s, regression)[0] for s in grid]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    def test_matches_scipy_ndtr_of_the_surface(self, regression):
        # the surface's polynomial through SciPy's normal CDF, on a dense grid
        # over [TAU_MIN, TAU_MAX], the open end of "n" capped where p clamps
        lo, hi = _adfdata.TAU_MIN[regression], min(_adfdata.TAU_MAX[regression], 6.0)
        for stat in np.linspace(lo, hi, 10001)[1:-1]:
            small = stat <= _adfdata.TAU_STAR[regression]
            coeffs = (_adfdata.SMALL_P if small else _adfdata.LARGE_P)[regression]
            want = float(scipy.special.ndtr(np.polyval(coeffs[::-1], stat)))
            got, clamped = _mackinnon_pvalue(stat, regression)
            if clamped:
                assert not P_CLAMP <= want <= 1.0 - P_CLAMP
            else:
                assert abs(got - want) <= 1e-14 * want

    def test_extremes_clamp_and_flag(self):
        p_lo, flag_lo = _mackinnon_pvalue(-30.0, "c")
        p_hi, flag_hi = _mackinnon_pvalue(4.0, "c")
        assert p_lo == 1e-8 and flag_lo
        assert p_hi == 1.0 - 1e-8 and flag_hi


def oracle_adf_design(x: np.ndarray, lag: int, regression: str):
    """Row-by-row rebuild of the test regression, independent of the library."""
    rows, y = [], []
    dx = [x[i + 1] - x[i] for i in range(x.size - 1)]
    for t in range(lag, len(dx)):
        row = [x[t]]
        row += [dx[t - j] for j in range(1, lag + 1)]
        if regression in ("c", "ct"):
            row.append(1.0)
        if regression == "ct":
            row.append(float(t - lag + 1))
        rows.append(row)
        y.append(dx[t])
    return np.asarray(y), np.asarray(rows)


NTREND = {"n": 0, "c": 1, "ct": 2}


def lstsq_lag_choice(x: np.ndarray, max_lag: int, regression: str) -> int:
    """AIC lag choice with one lstsq fit per candidate on the common trimmed sample."""
    y, X = oracle_adf_design(x, max_lag, regression)
    m = y.size
    deterministics = list(range(max_lag + 1, X.shape[1]))
    aics = []
    for k in range(max_lag + 1):
        keep = list(range(k + 1)) + deterministics
        beta, _, _, _ = np.linalg.lstsq(X[:, keep], y, rcond=None)
        ssr = float(np.sum((y - X[:, keep] @ beta) ** 2))
        llf = -m / 2.0 * (np.log(2 * np.pi) + np.log(ssr / m) + 1.0)
        aics.append(-2 * llf + 2 * len(keep))
    return int(np.argmin(aics))


class TestAdf:
    def test_statistic_matches_ols_oracle(self):
        x = random_walk(80, seed=7)
        for regression in ("n", "c", "ct"):
            res = adf_test(make_series(x), regression=regression, max_lag=4)
            y, X = oracle_adf_design(x, res.used_lags, regression)
            want = _oracles.ols_tstat(y, X, col=0)
            assert res.statistic == pytest.approx(want, abs=1e-10)
            assert res.n_effective == y.size == x.size - res.used_lags - 1

    def test_lag_selection_matches_aic_oracle(self):
        x = random_walk(120, seed=8)
        res = adf_test(make_series(x), regression="c", max_lag=6)
        assert res.used_lags == lstsq_lag_choice(x, 6, "c")

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    def test_short_series_sweep_matches_exact_oracle(self, regression, d):
        # a 4000-level random walk, as in the demand data: its level column
        # makes X'X ill-conditioned, and hard_cap binds for the shortest
        for n in (20, 23, 26, 29, 41, 57, 80):
            x = np.diff(4000.0 + random_walk(n + d, seed=n), d)
            for max_lag in (None, 0):
                res = adf_test(make_series(x), regression=regression, max_lag=max_lag)
                cap = min(default_max_lag(n) if max_lag is None else max_lag,
                          max((n - 1) // 2 - NTREND[regression] - 2, 0))
                assert res.used_lags == lstsq_lag_choice(x, cap, regression), (n, max_lag)
                y, X = oracle_adf_design(x, res.used_lags, regression)
                assert res.n_effective == y.size
                want = _oracles.ols_tstat_exact(y, X, col=0)
                assert res.statistic == pytest.approx(want, rel=1e-9, abs=0.0), (n, max_lag)

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    @pytest.mark.parametrize(
        "x",
        [np.arange(60.0), (-1.0) ** np.arange(60), np.r_[np.zeros(5), np.ones(55)]],
        ids=["linear-trend", "period-2", "single-step"],
    )
    def test_degenerate_design_is_a_numerical_error(self, x, regression):
        with pytest.raises(NumericalError, match="singular regression matrix"):
            adf_test(make_series(x), regression=regression)

    def test_stationary_series_rejects(self):
        series = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.5,)), n=500, seed=9)
        res = adf_test(series)
        assert res.p_value < 0.01

    def test_random_walk_fails_to_reject(self):
        res = adf_test(make_series(random_walk(500, seed=10)))
        assert res.p_value > 0.05

    def test_used_lags_bounded_by_max_lag(self):
        x = random_walk(200, seed=11)
        for cap in (0, 1, 3):
            assert adf_test(make_series(x), max_lag=cap).used_lags <= cap

    def test_schwert_rule(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(500) == 17
        assert default_max_lag(3706) == 29

    def test_short_series_raises(self):
        with pytest.raises(InsufficientDataError):
            adf_test(make_series(np.random.default_rng(0).normal(size=19)))

    def test_constant_series_raises(self):
        with pytest.raises(DataError):
            adf_test(make_series(np.ones(50)))

    def test_series_with_gap_raises(self):
        x = random_walk(60, seed=12)
        x[5] = np.nan
        with pytest.raises(DataError):
            adf_test(make_series(x))

    def test_bad_regression_name(self):
        with pytest.raises(SpecError):
            adf_test(make_series(random_walk(60, seed=13)), regression="ctt")


class TestUnitRootProfile:
    def test_profiles_each_difference_order(self):
        series = make_series(random_walk(300, seed=14))
        profile = unit_root_profile(series, max_d=2)
        assert [d for d, _ in profile] == [0, 1, 2]
        # one difference of a random walk is white noise: decisive rejection
        assert profile[1][1].p_value < 0.01
        # the second difference over-differences and drives tau off the surface
        assert profile[2][1].p_value <= profile[1][1].p_value


class TestOverdifferencingRisk:
    def test_flags_underflowing_p_value(self):
        base = dict(statistic=-20.0, used_lags=3, n_effective=400, regression="c")
        assert overdifferencing_risk(AdfResult(p_value=1e-8, p_value_clamped=True, **base))
        assert overdifferencing_risk(AdfResult(p_value=5e-7, **base))
        assert not overdifferencing_risk(AdfResult(p_value=2e-3, **base))

    def test_second_difference_of_noise_is_flagged(self):
        eps = np.random.default_rng(21).normal(size=502)
        profile = unit_root_profile(make_series(eps), max_d=2)
        assert overdifferencing_risk(profile[2][1])


class TestRecommendDifferencing:
    def test_stationary_needs_no_differencing(self):
        series = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.5,)), n=400, seed=15)
        assert recommend_differencing(series).d == 0

    def test_stops_at_the_first_rejecting_order(self, adf_calls):
        series = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.5,)), n=400, seed=15)
        assert recommend_differencing(series).d == 0
        assert adf_calls == [400]

    def test_random_walk_needs_one(self):
        series = make_series(random_walk(400, seed=16))
        assert recommend_differencing(series).d == 1

    def test_double_integration_needs_two(self):
        series = make_series(np.cumsum(random_walk(400, seed=17)))
        assert recommend_differencing(series).d == 2

    def test_overdifferenced_input_warns(self):
        # second difference of white noise: stationary but with lag-1
        # autocorrelation near -2/3, the classic over-differencing signature
        eps = np.random.default_rng(18).normal(size=402)
        x = np.diff(np.diff(eps))
        with pytest.warns(UserWarning, match="over-differenc") as record:
            spec = recommend_differencing(make_series(x))
        assert spec.d == 0
        # the warning points at the caller's line
        assert record[0].filename == __file__

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            recommend_differencing(make_series(np.arange(30.0)))

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["ar1", "random walk", "double", "over-differenced"]),
        n=st.integers(50, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_profile(self, kind, n, seed):
        if kind == "ar1":
            x = simulate(SarimaSpec(1, 0, 0), SarimaParams(ar=(0.5,)), n=n, seed=seed).values
        elif kind == "over-differenced":  # the warning's case, as in the test above
            x = np.diff(np.random.default_rng(seed).normal(size=n + 2), n=2)
        else:
            x = random_walk(n, seed)
            x = np.cumsum(x) if kind == "double" else x
        series = make_series(x)
        first = next((d for d, res in unit_root_profile(series) if res.p_value < 0.05), None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if first is None:
                with pytest.raises(InsufficientDataError, match="no differencing order"):
                    recommend_differencing(series)
                return
            assert recommend_differencing(series).d == first
        w = series if first == 0 else difference(series, DifferenceSpec(d=first))
        warned = [c for c in caught if "over-differenc" in str(c.message)]
        assert len(warned) == (1 if acf(w, 1).values[0] < -0.5 else 0)
