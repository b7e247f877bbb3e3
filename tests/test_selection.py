import pickle

import numpy as np
import pytest

from conftest import make_series
from demandcast import (
    CandidateSet,
    RankedResults,
    SarimaParams,
    SarimaSpec,
    SpecError,
    SplitSpec,
    StepwiseConfig,
    evaluate_grid,
    fit,
    fixed_grid,
    log_likelihood,
    simulate,
    stepwise_search,
)
from demandcast.selection import ARIMA_TABLE_ORDERS, EvaluationRow, SARIMA_TABLE_ORDERS


def row(spec, test_mape=np.nan, aic=np.nan, error=None, converged=True):
    return EvaluationRow(
        spec=spec,
        train_mape=np.nan,
        test_mape=test_mape,
        aic=aic,
        bic=np.nan,
        loglik=np.nan,
        converged=converged,
        error=error,
    )


class TestFixedGrids:
    def test_arima_table_contents(self):
        grid = fixed_grid("arima-table")
        assert grid.name == "arima-table"
        assert grid.source == "fixed-grid"
        assert len(grid.specs) == len(ARIMA_TABLE_ORDERS) == 14
        assert SarimaSpec(5, 1, 3) in grid.specs
        assert SarimaSpec(8, 1, 9) in grid.specs
        assert all(not spec.is_seasonal for spec in grid.specs)

    def test_sarima_table_contents(self):
        grid = fixed_grid("sarima-table")
        assert len(grid.specs) == len(SARIMA_TABLE_ORDERS) == 11
        assert SarimaSpec(0, 0, 0, P=6, D=1, Q=3, s=7) in grid.specs
        assert all(spec.s == 7 and spec.is_seasonal for spec in grid.specs)

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            fixed_grid("everything")

    def test_grids_have_no_duplicates(self):
        for kind in ("arima-table", "sarima-table"):
            specs = fixed_grid(kind).specs
            assert len(set(specs)) == len(specs)


class TestCandidateSet:
    def test_name_defaults_to_source(self):
        cs = CandidateSet(specs=(SarimaSpec(1, 0, 0),), source="explicit")
        assert cs.name == "explicit"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(specs=(), source="explicit"),
            dict(specs=(SarimaSpec(1, 0, 0), SarimaSpec(1, 0, 0)), source="explicit"),
            dict(specs=(SarimaSpec(1, 0, 0),), source="adhoc"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            CandidateSet(**kwargs)


class TestRankedResults:
    def test_sorts_by_key_with_failures_last(self):
        rows = (
            row(SarimaSpec(1, 0, 0), test_mape=5.0),
            row(SarimaSpec(2, 0, 0), test_mape=np.nan, error="NumericalError: x"),
            row(SarimaSpec(0, 0, 1), test_mape=2.0),
            row(SarimaSpec(0, 0, 2), test_mape=9.0),
        )
        ranked = RankedResults(rows=rows, ranking_key="test_mape")
        assert [r.test_mape for r in ranked.rows[:3]] == [2.0, 5.0, 9.0]
        assert ranked.rows[3].failed
        assert ranked.best.spec == SarimaSpec(0, 0, 1)

    def test_order_is_permutation_invariant(self):
        rows = [row(SarimaSpec(p, 0, 0), test_mape=float(9 - p)) for p in range(6)]
        a = RankedResults(rows=tuple(rows), ranking_key="test_mape")
        b = RankedResults(rows=tuple(reversed(rows)), ranking_key="test_mape")
        assert [r.spec for r in a.rows] == [r.spec for r in b.rows]

    def test_nan_metric_counts_as_failure_for_ranking(self):
        rows = (
            row(SarimaSpec(1, 0, 0), test_mape=np.nan),
            row(SarimaSpec(2, 0, 0), test_mape=4.0),
        )
        ranked = RankedResults(rows=rows, ranking_key="test_mape")
        assert ranked.rows[0].spec == SarimaSpec(2, 0, 0)

    def test_best_is_none_when_everything_failed(self):
        rows = (row(SarimaSpec(1, 0, 0), error="NumericalError: x"),)
        assert RankedResults(rows=rows, ranking_key="aic").best is None

    def test_rejects_unknown_ranking_key(self):
        with pytest.raises(SpecError):
            RankedResults(rows=(row(SarimaSpec(1, 0, 0)),), ranking_key="mape")


class TestEvaluateGrid:
    candidates = CandidateSet(
        specs=(SarimaSpec(1, 0, 0), SarimaSpec(0, 0, 1), SarimaSpec(0, 1, 0)),
        source="explicit",
    )

    def test_ranks_candidates_on_holdout(self, ar1_series):
        ranked = evaluate_grid(ar1_series, SplitSpec.by_count(60), self.candidates)
        assert len(ranked.rows) == 3
        mapes = [r.test_mape for r in ranked.rows]
        assert mapes == sorted(mapes)
        assert all(np.isfinite(r.aic) for r in ranked.rows)
        assert ranked.best is not None and np.isfinite(ranked.best.test_mape)

    def test_aic_ranking_prefers_the_true_model(self, ar1_series):
        # dynamic MAPE is noisy at long horizons, but the likelihood ranking
        # of a well-specified AR(1) against misspecified rivals is decisive
        ranked = evaluate_grid(
            ar1_series, SplitSpec.by_count(60), self.candidates, ranking_key="aic"
        )
        assert ranked.best.spec == SarimaSpec(1, 0, 0)

    def test_parallel_equals_serial(self, ar1_series):
        serial = evaluate_grid(ar1_series, SplitSpec.by_count(60), self.candidates, jobs=1)
        parallel = evaluate_grid(ar1_series, SplitSpec.by_count(60), self.candidates, jobs=2)
        assert serial == parallel

    def test_pool_is_sized_to_the_candidates(self, ar1_series, pool_sizes):
        split_spec = SplitSpec.by_count(60)
        one = CandidateSet(specs=(SarimaSpec(0, 1, 1),), source="explicit")
        serial_one = evaluate_grid(ar1_series, split_spec, one, jobs=1)
        serial_all = evaluate_grid(ar1_series, split_spec, self.candidates, jobs=1)
        pooled_one = evaluate_grid(ar1_series, split_spec, one, jobs=8)
        pooled_all = evaluate_grid(ar1_series, split_spec, self.candidates, jobs=8)
        # one candidate runs in this process; three get three workers, not eight
        assert pool_sizes == [3]
        assert pickle.dumps(pooled_one.rows) == pickle.dumps(serial_one.rows)
        assert pickle.dumps(pooled_all.rows) == pickle.dumps(serial_all.rows)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_rejects_fewer_than_one_job(self, ar1_series, jobs):
        with pytest.raises(SpecError, match="jobs"):
            evaluate_grid(ar1_series, SplitSpec.by_count(60), self.candidates, jobs=jobs)

    def test_infeasible_candidate_becomes_error_row(self):
        series = make_series(np.random.default_rng(40).normal(size=13) + 10.0)
        candidates = CandidateSet(
            specs=(SarimaSpec(0, 0, 0), SarimaSpec(0, 0, 0, P=2, s=7)),
            source="explicit",
        )
        ranked = evaluate_grid(series, SplitSpec.by_count(3), candidates)
        errors = [r for r in ranked.rows if r.failed]
        assert len(errors) == 1
        assert "InsufficientDataError" in errors[0].error
        assert ranked.rows[-1].failed
        assert ranked.best.spec == SarimaSpec(0, 0, 0)

    def test_richer_nested_model_cannot_lose_likelihood(self, ar1_series):
        small = fit(SarimaSpec(1, 0, 0), ar1_series)
        large = fit(SarimaSpec(2, 0, 0), ar1_series)
        assert large.loglik >= small.loglik - 1e-3


class TestStepwise:
    def test_finds_autoregression_on_ar_data(self, ar1_series):
        config = StepwiseConfig(max_p=2, max_q=1, seasonal=False, max_steps=10)
        ranked = stepwise_search(ar1_series, config)
        assert ranked.ranking_key == "aic"
        best = ranked.best
        assert best is not None and best.spec.p >= 1
        assert best.spec.d == 0
        assert all(np.isnan(r.test_mape) for r in ranked.rows)

    def test_visits_canonical_starts(self, ar1_series):
        config = StepwiseConfig(max_p=2, max_q=2, seasonal=False, max_steps=0)
        ranked = stepwise_search(ar1_series, config)
        orders = {(r.spec.p, r.spec.q) for r in ranked.rows}
        assert {(0, 0), (1, 0), (0, 1), (2, 2)} <= orders

    def test_seasonal_structure_is_detected(self, seasonal_series):
        config = StepwiseConfig(max_p=1, max_q=1, max_P=1, max_Q=1, s=7, d=0, max_steps=6)
        ranked = stepwise_search(seasonal_series, config)
        assert ranked.best.spec.P >= 1

    def test_fixed_d_overrides_recommendation(self):
        walk = make_series(np.cumsum(np.random.default_rng(41).normal(size=300)) + 50.0)
        config = StepwiseConfig(max_p=1, max_q=1, seasonal=False, d=0, max_steps=2)
        ranked = stepwise_search(walk, config)
        assert all(r.spec.d == 0 for r in ranked.rows)

    def test_short_series_falls_back_to_second_differences(self):
        # 40 days is below the differencing recommendation's 50-day minimum
        walk = make_series(np.cumsum(np.random.default_rng(43).normal(size=40)) + 50.0)
        config = StepwiseConfig(max_p=1, max_q=1, seasonal=False, max_steps=1)
        with pytest.warns(UserWarning, match="differencing recommendation failed.*using d=2"):
            ranked = stepwise_search(walk, config)
        assert ranked.rows
        assert all(r.spec.d == 2 for r in ranked.rows)

    def test_config_validation(self):
        with pytest.raises(SpecError):
            StepwiseConfig(max_p=-1)
        with pytest.raises(SpecError):
            StepwiseConfig(d=3)
        with pytest.raises(SpecError):
            StepwiseConfig(D=2)
