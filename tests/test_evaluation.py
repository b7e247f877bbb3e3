import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series
from demandcast import (
    FitMetrics,
    RankedResults,
    SarimaSpec,
    SpecError,
    SplitSpec,
    StudyReport,
    StudyTable,
    fit,
    forecast,
    mape,
    render_report,
    run_study,
    split,
)
from demandcast.evaluation import classify_row, write_study_outputs
from demandcast.metrics import dynamic_metrics, one_step_metrics
from demandcast.selection import CandidateSet, EvaluationRow

FAST_GRID = CandidateSet(
    specs=(SarimaSpec(1, 0, 0), SarimaSpec(0, 1, 0)), source="explicit", name="smoke"
)


def row(spec, grid_source="explicit", **kwargs):
    defaults = dict(
        train_mape=np.nan, test_mape=np.nan, aic=np.nan, bic=np.nan,
        loglik=np.nan, converged=True, error=None,
    )
    defaults.update(kwargs)
    return EvaluationRow(spec=spec, **defaults)


def report_of(rows, dataset="mean", grid="smoke") -> StudyReport:
    table = StudyTable(
        dataset=dataset,
        grid=grid,
        results=RankedResults(rows=tuple(rows), ranking_key="test_mape"),
    )
    return StudyReport(tables=(table,), split=SplitSpec.by_count(10), seed=0)


class TestMape:
    def test_hand_example(self):
        got = mape(np.array([100.0, 200.0]), np.array([110.0, 190.0]))
        assert got == pytest.approx(7.5)

    def test_perfect_prediction_is_zero(self):
        a = np.array([3.0, 4.0])
        assert mape(a, a) == 0.0

    @given(
        actual=st.lists(st.floats(0.5, 1e4), min_size=1, max_size=20),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(deadline=None, max_examples=80)
    def test_scale_invariance(self, actual, noise, scale):
        a = np.asarray(actual)
        p = a * (1.0 + 0.3 * np.asarray(noise[: a.size]))
        base = mape(a, p)
        scaled = mape(scale * a, scale * p)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_rejects_zero_actual(self):
        from demandcast import DataError

        with pytest.raises(DataError):
            mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(SpecError):
            mape(np.array([1.0]), np.array([1.0, 2.0]))

    def test_rejects_nonfinite(self):
        from demandcast import DataError

        with pytest.raises(DataError):
            mape(np.array([1.0, np.nan]), np.array([1.0, 1.0]))


class TestFitMetrics:
    def test_horizon_kind_is_validated(self):
        with pytest.raises(SpecError):
            FitMetrics(mape=1.0, n_points=5, horizon_kind="weekly")

    def test_one_step_matches_residual_identity(self, ar1_series):
        result = fit(SarimaSpec(1, 0, 0), ar1_series)
        metrics = one_step_metrics(result, ar1_series)
        assert metrics.horizon_kind == "one-step"
        assert metrics.n_points == len(ar1_series)
        predicted = ar1_series.values - result.residuals
        assert metrics.mape == pytest.approx(
            float(np.mean(np.abs(result.residuals / ar1_series.values))) * 100.0
        )
        assert metrics.mape == pytest.approx(mape(ar1_series.values, predicted))

    def test_one_step_skips_differenced_prefix(self, ar1_series):
        result = fit(SarimaSpec(0, 1, 0), ar1_series)
        metrics = one_step_metrics(result, ar1_series)
        assert metrics.n_points == len(ar1_series) - 1

    def test_dynamic_equals_forecast_mape(self, ar1_series):
        train, test = split(ar1_series, SplitSpec.by_count(40))
        result = fit(SarimaSpec(1, 0, 0), train)
        metrics = dynamic_metrics(result, train, test)
        fc = forecast(result, train, horizon=40, max_horizon=40)
        assert metrics.horizon_kind == "dynamic"
        assert metrics.n_points == 40
        assert metrics.mape == pytest.approx(mape(test.values, fc.point))


class TestRunStudy:
    def test_study_covers_every_dataset(self, fixture_records):
        report = run_study(fixture_records, SplitSpec.by_count(60), [FAST_GRID])
        assert [t.dataset for t in report.tables] == [
            "dropna", "mean", "median", "mode", "interp",
        ]
        assert all(t.grid == "smoke" for t in report.tables)
        assert report.best_model is not None

    def test_best_model_is_global_minimum(self, fixture_records):
        report = run_study(fixture_records, SplitSpec.by_count(60), [FAST_GRID])
        _, _, best_value = report.best_model
        finite = [
            r.test_mape
            for t in report.tables
            for r in t.results.rows
            if not r.failed and np.isfinite(r.test_mape)
        ]
        assert best_value == min(finite)

    def test_rendering_is_deterministic(self, fixture_records):
        report = run_study(fixture_records, SplitSpec.by_count(60), [FAST_GRID])
        again = run_study(fixture_records, SplitSpec.by_count(60), [FAST_GRID])
        assert render_report(report, "md") == render_report(again, "md")
        assert render_report(report, "csv") == render_report(again, "csv")

    def test_requires_a_grid(self, fixture_records):
        with pytest.raises(SpecError):
            run_study(fixture_records, SplitSpec.by_count(60), [])

    def test_one_process_pool_per_study(self, fixture_records, pool_sizes):
        other = CandidateSet(specs=(SarimaSpec(0, 0, 1), SarimaSpec(1, 1, 0)), source="explicit", name="other")
        grids = [FAST_GRID, other]
        serial = run_study(fixture_records, SplitSpec.by_count(60), grids, jobs=1)
        pooled = run_study(fixture_records, SplitSpec.by_count(60), grids, jobs=2)
        # 5 datasets x 2 grids, 20 fits, one pool
        assert pool_sizes == [2]
        assert [(t.dataset, t.grid) for t in pooled.tables] == [(t.dataset, t.grid) for t in serial.tables]
        rows = [[pickle.dumps(r) for t in report.tables for r in t.results.rows] for report in (serial, pooled)]
        assert len(rows[0]) == 20 and rows[1] == rows[0]

    @pytest.mark.parametrize("jobs", [0, -4, 1.5, "2", True])
    def test_rejects_fewer_than_one_job(self, fixture_records, jobs):
        with pytest.raises(SpecError, match="jobs"):
            run_study(fixture_records, SplitSpec.by_count(60), [FAST_GRID], jobs=jobs)


class TestClassifyRow:
    def test_families(self):
        assert classify_row(row(SarimaSpec(1, 0, 0)), "stepwise") == "auto-arima"
        assert classify_row(row(SarimaSpec(0, 0, 0, P=1, s=7)), "g") == "SARIMA"
        assert classify_row(row(SarimaSpec(2, 0, 1)), "g") == "ARMA models"
        assert classify_row(row(SarimaSpec(2, 0, 0)), "g") == "AR/MA models"
        assert classify_row(row(SarimaSpec(0, 1, 1)), "g") == "AR/MA models"


class TestRenderReport:
    def test_markdown_structure(self):
        rows = [
            row(SarimaSpec(1, 0, 0), test_mape=4.0, train_mape=5.0, aic=10.0, bic=11.0),
            row(SarimaSpec(0, 0, 1), test_mape=6.5, train_mape=7.0, aic=12.0, bic=13.0,
                converged=False),
        ]
        text = render_report(report_of(rows), "md").decode()
        assert text.startswith("# Demand model comparison\n")
        assert "- split: count:10\n" in text
        assert "- seed: 0\n" in text
        assert "## mean (smoke)" in text
        assert "| Models | Order | test_MAPE | train_MAPE | AIC | BIC |" in text
        assert "| AR/MA models | (1,0,0) | 4.000 | 5.000 | 10.000 | 11.000 |" in text
        assert "(0,0,1) * |" in text
        assert "optimizer stopped" in text
        assert "Best holdout accuracy: (1,0,0) on mean (test MAPE 4.000)" in text
        assert "\r" not in text and text.endswith("\n")

    def test_markdown_failed_rows_become_notes(self):
        rows = [
            row(SarimaSpec(1, 0, 0), test_mape=4.0, train_mape=4.0, aic=1.0, bic=1.0),
            row(SarimaSpec(9, 0, 7), error="NumericalError: no admissible point",
                converged=False),
        ]
        text = render_report(report_of(rows), "md").decode()
        assert "Failed fits:" in text
        assert "- (9,0,7) failed: NumericalError: no admissible point" in text

    def test_markdown_all_failed_dataset_is_flagged(self):
        rows = [row(SarimaSpec(1, 0, 0), error="NumericalError: x", converged=False)]
        text = render_report(report_of(rows), "md").decode()
        assert "All candidate fits failed on this dataset:" in text

    def test_csv_layout(self):
        rows = [
            row(SarimaSpec(1, 0, 0), test_mape=4.0, train_mape=5.0, aic=10.0, bic=11.0,
                loglik=-3.0),
            row(SarimaSpec(2, 0, 0), error="NumericalError: x", converged=False),
        ]
        lines = render_report(report_of(rows), "csv").decode().splitlines()
        assert lines[0] == (
            "dataset,grid,models,order,test_mape,train_mape,aic,bic,loglik,converged,error"
        )
        assert lines[1] == "mean,smoke,AR/MA models,\"(1,0,0)\",4,5,10,11,-3,true,"
        assert lines[2] == "mean,smoke,AR/MA models,\"(2,0,0)\",,,,,,false,NumericalError: x"

    def test_unknown_format(self):
        with pytest.raises(SpecError):
            render_report(report_of([row(SarimaSpec(1, 0, 0), test_mape=1.0)]), "pdf")

    def test_best_model_none_when_all_failed(self):
        report = report_of([row(SarimaSpec(1, 0, 0), error="NumericalError: x")])
        assert report.best_model is None
        text = render_report(report, "md").decode()
        assert "Best holdout accuracy" not in text


class TestWriteStudyOutputs:
    def test_writes_expected_files(self, tmp_path, fixture_records):
        report = run_study(fixture_records, SplitSpec.by_count(60), [FAST_GRID])
        written = write_study_outputs(report, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == sorted(
            ["report.md", "report.csv"]
            + [f"{d}_results.csv" for d in ("dropna", "mean", "median", "mode", "interp")]
        )
        for path in written:
            assert path.exists() and path.stat().st_size > 0
