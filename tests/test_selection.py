import ctypes
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import demandcast
from conftest import make_series
from demandcast import (
    CandidateSet,
    NumericalError,
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
    run_study,
    simulate,
    split,
    stepwise_search,
)
from demandcast import selection
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

    @pytest.mark.parametrize("jobs", [0, -4, 1.5, "2", True])
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

    @pytest.mark.parametrize(
        "settings",
        [{"D": 1, "s": 1}, {"D": 1, "seasonal": False}, {"d": 1.5}, {"d": True}, {"max_p": 2.5}],
        ids=["D-at-period-1", "D-without-seasonal-search", "fractional-d", "bool-d", "fractional-cap"],
    )
    def test_config_rejects_what_the_search_would_not_run(self, settings):
        with pytest.raises(SpecError):
            StepwiseConfig(**settings)

    def test_holdout_fits_each_visited_spec_once(self, seasonal_series, monkeypatch):
        fitted = []

        def counting_fit(spec, *args, **kwargs):
            fitted.append(spec)
            return fit(spec, *args, **kwargs)

        monkeypatch.setattr(selection, "fit", counting_fit)
        train, test = split(seasonal_series, SplitSpec.by_count(60))
        config = StepwiseConfig(max_p=1, max_q=1, max_P=1, max_Q=1, d=0, max_steps=3)
        ranked, _ = selection._stepwise_holdout(config, train, test, 0)
        assert len(fitted) == len(ranked.rows) == len(set(fitted))

    @pytest.mark.parametrize("forecast_fails", [False, True], ids=["forecast", "failed-forecast"])
    def test_holdout_row_is_the_winner_evaluated_alone(self, ar1_series, forecast_fails, monkeypatch):
        if forecast_fails:
            def failing_forecast(*args, **kwargs):
                raise NumericalError("forecast failed")

            monkeypatch.setattr(selection, "dynamic_metrics", failing_forecast)
        train, test = split(ar1_series, SplitSpec.by_count(60))
        config = StepwiseConfig(max_p=2, max_q=1, seasonal=False, max_steps=10)
        ranked, holdout = selection._stepwise_holdout(config, train, test, 3)
        alone = selection._evaluate_candidate(ranked.best.spec, train, test, 3)
        assert holdout.failed is forecast_fails
        # repr, since NaN fields never compare equal
        assert repr(holdout) == repr(alone)

    def test_search_that_fits_nothing(self):
        train, test = split(make_series(np.arange(62.0)), SplitSpec.by_count(60))
        config = StepwiseConfig(max_p=1, max_q=1, seasonal=False, d=2)
        ranked, holdout = selection._stepwise_holdout(config, train, test, 0)
        assert holdout is None and ranked.rows and all(r.failed for r in ranked.rows)
        with pytest.raises(NumericalError, match="no candidate could be fitted"):
            stepwise_search(train, config)


def _openblas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS copy with ``scipy_openblas_get_num_threads``
    (SciPy's), or None where there is none."""
    import scipy.linalg  # noqa: F401  (loads SciPy's copy)

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _wait_gone(pids, timeout: float = 10.0) -> set[int]:
    """Those of ``pids`` still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.05)
    return alive


class TestWorkerPool:
    """One task-runner pool per process, kept across calls."""

    candidates = TestEvaluateGrid.candidates
    grid = CandidateSet(specs=(SarimaSpec(1, 0, 0), SarimaSpec(0, 1, 0)), source="explicit", name="smoke")

    def test_calls_share_one_pool(self, ar1_series, fixture_records, pool_sizes):
        split_spec = SplitSpec.by_count(60)
        serial_grid = evaluate_grid(ar1_series, split_spec, self.candidates, jobs=1)
        serial_study = run_study(fixture_records, split_spec, [self.grid], jobs=1)
        assert pool_sizes == [] and _worker_pids() == set()
        pooled_grids, workers = [], []
        for jobs in (2, np.int64(2)):
            pooled_grids.append(evaluate_grid(ar1_series, split_spec, self.candidates, jobs=jobs))
            workers.append(_worker_pids())
        pooled_study = run_study(fixture_records, split_spec, [self.grid], jobs=2)
        workers.append(_worker_pids())
        assert pool_sizes == [2]
        assert len(workers[0]) == 2 and workers == [workers[0]] * 3
        for pooled in pooled_grids:
            assert pickle.dumps(pooled.rows) == pickle.dumps(serial_grid.rows)
        studies = (serial_study, pooled_study)
        rows = [[pickle.dumps(r) for t in study.tables for r in t.results.rows] for study in studies]
        assert len(rows[0]) == 10 and rows[1] == rows[0]

    def test_another_worker_count_replaces_the_pool(self, pool_sizes):
        first = selection._run_tasks([(os.getpid,)] * 2, 2)
        old = _worker_pids()
        second = selection._run_tasks([(os.getpid,)] * 3, 3)
        new = _worker_pids()
        assert pool_sizes == [2, 3]
        assert len(old) == 2 and set(first) <= old
        assert len(new) == 3 and set(second) <= new and not new & old
        assert _wait_gone(old) == set()

    def test_dead_worker_breaks_the_call_and_the_next_call_gets_a_new_pool(self, pool_sizes):
        with pytest.raises(BrokenProcessPool):
            selection._run_tasks([(os._exit, 3), (os.getpid,)], 2)
        assert selection._pool is None
        pids = selection._run_tasks([(os.getpid,)] * 2, 2)
        assert pool_sizes == [2, 2]
        assert set(pids) <= _worker_pids() and os.getpid() not in pids

    def test_pool_recorded_under_another_pid_is_not_reused(self, pool_sizes):
        selection._run_tasks([(os.getpid,)] * 2, 2)
        pid, workers, inherited = selection._pool
        old = _worker_pids()
        # as a forked child finds its parent's pool: left alone, not reused
        selection._pool = (pid + 1, workers, inherited)
        try:
            pids = selection._run_tasks([(os.getpid,)] * 2, 2)
            assert pool_sizes == [2, 2]
            assert selection._pool[0] == os.getpid() and selection._pool[2] is not inherited
            assert not set(pids) & old and old < _worker_pids()
        finally:
            inherited.shutdown(wait=False)
        assert _wait_gone(old) == set()

    def test_workers_run_single_threaded_blas(self):
        threads = _openblas_threads()
        if threads is None:
            pytest.skip("no OpenBLAS copy with scipy_openblas_get_num_threads is loaded")
        assert selection._run_tasks([(_openblas_threads,)] * 2, 2) == [1, 1]
        assert _openblas_threads() == threads  # this process keeps its own setting

    def test_no_worker_outlives_the_process(self):
        package_root = Path(demandcast.__file__).resolve().parent.parent
        code = (
            f"import multiprocessing, os, sys; sys.path.insert(0, {str(package_root)!r})\n"
            "from demandcast.selection import _run_tasks\n"
            "pids = {*_run_tasks([(os.getpid,)] * 4, 2), *_run_tasks([(os.getpid,)] * 4, 2)}\n"
            "workers = {p.pid for p in multiprocessing.active_children()}\n"
            "assert len(workers) == 2 and pids <= workers\n"
            "print(*sorted(workers))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        workers = {int(pid) for pid in proc.stdout.split()}
        assert len(workers) == 2 and _wait_gone(workers) == set()
