"""The benchmark's three workloads and their output checks.

Each workload is a single process running a closed loop: the next unit of
work starts only when the previous one has finished.  A unit is one full
study (``study-loworder``), one forecast request (``forecast-rolling``) or
one export ingested and diagnosed (``ingest-diagnose``).  Inputs come only
from :mod:`gen` and the run's ``--seed``; the library receives nothing else.

study-loworder
    The ``report`` path, once per generated export of 256 days (200
    training days, 56 holdout days): ``parse_records`` -> ``build_all`` (five
    datasets) -> ``unit_root_profile`` per dataset -> ``evaluate_grid``
    with two workers on the seven low-order ``arima-table`` rows plus the
    weekly rows (0,0,0)(1,0,1,7) and (0,0,0)(1,1,1,7) -> ``render_report``
    (md and csv).  At least five studies run, each on its own export, so
    the figures average over inputs that differ in how hard they are to
    fit.  Between two datasets the unit pauses for the runner's host-speed
    probe.  A report's sha256 must match any earlier run of the same study
    with the same library sources.  Stresses ``estimation``
    (optimizer evaluations and per-call overhead at state dim <= 8),
    ``selection`` (its process pool) and ``metrics``; the only workload
    that uses the pool.  ``ops_per_s`` counts candidate fits, a latency
    sample is one dataset (unit-root profile plus grid).
forecast-rolling
    The ``forecast`` path with a weekly (0,0,0)(6,1,3,7) model (state dim
    42) whose fixed, admissible parameters are set here, because fitting
    it takes minutes without numba.  Set-up writes the model with
    ``save_fit`` and reads it back with ``load_fit``.  The model serves 40
    generated exports (streams) in turn; request i takes stream i mod 40,
    parses its export up to its current day (730 days of history, one day
    more each round), then ``assemble`` -> ``impute(interp)`` ->
    ``forecast(h=14)``.  Forty streams rather than one give the accuracy
    figure forty independent stretches of data.  Stresses the Kalman
    filter (``estimation``); ``pipeline`` is about a twentieth of a request;
    bypasses the optimizer, ``selection``, ``metrics``, ``diagnostics`` and
    ``evaluation``.  At least 40 requests are made, so ``latency_ms.p75``
    has ten samples beyond it.
ingest-diagnose
    The ``ingest`` + ``diagnose`` path on distinct 3713-day exports (paper
    scale): ``parse_records`` -> ``assemble`` -> five ``impute`` -> per
    dataset ``unit_root_profile(max_d=2)``, ``recommend_differencing`` and
    ACF/PACF to lag 40 at d = 0 and 1.  ``pipeline`` and ``diagnostics`` do
    all the work; ``estimation``, ``selection``, ``metrics`` and
    ``evaluation`` are bypassed.

``mape_pct`` is deterministic for a seed.  It is the mean best holdout MAPE
of the first five studies, the mean MAPE of the first 40 rolling forecasts,
and the MAPE of the interp-imputed values on the missing days of the first
12 exports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import hostref

import demandcast as dc
from demandcast import diagnostics, pipeline


@dataclass
class Tally:
    """Attempted and failed operations and output checks of one run.

    A failed operation (a failed fit row or request) is measured: it counts
    in ``failed``.  A failed output check also makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        """Count one output check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += 1
            self.problems.append(what)


def rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def check_loglik(tally: Tally, fit_result: dc.SarimaFit, series: dc.TimeSeries, what: str) -> None:
    """``log_likelihood`` at the stored parameters must reproduce the stored loglik."""
    ll = dc.log_likelihood(fit_result.spec, fit_result.params, series)
    tally.record(rel_close(ll, fit_result.loglik, 1e-8),
                 f"{what}: log_likelihood {ll!r} != fit loglik {fit_result.loglik!r}")


def check_forecast(tally: Tally, fc: dc.Forecast, what: str) -> None:
    ok = (np.isfinite(fc.point).all() and np.isfinite(fc.lower95).all() and np.isfinite(fc.upper95).all()
          and bool(np.all(fc.lower95 <= fc.point)) and bool(np.all(fc.point <= fc.upper95)))
    tally.record(ok, f"{what}: forecast not finite or outside its interval")


FIT_FIELDS = ("spec", "params", "loglik", "aic", "bic", "n_obs", "converged")


def check_round_trip(tally: Tally, fit_result: dc.SarimaFit, loaded: dc.SarimaFit, what: str) -> None:
    """A fit read back with ``load_fit`` must equal the one given to ``save_fit``."""
    same = all(getattr(loaded, k) == getattr(fit_result, k) for k in FIT_FIELDS)
    tally.record(same, f"{what}: save_fit/load_fit round trip changed the fit")


def check_missing(tally: Tally, series: dc.TimeSeries, expected: int, what: str) -> None:
    tally.record(series.n_missing == expected,
                 f"{what}: assemble found {series.n_missing} missing days, generator made {expected}")


class DigestStore:
    """Report digests from earlier runs in the same checkout.

    Keys hold a hash of the library's sources and of the environment stamp,
    so a change to the library or to numpy, scipy or numba never compares
    against digests made with another version.
    """

    def __init__(self, path: Path, version: str):
        self.path = path
        self.version = version
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, tally: Tally, key: str, digest: str) -> None:
        key = f"{self.version}:{key}"
        if key in self.data:
            tally.record(self.data[key] == digest, f"{key}: report sha256 differs from an earlier run")
        else:
            self.data[key] = digest

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=0, sort_keys=True))


class Workload:
    """Defaults shared by the workloads; see the module docstring.

    Each workload names in ``reference`` the :mod:`hostref` computation
    that resembles its own work; the runner scales its times by that one.
    """

    name = ""
    min_units = 1

    def __init__(self, seed: int, out_dir: Path, digests: DigestStore):
        self.seed = seed
        self.out_dir = out_dir
        self.digests = digests
        # a fit and its series: the traced run times log_likelihood at the
        # fit's parameters; probe_fit_s is how long that fit itself took
        self.probe: tuple[dc.SarimaFit, dc.TimeSeries] | None = None
        self.probe_fit_s = 0.0
        self.rows_parsed = 0
        # called between two latency samples inside a unit; the runner
        # takes a host-speed probe there
        self.pause = lambda: None

    def setup(self) -> None:
        """Program-side work before the first timed unit; timed as setup_s."""

    def summary(self) -> dict[str, float]:
        return {}


class StudyLowOrder(Workload):
    name = "study-loworder"
    min_units = 5
    reference = staticmethod(hostref.indexing_on_each_cpu)
    TRAIN_DAYS = 200
    HOLDOUT_DAYS = 56
    JOBS = min(2, os.cpu_count() or 1)
    SPLIT = dc.SplitSpec.by_count(HOLDOUT_DAYS)
    CHECK_SPEC = dc.SarimaSpec(0, 0, 0, P=1, D=1, Q=1, s=7)
    GRID = dc.CandidateSet(
        specs=tuple(dc.SarimaSpec(p, d, q) for p, d, q in
                    ((1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1)))
        + (dc.SarimaSpec(0, 0, 0, P=1, D=0, Q=1, s=7), CHECK_SPEC),
        source="explicit",
        name="loworder",
    )

    def __init__(self, seed: int, out_dir: Path, digests: DigestStore):
        super().__init__(seed, out_dir, digests)
        self.exports: dict[int, gen.Export] = {}
        self.reports: list[tuple[int, dc.StudyReport, str]] = []
        self.failures: list[str] = []

    def inputs(self, i: int) -> bytes:
        if i not in self.exports:
            self.exports[i] = gen.make_export((self.seed, i), self.TRAIN_DAYS + self.HOLDOUT_DAYS)
        return self.exports[i].csv_bytes

    def setup(self) -> None:
        # one tiny likelihood pass, which compiles the filter when numba is present
        series = dc.TimeSeries(gen.START, gen.demand_path(np.random.default_rng(0), 64))
        dc.log_likelihood(dc.SarimaSpec(1, 0, 0), dc.SarimaParams(mean=4000.0, ar=(0.5,)), series)

    def unit(self, i: int, data: bytes) -> tuple[int, int, list[tuple[float, float]]]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = dc.parse_records(data)
            self.rows_parsed += len(records)
            bundles = dc.build_all(records)
            tables, samples = [], []
            for bundle in bundles:
                t0 = time.perf_counter()
                diagnostics.unit_root_profile(bundle.series, max_d=2)
                ranked = dc.evaluate_grid(bundle.series, self.SPLIT, self.GRID, seed=0, jobs=self.JOBS)
                samples.append((t0, time.perf_counter()))
                self.pause()
                tables.append(dc.StudyTable(dataset=bundle.name, grid=self.GRID.name, results=ranked))
            report = dc.StudyReport(tables=tuple(tables), split=self.SPLIT, seed=0)
            digest = hashlib.sha256(dc.render_report(report, "md") + dc.render_report(report, "csv")).hexdigest()
        self.reports.append((i, report, digest))
        self.failures.extend(f"study {i} {table.dataset} {row.spec.label()}: {row.error}"
                             for table in tables for row in table.results.rows if row.failed)
        rows = [row for table in tables for row in table.results.rows]
        return len(rows), sum(row.failed for row in rows), samples

    def check(self, tally: Tally) -> None:
        tally.problems.extend(self.failures)
        first = {}
        for i, _, digest in self.reports:
            if i in first:
                tally.record(first[i] == digest, f"study {i}: report sha256 differs between two runs of it")
            else:
                first[i] = digest
                self.digests.check(tally, f"{self.name}:{self.seed}:{i}", digest)
        export = self.exports[0]
        base = dc.assemble(dc.parse_records(export.csv_bytes))
        check_missing(tally, base, export.n_missing, "study export 0")
        train, _ = dc.split(dc.impute(base, dc.ImputationStrategy.INTERPOLATE).series, self.SPLIT)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            refit = dc.fit(self.CHECK_SPEC, train, seed=0)
            self.probe_fit_s = time.perf_counter() - t0
        grid_row = next(row for table in self.reports[0][1].tables if table.dataset == "interp"
                        for row in table.results.rows if row.spec == self.CHECK_SPEC)
        tally.record(rel_close(refit.loglik, grid_row.loglik, 1e-9),
                     f"in-process fit loglik {refit.loglik!r} != pooled grid row {grid_row.loglik!r}")
        check_loglik(tally, refit, train, "study refit")
        path = self.out_dir / "study_model.txt"
        dc.save_fit(refit, path)
        check_round_trip(tally, refit, dc.load_fit(path)[0], "study refit")
        check_forecast(tally, dc.forecast(refit, train, horizon=self.HOLDOUT_DAYS), "study refit")
        self.probe = (refit, train)

    def accuracy(self) -> float:
        best: dict[int, float] = {}
        for i, report, _ in self.reports:
            best.setdefault(i, report.best_model[2])
        return float(np.mean([best[i] for i in range(self.min_units)]))

    def summary(self) -> dict[str, float]:
        rows = [row for table in self.reports[0][1].tables for row in table.results.rows]
        return {
            "estimation.loglik_sum": sum(row.loglik for row in rows if not row.failed),
            "estimation.nonconverged": sum(not row.converged and not row.failed for row in rows),
        }


class ForecastRolling(Workload):
    name = "forecast-rolling"
    min_units = 40
    reference = staticmethod(hostref.indexing)
    HISTORY_DAYS = 730
    STREAMS = 40
    MAX_ROUNDS = 50
    HORIZON = 14
    SPEC = dc.SarimaSpec(0, 0, 0, P=6, D=1, Q=3, s=7)
    # admissible by construction: partial autocorrelations in (-1, 1) mapped
    # through the Durbin-Levinson recursion (see estimation.pacf_to_coeffs)
    PARAMS = dc.SarimaParams(
        mean=0.0,
        seasonal_ar=(-1.045, -0.8467, -0.598752, -0.34358, -0.152, -0.05),
        seasonal_ma=(-0.335, 0.1165, -0.05),
        sigma2=13000.0,
    )

    def __init__(self, seed: int, out_dir: Path, digests: DigestStore):
        super().__init__(seed, out_dir, digests)
        self.exports = [gen.make_export((seed, k), self.HISTORY_DAYS + self.MAX_ROUNDS, n_future=self.HORIZON)
                        for k in range(self.STREAMS)]
        self.forecasts: list[tuple[int, dc.Forecast]] = []

    def _stream_day(self, i: int) -> tuple[int, int]:
        """Request i serves stream i mod STREAMS, whose history ends one day later each round."""
        return i % self.STREAMS, self.HISTORY_DAYS - 1 + (i // self.STREAMS) % self.MAX_ROUNDS

    def inputs(self, i: int) -> tuple[int, bytes]:
        stream, day = self._stream_day(i)
        return stream, self.exports[stream].prefix(day)

    def setup(self) -> None:
        history = dc.impute(dc.assemble(dc.parse_records(self.exports[0].prefix(self.HISTORY_DAYS - 1))),
                            dc.ImputationStrategy.INTERPOLATE).series
        loglik = dc.log_likelihood(self.SPEC, self.PARAMS, history)
        n_obs = len(history) - self.SPEC.diff_spec.n_dropped
        k = self.SPEC.k_params
        self.fit = dc.SarimaFit(
            spec=self.SPEC, params=self.PARAMS, loglik=loglik, aic=2.0 * k - 2.0 * loglik,
            bic=k * math.log(n_obs) - 2.0 * loglik, n_obs=n_obs, converged=True,
        )
        self.history = history
        path = self.out_dir / "rolling_model.txt"
        dc.save_fit(self.fit, path)
        self.model, _ = dc.load_fit(path)

    def unit(self, i: int, request: tuple[int, bytes]) -> tuple[int, int, list[tuple[float, float]]]:
        stream, data = request
        records = dc.parse_records(data)
        self.rows_parsed += len(records)
        series = dc.assemble(records)
        bundle = dc.impute(series, dc.ImputationStrategy.INTERPOLATE)
        fc = dc.forecast(self.model, bundle.series, horizon=self.HORIZON)
        self.forecasts.append((stream, fc))
        return 1, 0, []

    def check(self, tally: Tally) -> None:
        check_round_trip(tally, self.fit, self.model, "served model")
        check_loglik(tally, self.model, self.history, "served model")
        for k, export in enumerate(self.exports):
            check_missing(tally, dc.assemble(dc.parse_records(export.csv_bytes)), export.n_missing, f"stream {k}")
        for i, (_, fc) in enumerate(self.forecasts):
            check_forecast(tally, fc, f"request {i}")
        self.probe = (self.model, self.history)

    def accuracy(self) -> float:
        values = []
        for stream, fc in self.forecasts[: self.min_units]:
            i0 = (fc.start_date - gen.START).days
            values.append(dc.mape(self.exports[stream].actuals[i0: i0 + fc.horizon], fc.point))
        return float(np.mean(values))


class IngestDiagnose(Workload):
    name = "ingest-diagnose"
    min_units = 12
    reference = staticmethod(hostref.regressions)
    DAYS = 3713
    MAX_LAG = 40

    def __init__(self, seed: int, out_dir: Path, digests: DigestStore):
        super().__init__(seed, out_dir, digests)
        self.exports: dict[int, gen.Export] = {}
        self.outputs: list[tuple] = []

    def inputs(self, i: int) -> gen.Export:
        export = gen.make_export((self.seed, i), self.DAYS)
        if i < self.min_units:
            self.exports[i] = export
        return export

    def unit(self, i: int, export: gen.Export) -> tuple[int, int, list[tuple[float, float]]]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = dc.parse_records(export.csv_bytes)
            self.rows_parsed += len(records)
            series = dc.assemble(records)
            bundles = tuple(dc.impute(series, s) for s in pipeline.STRATEGY_ORDER)
            diag = []
            for bundle in bundles:
                diag.extend(res for _, res in diagnostics.unit_root_profile(bundle.series, max_d=2))
                dc.recommend_differencing(bundle.series, s=7)
                for d in (0, 1):
                    w = bundle.series if d == 0 else dc.difference(bundle.series, dc.DifferenceSpec(d=d))
                    diag.append(dc.acf(w, self.MAX_LAG))
                    diag.append(dc.pacf(w, self.MAX_LAG))
        self.outputs.append((i, series, bundles, diag, export.n_missing, export.n_days))
        return 1, 0, []

    def check(self, tally: Tally) -> None:
        for i, series, bundles, diag, n_missing, n_days in self.outputs:
            check_missing(tally, series, n_missing, f"export {i}")
            sizes_ok = len(bundles[0].series) == n_days - n_missing and all(
                len(b.series) == n_days and b.series.is_complete for b in bundles[1:])
            stats_ok = all(
                (np.isfinite(x.statistic) and 0.0 < x.p_value < 1.0) if isinstance(x, dc.AdfResult)
                else bool(np.all(np.abs(x.values) <= 1.0))
                for x in diag
            )
            tally.record(sizes_ok and stats_ok, f"export {i}: dataset sizes or diagnostics out of range")

    def accuracy(self) -> float:
        interp = {}
        for i, _, bundles, *_ in self.outputs:
            interp.setdefault(i, next(b for b in bundles if b.strategy is dc.ImputationStrategy.INTERPOLATE))
        errors = []
        for i, export in sorted(self.exports.items()):
            filled = interp[i].series.values
            days = export.missing_days
            errors.append(np.abs(filled[days] - export.actuals[days]) / export.actuals[days])
        return float(100.0 * np.mean(np.concatenate(errors)))


WORKLOADS = {w.name: w for w in (StudyLowOrder, ForecastRolling, IngestDiagnose)}
