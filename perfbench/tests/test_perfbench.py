"""Tests of the benchmark's own code: generator, percentile rule, checks, spans.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import datetime as dt
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gen
import hostref
import run
import spans
import workloads

import demandcast as dc


def test_generator_is_byte_identical_for_a_seed():
    a = gen.make_export(7, 400, n_future=14)
    b = gen.make_export(7, 400, n_future=14)
    assert a.csv_bytes == b.csv_bytes
    assert np.array_equal(a.actuals, b.actuals)
    assert np.array_equal(a.missing_days, b.missing_days)


def test_generator_differs_across_seeds():
    assert gen.make_export(7, 400).csv_bytes != gen.make_export(8, 400).csv_bytes
    assert gen.make_export((7, 0), 400).csv_bytes != gen.make_export((7, 1), 400).csv_bytes


def test_export_has_every_kind_of_missing_day_and_the_library_agrees():
    export = gen.make_export(3, 1000, n_future=30)
    lines = export.csv_bytes.decode().splitlines()
    assert lines[0] == gen.HEADER and all(len(line.split(",")) == 8 for line in lines)
    demand = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert "" in demand.values()
    assert any(v and float(v) <= 0 for v in demand.values())
    absent_rows = 1000 - (len(lines) - 1)
    assert absent_rows >= gen.GAP_DAYS
    assert 0.015 <= export.n_missing / 1000 <= 0.025
    assert export.future.size == 30
    series = dc.assemble(dc.parse_records(export.csv_bytes))
    assert len(series) == 1000 and series.n_missing == export.n_missing
    assert np.array_equal(np.flatnonzero(np.isnan(series.values)), export.missing_days)


def test_prefix_holds_the_rows_up_to_a_day():
    export = gen.make_export(3, 400)
    full = dc.parse_records(export.csv_bytes)
    for last in (100, int(export.missing_days[0]), 399):
        cut = gen.START + dt.timedelta(days=last)
        assert dc.parse_records(export.prefix(last)) == [r for r in full if r.date <= cut]


@pytest.mark.parametrize("n, q, rank", [(40, 0.75, 30), (10, 0.5, 5), (11, 0.5, 6), (1, 0.75, 1), (41, 0.75, 31)])
def test_nearest_rank_picks_the_rank(n, q, rank):
    samples = list(np.random.default_rng(0).permutation(np.arange(1.0, n + 1)))
    assert run.nearest_rank(samples, q) == rank


def _clock(*marks):
    clock = hostref.HostClock(hostref.indexing)
    clock.marks = list(marks)
    return clock


def test_scale_uses_the_probes_before_inside_and_after_an_interval():
    nominal = hostref.NOMINAL_S[hostref.indexing]
    clock = _clock((1.0, 0.010), (2.0, 0.020), (4.0, 0.040), (6.0, 0.030), (7.0, 0.080))
    assert clock.scale(2.5, 5.0) == pytest.approx(nominal / 0.030)  # probes ending at 2, 4 and 6
    assert clock.scale(2.5, 3.5) == pytest.approx(nominal / 0.030)  # no probe inside: 2 and 4
    assert clock.scale(0.0, 0.5) == pytest.approx(nominal / 0.010)  # no probe before: the first after


def test_probe_on_each_cpu_leaves_the_affinity_as_it_was():
    before = os.sched_getaffinity(0)
    hostref.indexing_on_each_cpu()
    assert os.sched_getaffinity(0) == before


def test_probes_inside_an_interval_are_not_its_time():
    clock = _clock((1.0, 0.5), (3.0, 0.25), (5.0, 0.5))
    assert clock.probed_within(1.0, 5.0) == pytest.approx(0.75)
    assert clock.probed_within(2.0, 4.0) == pytest.approx(0.25)


def test_run_unit_counts_a_pause_probe_out_of_busy_time():
    class Pausing:
        def unit(self, i, data):
            t0 = time.perf_counter()
            time.sleep(0.05)
            t1 = time.perf_counter()
            self.pause()
            return 1, 0, [(t0, t1)]

    workload, tally, done = Pausing(), workloads.Tally(), run.Units()
    clock = hostref.HostClock(lambda: time.sleep(0.2))
    workload.pause = clock.mark
    run.run_unit(workload, 0, None, done, tally, clock)
    assert 0.05 <= done.busy < 0.15
    assert len(done.samples) == 1 and done.samples[0][1] - done.samples[0][0] < 0.15


def test_p75_needs_forty_samples_for_ten_beyond():
    assert run.samples_beyond(40, 0.75) == 10
    assert run.samples_beyond(39, 0.75) == 9


@pytest.fixture(scope="module")
def small_fit():
    series = dc.TimeSeries(gen.START, gen.demand_path(np.random.default_rng(1), 200))
    return dc.fit(dc.SarimaSpec(1, 0, 0), series, seed=0), series


def test_checks_pass_on_genuine_outputs(small_fit, tmp_path):
    fit_result, series = small_fit
    tally = workloads.Tally()
    workloads.check_loglik(tally, fit_result, series, "fit")
    dc.save_fit(fit_result, tmp_path / "model.txt")
    workloads.check_round_trip(tally, fit_result, dc.load_fit(tmp_path / "model.txt")[0], "fit")
    workloads.check_forecast(tally, dc.forecast(fit_result, series, horizon=14), "fit")
    workloads.check_missing(tally, series, 0, "series")
    assert (tally.attempted, tally.failed) == (4, 0)


def test_perturbed_loglik_counts_as_a_failure(small_fit):
    fit_result, series = small_fit
    tally = workloads.Tally()
    corrupted = dataclasses.replace(fit_result, loglik=fit_result.loglik * (1 + 1e-6))
    workloads.check_loglik(tally, corrupted, series, "fit")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_forecast_outside_its_interval_counts_as_a_failure(small_fit):
    fit_result, series = small_fit
    fc = dc.forecast(fit_result, series, horizon=14)
    bad = dataclasses.replace(fc, point=fc.upper95 + 1.0)
    tally = workloads.Tally()
    workloads.check_forecast(tally, bad, "fc")
    workloads.check_forecast(tally, dataclasses.replace(fc, point=np.full(14, np.nan)), "fc")
    assert (tally.attempted, tally.failed) == (2, 2)


def test_changed_round_trip_counts_as_a_failure(small_fit):
    fit_result, _ = small_fit
    tally = workloads.Tally()
    workloads.check_round_trip(tally, fit_result, dataclasses.replace(fit_result, aic=fit_result.aic + 1e-9), "fit")
    assert (tally.failed, tally.checks_failed) == (1, 1)


def test_wrong_missing_count_counts_as_a_failure():
    export = gen.make_export(3, 400)
    series = dc.assemble(dc.parse_records(export.csv_bytes))
    tally = workloads.Tally()
    workloads.check_missing(tally, series, export.n_missing + 1, "export")
    assert tally.failed == 1


def _span(id_, name, start, end, parent=None):
    return spans.Span(id_, name, start, end, parent, 1)


def test_self_time_subtracts_the_union_of_parallel_children():
    trace = [
        _span("a", "selection.evaluate_grid", 0.0, 10.0),
        _span("b", "estimation.fit", 1.0, 6.0, "a"),
        _span("c", "estimation.fit", 2.0, 8.0, "a"),
        _span("d", "series.difference", 2.0, 3.0, "c"),
        _span("e", "pipeline.parse_records", 11.0, 12.0),
    ]
    selves = spans.self_times(trace, 13.0)
    assert selves["selection"] == pytest.approx(3.0)
    assert selves["estimation"] == pytest.approx(5.0 + 5.0)
    assert selves["series"] == pytest.approx(1.0)
    assert selves["pipeline"] == pytest.approx(1.0)
    assert selves["bench"] == pytest.approx(2.0)


def test_instrument_records_cross_layer_calls_and_undo_restores(tmp_path):
    original = dc.parse_records
    tracer = spans.Tracer(tmp_path)
    with spans.Instrumentation(tracer):
        series = dc.assemble(dc.parse_records(gen.make_export(3, 200).csv_bytes))
        dc.acf(dc.impute(series, dc.ImputationStrategy.INTERPOLATE).series, 5)
    assert dc.parse_records is original
    assert [s.name for s in tracer.spans] == [
        "pipeline.parse_records", "pipeline.assemble", "pipeline.impute", "diagnostics.acf"]
    assert all(s.parent is None for s in tracer.spans)


def test_tree_memory_counts_a_live_child():
    own = run.tree_pss_kb(os.getpid())
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; b = bytearray(32 << 20); print(flush=True); sys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        child.stdout.readline()
        with run.PeakMemory() as memory:
            pass
    finally:
        child.communicate()
    assert memory.peak_kb - own >= 32 << 10
