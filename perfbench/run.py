#!/usr/bin/env python3
"""Benchmark runner for demandcast: one workload, one seed, one run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload study-loworder --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout; without it the run
stops with exit code 2 and prints no result.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the ``end_to_end`` metrics listed in
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones.  A traced run
spends half of its time untraced, then runs the same units again with a
span around every call into a library layer; it reports per-layer self
times and the tracing overhead, and writes the spans to ``.perfbench_out/``.

The host's speed drifts by up to a third within seconds, so the times
behind ``ops_per_s`` and ``latency_ms.*`` are scaled to a fixed host speed:
the workload's reference computation (:mod:`hostref`) runs before the first
unit, after every unit and between the datasets of a study, and each timed
interval is multiplied by the reference's nominal time over the probe times
around it.  The unscaled figures are printed on the line before the result.
BLAS runs single-threaded (``OPENBLAS_NUM_THREADS=1``, set before NumPy is
imported): on two cores, 28 least-squares fits of a 3000 x 12 design took
15 ms with one thread and 21 ms with two; while another process kept one
core busy, as the study's pool workers do, they took 17 ms with one thread
and 45 ms (at worst 180 ms) with two.

``setup_s`` is the median of cold set-up trials, each the import of the
library plus the workload's set-up: the run's own, and the others in fresh
interpreters.  It is not scaled: neither reference tracks import time.
``peak_rss_mb`` is the highest sampled sum of the proportional set sizes
of this process and its live children (the pool workers), so pages a
worker shares with its parent count once.

The line before the result stamps the environment: nproc and the Python,
numpy and scipy versions, and whether numba is importable.  Runs with
different stamps must not be compared, since numba changes the filter's
cost by orders of magnitude.  The exit code is 1 when an output check
failed; failed operations (fit rows, requests) are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_TRIALS = 3
LOGLIK_TRIALS = 5
MEMORY_INTERVAL_S = 0.1


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the ceil(q * n)-th smallest sample."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


@dataclass
class Units:
    """What a sequence of units did: work items, failures, busy time, timed intervals."""

    count: int = 0
    ops: int = 0
    failed: int = 0
    busy: float = 0.0
    intervals: list[tuple[float, float, float]] = field(default_factory=list)  # (start, end, busy) per unit
    samples: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per latency sample


def run_unit(workload, i: int, data, done: Units, tally, clock=None) -> None:
    """Run and time unit i on ``data``; a library error fails the unit.
    Host-speed probes that ``clock`` took inside the unit are not busy time."""
    from demandcast import DemandcastError

    t0 = time.perf_counter()
    try:
        ops, failed, samples = workload.unit(i, data)
    except DemandcastError as exc:
        ops, failed, samples = 1, 1, []
        tally.problems.append(f"unit {i}: {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    elapsed = t1 - t0 - (clock.probed_within(t0, t1) if clock else 0.0)
    done.count += 1
    done.ops += ops
    done.failed += failed
    done.busy += elapsed
    done.intervals.append((t0, t1, elapsed))
    done.samples.extend(samples or [(t0, t1)])
    tally.attempted += ops
    tally.failed += failed


def more_units(done: Units, busy: float, seconds: float, min_units: int) -> bool:
    """Closed-loop stop rule: run at least ``min_units``, then stop once one
    more unit would, on average, end more than half a unit past ``seconds``."""
    return done.count < min_units or busy + 0.5 * busy / done.count < seconds


def run_units(workload, tally, seconds: float, min_units: int, clock) -> Units:
    """Closed loop: unit i starts when unit i - 1 has finished.  Input
    generation by the benchmark happens between units and is not timed.
    ``clock`` probes the host's speed before the first unit, after every
    unit and wherever a unit pauses."""
    done = Units()
    workload.pause = clock.mark
    clock.mark()
    while more_units(done, done.busy, seconds, min_units):
        run_unit(workload, done.count, workload.inputs(done.count), done, tally, clock)
        clock.mark()
    return done


def tree_pss_kb(pid: int) -> int:
    """Proportional set size of a process and its live children, in kB.

    PSS counts a page shared by n processes as 1/n in each, so the sum over a
    forked pool counts the pages it shares with its parent once.
    """
    pids = [pid]
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids.extend(int(c) for c in children.read_text().split())
        except FileNotFoundError:
            pass  # a thread that ended after the listing
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/smaps_rollup", encoding="ascii") as fh:
                total += next(int(line.split()[1]) for line in fh if line.startswith("Pss:"))
        except (FileNotFoundError, ProcessLookupError, StopIteration):
            pass  # a child that ended between the listing and the read
    return total


class PeakMemory:
    """Samples :func:`tree_pss_kb` of this process in a background thread while entered."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, tree_pss_kb(os.getpid()))
            if self._stop.wait(MEMORY_INTERVAL_S):
                return

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def timed(func) -> float:
    t0 = time.perf_counter()
    func()
    return time.perf_counter() - t0


def setup_probe(name: str, seed: int) -> None:
    """Import the library and set the workload up, as a fresh process does;
    print the seconds both took.  The workload's inputs are generated in
    between and not counted."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import demandcast  # noqa: F401

    imported = time.perf_counter() - t0
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT, None)
    print(imported + timed(workload.setup))


def cold_setup_seconds(name: str, seed: int) -> float:
    """One cold set-up trial: :func:`setup_probe` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; run.setup_probe({name!r}, {seed})"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def version_hash(env: dict) -> str:
    """sha256 over the library's source files, in path order, and the environment stamp."""
    digest = hashlib.sha256(json.dumps(env, sort_keys=True).encode())
    for path in sorted((SRC / "demandcast").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    from demandcast import estimation

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(estimation.HAVE_NUMBA),
    }


def end_to_end(workload, tally, seconds: float, first_import: float) -> dict[str, float]:
    """End-to-end metrics, their unit times scaled to a fixed host speed.
    Every set-up trial is cold: the first is this process's own import and
    set-up, the others run in fresh interpreters after the timed loop, so
    that they do not disturb it."""
    import hostref

    clock = hostref.HostClock(workload.reference)
    with PeakMemory() as memory:
        setups = [first_import + timed(workload.setup)]
        done = run_units(workload, tally, seconds, workload.min_units, clock)
    workload.check(tally)
    setups += [cold_setup_seconds(workload.name, workload.seed) for _ in range(SETUP_TRIALS - 1)]
    busy = sum(elapsed * clock.scale(start, end) for start, end, elapsed in done.intervals)
    latencies = [(end - start) * clock.scale(start, end) for start, end in done.samples]
    raw_latencies = [end - start for start, end in done.samples]
    probes = [seconds for _, seconds in clock.marks]
    n = len(latencies)
    print(json.dumps({
        "units": done.count, "latency_samples": n, "p75_samples_beyond": samples_beyond(n, 0.75),
        "probe_s": {"reference": workload.reference.__name__, "n": len(probes), "median": statistics.median(probes),
                    "min": min(probes), "max": max(probes)},
        "unscaled": {
            "ops_per_s": done.ops / done.busy,
            "latency_ms.p50": 1e3 * nearest_rank(raw_latencies, 0.50),
            "latency_ms.p75": 1e3 * nearest_rank(raw_latencies, 0.75),
        },
        "setup_trials_s": setups,
    }))
    return {
        "ops_per_s": done.ops / busy,
        "latency_ms.p50": 1e3 * nearest_rank(latencies, 0.50),
        "latency_ms.p75": 1e3 * nearest_rank(latencies, 0.75),
        "mape_pct": workload.accuracy(),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": memory.peak_mb,
    }


def per_layer(workload, tally, seconds: float, trace_path: Path, env: dict) -> dict[str, float]:
    """Each unit runs untraced and then traced on the same input, so drift in
    machine speed cancels out of the tracing overhead."""
    import spans

    trace_dir = trace_path.parent / (trace_path.stem + "-workers")
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("spans-*.jsonl"):
        stale.unlink()
    tracer = spans.Tracer(trace_dir)
    traced_calls = spans.Instrumentation(tracer)
    with traced_calls:
        workload.setup()
    untraced, traced, windows, traced_rows = Units(), Units(), [], 0
    while more_units(traced, untraced.busy + traced.busy, seconds, max(1, workload.min_units // 2)):
        i = traced.count
        data = workload.inputs(i)
        run_unit(workload, i, data, untraced, tally)
        rows_before = workload.rows_parsed
        with traced_calls:
            start = time.perf_counter()
            run_unit(workload, i, data, traced, tally)
            windows.append((start, time.perf_counter()))
        traced_rows += workload.rows_parsed - rows_before
    tracer.collect()
    with traced_calls:
        workload.check(tally)
    trace_dir.rmdir()
    tracer.write(trace_path, {"workload": workload.name, "env": env, "windows": windows})
    return layer_metrics(workload, tracer.spans, windows, traced, untraced, traced_rows, loglik_seconds(workload))


def loglik_seconds(workload) -> float:
    """Median time of one ``log_likelihood`` pass at the probe fit's parameters; 0 without a probe."""
    if workload.probe is None:
        return 0.0
    from demandcast import log_likelihood

    fit_result, series = workload.probe
    return statistics.median(timed(lambda: log_likelihood(fit_result.spec, fit_result.params, series))
                             for _ in range(LOGLIK_TRIALS))


def layer_metrics(workload, recorded, windows, traced: Units, untraced: Units, traced_rows: int,
                  loglik_s: float) -> dict[str, float]:
    """Per-layer figures from the spans of the traced units (inside ``windows``) and of the checks,
    and from the probe's ``log_likelihood`` time ``loglik_s``."""
    from spans import self_times

    inside = [s for s in recorded if any(start <= s.start and s.end <= end for start, end in windows)]

    def durations(name: str, among=inside) -> list[float]:
        return [s.duration for s in among if s.name == name]

    wall = sum(end - start for start, end in windows)
    selves = self_times(inside, wall)
    out = {f"{layer}.self_s": value for layer, value in selves.items() if layer != "bench"}
    out["trace.bench_s"] = selves["bench"]
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = traced.busy / untraced.busy - 1.0

    fits = durations("estimation.fit")
    out["estimation.loglik_ms"] = 1e3 * loglik_s
    out["estimation.filter_steps_per_s"] = workload.probe[0].n_obs / loglik_s if loglik_s else 0.0
    # the probe fit's time over one likelihood pass at its optimum: derived, not counted
    out["estimation.evals_per_fit_derived"] = workload.probe_fit_s / loglik_s if loglik_s else 0.0
    out["estimation.fit_s.sum"] = sum(fits)
    out["estimation.fit_s.max"] = max(fits, default=0.0)
    summary = workload.summary()
    out["estimation.nonconverged"] = summary.get("estimation.nonconverged", 0)
    out["estimation.loglik_sum"] = summary.get("estimation.loglik_sum", 0.0)
    out["estimation.forecast_ms"] = 1e3 * statistics.mean(durations("estimation.forecast") or [0.0])
    out["estimation.load_fit_ms"] = 1e3 * statistics.mean(durations("estimation.load_fit", recorded) or [0.0])

    grids = [s for s in inside if s.name == "selection.evaluate_grid"]
    grid_ids = {s.id for s in grids}
    candidate_time = sum(s.duration for s in inside if s.parent in grid_ids)
    grid_time = sum(s.duration for s in grids)
    out["selection.evaluate_grid_s"] = grid_time / len(grids) if grids else 0.0
    out["selection.parallel_eff"] = candidate_time / (workload.JOBS * grid_time) if grids else 0.0
    out["selection.failed"] = traced.failed if grids else 0

    out["metrics.one_step_s"] = sum(durations("metrics.one_step_metrics"))
    out["metrics.dynamic_s"] = sum(durations("metrics.dynamic_metrics"))
    parse = sum(durations("pipeline.parse_records"))
    out["pipeline.parse_records_s"] = parse
    out["pipeline.impute_s"] = sum(durations("pipeline.impute"))
    out["pipeline.rows_per_s"] = traced_rows / parse if parse else 0.0
    out["diagnostics.unit_root_profile_s"] = sum(durations("diagnostics.unit_root_profile"))
    out["diagnostics.recommend_differencing_s"] = sum(durations("diagnostics.recommend_differencing"))
    out["diagnostics.correlogram_s"] = sum(durations("diagnostics.acf") + durations("diagnostics.pacf"))
    out["series.integrate_ms"] = 1e3 * statistics.mean(durations("series.integrate") or [0.0])
    out["evaluation.render_report_s"] = sum(durations("evaluation.render_report"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "demandcast" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}; run from a demandcast checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import demandcast

    first_import = time.perf_counter() - t0
    if Path(demandcast.__file__).resolve().parent != (SRC / "demandcast").resolve():
        print(f"perfbench: imported demandcast from {demandcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    tally = workloads.Tally()
    digests = workloads.DigestStore(OUT / "digests.json", version_hash(env))
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT, digests)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        values = per_layer(workload, tally, args.seconds, trace_path, env)
    else:
        values = end_to_end(workload, tally, args.seconds, first_import)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    digests.save()
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = tally.checks_failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
