"""Candidate grids, grid evaluation and stepwise order search.

Two fixed benchmark grids mirror the comparison tables of the original
demand study (one non-seasonal, one weekly-seasonal); the stepwise search is
a hill climb over (p, q, P, Q) guided by AIC, in the spirit of common
auto-ARIMA procedures.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .diagnostics import recommend_differencing
from .errors import InsufficientDataError, NumericalError, SpecError
from .estimation import SarimaFit, SarimaSpec, fit
from .metrics import dynamic_metrics, one_step_metrics
from .series import DifferenceSpec, SplitSpec, TimeSeries, split

# (p, d, q) rows of the non-seasonal comparison table
ARIMA_TABLE_ORDERS: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0),
    (2, 0, 0),
    (1, 1, 0),
    (1, 2, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 2, 1),
    (8, 0, 8),
    (8, 1, 8),
    (9, 0, 7),
    (9, 1, 7),
    (8, 0, 9),
    (8, 1, 9),
    (5, 1, 3),
)

# ((p, d, q), (P, D, Q, s)) rows of the weekly-seasonal comparison tables
SARIMA_TABLE_ORDERS: tuple[tuple[tuple[int, int, int], tuple[int, int, int, int]], ...] = (
    ((1, 0, 0), (3, 0, 6, 7)),
    ((0, 0, 0), (1, 0, 1, 7)),
    ((0, 0, 0), (1, 1, 1, 7)),
    ((0, 0, 0), (3, 0, 6, 7)),
    ((0, 0, 0), (3, 1, 6, 7)),
    ((1, 0, 0), (6, 0, 2, 7)),
    ((0, 0, 0), (6, 0, 2, 7)),
    ((0, 0, 0), (6, 1, 2, 7)),
    ((1, 0, 0), (6, 0, 3, 7)),
    ((0, 0, 0), (6, 0, 3, 7)),
    ((0, 0, 0), (6, 1, 3, 7)),
)

GRID_KINDS = ("arima-table", "sarima-table")


@dataclass(frozen=True)
class CandidateSet:
    """A named, duplicate-free collection of model specs to compare."""

    specs: tuple[SarimaSpec, ...]
    source: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.specs:
            raise SpecError("candidate set must hold at least one spec")
        if len(set(self.specs)) != len(self.specs):
            raise SpecError("candidate set contains duplicate specs")
        if self.source not in ("fixed-grid", "stepwise", "explicit"):
            raise SpecError(f"unknown candidate source {self.source!r}")
        if not self.name:
            object.__setattr__(self, "name", self.source)


def fixed_grid(kind: str) -> CandidateSet:
    """Benchmark candidate grid: ``arima-table`` or ``sarima-table``."""
    if kind == "arima-table":
        specs = tuple(SarimaSpec(p, d, q) for p, d, q in ARIMA_TABLE_ORDERS)
    elif kind == "sarima-table":
        specs = tuple(
            SarimaSpec(p=o[0], d=o[1], q=o[2], P=so[0], D=so[1], Q=so[2], s=so[3])
            for o, so in SARIMA_TABLE_ORDERS
        )
    else:
        raise SpecError(f"grid kind must be one of {GRID_KINDS}, got {kind!r}")
    return CandidateSet(specs=specs, source="fixed-grid", name=kind)


@dataclass(frozen=True)
class EvaluationRow:
    """One evaluated candidate; metric fields are NaN when unavailable."""

    spec: SarimaSpec
    train_mape: float
    test_mape: float
    aic: float
    bic: float
    loglik: float
    converged: bool
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


RANKING_KEYS = ("test_mape", "train_mape", "aic", "bic")


@dataclass(frozen=True)
class RankedResults:
    """Evaluation rows sorted ascending by the ranking key, failures last."""

    rows: tuple[EvaluationRow, ...]
    ranking_key: str

    def __post_init__(self) -> None:
        if self.ranking_key not in RANKING_KEYS:
            raise SpecError(f"ranking_key must be one of {RANKING_KEYS}, got {self.ranking_key!r}")
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=self._sort_key)))

    def _sort_key(self, row: EvaluationRow):
        value = getattr(row, self.ranking_key)
        bad = row.failed or not np.isfinite(value)
        return (bad, value if np.isfinite(value) else 0.0)

    @property
    def best(self) -> EvaluationRow | None:
        head = self.rows[0] if self.rows else None
        if head is None or head.failed or not np.isfinite(getattr(head, self.ranking_key)):
            return None
        return head


_ROW_ERRORS = (NumericalError, InsufficientDataError, SpecError)


def _failed_row(spec: SarimaSpec, exc: Exception) -> EvaluationRow:
    nan = float("nan")
    return EvaluationRow(spec, nan, nan, nan, nan, nan, converged=False, error=f"{type(exc).__name__}: {exc}")


def _fit_candidate(spec: SarimaSpec, train: TimeSeries, seed: int) -> tuple[EvaluationRow, SarimaFit | None]:
    """Fit one candidate and measure it in sample: its row (test_mape NaN) and its fit, None if the row failed."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_result = fit(spec, train, seed=seed)
        train_mape = one_step_metrics(fit_result, train).mape
    except _ROW_ERRORS as exc:
        return _failed_row(spec, exc), None
    return EvaluationRow(
        spec=spec, train_mape=train_mape, test_mape=float("nan"),
        aic=fit_result.aic, bic=fit_result.bic, loglik=fit_result.loglik, converged=fit_result.converged,
    ), fit_result


def _with_holdout(row: EvaluationRow, fit_result: SarimaFit, train: TimeSeries, test: TimeSeries) -> EvaluationRow:
    """``row`` of ``fit_result`` with its dynamic test MAPE; a failing forecast fails the row."""
    try:
        return replace(row, test_mape=dynamic_metrics(fit_result, train, test).mape)
    except _ROW_ERRORS as exc:
        return _failed_row(row.spec, exc)


def _evaluate_candidate(spec: SarimaSpec, train: TimeSeries, test: TimeSeries, seed: int) -> EvaluationRow:
    """Fit one candidate and measure it; failures become rows, not exceptions."""
    row, fit_result = _fit_candidate(spec, train, seed)
    return row if fit_result is None else _with_holdout(row, fit_result, train, test)


def _call(task: tuple):
    function, *args = task
    return function(*args)


def _single_threaded_blas() -> None:
    """Pool worker initializer: one thread in each loaded OpenBLAS copy (NumPy's
    and SciPy's), since the workers already share the cores.  Where no copy or
    setter is found it does nothing; the parent process is never touched."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


# (pid, workers, executor) of this process's pool; a forked child finds its
# parent's entry under another pid and never touches it
_pool: tuple[int, int, ProcessPoolExecutor] | None = None


def _shutdown_pool() -> None:
    """Join this process's pool workers and forget the pool."""
    global _pool
    entry, _pool = _pool, None
    if entry is not None and entry[0] == os.getpid():
        entry[2].shutdown(wait=True, cancel_futures=True)


def _pool_of(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers; a pool of another size is joined first."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _shutdown_pool()
        # forked workers inherit loaded modules: load the likelihood and
        # optimizer stack once here rather than in every worker
        import scipy.linalg  # noqa: F401
        import scipy.optimize  # noqa: F401

        executor = ProcessPoolExecutor(max_workers=workers, initializer=_single_threaded_blas)
        _pool = (os.getpid(), workers, executor)
    return _pool[2]


def _run_tasks(tasks: list[tuple], jobs: int) -> list:
    """Results of ``(function, *args)`` tasks in submission order: from the process's
    pool of ``min(jobs, len(tasks))`` workers, or in this process when that is at most one.

    The pool lives as long as the process: it is forked on the first pooled
    call, reused while the worker count matches, replaced when it does not,
    dropped when a call fails, and joined at interpreter exit.  Its workers run
    the library as it was loaded when they were forked, with one OpenBLAS thread each.
    The pool is process state: calls from several threads at once are not supported.
    """
    if not isinstance(jobs, (int, np.integer)) or isinstance(jobs, bool):
        raise SpecError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise SpecError(f"jobs must be >= 1, got {jobs}")
    workers = min(int(jobs), len(tasks))
    if workers <= 1:
        return [_call(task) for task in tasks]
    pool = _pool_of(workers)
    try:
        return list(pool.map(_call, tasks))
    except BaseException:
        _shutdown_pool()
        raise


def evaluate_grid(
    series: TimeSeries,
    split_spec: SplitSpec,
    candidates: CandidateSet,
    seed: int = 0,
    jobs: int = 1,
    ranking_key: str = "test_mape",
) -> RankedResults:
    """Fit every candidate on the train side and rank by holdout accuracy.

    The one-dataset case of a study: with ``jobs > 1`` candidates are fitted
    in the process's worker pool, and the ranking is identical either way.
    That pool is forked on the first pooled call, reused by later calls
    with the same worker count and joined at exit; its workers run the
    library as it was loaded at fork time (see ``_run_tasks``).
    """
    rows = _run_tasks(_grid_tasks(series, split_spec, candidates, seed), jobs)
    return RankedResults(rows=tuple(rows), ranking_key=ranking_key)


@dataclass(frozen=True)
class StepwiseConfig:
    """Caps and fixed orders for the stepwise search.  ``d``, ``D`` and the searched
    period (``s`` in a seasonal search, else 1) must make a valid :class:`DifferenceSpec`."""

    name: ClassVar[str] = "stepwise"
    max_p: int = 5
    max_q: int = 5
    max_P: int = 2
    max_Q: int = 2
    s: int = 7
    seasonal: bool = True
    d: int | None = None
    D: int = 0
    max_steps: int = 50

    def __post_init__(self) -> None:
        caps = (self.max_p, self.max_q, self.max_P, self.max_Q, self.max_steps)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0 for v in caps):
            raise SpecError(f"stepwise caps and max_steps must be non-negative integers, got {caps}")
        DifferenceSpec(d=0 if self.d is None else self.d, D=self.D, s=self.s if self.seasonal else 1)


def stepwise_search(
    series: TimeSeries, config: StepwiseConfig = StepwiseConfig(), seed: int = 0
) -> RankedResults:
    """AIC hill climb over (p, q, P, Q) from a handful of canonical starts.

    ``d`` defaults to the unit-root recommendation on the given series.  The
    returned table ranks every spec the search visited, each fitted once;
    holdout accuracy is not computed here (test_mape is NaN).
    """
    ranked, _ = _stepwise_holdout(config, series, None, seed)
    if ranked.best is None:
        raise NumericalError("stepwise search: no candidate could be fitted")
    return ranked


def _stepwise_holdout(
    config: StepwiseConfig, train: TimeSeries, test: TimeSeries | None, seed: int
) -> tuple[RankedResults, EvaluationRow | None]:
    """Stepwise search on the training side: its ranking, and the holdout row of its winner
    from the search's own fit (None without a test side or when no visited spec could be fitted)."""
    d = config.d
    if d is None:
        try:
            d = recommend_differencing(train, s=config.s).d
        except InsufficientDataError as exc:
            warnings.warn(f"differencing recommendation failed ({exc}); using d=2", stacklevel=3)
            d = 2
    s = config.s if config.seasonal else 1
    seasonal = s >= 2

    def make_spec(p: int, q: int, P: int, Q: int) -> SarimaSpec:
        return SarimaSpec(p=p, d=d, q=q, P=P, D=config.D, Q=Q, s=s)

    def clamp(p: int, q: int, P: int, Q: int) -> bool:
        return (
            0 <= p <= config.max_p
            and 0 <= q <= config.max_q
            and 0 <= P <= (config.max_P if seasonal else 0)
            and 0 <= Q <= (config.max_Q if seasonal else 0)
        )

    starts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (2, 2, 0, 0)]
    if seasonal:
        starts += [(1, 0, 1, 0), (0, 1, 0, 1), (2, 2, 1, 1)]
    starts = [c for c in starts if clamp(*c)]

    visited: dict[tuple[int, int, int, int], tuple[EvaluationRow, SarimaFit | None]] = {}

    def aic_of(coords: tuple[int, int, int, int]) -> float:
        """AIC of the spec at ``coords``, fitted on first use; inf for a failed fit."""
        if coords not in visited:
            visited[coords] = _fit_candidate(make_spec(*coords), train, seed)
        row = visited[coords][0]
        return row.aic if not row.failed and np.isfinite(row.aic) else np.inf

    current = min(starts, key=aic_of)
    for _ in range(config.max_steps):
        p, q, P, Q = current
        neighbors = [
            (p + dp, q + dq, P + dP, Q + dQ)
            for dp, dq, dP, dQ in (
                (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
            )
            if clamp(p + dp, q + dq, P + dP, Q + dQ)
        ]
        best_neighbor = min(neighbors, key=aic_of, default=None)
        if best_neighbor is None or aic_of(best_neighbor) >= aic_of(current) - 1e-9:
            break
        current = best_neighbor

    ranked = RankedResults(rows=tuple(row for row, _ in visited.values()), ranking_key="aic")
    if ranked.best is None or test is None:
        return ranked, None
    fits = {row.spec: fit_result for row, fit_result in visited.values()}
    return ranked, _with_holdout(ranked.best, fits[ranked.best.spec], train, test)


def _grid_tasks(
    series: TimeSeries, split_spec: SplitSpec, grid: CandidateSet | StepwiseConfig, seed: int
) -> list[tuple]:
    """Runner tasks of one grid on one series: a fit per candidate, or one stepwise search."""
    train, test = split(series, split_spec)
    if isinstance(grid, StepwiseConfig):
        return [(_stepwise_holdout, grid, train, test, seed)]
    return [(_evaluate_candidate, spec, train, test, seed) for spec in grid.specs]
