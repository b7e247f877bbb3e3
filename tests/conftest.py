import datetime as dt
from pathlib import Path

import numpy as np
import pytest

from demandcast import SarimaParams, SarimaSpec, TimeSeries, parse_records, simulate

FIXTURE_CSV = Path(__file__).parent / "data" / "synthetic_demand.csv"

START = dt.date(2020, 1, 1)


@pytest.fixture(scope="session")
def fixture_path() -> Path:
    return FIXTURE_CSV


@pytest.fixture(scope="session")
def fixture_records():
    return parse_records(FIXTURE_CSV)


@pytest.fixture(scope="session")
def ar1_series() -> TimeSeries:
    """A moderately persistent AR(1) path, the workhorse input for fits."""
    spec = SarimaSpec(1, 0, 0)
    params = SarimaParams(mean=50.0, ar=(0.7,), sigma2=4.0)
    return simulate(spec, params, n=600, seed=11, start_date=START)


@pytest.fixture(scope="session")
def seasonal_series() -> TimeSeries:
    spec = SarimaSpec(0, 0, 0, P=1, s=7)
    params = SarimaParams(mean=100.0, seasonal_ar=(0.6,), sigma2=1.0)
    return simulate(spec, params, n=700, seed=5, start_date=START)


@pytest.fixture
def adf_calls(monkeypatch) -> list[int]:
    """Lengths of the series ``adf_test`` runs on, in call order, for the test's duration."""
    from demandcast import diagnostics

    calls, real = [], diagnostics.adf_test
    monkeypatch.setattr(diagnostics, "adf_test", lambda w, **kw: calls.append(len(w)) or real(w, **kw))
    return calls


@pytest.fixture(autouse=True)
def own_pool():
    """Each test starts without the task runner's process pool and joins any it starts,
    so no test reuses workers forked under another test's patches."""
    from demandcast import selection

    selection._shutdown_pool()
    yield
    selection._shutdown_pool()


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """Worker counts of the process pools the task runner starts, for the test's duration."""
    from concurrent.futures import ProcessPoolExecutor

    from demandcast import selection

    sizes = []

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(selection, "ProcessPoolExecutor", recording_pool)
    return sizes


def make_series(values, start: dt.date = START) -> TimeSeries:
    return TimeSeries(start, np.asarray(values, dtype=float))
