"""Seeded generator of raw daily maximum-demand exports.

The generator deliberately does not import ``demandcast``: a change to the
library (``simulate`` in particular) must not change the benchmark's inputs.
Output is the source study's raw 8-column export with ``DD/MM/YYYY`` dates.
The demand path is trend + annual cycle + weekly pattern + AR(1) noise, and
about 2% of the days are missing in the three ways the parser must handle:
empty demand cells, non-positive demand cells and absent rows (one of them a
multi-day gap).  The first and last days are always present, so the calendar
the library assembles is exactly the generated one.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

HEADER = (
    "Date,Max.Demand met during the day(MW),Shortage during maximum Demand(MW),"
    "Energy Met (MU),Drawal Schedule (MU),OD(+)/UD(-)(MU),Max OD(MW),Energy Shortage (MU)"
)
START = dt.date(2013, 1, 1)
MISSING_SHARE = 0.02
GAP_DAYS = 5
# Monday..Sunday offsets in MW; weekends carry less load
WEEKLY_MW = (60.0, 80.0, 80.0, 70.0, 40.0, -110.0, -220.0)


@dataclass(frozen=True)
class Export:
    """One generated export and the ground truth behind it.

    ``actuals`` holds the true demand for all ``n_days`` exported days
    followed by ``n_future`` days beyond the export; ``n_missing`` is the
    number of exported days that carry no usable demand value.
    """

    csv_bytes: bytes
    n_days: int
    n_missing: int
    missing_days: np.ndarray
    actuals: np.ndarray
    row_ends: np.ndarray

    @property
    def future(self) -> np.ndarray:
        return self.actuals[self.n_days:]

    def prefix(self, last_day: int) -> bytes:
        """The export cut after day index ``last_day``: every row dated on or before it."""
        return self.csv_bytes[: self.row_ends[last_day]]


def demand_path(rng: np.random.Generator, n: int) -> np.ndarray:
    """Trend + annual cycle + weekly pattern + AR(1) noise, in MW, from ``START``."""
    t = np.arange(n, dtype=float)
    level = 4000.0 + 0.25 * t
    annual = 450.0 * np.sin(2.0 * np.pi * (t - 80.0) / 365.25)
    weekday0 = START.weekday()
    weekly = np.asarray(WEEKLY_MW)[(weekday0 + np.arange(n)) % 7]
    shocks = rng.normal(0.0, 60.0, size=n + 200)
    noise = np.empty(n + 200)
    noise[0] = shocks[0]
    for i in range(1, n + 200):
        noise[i] = 0.7 * noise[i - 1] + shocks[i]
    return np.round(level + annual + weekly + noise[200:], 1)


def _missing_layout(rng: np.random.Generator, n_days: int) -> tuple[set[int], set[int], set[int]]:
    """(absent rows, empty cells, non-positive cells) as day indices."""
    edge = 10
    gap_start = int(rng.integers(edge, n_days - edge - GAP_DAYS))
    absent = set(range(gap_start, gap_start + GAP_DAYS))
    target = max(int(round(MISSING_SHARE * n_days)), GAP_DAYS + 3)
    pool = np.setdiff1d(np.arange(edge, n_days - edge), np.fromiter(absent, int))
    picks = rng.choice(pool, size=target - GAP_DAYS, replace=False)
    kinds = rng.integers(0, 3, size=picks.size)
    # at least one of each kind, whatever the draw
    kinds[:3] = (0, 1, 2)
    absent |= {int(d) for d, k in zip(picks, kinds) if k == 0}
    empty = {int(d) for d, k in zip(picks, kinds) if k == 1}
    nonpos = {int(d) for d, k in zip(picks, kinds) if k == 2}
    return absent, empty, nonpos


def make_export(seed: int | tuple[int, ...], n_days: int, n_future: int = 0) -> Export:
    """Generate an ``n_days`` export plus ``n_future`` true values beyond it.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; a tuple such
    as ``(run_seed, index)`` gives a family of independent exports.
    """
    if n_days < 60:
        raise ValueError(f"an export needs at least 60 days, got {n_days}")
    rng = np.random.default_rng(seed)
    actuals = demand_path(rng, n_days + n_future)
    absent, empty, nonpos = _missing_layout(rng, n_days)
    aux = rng.normal(0.0, 1.0, size=(n_days, 5))
    lines = [HEADER]
    ends = np.empty(n_days, dtype=np.int64)
    size = len(HEADER) + 1
    for i in range(n_days):
        if i in absent:
            ends[i] = size
            continue
        d = actuals[i]
        energy_met = d * 0.0205 + 0.4 * aux[i, 0]
        drawal = energy_met + 0.8 * aux[i, 1]
        if i in empty:
            cell = ""
        elif i in nonpos:
            cell = "0" if i % 2 else "-1.0"
        else:
            cell = f"{d:.1f}"
        lines.append(
            f"{(START + dt.timedelta(days=i)).strftime('%d/%m/%Y')},{cell},"
            f"{abs(6.0 * aux[i, 2]):.1f},{energy_met:.2f},{drawal:.2f},"
            f"{energy_met - drawal:.2f},{d * 0.012 + 2.0 * aux[i, 3]:.1f},{abs(0.15 * aux[i, 4]):.2f}"
        )
        size += len(lines[-1]) + 1
        ends[i] = size
    missing = np.array(sorted(absent | empty | nonpos), dtype=int)
    return Export(
        csv_bytes=("\n".join(lines) + "\n").encode("utf-8"),
        n_days=n_days,
        n_missing=int(missing.size),
        missing_days=missing,
        actuals=actuals,
        row_ends=ends,
    )

