import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import START, make_series
from demandcast import (
    DataError,
    DifferenceSpec,
    SpecError,
    SplitSpec,
    TimeSeries,
    difference,
    dropped_initials,
    integrate,
    split,
)
from demandcast.series import default_split


class TestTimeSeries:
    def test_values_are_copied_and_frozen(self):
        raw = np.array([1.0, 2.0, 3.0])
        ts = TimeSeries(START, raw)
        raw[0] = 99.0
        assert ts.values[0] == 1.0
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_date_bookkeeping(self):
        ts = make_series([1.0, 2.0, 3.0])
        assert len(ts) == 3
        assert ts.end_date == START + dt.timedelta(days=2)
        assert ts.date_at(0) == START
        assert ts.date_at(-1) == ts.end_date
        assert ts.dates() == [START + dt.timedelta(days=i) for i in range(3)]
        with pytest.raises(IndexError):
            ts.date_at(3)

    def test_missing_value_accounting(self):
        ts = make_series([1.0, np.nan, 3.0])
        assert ts.n_missing == 1
        assert not ts.is_complete
        with pytest.raises(DataError, match="gap"):
            ts.require_complete("unit test")
        full = make_series([1.0, 2.0])
        assert full.is_complete
        np.testing.assert_array_equal(full.require_complete("unit test"), [1.0, 2.0])

    @pytest.mark.parametrize(
        "values",
        [[], [[1.0, 2.0]], [1.0, np.inf]],
        ids=["empty", "2d", "inf"],
    )
    def test_rejects_bad_values(self, values):
        with pytest.raises(DataError):
            TimeSeries(START, np.array(values))

    def test_rejects_datetime_start(self):
        with pytest.raises(DataError):
            TimeSeries(dt.datetime(2020, 1, 1, 12), np.array([1.0]))


class TestDifferenceSpec:
    def test_n_dropped(self):
        assert DifferenceSpec(d=0, D=0, s=1).n_dropped == 0
        assert DifferenceSpec(d=2, D=0, s=1).n_dropped == 2
        assert DifferenceSpec(d=1, D=1, s=7).n_dropped == 8

    @pytest.mark.parametrize(
        "kwargs",
        [dict(d=3), dict(D=2, s=7), dict(d=-1), dict(s=0), dict(D=1, s=1)],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(SpecError):
            DifferenceSpec(**{"d": 0, "D": 0, "s": 1, **kwargs})


class TestDifference:
    def test_first_difference_by_hand(self):
        ts = make_series([1.0, 4.0, 9.0, 16.0, 25.0])
        out = difference(ts, DifferenceSpec(d=1, D=0, s=1))
        np.testing.assert_allclose(out.values, [3.0, 5.0, 7.0, 9.0])
        assert out.start_date == START + dt.timedelta(days=1)

    def test_second_difference_of_quadratic_is_constant(self):
        ts = make_series([1.0, 4.0, 9.0, 16.0, 25.0])
        out = difference(ts, DifferenceSpec(d=2, D=0, s=1))
        np.testing.assert_allclose(out.values, [2.0, 2.0, 2.0])

    def test_seasonal_difference_by_hand(self):
        ts = make_series([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        out = difference(ts, DifferenceSpec(d=0, D=1, s=3))
        np.testing.assert_allclose(out.values, [9.0, 18.0, 27.0])
        assert out.start_date == START + dt.timedelta(days=3)

    def test_operators_commute(self):
        # (1-B)(1-B^s) and (1-B^s)(1-B) are the same polynomial, so applying
        # the regular difference to a seasonally differenced series must match
        rng = np.random.default_rng(3)
        ts = make_series(rng.normal(size=40))
        combined = difference(ts, DifferenceSpec(d=1, D=1, s=7))
        seasonal_only = difference(ts, DifferenceSpec(d=0, D=1, s=7))
        swapped = difference(seasonal_only, DifferenceSpec(d=1, D=0, s=1))
        np.testing.assert_allclose(combined.values, swapped.values, atol=1e-12)

    def test_requires_enough_observations(self):
        from demandcast import InsufficientDataError

        with pytest.raises(InsufficientDataError):
            difference(make_series([1.0, 2.0]), DifferenceSpec(d=0, D=1, s=7))


class TestRoundTrip:
    def test_dropped_initials_layout(self):
        ts = make_series(np.arange(20.0))
        spec = DifferenceSpec(d=1, D=1, s=7)
        init = dropped_initials(ts, spec)
        assert init.size == spec.n_dropped == 8
        # first the seven pre-seasonal values, then the first seasonally
        # differenced value consumed by the regular pass
        np.testing.assert_allclose(init[:7], np.arange(7.0))
        np.testing.assert_allclose(init[7], 7.0)

    @pytest.mark.parametrize(
        "d,D,s", [(1, 0, 1), (2, 0, 1), (0, 1, 7), (1, 1, 7), (2, 1, 4), (1, 1, 2)]
    )
    def test_integrate_inverts_difference(self, d, D, s):
        rng = np.random.default_rng(d * 10 + D * 3 + s)
        ts = make_series(rng.normal(scale=5.0, size=50))
        spec = DifferenceSpec(d=d, D=D, s=s)
        diffed = difference(ts, spec)
        restored = integrate(diffed, spec, dropped_initials(ts, spec))
        np.testing.assert_allclose(restored.values, ts.values, atol=1e-10)
        assert restored.start_date == ts.start_date

    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=20,
            max_size=60,
        ),
        d=st.integers(0, 2),
        D=st.integers(0, 1),
        s=st.integers(2, 7),
    )
    @settings(deadline=None, max_examples=60)
    def test_round_trip_property(self, values, d, D, s):
        spec = DifferenceSpec(d=d, D=D, s=s)
        ts = make_series(values)
        if len(ts) <= spec.n_dropped + 1:
            return
        diffed = difference(ts, spec)
        restored = integrate(diffed, spec, dropped_initials(ts, spec))
        np.testing.assert_allclose(restored.values, ts.values, atol=1e-9)

    def test_integrate_validates_initial_count(self):
        ts = make_series(np.arange(10.0))
        spec = DifferenceSpec(d=1, D=0, s=1)
        diffed = difference(ts, spec)
        with pytest.raises(SpecError):
            integrate(diffed, spec, np.zeros(3))


class TestSplit:
    def test_count_split(self):
        ts = make_series(np.arange(10.0))
        train, test = split(ts, SplitSpec.by_count(3))
        assert len(train) == 7 and len(test) == 3
        assert test.start_date == START + dt.timedelta(days=7)
        np.testing.assert_array_equal(test.values, [7.0, 8.0, 9.0])

    def test_fraction_split_floors(self):
        ts = make_series(np.arange(11.0))
        train, test = split(ts, SplitSpec.by_fraction(0.8))
        assert len(train) == 8 and len(test) == 3

    def test_date_split_is_inclusive(self):
        ts = make_series(np.arange(10.0))
        train, test = split(ts, SplitSpec.by_date(START + dt.timedelta(days=4)))
        assert len(train) == 5
        assert test.date_at(0) == START + dt.timedelta(days=5)

    @pytest.mark.parametrize(
        "spec",
        [
            SplitSpec.by_count(10),
            SplitSpec.by_count(99),
            SplitSpec.by_date(dt.date(2019, 1, 1)),
            SplitSpec.by_date(dt.date(2021, 1, 1)),
        ],
    )
    def test_degenerate_split_raises(self, spec):
        ts = make_series(np.arange(10.0))
        with pytest.raises(DataError):
            split(ts, spec)

    def test_parse_round_trip(self):
        for text in ("count:365", "frac:0.8", "date:2021-05-01"):
            assert SplitSpec.parse(text).describe() == text

    @pytest.mark.parametrize("text", ["count:", "count:x", "frac:1.5", "frac:0", "weird:3", "365", 60, None])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(SpecError):
            SplitSpec.parse(text)

    @pytest.mark.parametrize(
        "mode, value", [("fraction", "abc"), ("fraction", None), ("count", 1.5), ("date", "2021-05-01")]
    )
    def test_rejects_malformed_values(self, mode, value):
        with pytest.raises(SpecError):
            SplitSpec(mode, value)

    def test_default_split_holds_out_final_year(self):
        spec = default_split()
        assert spec.mode == "count" and spec.value == 365

    @given(n=st.integers(5, 200), k=st.integers(1, 199))
    @settings(deadline=None, max_examples=60)
    def test_count_split_partitions(self, n, k):
        ts = make_series(np.arange(float(n)))
        if k >= n:
            with pytest.raises(DataError):
                split(ts, SplitSpec.by_count(k))
            return
        train, test = split(ts, SplitSpec.by_count(k))
        assert len(train) + len(test) == n
        np.testing.assert_array_equal(
            np.concatenate([train.values, test.values]), ts.values
        )
        assert test.start_date == train.end_date + dt.timedelta(days=1)
