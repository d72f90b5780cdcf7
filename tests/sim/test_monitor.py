"""Tests for counters and time-series measurement helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Counter, TimeSeries
from repro.sim.monitor import percentile


def test_counter_basics():
    counter = Counter("c")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5
    assert "c" in repr(counter)


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().increment(-1)


def test_timeseries_summary():
    series = TimeSeries("lat")
    for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
        series.record(float(i), value)
    summary = series.summary()
    assert summary.count == 4
    assert summary.mean == 25.0
    assert summary.minimum == 10.0
    assert summary.maximum == 40.0
    assert summary.p50 == 20.0  # nearest rank: a sample that occurred


@pytest.mark.parametrize(
    "n, fraction, expected",
    [
        (1, 0.5, 1.0), (1, 0.99, 1.0), (1, 1.0, 1.0),
        (2, 0.5, 1.0), (2, 0.95, 2.0), (2, 1.0, 2.0),
        (10, 0.5, 5.0), (10, 0.95, 10.0), (10, 0.99, 10.0), (10, 1.0, 10.0),
        (100, 0.5, 50.0), (100, 0.95, 95.0), (100, 0.99, 99.0), (100, 1.0, 100.0),
    ],
)
def test_percentile_nearest_rank(n, fraction, expected):
    ordered = [float(i) for i in range(1, n + 1)]
    assert percentile(ordered, fraction) == expected


def test_percentile_rejects_bad_fraction():
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            percentile([1.0], fraction)


def test_summary_percentiles_are_nearest_rank():
    series = TimeSeries()
    for value in [0.0, 10.0]:
        series.record(0.0, value)
    summary = series.summary()
    assert summary.p50 == 0.0
    assert summary.p95 == summary.p99 == 10.0


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=200),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_percentile_equals_the_e2e_benchmarks(e2e_metrics, values, fraction):
    assert percentile(sorted(values), fraction) == e2e_metrics.percentile(values, fraction)


def test_single_sample_percentiles():
    series = TimeSeries()
    series.record(0.0, 7.0)
    summary = series.summary()
    assert summary.p50 == summary.p95 == summary.p99 == 7.0
    assert summary.stdev == 0.0


def test_summary_of_empty_series_raises():
    with pytest.raises(ValueError):
        TimeSeries().summary()


def test_rate_over_recorded_window():
    series = TimeSeries()
    for t in range(11):  # 11 samples over 10 time units
        series.record(float(t), 1.0)
    assert series.rate() == pytest.approx(1.1)


def test_rate_over_explicit_window():
    series = TimeSeries()
    for t in range(5):
        series.record(float(t), 1.0)
    assert series.rate(start=0.0, end=10.0) == pytest.approx(0.5)


def test_rate_empty_or_degenerate():
    series = TimeSeries()
    assert series.rate() == 0.0
    series.record(1.0, 1.0)
    assert series.rate() == 0.0  # zero-width window


def test_values_are_copies():
    series = TimeSeries()
    series.record(1.0, 2.0)
    series.values.append(99.0)
    assert series.values == [2.0]
