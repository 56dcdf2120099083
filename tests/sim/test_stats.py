"""Tests for statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Histogram, RunningMean


class TestRunningMean:
    def test_empty_mean_is_zero(self):
        assert RunningMean().mean == 0.0

    def test_mean(self):
        m = RunningMean()
        for v in (1.0, 2.0, 3.0):
            m.add(v)
        assert m.mean == pytest.approx(2.0)

    def test_min_max(self):
        m = RunningMean()
        for v in (5.0, -1.0, 3.0):
            m.add(v)
        assert m.min == -1.0
        assert m.max == 5.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_mean_matches_naive(self, values):
        m = RunningMean()
        for v in values:
            m.add(v)
        assert m.mean == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)

    def test_reset(self):
        m = RunningMean()
        m.add(10.0)
        m.reset()
        assert m.count == 0
        assert m.mean == 0.0


class TestHistogram:
    def test_counts_and_mean(self):
        h = Histogram(bucket_width=10, n_buckets=10)
        for v in (5, 15, 25):
            h.add(v)
        assert h.count == 3
        assert h.mean == pytest.approx(15.0)

    def test_overflow_bucket(self):
        h = Histogram(bucket_width=1, n_buckets=5)
        h.add(100)
        assert h.buckets()[-1] == 1

    def test_percentile_monotone(self):
        h = Histogram(bucket_width=1, n_buckets=100)
        for v in range(100):
            h.add(v)
        assert h.percentile(50) <= h.percentile(90) <= h.percentile(99)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_reset(self):
        h = Histogram()
        h.add(5)
        h.reset()
        assert h.count == 0
