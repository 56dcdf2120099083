"""Tests for the fig. 1-1 GPU bandwidth-sensitivity model."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu.benchmarks import GPU_BENCHMARKS, GpuBenchmark
from repro.gpu.model import (
    GpuMemoryModel,
    effective_bandwidth_fraction,
    speedup_for_flit_size,
)


class TestEffectiveBandwidth:
    def test_small_flits_waste_bandwidth(self):
        assert effective_bandwidth_fraction(32) < effective_bandwidth_fraction(1024)

    def test_fraction_bounds(self):
        for size in (32, 64, 1024, 10_000):
            assert 0 < effective_bandwidth_fraction(size) < 1

    def test_zero_overhead_is_ideal(self):
        assert effective_bandwidth_fraction(32, overhead_bytes=0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            effective_bandwidth_fraction(0)
        with pytest.raises(ValueError):
            effective_bandwidth_fraction(32, overhead_bytes=-1)


class TestSpeedupModel:
    def test_compute_bound_app_flat(self):
        """beta ~ 0.01 -> <1% speedup: 'most of the benchmarks show very
        modest performance improvement of less than below 1%'."""
        assert speedup_for_flit_size(0.01) < 1.01

    def test_memory_bound_app_63_percent(self):
        """beta = 0.5 -> ~63%: 'a few ... show considerable speedup of up
        to 63%'."""
        assert (speedup_for_flit_size(0.50) - 1) * 100 == pytest.approx(63, abs=2)

    def test_baseline_size_means_no_speedup(self):
        assert speedup_for_flit_size(0.5, flit_bytes=32) == pytest.approx(1.0)

    @given(st.floats(0.0, 0.95))
    def test_speedup_at_least_one(self, beta):
        assert speedup_for_flit_size(beta) >= 1.0

    @given(st.floats(0.0, 0.9), st.floats(0.0, 0.89))
    def test_monotone_in_memory_boundedness(self, a, b):
        lo, hi = sorted((a, b))
        assert speedup_for_flit_size(lo) <= speedup_for_flit_size(hi) + 1e-12

    def test_monotone_in_flit_size(self):
        speedups = [speedup_for_flit_size(0.4, s) for s in (32, 64, 128, 512, 1024)]
        assert speedups == sorted(speedups)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            speedup_for_flit_size(1.0)


class TestBenchmarkPopulation:
    def test_figure_distribution(self):
        """The fig. 1-1 shape: most <1%, max ~63%."""
        model = GpuMemoryModel()
        pcts = [model.speedup_percent(b) for b in GPU_BENCHMARKS]
        assert max(pcts) == pytest.approx(63, abs=3)
        below_1 = sum(1 for p in pcts if p < 1.0)
        assert below_1 >= len(pcts) // 2

    def test_mum_and_bfs_are_the_sensitive_ones(self):
        model = GpuMemoryModel()
        sensitive = {
            b.name for b in GPU_BENCHMARKS if model.speedup_percent(b) > 20
        }
        assert sensitive == {"MUM", "BFS"}

    def test_labels_encode_suite_case(self):
        cuda = next(b for b in GPU_BENCHMARKS if b.suite == "cuda_sdk")
        rodinia = next(b for b in GPU_BENCHMARKS if b.suite == "rodinia")
        assert cuda.label.split(" ")[0].isupper()
        assert rodinia.label.split(" ")[0].islower()

    def test_labels_include_kernel_launches(self):
        for b in GPU_BENCHMARKS:
            assert f"({b.kernel_launches})" in b.label

    def test_flit_size_curve(self):
        model = GpuMemoryModel()
        mum = next(b for b in GPU_BENCHMARKS if b.name == "MUM")
        curve = {size: model.speedup(mum, size) for size in (32, 256, 1024)}
        assert curve[32] == pytest.approx(1.0)
        assert curve[1024] > curve[256] > curve[32]

    def test_benchmark_validation(self):
        with pytest.raises(ValueError):
            GpuBenchmark("x", "weird_suite", 1, 0.1)
        with pytest.raises(ValueError):
            GpuBenchmark("x", "rodinia", 0, 0.1)
        with pytest.raises(ValueError):
            GpuBenchmark("x", "rodinia", 1, 1.5)
