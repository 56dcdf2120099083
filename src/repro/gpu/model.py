"""Amdahl-style GPU-memory bandwidth sensitivity model.

Fig. 1-1 varies the GPU-memory interconnect flit size from 32 B to 1024 B
at 700 MHz. Larger flits amortise per-transaction overhead (headers,
turnaround), raising *effective* bandwidth; only the memory-bound fraction
of runtime benefits:

    eff(S)      = S / (S + overhead)
    mem_ratio   = eff(32) / eff(S)            (< 1 for S > 32)
    speedup(S)  = 1 / ((1 - beta) + beta * mem_ratio)

with ``beta`` the benchmark's memory-boundedness. A benchmark with
``beta = 0.5`` gains ~63% at 1024 B; ``beta = 0.01`` gains < 1% -- the
two regimes the thesis highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.gpu.benchmarks import GPU_BENCHMARKS, GpuBenchmark

#: Per-transaction overhead in bytes (header + DRAM turnaround equivalent).
DEFAULT_OVERHEAD_BYTES = 128.0

BASELINE_FLIT_BYTES = 32
LARGE_FLIT_BYTES = 1024


def effective_bandwidth_fraction(
    flit_bytes: float, overhead_bytes: float = DEFAULT_OVERHEAD_BYTES
) -> float:
    """Fraction of raw link bandwidth delivered as payload."""
    if flit_bytes <= 0:
        raise ValueError("flit_bytes must be positive")
    if overhead_bytes < 0:
        raise ValueError("overhead_bytes must be >= 0")
    return flit_bytes / (flit_bytes + overhead_bytes)


def speedup_for_flit_size(
    memory_boundedness: float,
    flit_bytes: float = LARGE_FLIT_BYTES,
    baseline_flit_bytes: float = BASELINE_FLIT_BYTES,
    overhead_bytes: float = DEFAULT_OVERHEAD_BYTES,
) -> float:
    """Speedup of *flit_bytes* over the 32 B baseline (1.0 = no gain)."""
    if not 0 <= memory_boundedness < 1:
        raise ValueError("memory_boundedness must be in [0, 1)")
    mem_ratio = effective_bandwidth_fraction(
        baseline_flit_bytes, overhead_bytes
    ) / effective_bandwidth_fraction(flit_bytes, overhead_bytes)
    return 1.0 / ((1.0 - memory_boundedness) + memory_boundedness * mem_ratio)


@dataclass(frozen=True)
class GpuMemoryModel:
    """The fig. 1-1 study over a benchmark population."""

    benchmarks: Tuple[GpuBenchmark, ...] = GPU_BENCHMARKS
    overhead_bytes: float = DEFAULT_OVERHEAD_BYTES

    def speedup(self, benchmark: GpuBenchmark, flit_bytes: float = LARGE_FLIT_BYTES) -> float:
        return speedup_for_flit_size(
            benchmark.memory_boundedness,
            flit_bytes=flit_bytes,
            overhead_bytes=self.overhead_bytes,
        )

    def speedup_percent(self, benchmark: GpuBenchmark, flit_bytes: float = LARGE_FLIT_BYTES) -> float:
        return (self.speedup(benchmark, flit_bytes) - 1.0) * 100.0

    def study(self, flit_bytes: float = LARGE_FLIT_BYTES) -> List[Tuple[str, float]]:
        """(label, speedup %) for every benchmark, figure order."""
        return [
            (b.label, self.speedup_percent(b, flit_bytes)) for b in self.benchmarks
        ]
