"""Benchmark profiles for the fig. 1-1 motivation study.

Fig. 1-1 plots the "speedup of 1024B flit size over baseline (32B flit
size) with benchmarks from CUDA SDK (upper case) and Rodinia (lower case)
with number of kernel launches in parenthesis", observing that "most of
the benchmarks show very modest performance improvement of less than
below 1%. On the other hand a few of the benchmarks show considerable
speedup of up to 63%."

**Substitution:** without GPGPU-Sim, each profile carries a
``memory_boundedness`` (fraction of runtime stalled on memory at the 32 B
baseline) calibrated so the model regenerates that distribution: MUM/BFS
bandwidth-hungry (up to ~63%), the rest essentially flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class GpuBenchmark:
    """One benchmark of the fig. 1-1 study."""

    name: str
    suite: str  # "cuda_sdk" (upper case in the figure) or "rodinia"
    kernel_launches: int
    memory_boundedness: float

    def __post_init__(self) -> None:
        if self.suite not in ("cuda_sdk", "rodinia"):
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.kernel_launches <= 0:
            raise ValueError("kernel_launches must be positive")
        if not 0 <= self.memory_boundedness < 1:
            raise ValueError("memory_boundedness must be in [0, 1)")

    @property
    def label(self) -> str:
        """Figure-style label: case encodes the suite, launches in parens."""
        name = self.name.upper() if self.suite == "cuda_sdk" else self.name.lower()
        return f"{name} ({self.kernel_launches})"


#: The benchmark population of fig. 1-1 (CUDA SDK upper case, Rodinia
#: lower case). memory_boundedness is calibrated to the figure's two
#: regimes (docs/model.md, "GPU memory-bandwidth model").
GPU_BENCHMARKS: Tuple[GpuBenchmark, ...] = (
    GpuBenchmark("MUM", "cuda_sdk", 1, 0.500),
    GpuBenchmark("BFS", "cuda_sdk", 7, 0.430),
    GpuBenchmark("CP", "cuda_sdk", 1, 0.010),
    GpuBenchmark("RAY", "cuda_sdk", 1, 0.008),
    GpuBenchmark("LPS", "cuda_sdk", 1, 0.012),
    GpuBenchmark("LIB", "cuda_sdk", 1, 0.011),
    GpuBenchmark("NN", "cuda_sdk", 4, 0.009),
    GpuBenchmark("STO", "cuda_sdk", 1, 0.006),
    GpuBenchmark("WP", "cuda_sdk", 1, 0.010),
    GpuBenchmark("backprop", "rodinia", 2, 0.012),
    GpuBenchmark("hotspot", "rodinia", 1, 0.008),
    GpuBenchmark("kmeans", "rodinia", 2, 0.110),
    GpuBenchmark("lud", "rodinia", 46, 0.010),
    GpuBenchmark("nw", "rodinia", 255, 0.009),
    GpuBenchmark("srad", "rodinia", 4, 0.013),
    GpuBenchmark("streamcluster", "rodinia", 186, 0.070),
)
