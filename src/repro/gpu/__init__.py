"""GPU-memory bandwidth sensitivity model (thesis fig. 1-1).

Substitutes the thesis's GPGPU-Sim profiling with an Amdahl-style
memory-boundedness model over per-benchmark profiles (see docs/model.md,
"GPU memory-bandwidth model").
"""

from repro.gpu.benchmarks import GPU_BENCHMARKS, GpuBenchmark
from repro.gpu.model import (
    GpuMemoryModel,
    effective_bandwidth_fraction,
    speedup_for_flit_size,
)

__all__ = [
    "GPU_BENCHMARKS",
    "GpuBenchmark",
    "GpuMemoryModel",
    "effective_bandwidth_fraction",
    "speedup_for_flit_size",
]
