"""GPU application profiles for the real-application case study.

Thesis section 3.4.2: "parallel GPU applications like MUM, BFS, CP, RAY
and LPS [26] are mapped to 20, 4, 4, 4 and 16 cores respectively. These
cores are considered to be GPUs occupying 12 clusters. Remaining 4
clusters are considered to have memory cores ... the bandwidth requirement
is determined using actual core to memory interaction from profiling these
applications in GPGPUSim [27] ... BFS and MUM show significant speedup
with increase in GPU-memory bandwidth, while the others do not."

**Substitution (docs/model.md, "Application traffic"):** we do not have the authors'
GPGPU-Sim traces. Each profile instead records the two quantities the
experiment consumes -- the app's demanded bandwidth class and its share of
traffic volume -- set to encode exactly the thesis's own characterisation
(MUM/BFS bandwidth-hungry, CP/RAY/LPS not). ``memory_boundedness`` also
feeds the fig. 1-1 motivation model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class AppProfile:
    """Traffic-relevant profile of one GPU application.

    Attributes
    ----------
    cores:
        Cores the thesis maps the app onto (multiples of 4 -> whole
        clusters).
    demand_class:
        Index into the bandwidth set's classes (3 = highest).
    intensity:
        Relative packets/cycle appetite of one core of this app; scales
        the app's share of offered traffic.
    memory_boundedness:
        Fraction of runtime stalled on memory at baseline bandwidth
        (drives the fig. 1-1 speedup model).
    """

    name: str
    cores: int
    demand_class: int
    intensity: float
    memory_boundedness: float

    def __post_init__(self) -> None:
        if self.cores % 4:
            raise ValueError(f"{self.name}: cores must fill whole 4-core clusters")
        if not 0 <= self.demand_class <= 3:
            raise ValueError("demand_class must be in [0, 3]")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if not 0 <= self.memory_boundedness < 1:
            raise ValueError("memory_boundedness must be in [0, 1)")

    @property
    def clusters(self) -> int:
        return self.cores // 4


#: The five benchmarks of section 3.4.2 with the thesis's core counts.
APP_PROFILES: Dict[str, AppProfile] = {
    # MUM and BFS: "significant speedup with increase in GPU-memory
    # bandwidth" -> top bandwidth class, high memory-traffic intensity.
    "MUM": AppProfile("MUM", cores=20, demand_class=3, intensity=1.00,
                      memory_boundedness=0.55),
    "BFS": AppProfile("BFS", cores=4, demand_class=3, intensity=0.90,
                      memory_boundedness=0.50),
    # "the others do not": compute-bound apps pull little memory traffic
    # (fig. 1-1: <1% speedup from more bandwidth implies a small
    # memory-bound fraction), so their reply volume is correspondingly low.
    "LPS": AppProfile("LPS", cores=16, demand_class=1, intensity=0.18,
                      memory_boundedness=0.08),
    "CP": AppProfile("CP", cores=4, demand_class=1, intensity=0.10,
                     memory_boundedness=0.04),
    "RAY": AppProfile("RAY", cores=4, demand_class=0, intensity=0.05,
                      memory_boundedness=0.03),
}

#: Placement order matches the thesis sentence (MUM, BFS, CP, RAY, LPS).
PLACEMENT_ORDER: Tuple[str, ...] = ("MUM", "BFS", "CP", "RAY", "LPS")


def place_applications(
    n_clusters: int = 16, n_memory_clusters: int = 4
) -> Tuple[Dict[int, str], List[int]]:
    """Map applications to clusters per thesis 3.4.2.

    Returns ``(cluster -> app name, memory cluster ids)``. GPU apps fill
    clusters 0..11 in placement order; the last 4 clusters hold memory.

    >>> apps, mem = place_applications()
    >>> sum(1 for a in apps.values() if a == "MUM")
    5
    >>> mem
    [12, 13, 14, 15]
    """
    gpu_clusters = n_clusters - n_memory_clusters
    needed = sum(APP_PROFILES[name].clusters for name in PLACEMENT_ORDER)
    if needed != gpu_clusters:
        raise ValueError(
            f"app placement needs {needed} GPU clusters, have {gpu_clusters}"
        )
    mapping: Dict[int, str] = {}
    cluster = 0
    for name in PLACEMENT_ORDER:
        for _ in range(APP_PROFILES[name].clusters):
            mapping[cluster] = name
            cluster += 1
    memory_clusters = list(range(gpu_clusters, n_clusters))
    return mapping, memory_clusters
