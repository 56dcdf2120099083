"""Traffic patterns: uniform-random, skewed, hotspot, real-application.

Table 3-2 defines the skewed scenarios as *frequencies of communication*
per application bandwidth class:

=========  ========  =======  ========  =========
Pattern    100 Gb/s  50 Gb/s  25 Gb/s   12.5 Gb/s
=========  ========  =======  ========  =========
Skewed 1   50%       25%      12.5%     12.5%
Skewed 2   75%       12.5%    6.25%     6.25%
Skewed 3   90%       5%       2.5%      2.5%
=========  ========  =======  ========  =========

(The class columns scale with the bandwidth set per table 3-1.)

Realisation (DESIGN.md section 4): clusters are partitioned evenly over
the four application classes (4 clusters per class, seeded shuffle), so
the chip is *heterogeneous* -- the premise of the thesis. A packet's
source cluster fixes its bandwidth class; the share of offered traffic
originating from class *c* equals the table 3-2 frequency.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.api.base import Registry
from repro.traffic.apps import APP_PROFILES, place_applications
from repro.traffic.bandwidth_sets import BandwidthSet

#: Class frequencies, highest class first (table 3-2).
SKEW_FREQUENCIES: Dict[int, Tuple[float, float, float, float]] = {
    1: (0.50, 0.25, 0.125, 0.125),
    2: (0.75, 0.125, 0.0625, 0.0625),
    3: (0.90, 0.05, 0.025, 0.025),
}


class PatternError(ValueError):
    """Raised for invalid pattern configuration."""


class TrafficPattern:
    """Base class. Subclasses configure themselves in :meth:`bind`.

    After binding, a pattern answers four questions:

    * :meth:`source_weights` -- each core's share of offered traffic;
    * :meth:`pick_destination` -- destination core for a new packet;
    * :meth:`demand_wavelengths` -- the demand-table entry for a
      (source cluster, destination cluster) pair;
    * :meth:`class_of_cluster` -- the application class a cluster runs
      (``None`` for class-less patterns).
    """

    name = "base"

    def __init__(self) -> None:
        self.bw_set: Optional[BandwidthSet] = None
        self.n_clusters = 0
        self.cores_per_cluster = 0

    # ------------------------------------------------------------------
    def bind(
        self,
        bw_set: BandwidthSet,
        n_clusters: int = 16,
        cores_per_cluster: int = 4,
        rng: Optional[random.Random] = None,
    ) -> "TrafficPattern":
        self.bw_set = bw_set
        self.n_clusters = n_clusters
        self.cores_per_cluster = cores_per_cluster
        self._rng = rng or random.Random(0)
        self._setup()
        return self

    def _setup(self) -> None:
        """Subclass hook: precompute placements/weights."""

    @property
    def n_cores(self) -> int:
        return self.n_clusters * self.cores_per_cluster

    def cluster_of(self, core: int) -> int:
        return core // self.cores_per_cluster

    def _require_bound(self) -> BandwidthSet:
        if self.bw_set is None:
            raise PatternError(f"pattern {self.name!r} used before bind()")
        return self.bw_set

    # -- interface ------------------------------------------------------
    def source_weights(self) -> List[float]:
        raise NotImplementedError

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        raise NotImplementedError

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        raise NotImplementedError

    def class_of_cluster(self, cluster: int) -> Optional[int]:
        return None

    # -- helpers ----------------------------------------------------------
    def _uniform_other_core(self, src_core: int, rng: random.Random) -> int:
        dst = rng.randrange(self.n_cores - 1)
        return dst if dst < src_core else dst + 1

    def _uniform_core_outside_cluster(self, src_core: int, rng: random.Random) -> int:
        src_cluster = self.cluster_of(src_core)
        while True:
            dst = self._uniform_other_core(src_core, rng)
            if self.cluster_of(dst) != src_cluster:
                return dst


class UniformRandomTraffic(TrafficPattern):
    """All pairs, equal rates, equal bandwidth (thesis 3.4.1):

    "all communication requires the same uniform bandwidth and all cores
    communicate with all other cores with equal data rate". Demand equals
    the static Firefly split, so d-HetPNoC configures itself identically
    to Firefly -- the thesis's equality check.
    """

    name = "uniform"

    def source_weights(self) -> List[float]:
        self._require_bound()
        return [1.0 / self.n_cores] * self.n_cores

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        return self._uniform_other_core(src_core, rng)

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        return self._require_bound().firefly_lambda_per_channel


class SkewedTraffic(TrafficPattern):
    """Skewed 1/2/3 of table 3-2 over a heterogeneous cluster placement."""

    def __init__(self, level: int):
        super().__init__()
        if level not in SKEW_FREQUENCIES:
            raise PatternError(f"skew level must be 1..3, got {level}")
        self.level = level
        self.name = f"skewed{level}"
        self._cluster_class: Dict[int, int] = {}

    def _setup(self) -> None:
        bw_set = self._require_bound()
        n_classes = bw_set.n_classes
        if self.n_clusters % n_classes:
            raise PatternError(
                f"{self.n_clusters} clusters do not split evenly over "
                f"{n_classes} classes"
            )
        per_class = self.n_clusters // n_classes
        classes = [c for c in range(n_classes) for _ in range(per_class)]
        self._rng.shuffle(classes)
        self._cluster_class = dict(enumerate(classes))

    def class_of_cluster(self, cluster: int) -> Optional[int]:
        return self._cluster_class[cluster]

    def class_frequency(self, class_index: int) -> float:
        """Offered-traffic share of *class_index* (table 3-2 column)."""
        freqs = SKEW_FREQUENCIES[self.level]
        # freqs are highest-class-first; class indices ascend.
        return freqs[self._require_bound().n_classes - 1 - class_index]

    def source_weights(self) -> List[float]:
        bw_set = self._require_bound()
        per_class_clusters = self.n_clusters // bw_set.n_classes
        weights = []
        for core in range(self.n_cores):
            cls = self._cluster_class[self.cluster_of(core)]
            share = self.class_frequency(cls)
            weights.append(share / (per_class_clusters * self.cores_per_cluster))
        return weights

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        return self._uniform_core_outside_cluster(src_core, rng)

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        bw_set = self._require_bound()
        return bw_set.class_wavelengths(self._cluster_class[src_cluster])


class HotspotSkewedTraffic(SkewedTraffic):
    """Hotspot + skew case studies (thesis 3.4.2).

    "a core is determined to be the hotspot core and all cores send a
    certain percentage of all traffic to the hotspot. The rest of the
    traffic is distributed following the skewed traffic types":

    * skewed hotspot 1: 10% hotspot + skewed 2
    * skewed hotspot 2: 10% hotspot + skewed 3
    * skewed hotspot 3: 20% hotspot + skewed 2
    * skewed hotspot 4: 20% hotspot + skewed 3
    """

    VARIANTS: Dict[int, Tuple[float, int]] = {
        1: (0.10, 2),
        2: (0.10, 3),
        3: (0.20, 2),
        4: (0.20, 3),
    }

    def __init__(self, variant: int, hotspot_core: int = 0):
        if variant not in self.VARIANTS:
            raise PatternError(f"hotspot variant must be 1..4, got {variant}")
        fraction, skew_level = self.VARIANTS[variant]
        super().__init__(skew_level)
        self.variant = variant
        self.hotspot_fraction = fraction
        self.hotspot_core = hotspot_core
        self.name = f"skewed_hotspot{variant}"

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        hotspot_ok = (
            self.cluster_of(self.hotspot_core) != self.cluster_of(src_core)
        )
        if hotspot_ok and rng.random() < self.hotspot_fraction:
            return self.hotspot_core
        return self._uniform_core_outside_cluster(src_core, rng)


class RealApplicationTraffic(TrafficPattern):
    """GPU/memory traffic of thesis 3.4.2 (GPGPU-Sim substitution).

    12 GPU clusters run MUM/BFS/CP/RAY/LPS; 4 memory clusters hold their
    data. GPU cores issue requests to memory (share
    ``request_share`` of offered traffic, weighted by app intensity);
    memory cores return bulk replies to GPU clusters in proportion to the
    same intensities. Memory write channels therefore need the highest
    class the requesting apps demand -- exactly the situation where
    Firefly's uniform split starves "the interaction between the memory
    clusters and some of the core clusters".
    """

    name = "real_app"

    def __init__(self, request_share: float = 0.35):
        super().__init__()
        if not 0 < request_share < 1:
            raise PatternError("request_share must be in (0, 1)")
        self.request_share = request_share
        self.cluster_app: Dict[int, str] = {}
        self.memory_clusters: List[int] = []

    def _setup(self) -> None:
        self.cluster_app, self.memory_clusters = place_applications(
            self.n_clusters, n_memory_clusters=4
        )
        self._gpu_clusters = [
            c for c in range(self.n_clusters) if c not in self.memory_clusters
        ]
        self._intensity = {
            c: APP_PROFILES[self.cluster_app[c]].intensity for c in self._gpu_clusters
        }
        # Profile intensities as bound; scale_intensities() factors are
        # always relative to these, never cumulative.
        self._base_intensity = dict(self._intensity)
        self._total_intensity = sum(self._intensity.values())

    def app_of_cluster(self, cluster: int) -> Optional[str]:
        return self.cluster_app.get(cluster)

    def scale_intensities(self, mix: Dict[str, float]) -> None:
        """Set each app's traffic intensity to ``profile * mix.get(app, 1)``.

        Models an application *phase change* (scenario ``app_phases``):
        the placement and demand classes stay fixed while the share of
        offered traffic each app generates shifts. Factors are absolute
        multipliers on the bound profile intensities — repeated calls
        replace the previous mix rather than compounding it, so a
        scripted phase means the same thing whether or not its pattern
        was rebound. Source weights and reply routing pick the new
        intensities up immediately; callers holding a
        :class:`~repro.traffic.generator.TrafficGenerator` must
        ``rebind`` it (weights are sampled at bind time).
        """
        self._require_bound()
        for app, factor in mix.items():
            if factor < 0:
                raise PatternError(f"intensity factor for {app!r} must be >= 0")
            if app not in APP_PROFILES:
                raise PatternError(f"unknown application {app!r}")
        self._intensity = {
            cluster: base * mix.get(self.cluster_app[cluster], 1.0)
            for cluster, base in self._base_intensity.items()
        }
        self._total_intensity = sum(self._intensity.values())
        if self._total_intensity <= 0:
            raise PatternError("app mix scaled every intensity to zero")

    def class_of_cluster(self, cluster: int) -> Optional[int]:
        app = self.cluster_app.get(cluster)
        if app is None:
            return None
        return APP_PROFILES[app].demand_class

    def source_weights(self) -> List[float]:
        self._require_bound()
        weights = [0.0] * self.n_cores
        reply_share = 1.0 - self.request_share
        n_memory_cores = len(self.memory_clusters) * self.cores_per_cluster
        for core in range(self.n_cores):
            cluster = self.cluster_of(core)
            if cluster in self.cluster_app:
                frac = self._intensity[cluster] / self._total_intensity
                weights[core] = self.request_share * frac / self.cores_per_cluster
            else:
                weights[core] = reply_share / n_memory_cores
        return weights

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        src_cluster = self.cluster_of(src_core)
        if src_cluster in self.cluster_app:
            # GPU request -> uniform memory core.
            mem_cluster = rng.choice(self.memory_clusters)
            return mem_cluster * self.cores_per_cluster + rng.randrange(
                self.cores_per_cluster
            )
        # Memory reply -> GPU cluster weighted by app intensity.
        pick = rng.random() * self._total_intensity
        acc = 0.0
        chosen = self._gpu_clusters[-1]
        for cluster in self._gpu_clusters:
            acc += self._intensity[cluster]
            if pick <= acc:
                chosen = cluster
                break
        return chosen * self.cores_per_cluster + rng.randrange(self.cores_per_cluster)

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        bw_set = self._require_bound()
        if src_cluster in self.cluster_app:
            # GPU -> memory carries *requests*: read-dominated workloads
            # need only the request share of the app's data-class
            # bandwidth on their own write channel (the bulk flows back
            # on the memory clusters' channels).
            if dst_cluster in self.memory_clusters:
                cls = APP_PROFILES[self.cluster_app[src_cluster]].demand_class
                full = bw_set.class_wavelengths(cls)
                ratio = self.request_share / (1.0 - self.request_share)
                return max(1, int(full * ratio))
            return 1
        # Memory -> GPU replies at the *destination* app's appetite.
        if dst_cluster in self.cluster_app:
            cls = APP_PROFILES[self.cluster_app[dst_cluster]].demand_class
            return bw_set.class_wavelengths(cls)
        return 1


class TransposeTraffic(TrafficPattern):
    """Matrix-transpose permutation over the core grid (substrate tests)."""

    name = "transpose"

    def _setup(self) -> None:
        side = int(round(self.n_cores**0.5))
        if side * side != self.n_cores:
            raise PatternError("transpose needs a square core count")
        self._side = side

    def source_weights(self) -> List[float]:
        self._require_bound()
        return [1.0 / self.n_cores] * self.n_cores

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        row, col = divmod(src_core, self._side)
        dst = col * self._side + row
        if dst == src_core:
            return self._uniform_other_core(src_core, rng)
        return dst

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        return self._require_bound().firefly_lambda_per_channel


class BitComplementTraffic(TrafficPattern):
    """Bit-complement permutation (substrate tests)."""

    name = "bit_complement"

    def source_weights(self) -> List[float]:
        self._require_bound()
        return [1.0 / self.n_cores] * self.n_cores

    def pick_destination(self, src_core: int, rng: random.Random) -> int:
        dst = (self.n_cores - 1) ^ src_core
        if dst == src_core:
            return self._uniform_other_core(src_core, rng)
        return dst

    def demand_wavelengths(self, src_cluster: int, dst_cluster: int) -> int:
        return self._require_bound().firefly_lambda_per_channel


def _resolve_pattern_family(name) -> Optional[type]:
    """Resolver for the parameterised ``skewed*`` name families.

    Returns a zero-argument factory for ``skewed<N>`` /
    ``skewed_hotspot<N>`` names (the level parses with the name, so a
    malformed level raises ``ValueError`` exactly as it always has),
    or ``None`` for names outside the families.
    """
    if not isinstance(name, str):
        return None
    if name.startswith("skewed_hotspot"):
        level = int(name.removeprefix("skewed_hotspot"))
        return lambda: HotspotSkewedTraffic(level)
    if name.startswith("skewed") and name != "skewed":
        level = int(name.removeprefix("skewed"))
        return lambda: SkewedTraffic(level)
    return None


#: Registry of ``name -> pattern factory`` (also exposed through
#: :mod:`repro.api.registry`). Fixed names are registered entries; the
#: ``skewed<N>``/``skewed_hotspot<N>`` families resolve dynamically.
patterns = Registry("traffic pattern", error=PatternError,
                    resolver=_resolve_pattern_family)
patterns.register("uniform", UniformRandomTraffic)
patterns.register("real_app", RealApplicationTraffic)
patterns.register("transpose", TransposeTraffic)
patterns.register("bit_complement", BitComplementTraffic)


def pattern_by_name(name: str) -> TrafficPattern:
    """Instantiate a pattern from its report name.

    >>> pattern_by_name("skewed3").name
    'skewed3'
    """
    return patterns.get(name)()
