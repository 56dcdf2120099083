"""First-principles saturation analysis of the R-SWMR crossbar.

Each cluster owns one write channel. Under a traffic pattern, cluster *c*
originates a fraction ``share_c`` of all offered inter-cluster bits; its
channel serves them at ``capacity_c`` (wavelengths x 12.5 Gb/s, derated
by the reservation-handshake duty cycle). Delivered bandwidth at offered
load *R* is then approximately::

    delivered(R) = sum_c min(R * share_c, capacity_c)

and the knee -- the offered load where the first channel saturates -- is
``min_c capacity_c / share_c``. The point of this module is not accuracy
to the cycle (the simulator does that) but *explanation*: it shows where
Firefly's uniform split loses, and the test suite uses it to
cross-validate the simulator's measured peaks and orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.arch.config import SystemConfig
from repro.photonic.wavelength import WAVELENGTH_RATE_GBPS
from repro.traffic.patterns import TrafficPattern

#: Cycles of reservation handshake per packet (serialize + 2x propagation
#: + response), amortised into the channel duty cycle.
RESERVATION_OVERHEAD_CYCLES = 4


class AnalysisError(ValueError):
    """Raised when a pattern is outside this model's assumptions."""


def channel_shares(pattern: TrafficPattern, config: SystemConfig) -> Dict[int, float]:
    """Fraction of offered bits departing on each cluster's write channel.

    Intra-cluster traffic never touches the photonic channels; for the
    uniform pattern a core stays in-cluster with probability 3/63.
    """
    weights = pattern.source_weights()
    shares: Dict[int, float] = {c: 0.0 for c in range(config.n_clusters)}
    n_cores = config.n_cores
    in_cluster_targets = config.cores_per_cluster - 1
    for core, weight in enumerate(weights):
        if pattern.name == "uniform":
            escape = 1.0 - in_cluster_targets / (n_cores - 1)
        else:
            escape = 1.0  # skewed patterns target outside the cluster
        shares[config.cluster_of(core)] += weight * escape
    total = sum(shares.values())
    if total <= 0:
        raise AnalysisError("pattern produces no inter-cluster traffic")
    return {c: s / total for c, s in shares.items()}


def _duty_cycle(bw_set, n_wavelengths: int) -> float:
    """Channel duty cycle: serialization / (serialization + handshake)."""
    bits_per_cycle = n_wavelengths * WAVELENGTH_RATE_GBPS * 1e9 / 2.5e9
    serialization = bw_set.packet_bits / bits_per_cycle
    return serialization / (serialization + RESERVATION_OVERHEAD_CYCLES)


def channel_capacity_gbps(
    arch_name: str,
    pattern: TrafficPattern,
    cluster: int,
    config: SystemConfig,
) -> float:
    """Sustained Gb/s of one cluster's write channel under *arch_name*."""
    bw_set = pattern.bw_set
    if bw_set is None:
        raise AnalysisError("pattern must be bound")
    if arch_name == "firefly":
        n_lambda = bw_set.firefly_lambda_per_channel
    elif arch_name == "dhetpnoc":
        demands = [
            pattern.demand_wavelengths(cluster, dst)
            for dst in range(config.n_clusters)
            if dst != cluster
        ]
        n_lambda = min(
            max(max(demands), config.reserved_wavelengths_per_cluster),
            bw_set.dhet_max_channel_wavelengths,
        )
    else:
        raise AnalysisError(f"unknown architecture {arch_name!r}")
    raw = n_lambda * WAVELENGTH_RATE_GBPS
    return raw * _duty_cycle(bw_set, n_lambda)


@dataclass
class SaturationModel:
    """Closed-form delivered-bandwidth predictor for one configuration."""

    arch_name: str
    pattern: TrafficPattern
    config: SystemConfig

    def __post_init__(self) -> None:
        self.shares = channel_shares(self.pattern, self.config)
        self.capacities = {
            c: channel_capacity_gbps(self.arch_name, self.pattern, c, self.config)
            for c in range(self.config.n_clusters)
        }

    def knee_gbps(self) -> float:
        """Offered load where the first write channel saturates."""
        return min(
            self.capacities[c] / share
            for c, share in self.shares.items()
            if share > 0
        )

    def delivered_gbps(self, offered_gbps: float) -> float:
        """Fluid approximation of delivered bandwidth at *offered_gbps*."""
        if offered_gbps < 0:
            raise AnalysisError("offered load must be >= 0")
        return sum(
            min(offered_gbps * share, self.capacities[c])
            for c, share in self.shares.items()
        )

    def bottleneck_clusters(self) -> List[int]:
        """Clusters whose channels saturate first."""
        knee = self.knee_gbps()
        return [
            c
            for c, share in self.shares.items()
            if share > 0
            and math.isclose(self.capacities[c] / share, knee, rel_tol=1e-9)
        ]
