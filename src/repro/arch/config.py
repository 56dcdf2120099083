"""System configuration (thesis table 3-3).

============================  ==============================================
System size                   64 cores, 16 clusters, 4 cores/cluster
Die area                      20 mm x 20 mm
Clock frequency               2.5 GHz
Simulation cycles             10 000 with 1 000 reset cycles
Packet geometry               per bandwidth set (table 3-1)
Router memory                 16 VCs/port, 64-flit buffer depth per VC
Switching                     wormhole packet switching
============================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.base import check_float, check_int
from repro.traffic.bandwidth_sets import BW_SET_1, BandwidthSet


@dataclass(frozen=True)
class SystemConfig:
    """Full system parameterisation; defaults reproduce table 3-3."""

    bw_set: BandwidthSet = field(default_factory=lambda: BW_SET_1)
    n_clusters: int = 16
    cores_per_cluster: int = 4
    clock_hz: float = 2.5e9
    die_mm: float = 20.0

    # Router memory (table 3-3).
    n_vcs: int = 16
    vc_depth_flits: int = 64

    # Receive side: per-source-cluster buffer, in packets.
    rx_buffer_packets: int = 4

    # Photonic timing.
    data_propagation_cycles: int = 1
    reservation_propagation_cycles: int = 1

    # Reservation retry policy ("the source will have to retransmit the
    # header flit", thesis 1.4).
    retry_backoff_cycles: int = 8
    max_retries: int = 64

    # Per-core injection pipe bound, in packets (refusals beyond this cap
    # model the paper's dropped-traffic accounting past saturation).
    max_pending_packets_per_core: int = 2

    # Intra-cluster all-to-all electrical delivery latency (router pipes +
    # link), before per-flit serialization.
    intra_cluster_latency_cycles: int = 4

    # DBA (d-HetPNoC only): reserved wavelengths per cluster and token
    # processing hold.
    reserved_wavelengths_per_cluster: int = 1
    token_hold_cycles: int = 1

    def __post_init__(self) -> None:
        check_int("n_clusters", self.n_clusters, 2)
        check_int("cores_per_cluster", self.cores_per_cluster, 1)
        check_float("clock_hz", self.clock_hz, strict=True)
        # A VC holds a whole packet (store-and-forward TX); a launch lands
        # in a later cycle than its own; thesis 3.2.1 reserves a wavelength.
        check_int("vc_depth_flits", self.vc_depth_flits, self.bw_set.packet_flits)
        check_int("data_propagation_cycles", self.data_propagation_cycles, 1)
        check_int("reserved_wavelengths_per_cluster",
                  self.reserved_wavelengths_per_cluster, 1)
        total_reserved = self.reserved_wavelengths_per_cluster * self.n_clusters
        if total_reserved >= self.bw_set.total_wavelengths:
            raise ValueError(f"reserved_wavelengths_per_cluster x n_clusters = "
                             f"{total_reserved} exhausts the wavelength pool")

    @property
    def n_cores(self) -> int:
        return self.n_clusters * self.cores_per_cluster

    @property
    def rx_buffer_flits(self) -> int:
        return self.rx_buffer_packets * self.bw_set.packet_flits

    @property
    def firefly_channel_wavelengths(self) -> int:
        return self.bw_set.total_wavelengths // self.n_clusters

    def cluster_of(self, core: int) -> int:
        if not 0 <= core < self.n_cores:
            raise ValueError(f"core {core} out of range")
        return core // self.cores_per_cluster


#: Simulation schedule of table 3-3.
PAPER_TOTAL_CYCLES = 10_000
PAPER_RESET_CYCLES = 1_000
