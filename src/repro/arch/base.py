"""The architecture shell and the crossbar PNoC fabric under it.

:class:`NoCArchitecture` is what a run drives, whatever carries the
flits: the traffic source and tick hooks, the per-cycle order (cycle
stamp -> hooks -> source -> fabric -> one measured cycle), quiescence
for the engine's fast path, delivery accounting, the warm-up reset and
the energy report. Two fabrics sit under it: the photonic crossbar here
(:class:`PhotonicCrossbarNoC`, shared by Firefly and d-HetPNoC) and the
chapter-1 electrical mesh
(:class:`~repro.arch.electrical_baseline.ElectricalMeshNoC`), which the
thesis drives with "the same traffic".

Thesis 3.1: "we have considered a hierarchical, hybrid configuration
crossbar as in [20]. The whole CMP is divided into clusters of 4 cores ...
interconnected using traditional copper interconnects in an all-to-all
manner ... Each cluster is equipped with a photonic router, which is
interconnected using photonic channels with all other photonic routers."

Both photonic architectures share everything except the *transmission
plan* (how many wavelengths a source uses toward a destination, and what
the reservation flit carries) and the *receiver demodulator policy* --
the exact differences sections 3.2/3.3 describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

from repro.arch.config import SystemConfig
from repro.arch.photonic_router import ClusterGateway, TxPlan
from repro.energy.model import EnergyAccount
from repro.noc.flit import Flit, Packet
from repro.photonic.reservation import ReservationFlit
from repro.sim.engine import ClockedComponent, Simulator
from repro.sim.stats import RunningMean


@dataclass
class ArchMetrics:
    """Delivery, drop and latency metrics for one run."""

    packets_accepted: int = 0
    packets_refused: int = 0
    packets_delivered: int = 0
    packets_delivered_photonic: int = 0
    bits_delivered: int = 0
    bits_delivered_photonic: int = 0
    flits_delivered: int = 0
    reservations_sent: int = 0
    reservations_nacked: int = 0
    reservation_retries: int = 0
    packets_dropped_flits: int = 0
    packets_abandoned: int = 0
    measured_cycles: int = 0
    latency: RunningMean = field(default_factory=lambda: RunningMean("latency"))

    def delivered_gbps(self, clock_hz: float) -> float:
        if self.measured_cycles <= 0:
            return 0.0
        return self.bits_delivered * clock_hz / self.measured_cycles / 1e9

    def photonic_gbps(self, clock_hz: float) -> float:
        if self.measured_cycles <= 0:
            return 0.0
        return self.bits_delivered_photonic * clock_hz / self.measured_cycles / 1e9

    def per_core_gbps(self, clock_hz: float, n_cores: int) -> float:
        return self.delivered_gbps(clock_hz) / n_cores

    def reset(self) -> None:
        for counter in fields(self):
            if counter.name != "latency":
                setattr(self, counter.name, 0)
        self.latency.reset()


class NoCArchitecture(ClockedComponent):
    """What a run drives, whatever carries the flits.

    A fabric under the shell implements :meth:`submit`,
    :meth:`tick_fabric`, :meth:`fabric_is_idle`, :meth:`reset_fabric`,
    :meth:`finalize`, :meth:`lit_wavelengths` and
    :meth:`flits_in_system` (and :meth:`skip_fabric` if it keeps span
    accounting of its own) -- as methods, or, where the fabric is one
    object with those methods already, by binding them in ``__init__``.
    """

    name = "noc"

    def __init__(self, sim: Simulator, config: SystemConfig):
        self.sim = sim
        self.config = config
        self.energy = EnergyAccount(clock_hz=config.clock_hz)
        self.metrics = ArchMetrics()
        self.current_cycle = 0
        self._generator = None
        self._tick_hooks: List = []
        sim.register(self)

    # ------------------------------------------------------------------
    # Fabric interface
    # ------------------------------------------------------------------
    def submit(self, packet: Packet) -> bool:
        """Inject *packet*; returns False if refused (injection cap)."""
        raise NotImplementedError

    def tick_fabric(self, cycle: int) -> None:
        """Advance whatever carries the flits by one cycle."""
        raise NotImplementedError

    def fabric_is_idle(self) -> bool:
        """True when :meth:`tick_fabric` would be a no-op this cycle."""
        raise NotImplementedError

    def skip_fabric(self, start_cycle: int, stop_cycle: int) -> None:
        """Account a jumped idle span in the fabric's own clocks.
        Default: the fabric keeps none."""

    def reset_fabric(self, cycle: int) -> None:
        """Settle buffer residency at the warm-up boundary *cycle* and
        clear the fabric's statistics."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Settle buffer accounting and charge what is charged once per
        run. Call once after the measurement window; EPM is only
        meaningful afterwards (DESIGN.md section 4, buffer-retention
        rule)."""
        raise NotImplementedError

    def lit_wavelengths(self) -> int:
        """Wavelengths the laser must keep lit (static power reporting)."""
        raise NotImplementedError

    def flits_in_system(self) -> int:
        """All flits accepted but not yet delivered (conservation checks)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Traffic plumbing
    # ------------------------------------------------------------------
    def attach_generator(self, generator) -> None:
        """Make *generator* the traffic source: anything with ``tick``,
        ``is_idle`` and ``reset_stats`` (a
        :class:`~repro.traffic.generator.TrafficGenerator`, a scenario
        player, a trace replayer). A source that cannot prove a cycle
        injection-free answers ``is_idle()`` with ``False`` -- skipping
        it would desynchronise its random stream."""
        self._generator = generator

    def add_tick_hook(self, hook) -> None:
        """Register a callable(cycle) run at the start of every cycle
        (used by trace replay and failure injection)."""
        self._tick_hooks.append(hook)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self.current_cycle = cycle
        for hook in self._tick_hooks:
            hook(cycle)
        if self._generator is not None:
            self._generator.tick(cycle)
        self.tick_fabric(cycle)
        self.metrics.measured_cycles += 1

    def is_idle(self) -> bool:
        """Whole-architecture quiescence for the engine's fast path.

        Tick hooks run unconditionally (they may mutate anything), so any
        registered hook pins the architecture active.
        """
        if self._tick_hooks:
            return False
        if self._generator is not None and not self._generator.is_idle():
            return False
        return self.fabric_is_idle()

    def skip_cycles(self, start_cycle: int, stop_cycle: int) -> None:
        """Account a jumped idle span: idle cycles are still measured
        cycles, and settle boundaries must match the per-cycle loop."""
        self.metrics.measured_cycles += stop_cycle - start_cycle
        self.current_cycle = stop_cycle - 1
        self.skip_fabric(start_cycle, stop_cycle)

    def note_flit_delivered(
        self, flit: Flit, cycle: int, photonic: bool = False
    ) -> None:
        """Account one flit reaching its core. The fabrics hand this
        bound method itself to their ejection path: it runs per flit, so
        nothing may wrap it."""
        metrics = self.metrics
        metrics.flits_delivered += 1
        metrics.bits_delivered += flit.bits
        if photonic:
            metrics.bits_delivered_photonic += flit.bits
        if flit.is_tail:
            metrics.packets_delivered += 1
            if photonic:
                metrics.packets_delivered_photonic += 1
            metrics.latency.add(cycle - flit.packet.created_cycle)
            self.energy.note_message_delivered()

    def reset_stats(self, cycle: int) -> None:
        """Discard warm-up statistics at the boundary *cycle* (the first
        measured cycle): buffer residency is settled there and the
        accounting clocks re-based, so flits resident across the
        boundary charge warm-up residency to the discarded bucket."""
        self.metrics.reset()
        self.energy.reset()
        self.reset_fabric(cycle)
        if self._generator is not None:
            self._generator.reset_stats()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def energy_per_message_pj(self) -> float:
        return self.energy.energy_per_message_pj

    def laser_power_mw(self) -> float:
        return self.energy.laser_static_power_mw(self.lit_wavelengths())


class PhotonicCrossbarNoC(NoCArchitecture):
    """Photonic fabric: 16 gateways over an R-SWMR photonic crossbar.

    Subclasses implement :meth:`tx_plan`, :meth:`rx_demodulators_on` and
    :meth:`lit_wavelengths` (and may add control machinery such as the
    DBA token ring).
    """

    name = "pnoc"

    def __init__(self, sim: Simulator, config: SystemConfig):
        super().__init__(sim, config)
        self.gateways: List[ClusterGateway] = [
            ClusterGateway(cluster, self) for cluster in range(config.n_clusters)
        ]

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @property
    def n_data_waveguides(self) -> int:
        return self.config.bw_set.n_waveguides

    def tx_plan(self, src_cluster: int, dst_cluster: int) -> TxPlan:
        raise NotImplementedError

    def rx_demodulators_on(self, reservation: ReservationFlit) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fabric
    # ------------------------------------------------------------------
    def submit(self, packet: Packet) -> bool:
        src_cluster = self.config.cluster_of(packet.src)
        dst_cluster = self.config.cluster_of(packet.dst)
        gateway = self.gateways[src_cluster]
        if src_cluster == dst_cluster:
            accepted = gateway.submit_intra_cluster(packet, self.current_cycle)
        else:
            accepted = gateway.try_submit(packet, self.current_cycle)
        if accepted:
            self.metrics.packets_accepted += 1
        else:
            self.metrics.packets_refused += 1
        return accepted

    def tick_fabric(self, cycle: int) -> None:
        for gateway in self.gateways:
            # Holding a flit already means active: skip the full test.
            if gateway._held or not gateway.is_idle():
                gateway.tick(cycle)

    def fabric_is_idle(self) -> bool:
        for gateway in self.gateways:
            if not gateway.is_idle():
                return False
        return True

    def note_packet_delivered_whole(
        self, packet: Packet, cycle: int, photonic: bool
    ) -> None:
        self.metrics.flits_delivered += packet.n_flits
        self.metrics.bits_delivered += packet.size_bits
        if photonic:
            self.metrics.bits_delivered_photonic += packet.size_bits
            self.metrics.packets_delivered_photonic += 1
        self.metrics.packets_delivered += 1
        self.metrics.latency.add(cycle - packet.created_cycle)
        self.energy.note_message_delivered()

    def reset_fabric(self, cycle: int) -> None:
        for gateway in self.gateways:
            gateway.reset_stats(cycle)

    def finalize(self) -> None:
        flit_bits = self.config.bw_set.flit_bits
        for gateway in self.gateways:
            gateway.settle_buffers(self.current_cycle)
            self.energy.charge_buffer_retention(
                flit_bits, gateway.buffer_flit_cycles()
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def channel_utilisation(self) -> Dict[int, float]:
        cycles = max(1, self.metrics.measured_cycles)
        return {
            g.cluster_id: g.channel.busy_cycles / cycles for g in self.gateways
        }

    def flits_in_system(self) -> int:
        return sum(gateway.flits_held() for gateway in self.gateways)
