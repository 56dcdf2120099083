"""The architecture shell and the crossbar PNoC fabric under it.

:class:`NoCArchitecture` is what a run drives, whatever carries the
flits: the traffic source, the per-cycle order (cycle stamp -> source
-> fabric -> one measured cycle), quiescence for the engine's fast
path, delivery accounting, the warm-up reset and the energy report.
Two fabrics sit under it: the photonic crossbar here
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
from repro.arch.photonic_router import ClusterGateway, StreamPlans, TxPlan
from repro.energy.model import EnergyAccount
from repro.noc.flit import Flit, Packet
from repro.photonic.reservation import ReservationFlit
from repro.sim.engine import NEVER, ClockedComponent, SimulationError, Simulator
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
    :meth:`tick_fabric`, :meth:`fabric_next_wake`, :meth:`reset_fabric`,
    :meth:`finalize`, :meth:`lit_wavelengths`, :meth:`flits_in_system`
    and :meth:`audit` (and :meth:`skip_fabric` if it keeps span
    accounting) -- as methods, or, where the fabric is one object with
    those methods already, by binding them in ``__init__``.
    """

    name = "noc"

    def __init__(self, sim: Simulator, config: SystemConfig):
        self.sim = sim
        self.config = config
        self.energy = EnergyAccount(clock_hz=config.clock_hz)
        self.metrics = ArchMetrics()
        self.current_cycle = 0
        self._generator = None
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

    def fabric_next_wake(self, cycle: int) -> int:
        """The first cycle at or after *cycle* at which
        :meth:`tick_fabric` may do more than :meth:`skip_fabric`
        accounts (``NEVER``: only new packets give the fabric work)."""
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
        meaningful afterwards (``docs/engine.md``, "The photonic
        gateway": the buffer-retention rule)."""
        raise NotImplementedError

    def lit_wavelengths(self) -> int:
        """Wavelengths the laser must keep lit (static power reporting)."""
        raise NotImplementedError

    def flits_in_system(self) -> int:
        """All flits accepted but not yet delivered (conservation checks)."""
        raise NotImplementedError

    def audit(self) -> None:
        """Check the fabric's laws between cycles: every O(1) counter
        against a recount of the state it summarises, and whatever its
        state must obey. Raise :class:`~repro.sim.engine.SimulationError`
        naming the component and the first law broken."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Traffic plumbing
    # ------------------------------------------------------------------
    def attach_generator(self, generator) -> None:
        """Make *generator* the traffic source: anything with ``tick``,
        ``next_wake``, ``skip_cycles`` and ``reset_stats`` (a
        :class:`~repro.traffic.generator.TrafficGenerator`, a scenario
        player, a trace replayer), the engine's wake protocol
        (:class:`~repro.sim.engine.ClockedComponent`). A source answers
        ``next_wake(cycle)`` with the first cycle that may inject -- one
        that cannot prove a cycle injection-free answers *cycle*, since
        skipping it would desynchronise its random stream -- and
        ``skip_cycles(start, stop)`` accounts the ticks it slept
        through."""
        self._generator = generator

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self.current_cycle = cycle
        if self._generator is not None:
            self._generator.tick(cycle)
        self.tick_fabric(cycle)
        self.metrics.measured_cycles += 1

    def next_wake(self, cycle: int) -> int:
        """The earlier of the source's next possible injection and the
        fabric's next wake (the fabric is not asked when the source is
        due at *cycle*)."""
        if self._generator is None:
            return self.fabric_next_wake(cycle)
        wake = self._generator.next_wake(cycle)
        if wake > cycle:
            fabric = self.fabric_next_wake(cycle)
            if fabric < wake:
                return fabric
        return wake

    def skip_cycles(self, start_cycle: int, stop_cycle: int) -> None:
        """Account a jumped idle span: idle cycles are still measured
        cycles, the source's idle ticks, and settle boundaries must match
        the per-cycle loop."""
        self.metrics.measured_cycles += stop_cycle - start_cycle
        self.current_cycle = stop_cycle - 1
        if self._generator is not None:
            self._generator.skip_cycles(start_cycle, stop_cycle)
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

    Every packet of a run has the first one's flit width (:meth:`submit`
    enforces it), so every per-flit buffer and router charge made inside
    :meth:`tick_fabric` is one of two addends, ``pj_per_bit`` times that
    width. The gateways count them -- ``_filling`` open fills, each
    writing one flit a cycle; ``_buffer_flits`` other buffer writes and
    reads; ``_switched_flits`` flits read out of a buffer that also cross
    an electronic switch -- and :meth:`tick_fabric` adds each addend that
    many times once per cycle: the same sequence of ``+=`` the account
    would see flit by flit.

    On the engine's fast path :meth:`tick_fabric` ticks only the gateways
    whose wake cycle has come (``ClusterGateway._wake``), and
    ``_next_wake`` -- the next cycle while a gateway is awake, else the
    earliest wake -- makes :meth:`fabric_next_wake` O(1): the engine
    jumps every span in which no gateway is due, and
    :meth:`skip_fabric` charges the open fills' writes for it. The naive
    loop (``fast_path=False``) ticks every gateway that holds a flit or
    a transmission, every cycle: the reference the wakes are held to.
    """

    name = "pnoc"

    def __init__(self, sim: Simulator, config: SystemConfig):
        super().__init__(sim, config)
        self.stream_plans = StreamPlans(self.energy.params)
        self._flit_bits = 0  # the run's flit width, fixed by the first packet
        self._buffer_addend = self._router_addend = 0.0
        self._filling = 0
        self._buffer_flits = self._switched_flits = 0
        #: The earliest gateway wake (``NEVER``: no gateway has work).
        self._next_wake = NEVER
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
        if packet.flit_bits != self._flit_bits:
            if self._flit_bits:
                raise SimulationError(
                    f"{self.name}: a {packet.flit_bits}-bit flit in a run of "
                    f"{self._flit_bits}-bit flits"
                )
            params = self.energy.params
            self._flit_bits = packet.flit_bits
            self._buffer_addend = params.buffer_pj_per_bit * packet.flit_bits
            self._router_addend = params.router_pj_per_bit * packet.flit_bits
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
        if self.sim.fast_path:
            awake = False
            for gateway in self.gateways:
                if gateway._wake <= cycle and gateway.tick(cycle):
                    awake = True
            # While a gateway is awake the fabric is due next cycle; only
            # a cycle after which all sleep looks for the first wake (a
            # launch may have lowered the wake of one already passed).
            if awake:
                self._next_wake = cycle + 1
            else:
                self._next_wake = min(
                    [gateway._wake for gateway in self.gateways])
        else:
            idle = ClusterGateway.IDLE
            for gateway in self.gateways:
                if gateway._held or gateway._tx_state != idle:
                    gateway.tick(cycle)
                    # The reference counts each lit step in its cycle.
                    gateway.settle_stream(cycle + 1)
            self._next_wake = min(gateway._wake for gateway in self.gateways)
        # This cycle's per-flit charges, one addend per flit: ``x += c``
        # n times is not ``x += n * c`` in floating point.
        switched = self._switched_flits
        buffered = self._filling + self._buffer_flits + switched
        if buffered:
            breakdown = self.energy.breakdown
            buffer_pj, addend = breakdown.buffer_pj, self._buffer_addend
            for _ in range(buffered):
                buffer_pj += addend
            breakdown.buffer_pj = buffer_pj
            router_pj, addend = breakdown.router_pj, self._router_addend
            for _ in range(switched):
                router_pj += addend
            breakdown.router_pj = router_pj
            self._buffer_flits = self._switched_flits = 0

    def fabric_next_wake(self, cycle: int) -> int:
        wake = self._next_wake
        return wake if wake > cycle else cycle

    def skip_fabric(self, start_cycle: int, stop_cycle: int) -> None:
        """The open fills' writes, one addend per fill per cycle, as
        :meth:`tick_fabric` adds them (a fill stays open to its tail's
        cycle, when its gateway is due). A stream's steps that launch
        nothing are counted at its end or by :meth:`settle`."""
        fills = self._filling * (stop_cycle - start_cycle)
        if fills:
            breakdown = self.energy.breakdown
            buffer_pj, addend = breakdown.buffer_pj, self._buffer_addend
            for _ in range(fills):
                buffer_pj += addend
            breakdown.buffer_pj = buffer_pj

    def settle(self, cycle: int) -> None:
        """Count each stream's lit steps before *cycle* into its
        channel's busy and lit counts."""
        for gateway in self.gateways:
            gateway.settle_stream(cycle)

    def audit(self) -> None:
        for gateway in self.gateways:
            gateway.audit()
        fills = sum(gateway.open_fills() for gateway in self.gateways)
        if self._filling != fills:
            raise SimulationError(
                f"{self.name}: _filling is {self._filling}, the gateways' "
                f"open fills give {fills}"
            )
        # The fabric is due when its first gateway is, or at once while
        # one is awake (its wake passed).
        now = self.sim.cycle
        first = min(gateway._wake for gateway in self.gateways)
        if max(self._next_wake, now) != max(first, now):
            raise SimulationError(
                f"{self.name}: _next_wake is {self._next_wake}, the "
                f"gateways' wakes give {first}"
            )

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
