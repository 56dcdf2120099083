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

from collections import deque
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import repeat
from operator import add
from typing import Deque, Dict, List, Tuple

from repro.arch.config import SystemConfig
from repro.arch.photonic_router import ClusterGateway, TxPlan
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
    and :meth:`audit_fabric` (and :meth:`skip_fabric` if it keeps span
    accounting) -- as methods, or, where the fabric is one object with
    those methods already, by binding them in ``__init__``. Its
    :meth:`submit` adds each accepted packet's flits, as the fabric
    carries them, to ``_flits_in``; an abandon adds the packet's to
    ``_flits_abandoned`` (:meth:`audit`).
    """

    name = "noc"

    def __init__(self, sim: Simulator, config: SystemConfig):
        self.sim = sim
        self.config = config
        self.energy = EnergyAccount(clock_hz=config.clock_hz)
        self.metrics = ArchMetrics()
        self.current_cycle = 0
        self._generator = None
        #: Flits carried across the warm-up reset or accepted since, and
        #: those of packets abandoned since (:meth:`audit`).
        self._flits_in = self._flits_abandoned = 0
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
        """All flits accepted, not yet delivered or abandoned."""
        raise NotImplementedError

    def audit_fabric(self) -> None:
        """Check the fabric's laws between cycles: every O(1) counter
        against a recount of the state it summarises, and whatever its
        state must obey. Raise :class:`~repro.sim.engine.SimulationError`
        naming the component and the first law broken."""
        raise NotImplementedError

    def audit(self) -> None:
        """Check the run's laws between cycles: the fabric's
        (:meth:`audit_fabric`), then flit conservation -- every flit
        carried across the warm-up reset or accepted since is delivered,
        in the system or in a packet abandoned since."""
        self.audit_fabric()
        delivered, held = self.metrics.flits_delivered, self.flits_in_system()
        if self._flits_in != delivered + held + self._flits_abandoned:
            raise SimulationError(
                f"{self.name}: {self._flits_in} flits carried across the "
                f"warm-up reset or accepted, {delivered} delivered + {held} "
                f"in the system + {self._flits_abandoned} abandoned")

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

    def note_flit_delivered(self, flit: Flit, cycle: int) -> None:
        """Account one flit reaching its core over the mesh. The mesh
        hands this bound method itself to its ejection path: it runs per
        flit, so nothing may wrap it."""
        metrics = self.metrics
        metrics.flits_delivered += 1
        metrics.bits_delivered += flit.bits
        if flit.is_tail:
            metrics.packets_delivered += 1
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
        # The flits in the system were accepted before the boundary.
        self._flits_in, self._flits_abandoned = self.flits_in_system(), 0

    def release(self) -> None:
        """Drop the source: it captured this shell's ``submit``."""
        self._generator = None

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

    A stream is no gateway's stage: a source streams one packet at a
    time and keeps its stream's plan and next event from the ACK on
    (``ClusterGateway._tx_events``, ``_tx_index``, ``_tx_due``), and
    :meth:`tick_fabric` lands the launches due before the gateways tick
    (:meth:`_land`) and plays the events due after (:meth:`_stream_pass`,
    in gateway order, which is source-cluster order: only streams add to
    ``launch_pj``, ``modulation_pj`` and ``tuning_pj``).

    On the engine's fast path :meth:`tick_fabric` ticks only the gateways
    whose wake cycle has come (``ClusterGateway._wake``), and
    ``_next_wake`` -- the next cycle while a gateway is awake, else the
    earliest gateway wake or stream event -- makes
    :meth:`fabric_next_wake` O(1): the engine jumps every span in which
    nothing is due, and :meth:`skip_fabric` charges the open fills'
    writes for it. The naive loop (``fast_path=False``) ticks every
    gateway that holds a flit or a transmission, every cycle, and makes
    the same stream pass: the reference the wakes are held to.
    """

    name = "pnoc"

    def __init__(self, sim: Simulator, config: SystemConfig):
        super().__init__(sim, config)
        self._propagation = config.data_propagation_cycles
        self._flit_bits = 0  # the run's flit width, fixed by the first packet
        self._buffer_addend = self._router_addend = 0.0
        self._filling = 0
        self._buffer_flits = self._switched_flits = 0
        #: The earliest gateway wake or stream event (``NEVER``: none).
        self._next_wake = NEVER
        #: The earliest of the gateways' next stream events (an ACK
        #: lowers it, the stream pass sets it).
        self._stream_due = NEVER
        #: Launches on the waveguides, by landing cycle (ascending):
        #: ``(cycle, [(flits, (RX buffer, destination, source)), ...])``.
        self._landings: Deque[Tuple[int, list]] = deque()
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
            self._flits_in += packet.n_flits
        else:
            self.metrics.packets_refused += 1
        return accepted

    def tick_fabric(self, cycle: int) -> None:
        awake = False
        landings = self._landings
        if landings and landings[0][0] == cycle:
            self._land(cycle)
        if self.sim.fast_path:
            for gateway in self.gateways:
                if gateway._wake <= cycle and gateway.tick(cycle):
                    awake = True
        else:
            idle = ClusterGateway.IDLE
            for gateway in self.gateways:
                if gateway._held or gateway._tx_state != idle:
                    gateway.tick(cycle)
        if cycle >= self._stream_due:
            self._stream_pass(cycle)
        # While a gateway is awake the fabric is due next cycle; else at
        # the first wake, stream event or landing (an ACK or the pass
        # may lower wakes already passed).
        if awake:
            self._next_wake = cycle + 1
        else:
            self._next_wake = min(
                self._stream_due, landings[0][0] if landings else NEVER,
                *[gateway._wake for gateway in self.gateways])
        # This cycle's per-flit charges, one addend per flit, added one
        # after another (``reduce``: the adds the loop ``x += c`` makes,
        # in C): n of them is not ``x += n * c`` in floating point.
        switched = self._switched_flits
        buffered = self._filling + self._buffer_flits + switched
        if buffered:
            breakdown = self.energy.breakdown
            breakdown.buffer_pj = reduce(
                add, repeat(self._buffer_addend, buffered), breakdown.buffer_pj)
            breakdown.router_pj = reduce(
                add, repeat(self._router_addend, switched), breakdown.router_pj)
            self._buffer_flits = self._switched_flits = 0

    def _stream_pass(self, cycle: int) -> None:
        """The streams' events at *cycle*, in gateway order: a launch adds
        its transmit addends, moves its flits to the destination's held
        count and queues their landing; the last ends the stream. Flits
        fed are counted into this cycle's per-flit charges (read and
        switched)."""
        breakdown = self.energy.breakdown
        # Each field's addends, one after another, in stream order.
        launch_pj, modulation_pj, tuning_pj = (
            breakdown.launch_pj, breakdown.modulation_pj, breakdown.tuning_pj)
        fed_flits = 0
        landing = []
        stream_due = NEVER
        for gateway in self.gateways:
            due = gateway._tx_due
            if due == cycle:
                index = gateway._tx_index
                gap, fed, launched, launch, modulation, tuning, _step = (
                    gateway._tx_events[index])
                fed_flits += fed
                if launched:
                    launch_pj += launch
                    modulation_pj += modulation
                    tuning_pj += tuning
                    gateway._held -= launched
                    gateway._tx_dst._held += launched
                    landing.append((launched, gateway._tx_landing))
                    if not gap:
                        gateway.end_stream(cycle)
                        continue
                gateway._tx_index = index + 1
                due = gateway._tx_due = cycle + gap
            if due < stream_due:
                stream_due = due
        breakdown.launch_pj, breakdown.modulation_pj, breakdown.tuning_pj = (
            launch_pj, modulation_pj, tuning_pj)
        self._stream_due = stream_due
        self._switched_flits += fed_flits
        if landing:
            self._landings.append((cycle + self._propagation, landing))

    def _land(self, cycle: int) -> None:
        """Land the launches due at *cycle* in their RX buffers, before
        the gateways tick (a refilled buffer's gateway is due now), and
        count their buffer writes into this cycle's per-flit charges."""
        landed = 0
        for n, (buffer, dst, src) in self._landings.popleft()[1]:
            occupancy = buffer.occupancy
            if not occupancy:
                # Refilled: these flits are the front packet's.
                dst._rx_ready[buffer.fifo[0][0].dst % dst._cores].add(src)
                dst._rx_nonempty += 1
                if cycle < dst._wake:
                    dst._wake = cycle
            if cycle > buffer._last_accounted_cycle:  # buffer.settle(cycle)
                buffer._flit_cycles += occupancy * (
                    cycle - buffer._last_accounted_cycle)
                buffer._last_accounted_cycle = cycle
            occupancy += n
            if occupancy > buffer.depth:
                raise SimulationError(
                    f"gateway {dst.cluster_id}: RX buffer for cluster {src} "
                    f"overflows ({occupancy}/{buffer.depth})")
            buffer.occupancy = occupancy
            dst._rx_reserved[src] -= n
            landed += n
        self._buffer_flits += landed

    def fabric_next_wake(self, cycle: int) -> int:
        wake = self._next_wake
        return wake if wake > cycle else cycle

    def skip_fabric(self, start_cycle: int, stop_cycle: int) -> None:
        """The open fills' writes, one addend per fill per cycle, as
        :meth:`tick_fabric` adds them (a fill stays open to its tail's
        cycle, when its gateway is due). A stream's steps that feed and
        launch nothing are counted at its end or by :meth:`settle`."""
        fills = self._filling * (stop_cycle - start_cycle)
        if fills:
            breakdown = self.energy.breakdown
            breakdown.buffer_pj = reduce(
                add, repeat(self._buffer_addend, fills), breakdown.buffer_pj)

    def settle(self, cycle: int) -> None:
        """Count each stream's steps before *cycle* into its channel's
        busy, lit, flit and bit counts, and apply its VC's feeds before
        it (a drain ends with its stream: no other port has one)."""
        for gateway in self.gateways:
            gateway.settle_stream(cycle)

    def release(self) -> None:
        """Also drop each gateway's way back: the fabric, its claimed
        packet's destination and its reservations in flight (they carry
        gateways' bound methods)."""
        super().release()
        self._landings.clear()
        for gateway in self.gateways:
            gateway.arch = gateway._tx_dst = gateway._tx_landing = None
            gateway.reservation_channel = None

    def audit_fabric(self) -> None:
        for gateway in self.gateways:
            gateway.audit()
        fills = sum(gateway.open_fills() for gateway in self.gateways)
        if self._filling != fills:
            raise SimulationError(
                f"{self.name}: _filling is {self._filling}, the gateways' "
                f"open fills give {fills}"
            )
        # Each stream waits for its first event at or after now (a
        # gateway with no stream, at ``NEVER``), the pass is due at the
        # earliest, and launches land after now.
        now = self.sim.cycle
        for gateway in self.gateways:
            index, events = gateway._tx_index, gateway._tx_events
            start, due = gateway._tx_start, gateway._tx_due
            first = sum(start + event[6] < now for event in events)
            if index != first or due != (
                    start + events[index][6] if index < len(events) else NEVER):
                raise SimulationError(
                    f"{self.name}: the stream from cluster "
                    f"{gateway.cluster_id} waits at {due} for event {index}, "
                    f"its plan's next is event {first}")
        due = min(gateway._tx_due for gateway in self.gateways)
        landing = [cycle for cycle, _launches in self._landings]
        if self._stream_due != due or landing != sorted(set(landing)) or (
                landing and landing[0] < now):
            raise SimulationError(
                f"{self.name}: the stream pass is due at {self._stream_due},"
                f" its streams at {due}; launches land at {landing}")
        # The fabric is due when its first gateway, stream or landing is,
        # or at once while a gateway is awake (its wake passed).
        first = min(due, *landing[:1],
                    *(gateway._wake for gateway in self.gateways))
        if max(self._next_wake, now) != max(first, now):
            raise SimulationError(
                f"{self.name}: _next_wake is {self._next_wake}, the "
                f"gateways' wakes and the streams give {first}"
            )

    def note_packet_delivered_whole(self, packet: Packet, cycle: int) -> None:
        """Account an intra-cluster packet reaching its core whole, over
        the electronic hop (a photonic ejection counts in the gateway)."""
        self.metrics.flits_delivered += packet.n_flits
        self.metrics.bits_delivered += packet.size_bits
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
