"""The hybrid photonic router (cluster gateway) of thesis fig. 3-2.

Each cluster's gateway has "4 electronic links to the 4 switches in its
cluster and photonic channels to other clusters" with the same 3-stage
microarchitecture as the electronic routers (input arbitration,
routing, output arbitration -- section 3.3.2).

Transmit path (store-and-forward at the gateway):

1. flits arrive from the cluster's cores into per-core input ports
   (16 VCs x 64 flits, table 3-3);
2. when a packet is fully buffered, the two arbitration stages nominate
   it for the single photonic write channel;
3. a reservation flit is broadcast (R-SWMR); on ACK the packet streams
   over the channel at 5 bits/cycle per granted wavelength; on NACK the
   source backs off and retransmits (thesis 1.4 retransmission rule);
4. launched flits arrive at the destination gateway after the waveguide
   propagation delay and are ejected to their destination core, one flit
   per core per cycle.

Inside the gateway a packet's flits differ only by how many there are
(they are all ``packet.flit_bits`` wide, and store-and-forward moves a
packet whole or in runs of its own flits), so every stage holds a packet
and a count of its flits, never flit objects.

Store-and-forward also fixes two things ahead of time. A packet that
takes a VC has its tail in ``n_flits - 1`` cycles later (a *fill*), and a
packet whose reservation is ACKed streams on a cadence fixed by its
wavelengths and flit widths (a *stream plan*, :func:`stream_plan`, built
once per process). The gateway works from both instead of recomputing
them every cycle: a source streams one packet at a time, so at the ACK
it keeps its stream's plan and next event (``_tx_events``,
``_tx_index``, ``_tx_due``), and the fabric's stream pass plays them
(:meth:`~repro.arch.base.PhotonicCrossbarNoC.tick_fabric`): neither
gateway is ticked for a stream step.

Energy is charged to the shared :class:`~repro.energy.model.EnergyAccount`
as events happen (the charging rules are in ``docs/engine.md``, "The
photonic gateway"); the per-flit buffer and router charges made inside a
tick are counted and added by the fabric once per cycle.

Each quantity is computed when it can change and read afterwards (rate
and queue depth at ACK, the plan when the DBA current table moves), and
a per-cycle stage runs only when an O(1) count says it has work. The
orders results depend on -- stage order within a tick, the stream pass
in source-cluster order, ``sorted`` ejection candidates, the sequence of
energy addends -- are listed in ``docs/engine.md`` and pinned by value
in ``tests/arch/gateway_golden.json``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Packet
from repro.energy.model import EnergyAccount
from repro.energy.params import PhotonicEnergyParams
from repro.photonic.channel import DataChannel, ReservationBroadcastChannel
from repro.photonic.reservation import ReservationFlit, reservation_flit_bits
from repro.photonic.wavelength import WavelengthId, bits_per_cycle
from repro.sim.engine import NEVER, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arch.base import PhotonicCrossbarNoC


@dataclass(frozen=True)
class TxPlan:
    """Architecture-specific transmission parameters for one destination."""

    n_wavelengths: int
    wavelength_ids: Tuple[WavelengthId, ...]
    reservation_cycles: int

    def __post_init__(self) -> None:
        if self.n_wavelengths < 1:
            raise ValueError("a transmission needs >= 1 wavelength")
        if self.reservation_cycles < 1:
            raise ValueError("reservation serialization is >= 1 cycle")


class _Resident:
    """A count of flits held in one gateway buffer, with its residency.

    Flit-cycles accumulate with span arithmetic -- occupancy x elapsed
    cycles whenever the count changes -- so idle spans cost nothing to
    account and the total is the same however the changes are grouped.
    The per-cycle stages change ``occupancy`` directly, each right after
    :meth:`settle`'s three lines, inlined.
    """

    __slots__ = ("occupancy", "_flit_cycles", "_last_accounted_cycle")

    def __init__(self) -> None:
        self.occupancy = 0
        self._flit_cycles = 0
        self._last_accounted_cycle = 0

    @property
    def flit_cycles(self) -> int:
        """Flit-cycles of residence up to the last settle (for retention
        energy)."""
        return self._flit_cycles + self._unaccrued(self._last_accounted_cycle)

    def _unaccrued(self, cycle: int) -> int:
        """Flit-cycles already subtracted for flits counted in
        ``occupancy`` that enter only after *cycle* (none here)."""
        return 0

    def settle(self, cycle: int) -> None:
        """Accumulate flit-cycles of residence up to *cycle*."""
        if cycle > self._last_accounted_cycle:
            self._flit_cycles += self.occupancy * (cycle - self._last_accounted_cycle)
            self._last_accounted_cycle = cycle

    def reset_stats(self, at_cycle: int) -> None:
        """Clear statistics, settling residency at *at_cycle* first, so
        flits resident across the warm-up boundary charge their warm-up
        residency to the discarded bucket."""
        self.settle(at_cycle)
        self._flit_cycles = -self._unaccrued(at_cycle)
        self._last_accounted_cycle = at_cycle


class InputPort(_Resident):
    """One core's input port: ``n_vcs`` VCs of ``vc_depth`` flits.

    Store-and-forward means a VC holds one packet at most (a VC is taken
    only when empty, and drains only once whole), so a VC is the packet
    it holds and how many of that packet's flits are in.

    A VC is taken whole (a *fill*): from the cycle the front packet's
    first flit enters, its count and ``occupancy`` include all
    ``n_flits``, though one flit enters per cycle up to ``fill_end``, the
    tail's cycle. Residency is corrected in closed form: opening a fill
    subtracts the ``n(n-1)/2`` flit-cycles its later flits are counted
    early, and :meth:`_unaccrued` is what of that lies after a given
    cycle, so ``flit_cycles`` and the warm-up reset are exact however a
    fill straddles them.

    A streaming VC *drains* on its plan's feeds, applied in closed form
    when the port is next touched (:meth:`catch_up`: by the inject
    stage, the engine's settle, and the stream's end, which applies the
    last feeds, so no drain outlives its stream). ``drain`` is ``[vc,
    ACK cycle, flits fed by each step, the sums of step x flits fed, the
    last cycle applied]``; the VC frees at ``ACK cycle + len(flits fed by
    each step)``.
    """

    __slots__ = ("vc_depth", "packets", "counts", "complete", "fill_end",
                 "drain")

    def __init__(self, n_vcs: int, vc_depth: int):
        super().__init__()
        self.vc_depth = vc_depth
        self.packets: List[Optional[Packet]] = [None] * n_vcs
        self.counts = [0] * n_vcs
        #: VCs holding a whole packet no transmission has claimed yet.
        self.complete: Set[int] = set()
        #: The cycle the last fill's tail enters (or entered).
        self.fill_end = -1
        self.drain: Optional[list] = None

    def _unaccrued(self, cycle: int) -> int:
        ahead = self.fill_end - cycle
        return ahead * (ahead + 1) // 2 if ahead > 0 else 0

    def catch_up(self, cycle: int) -> None:
        """Apply the drain's feeds of the cycles before *cycle*. Settled
        to ``cycle - 1`` on the count they left, residency takes back
        from each flit fed in a cycle *f* the cycles from *f* on."""
        vc, start, fed_by, weighted, applied = self.drain
        upto = cycle - 1
        if upto <= applied:
            return
        before, after = applied - start, min(upto - start, len(fed_by) - 1)
        fed, weight = fed_by[after], weighted[after]
        if before >= 0:
            fed, weight = fed - fed_by[before], weight - weighted[before]
        self.settle(upto)
        self._flit_cycles -= (upto - start) * fed - weight
        self.occupancy -= fed
        left = self.counts[vc] = self.counts[vc] - fed
        if left:
            self.drain[4] = upto
        else:
            self.packets[vc] = None
            self.drain = None

    def first_free_vc(self) -> Optional[int]:
        """Lowest-numbered empty VC, or None."""
        counts = self.counts
        return counts.index(0) if 0 in counts else None


class RxBuffer(_Resident):
    """The receive buffer for one source cluster: a FIFO of ``[packet,
    flits not ejected]`` entries, one per packet taken at its ACK. A
    source streams one packet at a time, so the flits landed and not
    ejected (``occupancy``) are the front packet's, then the next's."""

    __slots__ = ("depth", "fifo")

    def __init__(self, depth: int):
        super().__init__()
        self.depth = depth
        self.fifo: Deque[list] = deque()

    def __len__(self) -> int:
        return self.occupancy

    @property
    def free_slots(self) -> int:
        return self.depth - self.occupancy


#: Every stream plan this process has built, by ``(energy parameters,
#: key)``: see :func:`stream_plan`.
_PLANS: Dict[Tuple[PhotonicEnergyParams, tuple], tuple] = {}


def stream_plan(params: PhotonicEnergyParams, key: tuple) -> tuple:
    """The plan of the stream *key* names under *params*, built on first
    use in the process: ``(events, flits launched by each step, flits fed
    by each step to the last feed, the sums of step x flits fed by
    each)``.

    *key* is ``(n_wavelengths, clock_hz, queue-target width, fed width,
    n_flits)``: everything a store-and-forward stream's cadence depends
    on (the queue target is sized by the configured flit width, the
    flits fed have the packet's). A *step* is one streaming cycle, ACK
    cycle first: what :meth:`DataChannel.top_up` queues and
    :meth:`DataChannel.tick` launches that cycle, read off a real channel
    stepped once, so its ``bit_credit`` history is the channel's own.
    The *events* are one ``(gap to the next, fed, launched, launch_pj,
    modulation_pj, tuning_pj, step)`` per step that feeds or launches
    (the last, gap 0, launches the last flit): the three addends are
    those ``charge_photonic_transmit`` makes for the bits launched (read
    off a fresh account).
    """
    plan = _PLANS.get((params, key))
    if plan is not None:
        return plan
    n_wavelengths, clock_hz, queue_bits, flit_bits, n_flits = key
    channel = DataChannel(0, clock_hz=clock_hz)
    channel.begin(ReservationFlit(0, 1, 0, n_flits), n_flits, queue_bits,
                  n_wavelengths, 0)
    steps: List[Tuple[int, int]] = []  # (fed, launched)
    while channel.busy:
        steps.append((channel.top_up(flit_bits), channel.tick(len(steps))))
    # The VC holds the whole packet, so a top-up never leaves the
    # modulators empty: a stream never stalls.
    assert not channel.stalled_cycles
    account = EnergyAccount(params, clock_hz)
    active = [step for step, (fed, launched) in enumerate(steps)
              if fed or launched]
    events = []
    for step, after in zip(active, [*active[1:], active[-1]]):
        fed, launched = steps[step]
        account.reset()
        account.charge_photonic_transmit(flit_bits * launched)
        charged = account.breakdown
        events.append((after - step, fed, launched, charged.launch_pj,
                       charged.modulation_pj, charged.tuning_pj, step))
    fed_by = tuple(accumulate(fed for fed, _launched in steps))
    feeds = range(fed_by.index(n_flits) + 1)
    plan = _PLANS[params, key] = (
        tuple(events), tuple(accumulate(launched for _fed, launched in steps)),
        fed_by[:len(feeds)],
        tuple(accumulate(step * steps[step][0] for step in feeds)))
    return plan


class ClusterGateway:
    """One cluster's photonic router: TX FSM, RX buffers, ejection.

    On the engine's fast path the fabric ticks a gateway only from its
    wake cycle ``_wake`` on: the earliest cycle one of its stages is
    due. A tick that finds nothing due sets it from the gateway's state
    (:meth:`_sleep`); a tick that did work leaves it, so the gateway is
    ticked again next cycle; and whatever hands a gateway work from
    outside its own tick lowers it (a submit, a landing, a stream's end
    or the drain a waiting packet needs). The
    reservation channel keeps its own ``due`` the same way: a
    reservation and a response lower it.
    """

    IDLE = "idle"
    RESERVING = "reserving"
    STREAMING = "streaming"
    BACKOFF = "backoff"

    def __init__(self, cluster_id: int, arch: "PhotonicCrossbarNoC"):
        self.cluster_id = cluster_id
        self.arch = arch
        config = arch.config
        self.config = config
        self._energy = arch.energy
        self._cores = config.cores_per_cluster

        # -- TX input side: one port per core ---------------------------------
        self.inputs: List[InputPort] = [
            InputPort(config.n_vcs, config.vc_depth_flits)
            for _ in range(config.cores_per_cluster)
        ]
        self._input_arbiters = [
            RoundRobinArbiter(config.n_vcs) for _ in range(config.cores_per_cluster)
        ]
        self._output_arbiter = RoundRobinArbiter(config.cores_per_cluster)

        # Per-core injection pipes (core router -> gateway link, 1 flit/cycle):
        # the packets queued, the front one filling the VC it has taken.
        self._pipes: List[Deque[Packet]] = [
            deque() for _ in range(config.cores_per_cluster)
        ]
        self._pipe_active_vc: List[Optional[int]] = [None] * config.cores_per_cluster
        self._pipes_active = 0  # non-empty injection pipes
        #: The next cycle the inject stage has work: a fill's tail, a new
        #: front packet, or a VC freed for a front packet that found none.
        self._inject_due = NEVER

        # -- photonic channels -------------------------------------------------
        self.channel = DataChannel(cluster_id, clock_hz=config.clock_hz)
        self.reservation_channel = ReservationBroadcastChannel(
            cluster_id,
            propagation_cycles=config.reservation_propagation_cycles,
        )

        # -- TX FSM state (the claimed packet's fields: _clear_tx) ---------
        self._clear_tx()
        #: Fully buffered packets not yet claimed by a transmission (the
        #: sizes of the ports' ``complete`` sets, summed).
        self._tx_waiting = 0
        self._backoff_until = 0

        # -- RX side ------------------------------------------------------
        self.rx_buffers: Dict[int, RxBuffer] = {
            src: RxBuffer(config.rx_buffer_flits)
            for src in range(config.n_clusters)
            if src != cluster_id
        }
        self._rx_reserved: Dict[int, int] = {src: 0 for src in self.rx_buffers}
        self._eject_arbiters = [
            RoundRobinArbiter(config.n_clusters)
            for _ in range(config.cores_per_cluster)
        ]
        # Ejection-ready index: per core slot, the set of source clusters
        # whose RX-buffer front flit targets that core. Re-indexed when a
        # tail leaves or a buffer empties or refills -- a front's core
        # cannot change otherwise -- so ejection never rescans buffers.
        self._rx_ready: List[set] = [set() for _ in range(config.cores_per_cluster)]
        self._rx_nonempty = 0  # entries across _rx_ready

        # Intra-cluster all-to-all electrical deliveries: (due, packet).
        self._intra: Deque[Tuple[int, Packet]] = deque()

        #: Flits currently inside this gateway's domain (see
        #: :meth:`flits_held`), maintained incrementally so the idle
        #: check is O(1).
        self._held = 0
        #: The cycle from which the fabric ticks this gateway.
        self._wake = NEVER

    # ==================================================================
    # Injection (called by the architecture's submit path)
    # ==================================================================
    def try_submit(self, packet: Packet, cycle: int) -> bool:
        """Queue *packet* into its source core's injection pipe."""
        pipe = self._pipes[packet.src % self._cores]
        if len(pipe) >= self.config.max_pending_packets_per_core:
            return False
        if not pipe:
            self._pipes_active += 1
            if cycle < self._inject_due:
                self._inject_due = cycle
            self._wake_by(cycle)
        pipe.append(packet)
        self._held += packet.n_flits
        # Source core's electronic router traversal.
        self._energy.charge_router_traversal(packet.size_bits)
        return True

    def submit_intra_cluster(self, packet: Packet, cycle: int) -> bool:
        """All-to-all copper path within the cluster (thesis 3.1)."""
        due = cycle + self.config.intra_cluster_latency_cycles + packet.n_flits
        self._intra.append((due, packet))
        self._wake_by(due)
        self._held += packet.n_flits
        self._energy.charge_router_traversal(2 * packet.size_bits)
        self._energy.charge_buffer_write(packet.size_bits)
        self._energy.charge_buffer_read(packet.size_bits)
        return True

    # ==================================================================
    # Per-cycle step (driven by the architecture)
    # ==================================================================
    def tick(self, cycle: int) -> bool:
        """Run the stages due at *cycle*; return True when the gateway
        stays awake for the next cycle. A gateway that did work stays
        awake (unless nothing is left in it at all); one that found
        nothing due sleeps until its next stage is (:meth:`_sleep`). A
        stage not due is a no-op. A stream is no stage: the fabric's
        stream pass applies it."""
        worked = False
        # Reservation traffic is in flight exactly while the FSM reserves.
        if self.reservation_channel.due <= cycle:
            self.reservation_channel.tick(cycle)
            worked = True
        if self._pipes_active and cycle >= self._inject_due:
            self._inject_step(cycle)
            worked = True
        # TX FSM: one dispatch on the state the stage is entered in (an
        # ACK arrives in the reservation stage above and starts the
        # stream; a state entered here is first acted on next cycle; the
        # stream pass plays and ends a stream after the ticks).
        state = self._tx_state
        if state == _IDLE:
            if self._tx_waiting:
                self._tx_arbitrate(cycle)
                worked = True
        elif state == _BACKOFF and cycle >= self._backoff_until:
            self._send_reservation(cycle, retry=True)
            worked = True
        if self._rx_nonempty:
            self._eject_step(cycle)
            worked = True
        if self._intra and self._deliver_intra(cycle):
            worked = True
        if not worked:
            self._sleep(cycle)
            return False
        if self._held or self._tx_state != _IDLE:
            return True
        # Nothing left: no stage is due until new work comes.
        self._wake = NEVER
        return False

    def _sleep(self, cycle: int) -> None:
        """Set ``_wake`` after a tick at *cycle* that found nothing due:
        the earliest due of the reservation channel, the inject stage,
        the back-off and the intra-cluster pipe; ``NEVER`` when none is.
        (No packet waits for arbitration, no RX buffer holds a flit.)"""
        wake = self.reservation_channel.due
        if self._pipes_active and self._inject_due < wake:
            wake = self._inject_due
        if self._tx_state == _BACKOFF and self._backoff_until < wake:
            wake = self._backoff_until
        if self._intra and self._intra[0][0] < wake:
            wake = self._intra[0][0]
        self._wake = wake

    def _wake_by(self, cycle: int) -> None:
        """Work handed over from outside this gateway's tick is due at
        *cycle*: wake the gateway, and the fabric, by then."""
        if cycle < self._wake:
            self._wake = cycle
            arch = self.arch
            if cycle < arch._next_wake:
                arch._next_wake = cycle

    # -- injection pipes -------------------------------------------------
    def _inject_step(self, cycle: int) -> None:
        """Fills, one flit per core per cycle from the pipe into its VC.

        Runs only at ``_inject_due``: a front packet that takes a free VC
        opens a fill (its whole count enters the VC now, its tail at
        ``fill_end``), a fill whose tail enters now closes and the packet
        is whole, and a front packet with no free VC waits for one: until
        its port's drain frees one (the stage is due then) or an abandon
        does (it lowers ``_inject_due``). The fabric counts one buffer
        write per open fill per cycle (``_filling``), and the tail's
        write when the fill closes."""
        arch = self.arch
        active_vc = self._pipe_active_vc
        due = NEVER
        for slot, pipe in enumerate(self._pipes):
            if not pipe:
                continue
            port = self.inputs[slot]
            vc = active_vc[slot]
            if vc is None:
                if port.drain is not None:
                    port.catch_up(cycle)
                vc = port.first_free_vc()
                if vc is None:
                    drain = port.drain
                    if drain is not None and drain[1] + len(drain[2]) < due:
                        due = drain[1] + len(drain[2])
                    continue
                packet = pipe[0]
                n = packet.n_flits
                if n > port.vc_depth:
                    raise SimulationError(
                        f"gateway {self.cluster_id}: a {n}-flit packet never "
                        f"fits a {port.vc_depth}-flit VC"
                    )
                if cycle > port._last_accounted_cycle:  # port.settle(cycle)
                    port._flit_cycles += port.occupancy * (
                        cycle - port._last_accounted_cycle)
                    port._last_accounted_cycle = cycle
                port.occupancy += n
                port.counts[vc] = n
                port.packets[vc] = packet
                port._flit_cycles -= n * (n - 1) // 2
                end = port.fill_end = cycle + n - 1
                if end > cycle:
                    active_vc[slot] = vc
                    arch._filling += 1
                    if end < due:
                        due = end
                    continue
            elif port.fill_end > cycle:
                if port.fill_end < due:
                    due = port.fill_end
                continue
            else:
                active_vc[slot] = None
                arch._filling -= 1
            # The tail enters now: the packet is whole.
            arch._buffer_flits += 1
            pipe.popleft()
            port.complete.add(vc)
            self._tx_waiting += 1
            if not pipe:
                self._pipes_active -= 1
            elif cycle < due:
                due = cycle + 1
        self._inject_due = due

    # -- transmit FSM ------------------------------------------------------
    def _tx_arbitrate(self, cycle: int) -> None:
        """The two arbitration stages of the 3-stage switch."""
        nominees: Dict[int, int] = {}
        for port_idx, port in enumerate(self.inputs):
            if not port.complete:
                continue
            winner = self._input_arbiters[port_idx].grant(sorted(port.complete))
            if winner is not None:
                nominees[port_idx] = winner
        if not nominees:
            return
        granted_port = self._output_arbiter.grant(sorted(nominees))
        if granted_port is None:
            return
        port = self.inputs[granted_port]
        vc = nominees[granted_port]
        port.complete.discard(vc)
        self._tx_waiting -= 1
        self._tx_slot, self._tx_vc = granted_port, vc
        packet = port.packets[vc]
        assert packet is not None
        self._tx_packet = packet
        dst_cluster = packet.dst // self._cores
        self._tx_dst = self.arch.gateways[dst_cluster]
        plan = self.arch.tx_plan(self.cluster_id, dst_cluster)
        self._tx_plan = plan
        self._tx_reservation = ReservationFlit(
            src_cluster=self.cluster_id,
            dst_cluster=dst_cluster,
            packet_id=packet.pid,
            n_flits=packet.n_flits,
            wavelength_ids=plan.wavelength_ids,
        )
        self._tx_retries = 0
        self._send_reservation(cycle, retry=False)

    def _send_reservation(self, cycle: int, retry: bool) -> None:
        reservation = self._tx_reservation
        plan = self._tx_plan
        assert reservation is not None and plan is not None
        self._tx_state = self.RESERVING
        flit_bits = reservation_flit_bits(
            len(reservation.wavelength_ids), self.arch.n_data_waveguides
        )
        self.reservation_channel.broadcast(
            reservation,
            serialization_cycles=plan.reservation_cycles,
            cycle=cycle,
            deliver=self._tx_dst.on_reservation,
            flit_bits=flit_bits,
        )
        # R-SWMR: every other cluster's reservation demodulators see the flit.
        self._energy.charge_reservation(
            flit_bits, n_listeners=self.config.n_clusters - 1
        )
        self.arch.metrics.reservations_sent += 1
        if retry:
            self.arch.metrics.reservation_retries += 1

    # Called by the *destination* gateway object, via the source's channel.
    def on_reservation(self, reservation: ReservationFlit) -> None:
        cycle = self.arch.current_cycle
        src = reservation.src_cluster
        buffer = self.rx_buffers[src]
        free = buffer.free_slots - self._rx_reserved[src]
        accepted = free >= reservation.n_flits
        if accepted:
            self._rx_reserved[src] += reservation.n_flits
            self._charge_reception_window(reservation)
        else:
            self.arch.metrics.reservations_nacked += 1
        src_gateway = self.arch.gateways[src]
        src_gateway.reservation_channel.respond(
            reservation,
            accepted,
            cycle,
            deliver=src_gateway.on_reservation_response,
        )

    def _charge_reception_window(self, reservation: ReservationFlit) -> None:
        """Demodulator-on energy for the packet's reception window.

        d-HetPNoC switches on only the reserved wavelength subset;
        Firefly powers the full channel width "irrespective of the
        required data rate" (thesis 3.3.1).
        """
        n_on = self.arch.rx_demodulators_on(reservation)
        n_used = len(reservation.wavelength_ids) or n_on
        packet_bits = reservation.n_flits * self.config.bw_set.flit_bits
        duration = math.ceil(
            packet_bits / bits_per_cycle(n_used, self.config.clock_hz)
        )
        self._energy.charge_demodulators_on(n_on, duration)

    def on_reservation_response(self, reservation: ReservationFlit, accepted: bool) -> None:
        cycle = self.arch.current_cycle
        if self._tx_state != self.RESERVING:
            raise RuntimeError(
                f"gateway {self.cluster_id}: response in state {self._tx_state}"
            )
        plan = self._tx_plan
        assert plan is not None
        if accepted:
            config, packet, dst = self.config, self._tx_packet, self._tx_dst
            key = (plan.n_wavelengths, config.clock_hz,
                   config.bw_set.flit_bits, packet.flit_bits, packet.n_flits)
            events, self._tx_launched_by, fed_by, weighted = (
                stream_plan(self._energy.params, key))
            self._tx_start = cycle
            self._tx_counted = 0
            self._tx_state = self.STREAMING
            # The VC drains on the plan's feeds from now, and a front
            # packet waiting for a VC of the port is due after the last
            # feed. The destination's RX buffer takes the packet, and the
            # fabric's stream pass plays the first event now.
            slot = self._tx_slot
            self.inputs[slot].drain = [self._tx_vc, cycle, fed_by, weighted,
                                       cycle - 1]
            if (self._pipes[slot] and self._pipe_active_vc[slot] is None
                    and cycle + len(fed_by) < self._inject_due):
                self._inject_due = cycle + len(fed_by)
            buffer = dst.rx_buffers[self.cluster_id]
            buffer.fifo.append([packet, packet.n_flits])
            self._tx_landing = (buffer, dst, self.cluster_id)
            self._tx_events, self._tx_index, self._tx_due = events, 0, cycle
            arch = self.arch
            arch._stream_due = min(arch._stream_due, cycle)
            return
        self._tx_retries += 1
        self.arch.metrics.packets_dropped_flits += 1
        if self._tx_retries > self.config.max_retries:
            self._abandon_packet(cycle)
            return
        self._tx_state = self.BACKOFF
        backoff = self.config.retry_backoff_cycles * min(self._tx_retries, 4)
        self._backoff_until = cycle + backoff

    def _abandon_packet(self, cycle: int) -> None:
        """Give up on the head packet after max retries (counted as lost):
        its flits leave the VC, each charged a buffer read."""
        slot, vc, packet = self._tx_slot, self._tx_vc, self._tx_packet
        assert slot is not None and vc is not None and packet is not None
        port = self.inputs[slot]
        n = port.counts[vc]
        port.settle(cycle)
        port.occupancy -= n
        port.counts[vc] = 0
        port.packets[vc] = None
        # Freed in the reservation stage: injectable this very cycle.
        if cycle < self._inject_due:
            self._inject_due = cycle
        self.arch._buffer_flits += n
        self._held -= n
        self.arch.metrics.packets_abandoned += 1
        self.arch._flits_abandoned += n
        self._clear_tx()

    def _clear_tx(self) -> None:
        self._tx_state = self.IDLE
        self._tx_slot: Optional[int] = None
        self._tx_vc: Optional[int] = None
        self._tx_packet: Optional[Packet] = None
        self._tx_dst: Optional["ClusterGateway"] = None
        self._tx_reservation: Optional[ReservationFlit] = None
        self._tx_plan: Optional[TxPlan] = None
        self._tx_retries = 0
        #: The stream: its plan's events, the next one's index and cycle
        #: (``NEVER``: none), where its launches land, its flits launched
        #: by each step, the ACK cycle (step *i* is cycle ``_tx_start +
        #: i``'s) and the steps counted into the channel's counts.
        self._tx_events: tuple = ()
        self._tx_index, self._tx_due = 0, NEVER
        self._tx_landing: Optional[tuple] = None
        self._tx_launched_by: tuple = ()
        self._tx_start = self._tx_counted = 0

    def end_stream(self, cycle: int) -> None:
        """The stream's last launch was at *cycle*: count it into the
        channel, apply its VC's last feeds (none comes later) and free
        the FSM (due next cycle if a packet waits)."""
        self.settle_stream(cycle + 1)
        self.channel.packets_transmitted += 1
        self._clear_tx()
        if self._tx_waiting:
            self._wake = min(self._wake, cycle + 1)

    def settle_stream(self, cycle: int) -> None:
        """Count into the channel's busy, lit, flit and bit counts the
        steps of the stream before *cycle* not counted yet, and apply its
        VC's feeds before *cycle*."""
        if self._tx_state == _STREAMING:
            port = self.inputs[self._tx_slot]
            if port.drain is not None:
                port.catch_up(cycle)
            done, counted = cycle - self._tx_start, self._tx_counted
            if done > counted:
                self._tx_counted = done
                channel, launched_by = self.channel, self._tx_launched_by
                channel.busy_cycles += done - counted
                channel.wavelength_cycles_lit += (
                    (done - counted) * self._tx_plan.n_wavelengths)
                flits = launched_by[done - 1] - (
                    launched_by[counted - 1] if counted else 0)
                channel.flits_transmitted += flits
                channel.bits_transmitted += flits * self._tx_packet.flit_bits

    # ==================================================================
    # Receive side
    # ==================================================================
    def _eject_step(self, cycle: int) -> None:
        """One flit per core per cycle from the RX buffers to the cores.

        Candidates come from the ready index in ascending-source order
        (sets hold source ids; ``sorted`` restores the scan order the
        arbiters have always seen), so skipping empty slots changes
        nothing observable. A lone requester is granted inline: it wins
        and the pointer moves past it, as ``RoundRobinArbiter.grant``
        would compute."""
        arch = self.arch
        metrics = arch.metrics
        ejected = 0
        for slot, ready in enumerate(self._rx_ready):
            if not ready:
                continue
            arbiter = self._eject_arbiters[slot]
            if len(ready) == 1:
                for src in ready:
                    arbiter._next_priority = (src + 1) % arbiter.n
            else:
                src = arbiter.grant(sorted(ready))
            buffer = self.rx_buffers[src]
            if cycle > buffer._last_accounted_cycle:  # buffer.settle(cycle)
                buffer._flit_cycles += buffer.occupancy * (
                    cycle - buffer._last_accounted_cycle)
                buffer._last_accounted_cycle = cycle
            buffer.occupancy -= 1
            fifo = buffer.fifo
            entry = fifo[0]
            entry[1] -= 1
            tail = not entry[1]
            if tail:
                fifo.popleft()
            if not buffer.occupancy:
                ready.discard(src)
                self._rx_nonempty -= 1
            elif tail:
                # The next packet's front may target another core (a
                # later slot then sees it this very cycle, as always).
                ready.discard(src)
                self._rx_ready[fifo[0][0].dst % self._cores].add(src)
            ejected += 1
            if tail:
                metrics.packets_delivered += 1
                metrics.packets_delivered_photonic += 1
                metrics.latency.add(cycle - entry[0].created_cycle)
                self._energy.note_message_delivered()
        # Each flit ejected is read out of the RX buffer and crosses the
        # destination's electronic switch to its core.
        arch._switched_flits += ejected
        self._held -= ejected
        metrics.flits_delivered += ejected
        ejected_bits = ejected * arch._flit_bits  # the run's one flit width
        metrics.bits_delivered += ejected_bits
        metrics.bits_delivered_photonic += ejected_bits

    def _deliver_intra(self, cycle: int) -> bool:
        """Deliver the intra-cluster packets due by *cycle*; return
        whether any was."""
        intra = self._intra
        if intra[0][0] > cycle:
            return False
        while intra and intra[0][0] <= cycle:
            _due, packet = intra.popleft()
            self._held -= packet.n_flits
            self.arch.note_packet_delivered_whole(packet, cycle)
        return True

    # ==================================================================
    # Accounting helpers
    # ==================================================================
    def _buffers(self) -> List[_Resident]:
        return [*self.inputs, *self.rx_buffers.values()]

    def settle_buffers(self, cycle: int) -> None:
        for buffer in self._buffers():
            buffer.settle(cycle)

    def buffer_flit_cycles(self) -> int:
        return sum(buffer.flit_cycles for buffer in self._buffers())

    def reset_stats(self, at_cycle: int) -> None:
        """Clear statistics: the buffers settle residency at the boundary
        *at_cycle* and re-base their accounting clocks, so warm-up
        flit-cycles never leak into the measured window (the run that
        reached it settled the stream's steps before it)."""
        for buffer in self._buffers():
            buffer.reset_stats(at_cycle)
        self.channel.reset_stats()
        self.reservation_channel.reset_stats()

    def flits_held(self) -> int:
        """Every flit currently inside this gateway's domain (injection
        pipes, input VCs, the write channel's serialization queue, the
        in-flight photonic window, RX buffers and the intra-cluster pipe),
        for the shell's flit conservation. O(1): the counter is kept at
        every boundary crossing (:meth:`audit` recounts it)."""
        return self._held

    def open_fills(self) -> int:
        """Pipes whose front packet is filling its VC."""
        return sum(vc is not None for vc in self._pipe_active_vc)

    def audit(self) -> None:
        """Recount every O(1) counter the gateway keeps from the state it
        summarises, and check its fills and the plans of the streams
        from and to it against the cycle; raise
        :class:`~repro.sim.engine.SimulationError` naming the gateway and
        the first counter that drifted."""

        def broken(counter: str, kept: object, law: str) -> SimulationError:
            return SimulationError(
                f"gateway {self.cluster_id}: {counter} is {kept!r}, {law}")

        def check(counter: str, kept: object, recount: object) -> None:
            if kept != recount:
                raise broken(counter, kept,
                             f"the state it counts gives {recount!r}")

        now = self.arch.sim.cycle
        last_ticked = now - 1
        in_pipes = 0
        for slot, pipe in enumerate(self._pipes):
            in_pipes += sum(packet.n_flits for packet in pipe)
            vc = self._pipe_active_vc[slot]
            if vc is not None:
                # An open fill: the VC took its whole packet, whose tail
                # is still to enter, and the inject stage runs by then.
                port = self.inputs[slot]
                in_pipes -= port.counts[vc]
                check(f"inputs[{slot}].counts[{vc}]", port.counts[vc],
                      pipe[0].n_flits)
                if port.fill_end <= last_ticked:
                    raise broken(f"inputs[{slot}].fill_end", port.fill_end,
                                 f"its tail was due by cycle {last_ticked}")
                if self._inject_due > port.fill_end:
                    raise broken("_inject_due", self._inject_due,
                                 f"after inputs[{slot}]'s fill ends at "
                                 f"{port.fill_end}")
        for slot, port in enumerate(self.inputs):
            check(f"inputs[{slot}].occupancy", port.occupancy, sum(port.counts))
            if port.drain is not None:  # applied to now by the settle
                vc, start, fed_by, _weighted, _applied = port.drain
                check(f"inputs[{slot}].counts[{vc}]", port.counts[vc],
                      port.packets[vc].n_flits
                      - fed_by[min(now - 1 - start, len(fed_by) - 1)])
        check("reservation traffic in flight",
              self.reservation_channel.in_flight > 0,
              self._tx_state == self.RESERVING)
        # By the streams' events before now: flits at this gateway's
        # modulators (fed less launched); by the launches and landings
        # to come, those handed over here not landed yet.
        queued = in_flight = 0
        unlanded = dict.fromkeys(self.rx_buffers, 0)
        for source in self.arch.gateways:
            start = source._tx_start
            for _gap, fed, launched, *_pj, step in source._tx_events:
                if source is self and start + step < now:
                    queued += fed - launched
                if source._tx_dst is self and start + step >= now:
                    unlanded[source.cluster_id] += launched
        for _due, landings in self.arch._landings:
            for n, (_buffer, dst, src) in landings:
                if dst is self:
                    in_flight += n
                    unlanded[src] += n
        for src, buffer in self.rx_buffers.items():
            check(f"rx_buffers[{src}].occupancy", buffer.occupancy,
                  sum(entry[1] for entry in buffer.fifo) - unlanded[src])
        check("_held", self._held, (
            in_pipes
            + sum(sum(port.counts) for port in self.inputs)
            + queued + in_flight
            + sum(buffer.occupancy for buffer in self.rx_buffers.values())
            + sum(packet.n_flits for _due, packet in self._intra)
        ))
        check("_pipes_active", self._pipes_active,
              sum(1 for pipe in self._pipes if pipe))
        check("_tx_waiting", self._tx_waiting,
              sum(len(port.complete) for port in self.inputs))
        nonempty = {src for src, b in self.rx_buffers.items() if b.occupancy}
        check("_rx_nonempty", self._rx_nonempty, len(nonempty))
        check("_rx_ready", [sorted(ready) for ready in self._rx_ready], [
            sorted(src for src in nonempty
                   if self.rx_buffers[src].fifo[0][0].dst % self._cores == slot)
            for slot in range(self._cores)
        ])
        # The wake law: a gateway is asleep from a tick that found
        # nothing due until ``_wake`` (an awake one's is a past cycle),
        # and sleeps exactly until the earliest due its state gives.
        if self._wake >= now:
            due = self._due_from_state(now)
            if due < now:
                raise broken("_wake", self._wake,
                             f"asleep while a stage was due at cycle {due}")
            if self._wake != due:
                raise broken("_wake", self._wake,
                             f"its state is due at cycle {due}")

    def _due_from_state(self, now: int) -> int:
        """The earliest cycle, *now* or later, a stage of this gateway is
        due, recounted from the queues and plans themselves (not from
        ``_inject_due`` or the reservation channel's ``due``)."""
        dues = [self.reservation_channel.earliest_landing()]
        for slot, pipe in enumerate(self._pipes):
            if pipe:
                # A front packet filling its VC is due when its tail
                # enters; one not in a VC yet, now if one is free, else
                # when its port's drain frees one (or an abandon does,
                # due as such).
                port, vc = self.inputs[slot], self._pipe_active_vc[slot]
                if vc is not None or 0 in port.counts:
                    dues.append(now if vc is None else port.fill_end)
                elif port.drain is not None:
                    dues.append(port.drain[1] + len(port.drain[2]))
        dues.extend(due for due, _packet in self._intra)
        # A stream is no stage: the fabric's pass applies it, and frees
        # the FSM, which then arbitrates.
        if self._tx_state == self.BACKOFF:
            dues.append(self._backoff_until)
        elif self._tx_state == self.IDLE and self._tx_waiting:
            dues.append(now)
        if any(buffer.occupancy for buffer in self.rx_buffers.values()):
            dues.append(now)
        return min(dues, default=NEVER)


# The per-cycle dispatch in ``ClusterGateway.tick`` reads the FSM's states
# as module globals: a cheaper lookup, made every cycle, than an
# instance's class attribute.
_IDLE, _RESERVING, _STREAMING, _BACKOFF = (
    ClusterGateway.IDLE, ClusterGateway.RESERVING,
    ClusterGateway.STREAMING, ClusterGateway.BACKOFF,
)
