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

Energy is charged to the shared :class:`~repro.energy.model.EnergyAccount`
as events happen (DESIGN.md section 4 lists the charging rules).

Each quantity is computed when it can change and read afterwards (rate
and queue depth at ACK, the plan when the DBA current table moves), and
a per-cycle stage runs only when an O(1) count says it has work. The
orders results depend on -- stage order within a tick, launch order in
``_inbound``, ``sorted`` ejection candidates, one energy addend per flit
-- are listed in ``docs/engine.md`` and pinned by value in
``tests/arch/gateway_golden.json``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.buffer import PortBuffer, VirtualChannelBuffer
from repro.noc.flit import Flit, Packet, packetize
from repro.photonic.channel import DataChannel, ReservationBroadcastChannel
from repro.photonic.reservation import ReservationFlit, reservation_flit_bits
from repro.photonic.wavelength import WavelengthId, bits_per_cycle

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


class ClusterGateway:
    """One cluster's photonic router: TX FSM, RX buffers, ejection."""

    IDLE = "idle"
    RESERVING = "reserving"
    STREAMING = "streaming"
    BACKOFF = "backoff"

    def __init__(self, cluster_id: int, arch: "PhotonicCrossbarNoC"):
        self.cluster_id = cluster_id
        self.arch = arch
        config = arch.config
        self.config = config
        self._energy = arch.energy  # read per flit: resolved once
        self._cores = config.cores_per_cluster

        # -- TX input side: one port per core ---------------------------------
        self.inputs: List[PortBuffer] = [
            PortBuffer(config.n_vcs, config.vc_depth_flits)
            for _ in range(config.cores_per_cluster)
        ]
        self._input_arbiters = [
            RoundRobinArbiter(config.n_vcs) for _ in range(config.cores_per_cluster)
        ]
        self._output_arbiter = RoundRobinArbiter(config.cores_per_cluster)

        # Per-core injection pipes (core router -> gateway link, 1 flit/cycle).
        self._pipe_flits: List[Deque[Flit]] = [
            deque() for _ in range(config.cores_per_cluster)
        ]
        self._pipe_packets: List[int] = [0] * config.cores_per_cluster
        self._pipe_active_vc: List[Optional[int]] = [None] * config.cores_per_cluster
        self._pipes_active = 0  # non-empty injection pipes

        # -- photonic channels -------------------------------------------------
        self.channel = DataChannel(cluster_id, clock_hz=config.clock_hz)
        self.reservation_channel = ReservationBroadcastChannel(
            cluster_id,
            propagation_cycles=config.reservation_propagation_cycles,
        )

        # -- TX FSM state (the claimed packet's fields: _clear_tx) ---------
        self._clear_tx()
        #: Fully buffered packets not yet claimed by a transmission: an
        #: input VC holds one packet at most, so while the FSM is IDLE
        #: this counts the VCs with a complete front packet.
        self._tx_waiting = 0
        self._backoff_until = 0

        # -- RX side ------------------------------------------------------
        self.rx_buffers: Dict[int, VirtualChannelBuffer] = {
            src: VirtualChannelBuffer(config.rx_buffer_flits, vc_id=src)
            for src in range(config.n_clusters)
            if src != cluster_id
        }
        self._rx_reserved: Dict[int, int] = {src: 0 for src in self.rx_buffers}
        self._inbound: Deque[Tuple[int, Flit]] = deque()
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

    # ==================================================================
    # Injection (called by the architecture's submit path)
    # ==================================================================
    def try_submit(self, packet: Packet, cycle: int) -> bool:
        """Queue *packet* into its source core's injection pipe."""
        slot = packet.src % self._cores
        if self._pipe_packets[slot] >= self.config.max_pending_packets_per_core:
            return False
        pipe = self._pipe_flits[slot]
        if not pipe:
            self._pipes_active += 1
        pipe.extend(packetize(packet))
        self._pipe_packets[slot] += 1
        self._held += packet.n_flits
        # Source core's electronic router traversal.
        self._energy.charge_router_traversal(packet.size_bits)
        return True

    def submit_intra_cluster(self, packet: Packet, cycle: int) -> bool:
        """All-to-all copper path within the cluster (thesis 3.1)."""
        latency = self.config.intra_cluster_latency_cycles + packet.n_flits
        self._intra.append((cycle + latency, packet))
        self._held += packet.n_flits
        self._energy.charge_router_traversal(2 * packet.size_bits)
        self._energy.charge_buffer_write(packet.size_bits)
        self._energy.charge_buffer_read(packet.size_bits)
        return True

    # ==================================================================
    # Per-cycle step (driven by the architecture)
    # ==================================================================
    def tick(self, cycle: int) -> None:
        reservation_channel = self.reservation_channel
        if reservation_channel._outbound or reservation_channel._responses:
            reservation_channel.tick(cycle)
        if self._inbound:
            self._deliver_inbound(cycle)
        if self._pipes_active:
            self._inject_step(cycle)
        # TX FSM: one dispatch on the state the stage is entered in (an
        # ACK arrives in the reservation stage above and streams now; a
        # state entered here is first acted on next cycle).
        state = self._tx_state
        if state == self.STREAMING:
            self._tx_stream(cycle)
        elif state == self.IDLE:
            if self._tx_waiting:
                self._tx_arbitrate(cycle)
        elif state == self.BACKOFF and cycle >= self._backoff_until:
            self._send_reservation(cycle, retry=True)
        if self._rx_nonempty:
            self._eject_step(cycle)
        if self._intra:
            self._deliver_intra(cycle)

    def is_idle(self) -> bool:
        """True when :meth:`tick` would be a no-op: no flit anywhere in
        the gateway's domain, the TX FSM at rest, and no reservation
        traffic in flight on the (source-owned) reservation waveguide.
        Every arbitration stage is stateless on an empty request set, so
        a gateway in this state can be skipped without drifting any
        round-robin pointer, statistic, or energy counter."""
        return (
            self._held == 0
            and self._tx_state == self.IDLE
            and not self.reservation_channel._outbound
            and not self.reservation_channel._responses
        )

    # -- injection pipes -------------------------------------------------
    def _inject_step(self, cycle: int) -> None:
        energy = self._energy
        active_vc = self._pipe_active_vc
        for slot, pipe in enumerate(self._pipe_flits):
            if not pipe:
                continue
            flit = pipe[0]
            vc = active_vc[slot]
            if vc is None:
                if not flit.is_head:
                    continue
                vc = self.inputs[slot].first_free_vc()
                if vc is None:
                    continue
                active_vc[slot] = vc
            vcb = self.inputs[slot].vcs[vc]
            if len(vcb._fifo) >= vcb.depth:
                continue
            flit.vc = vc
            vcb.push(flit, cycle)
            pipe.popleft()
            energy.charge_buffer_write(flit.bits)
            if flit.is_tail:
                active_vc[slot] = None
                self._pipe_packets[slot] -= 1
                self._tx_waiting += 1
            if not pipe:
                self._pipes_active -= 1

    # -- transmit FSM ------------------------------------------------------
    def _tx_arbitrate(self, cycle: int) -> None:
        """The two arbitration stages of the 3-stage switch."""
        nominees: Dict[int, int] = {}
        for port_idx, port in enumerate(self.inputs):
            if not port._complete_vcs:
                continue
            ready = port.complete_vc_ids()
            winner = self._input_arbiters[port_idx].grant(ready)
            if winner is not None:
                nominees[port_idx] = winner
        if not nominees:
            return
        granted_port = self._output_arbiter.grant(sorted(nominees))
        if granted_port is None:
            return
        self._tx_waiting -= 1
        self._tx_vcb = self.inputs[granted_port].vcs[nominees[granted_port]]
        head = self._tx_vcb.peek()
        assert head is not None and head.is_head
        dst_cluster = head.packet.dst // self._cores
        self._tx_dst = self.arch.gateways[dst_cluster]
        plan = self.arch.tx_plan(self.cluster_id, dst_cluster)
        self._tx_plan = plan
        self._tx_reservation = ReservationFlit(
            src_cluster=self.cluster_id,
            dst_cluster=dst_cluster,
            packet_id=head.packet.pid,
            n_flits=head.packet.n_flits,
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
            self.channel.begin(
                reservation,
                expected_flits=reservation.n_flits,
                flit_bits=self.config.bw_set.flit_bits,
                n_wavelengths=plan.n_wavelengths,
                cycle=cycle,
            )
            self._tx_state = self.STREAMING
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
        """Give up on the head packet after max retries (counted as lost)."""
        vcb = self._tx_vcb
        assert vcb is not None
        while True:
            flit = vcb.pop(cycle)
            self._held -= 1
            self._energy.charge_buffer_read(flit.bits)
            if flit.is_tail:
                break
        self.arch.metrics.packets_abandoned += 1
        self._clear_tx()

    def _clear_tx(self) -> None:
        self._tx_state = self.IDLE
        self._tx_vcb: Optional[VirtualChannelBuffer] = None
        self._tx_dst: Optional["ClusterGateway"] = None
        self._tx_reservation: Optional[ReservationFlit] = None
        self._tx_plan: Optional[TxPlan] = None
        self._tx_retries = 0

    def _tx_stream(self, cycle: int) -> None:
        vcb, dst, channel = self._tx_vcb, self._tx_dst, self.channel
        assert vcb is not None and dst is not None
        energy = self._energy
        fifo = vcb._fifo
        wanted = channel.wanted_flits()
        while wanted > 0 and fifo:
            flit = vcb.pop(cycle)
            bits = flit.bits
            energy.charge_buffer_read(bits)
            # Source gateway electronic traversal happens as the flit
            # crosses from buffer to modulators.
            energy.charge_router_traversal(bits)
            channel.feed(flit)
            wanted -= 1
        launched = channel.tick(cycle)
        if launched:
            # Launched flits leave this gateway's domain for the
            # destination's inbound queue; one packet's, so equal-sized.
            n = len(launched)
            self._held -= n
            dst._held += n
            energy.charge_photonic_transmit(launched[0].bits * n)
            due = cycle + self.config.data_propagation_cycles
            inbound = dst._inbound
            for flit in launched:
                inbound.append((due, flit))
        if channel._active is None:
            self._clear_tx()

    # ==================================================================
    # Receive side
    # ==================================================================
    def _deliver_inbound(self, cycle: int) -> None:
        inbound = self._inbound
        energy = self._energy
        cores = self._cores
        while inbound and inbound[0][0] <= cycle:
            flit = inbound.popleft()[1]
            src = flit.packet.src // cores
            buffer = self.rx_buffers[src]
            if not buffer._fifo:
                # Refilled: the flit is the new front.
                self._rx_ready[flit.packet.dst % cores].add(src)
                self._rx_nonempty += 1
            buffer.push(flit, cycle)
            self._rx_reserved[src] -= 1
            energy.charge_buffer_write(flit.bits)

    def _eject_step(self, cycle: int) -> None:
        """One flit per core per cycle from the RX buffers to the cores.

        Candidates come from the ready index in ascending-source order
        (sets hold source ids; ``sorted`` restores the scan order the
        arbiters have always seen), so skipping empty slots changes
        nothing observable."""
        energy = self._energy
        delivered = self.arch.note_flit_delivered
        for slot, ready in enumerate(self._rx_ready):
            if not ready:
                continue
            src = self._eject_arbiters[slot].grant(sorted(ready))
            if src is None:
                continue
            buffer = self.rx_buffers[src]
            fifo = buffer._fifo
            flit = buffer.pop(cycle)
            self._held -= 1
            if not fifo:
                ready.discard(src)
                self._rx_nonempty -= 1
            elif flit.is_tail:
                # The next packet's front may target another core (a
                # later slot then sees it this very cycle, as always).
                ready.discard(src)
                self._rx_ready[fifo[0].packet.dst % self._cores].add(src)
            bits = flit.bits
            energy.charge_buffer_read(bits)
            energy.charge_router_traversal(bits)
            delivered(flit, cycle, True)

    def _deliver_intra(self, cycle: int) -> None:
        intra = self._intra
        while intra and intra[0][0] <= cycle:
            _due, packet = intra.popleft()
            self._held -= packet.n_flits
            self.arch.note_packet_delivered_whole(packet, cycle, photonic=False)

    # ==================================================================
    # Accounting helpers
    # ==================================================================
    def settle_buffers(self, cycle: int) -> None:
        for port in self.inputs:
            port.settle(cycle)
        for buffer in self.rx_buffers.values():
            buffer.settle(cycle)

    def buffer_flit_cycles(self) -> int:
        total = sum(port.flit_cycles for port in self.inputs)
        total += sum(b.flit_cycles for b in self.rx_buffers.values())
        return total

    def reset_stats(self, at_cycle: int) -> None:
        """Clear statistics: the buffers settle residency at the boundary
        *at_cycle* and re-base their accounting clocks, so warm-up
        flit-cycles never leak into the measured window."""
        for port in self.inputs:
            port.reset_stats(at_cycle)
        for buffer in self.rx_buffers.values():
            buffer.reset_stats(at_cycle)
        self.channel.reset_stats()
        self.reservation_channel.reset_stats()

    def flits_held(self) -> int:
        """Every flit currently inside this gateway's domain (injection
        pipes, input VCs, the write channel's serialization queue, the
        in-flight photonic window, RX buffers and the intra-cluster pipe).
        Used by the flit-conservation invariant tests. O(1): the counter
        is maintained at every boundary crossing (audited by
        :meth:`audit_flits_held`)."""
        return self._held

    def audit_flits_held(self) -> int:
        """Recount :meth:`flits_held` from first principles (test hook)."""
        total = sum(len(pipe) for pipe in self._pipe_flits)
        total += sum(port.occupancy for port in self.inputs)
        if self.channel.active is not None:
            total += len(self.channel.active.pending)
        total += len(self._inbound)
        total += sum(len(buffer) for buffer in self.rx_buffers.values())
        total += sum(packet.n_flits for _due, packet in self._intra)
        return total
