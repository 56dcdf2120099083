"""Electrical network assembly: routers + links + traffic endpoints.

Builds a complete wormhole network over a :class:`~repro.noc.topology.Topology`.
Its one constructor is the 64-core mesh of
:mod:`repro.arch.electrical_baseline`, the chapter-1 baseline the
photonic architectures are compared against.

Each topology node gets a router with one port per neighbor plus a local
port. An :class:`Endpoint` per node injects packets from a queue; the
network records latency and delivered bits as flits are ejected.

A cycle costs what is in flight, not what is wired. The network owns the
only two delay queues -- flits on links and credits on their way back,
each in due order because every link takes one cycle -- and lands what
is due before anything else acts in a cycle. It keeps the set
of routers holding a flit and ticks only those (in node order), visits
only endpoints that hold work, and a router's tick visits only the VCs
that hold flits. It also implements the engine's idle protocol so
fully-quiet spans are jumped outright, and :meth:`ElectricalNetwork.audit`
re-derives every one of those O(1) counters from the state it summarises.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.noc.buffer import BufferError
from repro.noc.flit import Flit, Packet, packetize
from repro.noc.link import Link
from repro.noc.router import Router, RouterConfig
from repro.noc.routing import DimensionOrderRouting
from repro.noc.topology import Topology
from repro.sim.engine import NEVER, ClockedComponent, SimulationError, Simulator


@dataclass
class NetworkMetrics:
    """Aggregate delivery metrics for an electrical network run.

    ``bits_delivered`` counts every bit ever ejected (conservation
    checks); ``measured_bits`` counts only bits ejected while the
    measurement window was open, and is what bandwidth is computed
    from — draining in-flight traffic after the measured run neither
    adds cycles nor bits to the window.
    """

    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    bits_delivered: int = 0
    measured_bits: int = 0
    latency_sum: float = 0.0
    latency_max: int = 0
    measured_cycles: int = 0

    @property
    def mean_latency(self) -> float:
        if self.packets_delivered == 0:
            return 0.0
        return self.latency_sum / self.packets_delivered

    def delivered_gbps(self, clock_hz: float) -> float:
        if self.measured_cycles <= 0:
            return 0.0
        return self.measured_bits * clock_hz / self.measured_cycles / 1e9


class Endpoint:
    """Per-node traffic source with an unbounded injection queue."""

    def __init__(self, node: int, network: "ElectricalNetwork"):
        self.node = node
        self.network = network
        self.queue: Deque[Packet] = deque()
        self._pending_flits: Deque[Flit] = deque()
        self._active_vc: Optional[int] = None
        #: The local input port of this node's router.
        self._port = network.routers[node].inputs[network.local_port(node)]

    @property
    def has_work(self) -> bool:
        """True while packets are queued or a packet is mid-injection."""
        return bool(self._pending_flits or self.queue)

    @property
    def pending_flit_count(self) -> int:
        """Flits of the packet currently being injected (0 between packets)."""
        return len(self._pending_flits)

    def submit(self, packet: Packet) -> None:
        self.queue.append(packet)
        self.network.metrics.packets_injected += 1
        self.network._active_eps.add(self.node)

    def inject_step(self, cycle: int) -> None:
        """Move one flit per cycle into the local router port if space allows."""
        pending = self._pending_flits
        if not pending:
            if not self.queue:
                return
            pending.extend(packetize(self.queue.popleft()))
        flit = pending[0]
        if flit.is_head:
            vc = self._port.first_free_vc()
        else:
            # Wormhole: body/tail flits of this packet must follow the head's VC.
            vc = self._active_vc
            assert vc is not None, "body flit without an active packet VC"
        if vc is None or not self._port.can_accept(vc):
            return
        flit.vc = vc
        self._port.push(flit, cycle)
        self.network.flits_in_network += 1
        self.network._occupied.add(self.node)
        pending.popleft()
        self._active_vc = None if flit.is_tail else vc


class ElectricalNetwork(ClockedComponent):
    """A complete electrical NoC over a topology.

    Parameters
    ----------
    topology:
        A :class:`Topology` with node coordinates (a
        :func:`~repro.noc.topology.mesh`).
    router_config:
        Router microarchitecture (defaults per table 3-3).
    routing:
        The routing; defaults to XY routing over *topology*.
    """

    def __init__(
        self,
        topology: Topology,
        router_config: RouterConfig = RouterConfig(),
        routing: Optional[DimensionOrderRouting] = None,
        name: str = "enet",
    ):
        self.name = name
        self.topology = topology
        self.router_config = router_config
        self.routing = routing or DimensionOrderRouting(topology)
        self.metrics = NetworkMetrics()

        self.routers: Dict[int, Router] = {}
        self.endpoints: Dict[int, Endpoint] = {}
        self._links: List[Link] = []
        self._local_ports: Dict[int, int] = {}
        #: Flits on links, ``(due, destination VCs, destination node,
        #: flit)``, and credits on their way upstream, ``(due, upstream
        #: credit row, vc)``. The router hop appends here; one-cycle
        #: links and a clock that never runs backwards make append order
        #: due order.
        self._flits_due: Deque[tuple] = deque()
        self._credits_due: Deque[tuple] = deque()
        #: Nodes whose router holds a flit in some input port: added to
        #: where a flit enters a router, dropped by the router's own tick.
        self._occupied: Set[int] = set()
        #: Nodes whose endpoint currently holds queued or pending work.
        self._active_eps: Set[int] = set()
        #: Flits injected and not yet ejected (in router buffers or on
        #: links), kept so :meth:`drain` can test quiescence in O(1).
        self.flits_in_network = 0
        #: Called with every flit leaving the network. The default accounts
        #: it into :attr:`metrics`; an owner keeping its own delivery
        #: metrics replaces it, so each flit is accounted exactly once.
        self.on_eject: Callable[[Flit, int], None] = self._record_eject
        #: Open measurement window: measured cycles/bits accumulate only
        #: while True (drain-after-measure freezes it).
        self._measuring = True
        self._build()

    # ------------------------------------------------------------------
    def local_port(self, node: int) -> int:
        return self._local_ports[node]

    def _build(self) -> None:
        topo = self.topology
        for node in topo.nodes():
            n_ports = topo.degree(node) + 1  # + local
            self._local_ports[node] = n_ports - 1
            router = Router(
                node,
                n_ports,
                self.router_config,
                route_fn=self._make_route_fn(node),
                name=f"{self.name}.r{node}",
            )
            self.routers[node] = router
            self.endpoints[node] = Endpoint(node, self)

        # Wire links and credit channels in both directions of every edge.
        for node in topo.nodes():
            router = self.routers[node]
            for port, neighbor in enumerate(topo.neighbors(node)):
                peer = self.routers[neighbor]
                peer_in_port = topo.port_of(neighbor, node)
                link = Link(
                    self._flits_due,
                    self._credits_due,
                    peer.inputs[peer_in_port].vcs,
                    neighbor,
                    name=f"{self.name}.{node}->{neighbor}",
                )
                router.connect_output_link(port, link)
                peer.connect_input_link(peer_in_port, link)
                self._links.append(link)
            local = self._local_ports[node]
            router.connect_output_sink(local, self._eject)

    def _make_route_fn(self, node: int) -> Callable[[int], int]:
        topo, routing, local = self.topology, self.routing, self._local_ports[node]

        def route(dst: int) -> int:
            if dst == node:
                return local
            return topo.port_of(node, routing.next_hop(node, dst))

        return route

    def _eject(self, flit: Flit) -> None:
        self.flits_in_network -= 1
        self.on_eject(flit, self._cycle)

    def _record_eject(self, flit: Flit, cycle: int) -> None:
        metrics = self.metrics
        bits = flit.packet.flit_bits
        metrics.flits_delivered += 1
        metrics.bits_delivered += bits
        if self._measuring:
            metrics.measured_bits += bits
        if flit.is_tail:
            metrics.packets_delivered += 1
            latency = cycle - flit.packet.created_cycle
            metrics.latency_sum += latency
            metrics.latency_max = max(metrics.latency_max, latency)

    # ------------------------------------------------------------------
    _cycle: int = 0

    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        # What is due lands before anyone acts in this cycle. Anything
        # sent during it is due at cycle + 1, so this is what every
        # receiver polling at its own turn would see.
        occupied = self._occupied
        due = self._flits_due
        while due and due[0][0] <= cycle:
            _when, vcs, node, flit = due.popleft()
            # ``VirtualChannelBuffer.push``, inlined (its overflow check,
            # residency settling and port-index upkeep).
            vcb = vcs[flit.vc]
            fifo = vcb._fifo
            held = len(fifo)
            if held >= vcb.depth:
                raise BufferError(
                    f"VC {vcb.vc_id} overflow (depth {vcb.depth}); "
                    "flow control must prevent this"
                )
            if cycle > vcb._last_accounted_cycle:
                vcb.flit_cycles += held * (cycle - vcb._last_accounted_cycle)
                vcb._last_accounted_cycle = cycle
            port = vcb._owner
            port._occupancy += 1
            if not held:
                port._occupied_vcs.add(vcb.vc_id)
            fifo.append(flit)
            occupied.add(node)
        due, depth = self._credits_due, self.router_config.vc_depth
        while due and due[0][0] <= cycle:
            _when, credits, vc = due.popleft()
            credits[vc] += 1
            if credits[vc] > depth:
                raise self._credit_overflow(credits, vc)
        active = self._active_eps
        if active:
            for node in sorted(active):
                endpoint = self.endpoints[node]
                endpoint.inject_step(cycle)
                if not endpoint.has_work:
                    active.discard(node)
        # Node order; only a router's own tick empties it.
        routers = self.routers
        for node in sorted(occupied):
            if not routers[node].tick(cycle):
                occupied.discard(node)
        if self._measuring:
            self.metrics.measured_cycles += 1

    def _credit_overflow(self, credits: List[int], vc: int) -> RuntimeError:
        router, port = next(
            (router, port)
            for router in self.routers.values()
            for port, row in enumerate(router._credits)
            if row is credits
        )
        return RuntimeError(f"{router.name}: credit overflow on port {port} vc {vc}")

    def next_wake(self, cycle: int) -> int:
        """*cycle* while there is traffic anywhere (endpoint work, a flit
        or a credit in flight, a router holding a flit), else ``NEVER``:
        ticking then would only burn cycles."""
        if self._active_eps or self._occupied or self._flits_due or self._credits_due:
            return cycle
        return NEVER

    def is_idle(self) -> bool:
        return self.next_wake(0) == NEVER

    def audit(self) -> None:
        """Recount every O(1) counter the network keeps from the state it
        summarises; raise :class:`~repro.sim.engine.SimulationError`
        naming the first one that drifted and what the recount gives.

        Meant between ticks: ``flits_in_network`` is every flit buffered
        in a router or on a link; ``_occupied`` is the nodes whose router
        buffers one; each due queue is in due order with nothing due at
        or before the last tick; around every link's credit loop the
        upstream row holds ``vc_depth`` slots per VC less the flits
        buffered downstream, those on the link and the credits on their
        way back; and :meth:`is_idle` holds exactly when no endpoint
        work, no flit and no credit is anywhere.
        """

        def check(counter: str, kept: object, recount: object) -> None:
            if kept != recount:
                raise SimulationError(
                    f"{self.name}: {counter} is {kept!r}, "
                    f"the state it counts gives {recount!r}"
                )

        flits_due, credits_due = list(self._flits_due), list(self._credits_due)
        for counter, queue in (("_flits_due", flits_due), ("_credits_due", credits_due)):
            dues = [entry[0] for entry in queue]
            check(f"{counter} due order", dues, sorted(dues))
            if dues and dues[0] <= self._cycle:
                raise SimulationError(
                    f"{self.name}: {counter} holds an entry due at {dues[0]}, "
                    f"left behind by cycle {self._cycle}"
                )
        buffered = {
            node: sum(len(vcb) for port in router.inputs for vcb in port.vcs)
            for node, router in self.routers.items()
        }
        check("flits_in_network", self.flits_in_network,
              sum(buffered.values()) + len(flits_due))
        check("_occupied", sorted(self._occupied),
              sorted(node for node, held in buffered.items() if held))
        flying = Counter((id(vcs), flit.vc) for _, vcs, _, flit in flits_due)
        returning = Counter((id(row), vc) for _, row, vc in credits_due)
        in_flight = {key for key, _vc in (*flying, *returning)}
        depth = self.router_config.vc_depth
        for router in self.routers.values():
            for port, link in enumerate(router._out_links):
                if link is None:
                    continue
                row, vcs = router._credits[port], link.vcs
                slots = [depth - len(vcb) for vcb in vcs]
                if id(vcs) in in_flight or id(row) in in_flight:
                    slots = [
                        free - flying[id(vcs), vc] - returning[id(row), vc]
                        for vc, free in enumerate(slots)
                    ]
                check(f"{link.name} credits", row, slots)
        quiet = not (self._active_eps or self.flits_in_network or credits_due)
        check("is_idle()", self.is_idle(), quiet)

    def skip_cycles(self, start_cycle: int, stop_cycle: int) -> None:
        """Account an idle span the engine jumped over: idle cycles inside
        an open measurement window are still measured cycles."""
        self._cycle = stop_cycle - 1
        if self._measuring:
            self.metrics.measured_cycles += stop_cycle - start_cycle

    def submit(self, packet: Packet) -> None:
        """Queue *packet* at its source endpoint."""
        self.endpoints[packet.src].submit(packet)

    def reset_stats(self, at_cycle: int) -> None:
        """Clear all statistics and reopen the measurement window.

        Router buffer residency is settled at *at_cycle* (the warm-up
        boundary) before clearing, so flits resident across it don't
        leak warm-up flit-cycles into the measured run.
        """
        self.metrics = NetworkMetrics()
        self._measuring = True
        for router in self.routers.values():
            router.reset_stats(at_cycle)
        for link in self._links:
            link.reset_stats()

    def drain(self, sim: Simulator, max_cycles: int = 100_000) -> bool:
        """Run until all queues and buffers empty; True if fully drained.

        When called after a measured run (``measured_cycles > 0``) the
        measurement window is frozen first: drain cycles exist only to
        flush in-flight traffic and must not dilute ``delivered_gbps``.
        A cold-start drain (nothing measured yet — the drive-and-drain
        pattern used by unit tests) keeps the window open so bandwidth
        remains observable.
        """
        if self.metrics.measured_cycles > 0:
            self._measuring = False
        for _ in range(max_cycles):
            # Endpoints with work are exactly the members of _active_eps.
            if not (self._active_eps or self.flits_in_network):
                return True
            sim.step()
        return False
