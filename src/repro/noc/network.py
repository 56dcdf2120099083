"""Electrical network assembly: routers + links + traffic endpoints.

Builds a complete wormhole network over any :class:`~repro.noc.topology.Topology`.
Its one constructor is the 64-core mesh of
:mod:`repro.arch.electrical_baseline`, the chapter-1 baseline the
photonic architectures are compared against.

Each topology node gets a router with one port per neighbor plus a local
port. An :class:`Endpoint` per node injects packets from a queue; the
network records latency and delivered bits as flits are ejected.

A cycle costs what is in flight, not what is wired. The network owns the
only two delay queues -- flits on links and credits on their way back,
each in due order because every link has the one ``link_latency`` -- and
lands what is due before anything else acts in a cycle. It keeps the set
of routers holding a flit and ticks only those (in node order), visits
only endpoints that hold work, and a router's tick visits only the VCs
that hold flits. It also implements the engine's idle protocol so
fully-quiet spans are jumped outright.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.noc.flit import Flit, Packet, packetize
from repro.noc.link import CreditChannel, Link
from repro.noc.router import Router, RouterConfig
from repro.noc.routing import RoutingAlgorithm, TableRouting
from repro.noc.topology import Topology
from repro.sim.engine import ClockedComponent, Simulator


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
        Any connected :class:`Topology`.
    router_config:
        Router microarchitecture (defaults per table 3-3).
    routing:
        A routing algorithm; defaults to shortest-path tables.
    link_latency:
        Per-hop link latency in cycles.
    """

    def __init__(
        self,
        topology: Topology,
        router_config: RouterConfig = RouterConfig(),
        routing: Optional[RoutingAlgorithm] = None,
        link_latency: int = 1,
        name: str = "enet",
    ):
        self.name = name
        self.topology = topology
        self.router_config = router_config
        self.routing = routing or TableRouting(topology)
        self.link_latency = link_latency
        self.metrics = NetworkMetrics()

        self.routers: Dict[int, Router] = {}
        self.endpoints: Dict[int, Endpoint] = {}
        self._links: List[Link] = []
        self._local_ports: Dict[int, int] = {}
        #: Flits on links, ``(due, destination VCs, destination node,
        #: flit)``, and credits on their way upstream, ``(due, upstream
        #: credit row, vc)``. Links and credit channels append here; one
        #: ``link_latency`` and a clock that never runs backwards make
        #: append order due order.
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
                    peer.inputs[peer_in_port].vcs,
                    neighbor,
                    latency=self.link_latency,
                    name=f"{self.name}.{node}->{neighbor}",
                )
                credits = CreditChannel(
                    self._credits_due,
                    router.connect_output_link(port, link),
                    latency=self.link_latency,
                )
                peer.connect_credit_return(peer_in_port, credits)
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
        # sent during it is due at cycle + latency >= cycle + 1, so this
        # is what every receiver polling at its own turn would see.
        occupied = self._occupied
        due = self._flits_due
        while due and due[0][0] <= cycle:
            _when, vcs, node, flit = due.popleft()
            vcs[flit.vc].push(flit, cycle)
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

    def is_idle(self) -> bool:
        """No traffic anywhere: no endpoint work, nothing in flight, every
        router empty. Ticking in this state would only burn cycles."""
        return not (
            self._active_eps or self._occupied or self._flits_due or self._credits_due
        )

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
