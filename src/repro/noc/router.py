"""3-stage wormhole virtual-channel router.

The thesis contribution list specifies "3-stage switches namely, input,
output arbitrations and routing" (section 1.6), the switch organisation of
Pande et al. [24] shown in fig. 1-3. Per cycle the pipeline performs:

1. **Routing** -- head flits at VC heads compute their output port and
   allocate a free downstream virtual channel (wormhole path setup).
2. **Input arbitration** -- each input port nominates one of its VCs whose
   head flit is ready (routed, downstream VC held, credit available).
3. **Output arbitration + crossbar traversal** -- each output port grants
   one nominee; granted flits traverse the crossbar onto the output link
   and a credit is returned upstream.

Flow control is credit-based: the router tracks free buffer slots per
downstream VC and never transmits without a credit, so buffers can never
overflow (asserted by :class:`repro.noc.buffer.VirtualChannelBuffer`).

A tick costs what the flits present cost, not the VCs configured: each
:class:`~repro.noc.buffer.PortBuffer` keeps the ids of its non-empty VCs
and only those are visited. Two iteration orders are load-bearing
(results depend on them): downstream VCs are allocated in-port-major /
VC-ascending, and output ports forward in the order they were first
nominated (it fixes credit, link-send and eject order).

One flit-hop is one pass through stage 3 of :meth:`Router.tick`, with
no method call on the way: the grant (a lone requester wins inline),
the crossbar conflict check, the VC pop, the link send, the
credit return and the tail's teardown are all written out there.

What is in flight lives with whoever wires the routers together: a
forwarded flit and the credit it frees go onto the owner's due queues
that each :class:`~repro.noc.link.Link` names, and the owner puts
arriving flits into ``inputs[port].vcs`` and arriving credits into the
link's ``credits`` row. A router with every input port empty has nothing
to do, so :meth:`Router.tick` reports how many flits it still holds and
the owner ticks only routers that hold some.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.buffer import BufferError, PortBuffer, VirtualChannelBuffer
from repro.noc.flit import Flit
from repro.noc.link import Link, LinkBusyError
from repro.sim.engine import ClockedComponent


class CrossbarConflict(RuntimeError):
    """Raised when two crossbar connections collide on a port within one
    tick: each input drives at most one output, and each output is driven
    by at most one input (the routing/crossbar stage of the 3-stage
    switch, Pande et al. [24])."""


@dataclass(frozen=True)
class RouterConfig:
    """Microarchitecture parameters (defaults from thesis table 3-3)."""

    n_vcs: int = 16
    vc_depth: int = 64

    def __post_init__(self) -> None:
        if self.n_vcs <= 0:
            raise ValueError(f"n_vcs must be positive, got {self.n_vcs}")
        if self.vc_depth <= 0:
            raise ValueError(f"vc_depth must be positive, got {self.vc_depth}")


class Router(ClockedComponent):
    """A wormhole VC router with ``n_ports`` symmetric ports.

    Wiring is explicit: for each output port attach either a
    :class:`~repro.noc.link.Link` or a local sink callable for ejection,
    and for each input port fed by a link that link, which carries this
    router's credits back upstream. Input flits arrive through
    :meth:`accept_flit` or, from the owner's due queue, straight into
    ``inputs[port].vcs``.
    """

    def __init__(
        self,
        node_id: int,
        n_ports: int,
        config: RouterConfig = RouterConfig(),
        route_fn: Optional[Callable[[int], int]] = None,
        name: str = "",
    ):
        if n_ports <= 0:
            raise ValueError(f"n_ports must be positive, got {n_ports}")
        self.node_id = node_id
        self.n_ports = n_ports
        self.config = config
        self.name = name or f"router{node_id}"
        #: dst core/node id -> output port index.
        self.route_fn = route_fn

        self.inputs: List[PortBuffer] = [
            PortBuffer(config.n_vcs, config.vc_depth) for _ in range(n_ports)
        ]
        self._input_arbiters = [RoundRobinArbiter(config.n_vcs) for _ in range(n_ports)]
        self._output_arbiters = [RoundRobinArbiter(n_ports) for _ in range(n_ports)]
        # The crossbar: ports are stamped with the epoch of the tick that
        # connected them, so opening a tick is one increment.
        self._epoch = 0
        self._input_used: List[int] = [0] * n_ports
        self._output_used: List[int] = [0] * n_ports

        # Output-side wiring and state.
        self._out_links: List[Optional[Link]] = [None] * n_ports
        self._out_sinks: List[Optional[Callable[[Flit], None]]] = [None] * n_ports
        #: credits[port][vc]: free slots believed available downstream.
        self._credits: List[List[int]] = [[0] * config.n_vcs for _ in range(n_ports)]
        #: output VC ownership: None = free, else owning (in_port, in_vc).
        self._out_vc_owner: List[List[Optional[tuple]]] = [
            [None] * config.n_vcs for _ in range(n_ports)
        ]
        # The link feeding each input port, which returns its credits.
        self._in_links: List[Optional[Link]] = [None] * n_ports
        # Nomination scratch, meaningful within one tick only: the input
        # ports asking for each output (ascending), replaced on an
        # output's first nomination, and the VC each input put forward.
        self._requests: List[List[int]] = [[] for _ in range(n_ports)]
        self._nominated: List[Optional[VirtualChannelBuffer]] = [None] * n_ports

        # Statistics.
        self.flits_routed = 0
        self.flits_forwarded = 0
        self.bits_forwarded = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_output_link(self, port: int, link: Link) -> None:
        """Attach *link* at *port*; its ``credits`` become the counters for
        the buffers it feeds, which whoever lands returning credits adds
        to. Downstream capacity is assumed to be a peer router with the
        same :class:`RouterConfig`."""
        self._out_links[port] = link
        self._credits[port] = link.credits = [self.config.vc_depth] * self.config.n_vcs

    def connect_output_sink(self, port: int, sink: Callable[[Flit], None]) -> None:
        """Attach a local ejection sink at *port* (infinite acceptance)."""
        self._out_sinks[port] = sink
        # Local ejection never blocks: model as always-credited.
        self._credits[port] = [1 << 30] * self.config.n_vcs

    def connect_input_link(self, in_port: int, link: Link) -> None:
        """Attach the link feeding *in_port*: the freed slot of every flit
        forwarded from it is credited back over *link*."""
        self._in_links[in_port] = link

    # ------------------------------------------------------------------
    # Input side
    # ------------------------------------------------------------------
    def accept_flit(self, port: int, flit: Flit, cycle: int) -> None:
        """Receive *flit* on input *port*."""
        self.inputs[port].push(flit, cycle)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """One pipeline cycle; returns the flits still buffered after it.

        The arbiters and crossbar hold no cross-cycle obligations of
        their own (an empty grant is stateless), so the tick of a router
        holding nothing is a no-op its owner can leave out.
        """
        # Stages 1 and 2, one occupied input port at a time: set up the
        # wormhole path of any front head flit, then nominate one ready
        # VC. Routing a port just before arbitrating it equals routing
        # every port first: arbitration reads only its own port's VCs and
        # credits, neither of which another port's routing writes.
        # ``RoundRobinArbiter.grant`` on a lone requester is inlined at
        # both arbitration stages: it wins, and the pointer moves past it.
        nominated_outputs: List[int] = []  # in order of first nomination
        held = 0
        all_credits = self._credits
        requests = self._requests
        nominated = self._nominated
        for in_port, port_buffer in enumerate(self.inputs):
            occupied = port_buffer._occupied_vcs
            if not occupied:
                # Arbiters are stateless on empty request sets, so an
                # empty port can be skipped without perturbing priority.
                continue
            held += port_buffer._occupancy
            vcs = port_buffer.vcs
            ready_vcs = []
            for vc_id in sorted(occupied) if len(occupied) > 1 else occupied:
                vcb = vcs[vc_id]
                downstream_vc = vcb.downstream_vc
                if downstream_vc is None:
                    downstream_vc = self._route_front(in_port, vcb)
                    if downstream_vc is None:
                        continue
                if all_credits[vcb.route][downstream_vc] > 0:
                    ready_vcs.append(vc_id)
            if not ready_vcs:
                continue
            arbiter = self._input_arbiters[in_port]
            if len(ready_vcs) == 1:
                winner_vc = ready_vcs[0]
                arbiter._next_priority = (winner_vc + 1) % arbiter.n
            else:
                winner_vc = arbiter.grant(ready_vcs)
            winner = nominated[in_port] = vcs[winner_vc]
            out_port = winner.route
            if out_port in nominated_outputs:
                requests[out_port].append(in_port)
            else:
                nominated_outputs.append(out_port)
                requests[out_port] = [in_port]
        if not nominated_outputs:
            return held

        # Stage 3: every nominated output grants one input and forwards
        # its flit, in order of first nomination -- one flit-hop each.
        self._epoch += 1
        epoch, input_used, output_used = self._epoch, self._input_used, self._output_used
        inputs, out_links, in_links = self.inputs, self._out_links, self._in_links
        output_arbiters, out_vc_owner = self._output_arbiters, self._out_vc_owner
        bits_forwarded, due = 0, cycle + 1
        for out_port in nominated_outputs:
            arbiter = output_arbiters[out_port]
            out_requests = requests[out_port]
            if len(out_requests) == 1:
                in_port = out_requests[0]
                arbiter._next_priority = (in_port + 1) % arbiter.n
            else:
                in_port = arbiter.grant(out_requests)
            if input_used[in_port] == epoch:
                raise CrossbarConflict(f"{self.name}: input {in_port} already connected this tick")
            if output_used[out_port] == epoch:
                raise CrossbarConflict(f"{self.name}: output {out_port} already connected this tick")
            input_used[in_port] = output_used[out_port] = epoch

            # ``VirtualChannelBuffer.pop``, inlined (its underflow check,
            # residency settling and port-index upkeep; the tail's
            # wormhole teardown is at the end of the hop).
            vcb = nominated[in_port]
            in_vc = vcb.vc_id
            fifo = vcb._fifo
            if not fifo:
                raise BufferError(f"VC {in_vc} underflow")
            if cycle > vcb._last_accounted_cycle:
                vcb.flit_cycles += len(fifo) * (cycle - vcb._last_accounted_cycle)
                vcb._last_accounted_cycle = cycle
            flit = fifo.popleft()
            port_buffer = inputs[in_port]
            port_buffer._occupancy -= 1
            if not fifo:
                port_buffer._occupied_vcs.discard(in_vc)

            downstream_vc = vcb.downstream_vc
            flit.vc = downstream_vc
            bits = flit.bits
            bits_forwarded += bits
            link = out_links[out_port]
            if link is not None:
                # The link: one flit a cycle, counted for wire energy,
                # due at the far end next cycle.
                all_credits[out_port][downstream_vc] -= 1
                if link.sent_cycle == cycle:
                    raise LinkBusyError(f"link {link.name!r}: a second send in cycle {cycle}")
                link.sent_cycle = cycle
                link.items_carried += 1
                link.bits_carried += bits
                link.flits_due.append((due, link.vcs, link.node, flit))
            else:
                sink = self._out_sinks[out_port]
                if sink is None:
                    raise RuntimeError(f"{self.name}: output port {out_port} not wired")
                # The local "buffer" frees instantly: no credit is consumed.
                sink(flit)

            # Return a credit upstream for the slot just freed.
            in_link = in_links[in_port]
            if in_link is not None:
                in_link.credits_due.append((due, in_link.credits, in_vc))

            if flit.is_tail:
                # Wormhole state tears down with the tail flit.
                vcb.route = vcb.downstream_vc = None
                out_vc_owner[out_port][downstream_vc] = None
        forwarded = len(nominated_outputs)
        self.flits_forwarded += forwarded
        self.bits_forwarded += bits_forwarded
        return held - forwarded

    def _route_front(self, in_port: int, vcb: VirtualChannelBuffer) -> Optional[int]:
        """Route computation + downstream VC allocation for *vcb*'s front
        flit, if it is a head; returns the downstream VC once one is held
        (allocation is retried every cycle until an output VC frees up)."""
        if not vcb._fifo[0].is_head:
            return None
        if vcb.route is None:
            if self.route_fn is None:
                raise RuntimeError(f"{self.name}: no routing function wired")
            vcb.route = self.route_fn(vcb._fifo[0].packet.dst)
            self.flits_routed += 1
        owners = self._out_vc_owner[vcb.route]
        for vc, owner in enumerate(owners):
            if owner is None:
                owners[vc] = (in_port, vcb.vc_id)
                vcb.downstream_vc = vc
                return vc
        return None

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def buffer_flit_cycles(self) -> int:
        return sum(pb.flit_cycles for pb in self.inputs)

    def settle(self, cycle: int) -> None:
        for pb in self.inputs:
            pb.settle(cycle)

    def reset_stats(self, at_cycle: int) -> None:
        """Clear statistics, settling buffer residency at the boundary
        *at_cycle* first (see ``VirtualChannelBuffer.reset_stats``)."""
        self.flits_routed = 0
        self.flits_forwarded = 0
        self.bits_forwarded = 0
        for pb in self.inputs:
            pb.reset_stats(at_cycle)
