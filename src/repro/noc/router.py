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

What is in flight lives with whoever wires the routers together: a
forwarded flit and the credit it frees go onto the owner's due queues
(through :class:`~repro.noc.link.Link` and
:class:`~repro.noc.link.CreditChannel`), and the owner puts arriving
flits into ``inputs[port].vcs`` and arriving credits into the row
:meth:`Router.connect_output_link` returned. A router with every input
port empty has nothing to do, so :meth:`Router.tick` reports how many
flits it still holds and the owner ticks only routers that hold some.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.noc.arbiter import make_arbiter
from repro.noc.buffer import PortBuffer, VirtualChannelBuffer
from repro.noc.crossbar import Crossbar
from repro.noc.flit import Flit
from repro.noc.link import CreditChannel, Link
from repro.sim.engine import ClockedComponent


@dataclass(frozen=True)
class RouterConfig:
    """Microarchitecture parameters (defaults from thesis table 3-3)."""

    n_vcs: int = 16
    vc_depth: int = 64
    arbiter: str = "round_robin"

    def __post_init__(self) -> None:
        if self.n_vcs <= 0:
            raise ValueError(f"n_vcs must be positive, got {self.n_vcs}")
        if self.vc_depth <= 0:
            raise ValueError(f"vc_depth must be positive, got {self.vc_depth}")


class Router(ClockedComponent):
    """A wormhole VC router with ``n_ports`` symmetric ports.

    Wiring is explicit: for each output port attach either a
    :class:`~repro.noc.link.Link` or a local sink callable for ejection,
    and for each input port fed by a link the
    :class:`~repro.noc.link.CreditChannel` back to the router upstream.
    Input flits arrive through :meth:`accept_flit` or, from the owner's
    due queue, straight into ``inputs[port].vcs``.
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
        self._input_arbiters = [make_arbiter(config.arbiter, config.n_vcs) for _ in range(n_ports)]
        self._output_arbiters = [make_arbiter(config.arbiter, n_ports) for _ in range(n_ports)]
        self.crossbar = Crossbar(n_ports, n_ports)

        # Output-side wiring and state.
        self._out_links: List[Optional[Link]] = [None] * n_ports
        self._out_sinks: List[Optional[Callable[[Flit], None]]] = [None] * n_ports
        #: credits[port][vc]: free slots believed available downstream.
        self._credits: List[List[int]] = [[0] * config.n_vcs for _ in range(n_ports)]
        #: output VC ownership: None = free, else owning (in_port, in_vc).
        self._out_vc_owner: List[List[Optional[tuple]]] = [
            [None] * config.n_vcs for _ in range(n_ports)
        ]
        # Credit return channels toward each *upstream* router (per input).
        self._credit_return: List[Optional[CreditChannel]] = [None] * n_ports
        # Nomination scratch, meaningful within one tick only: the input
        # ports asking for each output (ascending), reset on an output's
        # first nomination, and the VC each input put forward.
        self._requests: List[List[int]] = [[] for _ in range(n_ports)]
        self._nominated_vc: List[int] = [0] * n_ports

        # Statistics.
        self.flits_routed = 0
        self.flits_forwarded = 0
        self.bits_forwarded = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_output_link(self, port: int, link: Link) -> List[int]:
        """Attach *link* at *port* and return the credit counters for the
        buffers it feeds, which whoever lands returning credits adds to.
        Downstream capacity is assumed to be a peer router with the same
        :class:`RouterConfig`."""
        self._out_links[port] = link
        self._credits[port] = [self.config.vc_depth] * self.config.n_vcs
        return self._credits[port]

    def connect_output_sink(self, port: int, sink: Callable[[Flit], None]) -> None:
        """Attach a local ejection sink at *port* (infinite acceptance)."""
        self._out_sinks[port] = sink
        # Local ejection never blocks: model as always-credited.
        self._credits[port] = [1 << 30] * self.config.n_vcs

    def connect_credit_return(self, in_port: int, channel: CreditChannel) -> None:
        """Attach the channel carrying this router's credits upstream."""
        self._credit_return[in_port] = channel

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
        # credits, neither of which another port's routing writes. An
        # output link is always free here -- only stage 3 of this router
        # sends on it, once a cycle (``Link.send`` checks).
        nominated_outputs: List[int] = []  # in order of first nomination
        held = 0
        all_credits = self._credits
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
            winner_vc = self._input_arbiters[in_port].grant(ready_vcs)
            self._nominated_vc[in_port] = winner_vc
            out_port = vcs[winner_vc].route
            if out_port not in nominated_outputs:
                nominated_outputs.append(out_port)
                self._requests[out_port].clear()
            self._requests[out_port].append(in_port)
        if nominated_outputs:
            # Stage 3: every nominated output grants one input and
            # forwards its flit, in order of first nomination.
            self.crossbar.begin_cycle()
            for out_port in nominated_outputs:
                in_port = self._output_arbiters[out_port].grant(self._requests[out_port])
                self._forward(in_port, self._nominated_vc[in_port], out_port, cycle)
        return held - len(nominated_outputs)

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

    def _forward(self, in_port: int, in_vc: int, out_port: int, cycle: int) -> None:
        vcb = self.inputs[in_port].vcs[in_vc]
        downstream_vc = vcb.downstream_vc
        assert downstream_vc is not None
        flit = vcb.pop(cycle)
        bits = flit.bits
        self.crossbar.connect(in_port, out_port, bits)
        flit.vc = downstream_vc
        self.flits_forwarded += 1
        self.bits_forwarded += bits

        link = self._out_links[out_port]
        if link is not None:
            self._credits[out_port][downstream_vc] -= 1
            link.send(flit, cycle, bits)
        else:
            sink = self._out_sinks[out_port]
            if sink is None:
                raise RuntimeError(f"{self.name}: output port {out_port} not wired")
            # The local "buffer" frees instantly: no credit is consumed.
            sink(flit)

        # Return a credit upstream for the slot we just freed.
        credit_channel = self._credit_return[in_port]
        if credit_channel is not None:
            credit_channel.send_credit(in_vc, cycle)

        if flit.is_tail:
            self._out_vc_owner[out_port][downstream_vc] = None

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
        self.crossbar.reset_stats()
        for pb in self.inputs:
            pb.reset_stats(at_cycle)
