"""Fixed-latency links and credit-return channels.

Intra-cluster links are "traditional copper interconnects in an all-to-all
manner" (thesis 3.1); they carry one flit per cycle with a configurable
pipeline latency. Credit channels return buffer credits upstream with the
same delay discipline, implementing credit-based wormhole flow control.

Neither holds what it carries. The network that wires them owns one
due-ordered queue of flits in flight and one of credits, and hands every
link and channel the queue to append to; it lands what is due at the top
of its own tick. A link keeps what is its own: the one-send-per-cycle
check and the traffic counters wire energy is computed from.
"""

from __future__ import annotations

from typing import Any, Deque, List


class LinkBusyError(RuntimeError):
    """Raised when more than ``width`` items enter a link in one cycle."""


class Link:
    """A point-to-point pipelined link into one router input port.

    Parameters
    ----------
    in_flight:
        The owner's queue of ``(due cycle, vcs, node, item)``. Every link
        appending to one queue must have the same latency, and cycles
        must not run backwards, so that append order is due order.
    vcs, node:
        The input port's virtual channels (an item lands in
        ``vcs[item.vc]``) and the node whose router they belong to.
    latency:
        Delivery delay in cycles (>= 1).
    width:
        Items accepted per cycle (1 flit/cycle for electrical links).
    """

    def __init__(
        self,
        in_flight: Deque[tuple],
        vcs: List[Any],
        node: int,
        latency: int = 1,
        width: int = 1,
        name: str = "link",
    ):
        if latency < 1:
            raise ValueError(f"link latency must be >= 1, got {latency}")
        if width < 1:
            raise ValueError(f"link width must be >= 1, got {width}")
        self.latency = int(latency)
        self.width = int(width)
        self.name = name
        self._in_flight = in_flight
        self._vcs = vcs
        self._node = node
        self._sent_this_cycle = 0
        self._current_cycle = -1
        self.items_carried = 0
        self.bits_carried = 0

    def send(self, item: Any, cycle: int, bits: int = 0) -> None:
        """Enqueue *item* at *cycle*; it is due at ``cycle + latency``."""
        if cycle != self._current_cycle:
            self._current_cycle = cycle
            self._sent_this_cycle = 0
        if self._sent_this_cycle >= self.width:
            raise LinkBusyError(
                f"link {self.name!r}: more than {self.width} sends in cycle {cycle}"
            )
        self._sent_this_cycle += 1
        self.items_carried += 1
        self.bits_carried += bits
        self._in_flight.append((cycle + self.latency, self._vcs, self._node, item))

    def reset_stats(self) -> None:
        self.items_carried = 0
        self.bits_carried = 0


class CreditChannel:
    """Returns VC credits upstream after a fixed delay.

    Credit-based flow control: the upstream router keeps a credit counter
    per downstream VC; popping a flit downstream frees a slot and sends a
    credit back. *counters* is that upstream row and *in_flight* the
    owner's queue of ``(due cycle, counters, vc)``, under the same
    one-latency rule as :class:`Link`.
    """

    def __init__(
        self,
        in_flight: Deque[tuple],
        counters: List[int],
        latency: int = 1,
        name: str = "credits",
    ):
        if latency < 1:
            raise ValueError(f"credit latency must be >= 1, got {latency}")
        self.latency = int(latency)
        self.name = name
        self._in_flight = in_flight
        self._counters = counters

    def send_credit(self, vc: int, cycle: int) -> None:
        self._in_flight.append((cycle + self.latency, self._counters, vc))
