"""One-cycle links with their credit return.

A mesh link carries one flit per cycle and delivers it the next cycle
(the chapter-1 mesh baseline, section 1.5). Credits for the buffers a
link feeds go back upstream over the same link with the same one-cycle
delay, implementing credit-based wormhole flow control.

A link holds neither what it carries nor any behaviour: the router hop
appends a forwarded flit to the owner's due-ordered queue of flits in
flight and the credit it frees to the queue of credits, and the owner
lands both at the top of its own tick. A link keeps what is its own: the
addresses those entries carry, the one-send-per-cycle stamp the hop
checks, and the traffic counters wire energy is computed from.
"""

from __future__ import annotations

from typing import Any, Deque, List


class LinkBusyError(RuntimeError):
    """Raised when a second flit enters a link in one cycle."""


class Link:
    """A point-to-point one-cycle link into one router input port.

    Parameters
    ----------
    flits_due, credits_due:
        The owner's queues of ``(due cycle, vcs, node, flit)`` and
        ``(due cycle, credit row, vc)``. Every entry is due one cycle
        after it is appended, and cycles do not run backwards, so append
        order is due order.
    vcs, node:
        The input port's virtual channels (a flit lands in
        ``vcs[flit.vc]``) and the node whose router they belong to.
    """

    __slots__ = (
        "name", "flits_due", "credits_due", "vcs", "node",
        "credits", "sent_cycle", "items_carried", "bits_carried",
    )

    def __init__(
        self,
        flits_due: Deque[tuple],
        credits_due: Deque[tuple],
        vcs: List[Any],
        node: int,
        name: str = "link",
    ):
        self.name = name
        self.flits_due = flits_due
        self.credits_due = credits_due
        self.vcs = vcs
        self.node = node
        #: The upstream router's free-slot counters for :attr:`vcs`, set
        #: by ``Router.connect_output_link``; credits land here.
        self.credits: List[int] = []
        #: The cycle of the last send (the hop raises
        #: :class:`LinkBusyError` on a second one).
        self.sent_cycle = -1
        self.items_carried = 0
        self.bits_carried = 0

    def reset_stats(self) -> None:
        self.items_carried = 0
        self.bits_carried = 0
