"""Virtual-channel FIFO buffers.

"Each incoming port and outgoing port will have multiple VC's to hold flits
belonging to different packets" (thesis 1.4, fig. 1-3). Table 3-3 sets 16
VCs per port with a 64-flit buffer depth per VC.

Buffers track *flit-cycle occupancy* so the energy model can charge buffer
retention (thesis 3.4.1.2: "since flits occupy the buffers for shorter
duration, the photonic buffer energy is lesser in case of d-HetPNoC").
Residency is accumulated with span arithmetic — occupancy × elapsed
cycles at each push/pop — so idle spans cost nothing to account.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set

from repro.noc.flit import Flit


class BufferError(RuntimeError):
    """Raised on buffer misuse (overflow/underflow)."""


class VirtualChannelBuffer:
    """A single virtual channel: a bounded FIFO of flits.

    Parameters
    ----------
    depth:
        Maximum number of flits held (64 in table 3-3).
    vc_id:
        Index of this VC within its port (for diagnostics).
    """

    __slots__ = (
        "depth",
        "vc_id",
        "_fifo",
        "flit_cycles",
        "_last_accounted_cycle",
        "route",
        "downstream_vc",
        "tails_contained",
        "_owner",
        "_front_complete",
    )

    def __init__(self, depth: int, vc_id: int = 0):
        if depth <= 0:
            raise ValueError(f"VC depth must be positive, got {depth}")
        self.depth = int(depth)
        self.vc_id = int(vc_id)
        self._fifo: Deque[Flit] = deque()
        #: Accumulated flit-cycles of residence (for retention energy).
        self.flit_cycles = 0
        self._last_accounted_cycle = 0
        #: Tail flits currently buffered (complete-packet detection for
        #: the gateway's store-and-forward photonic transmit).
        self.tails_contained = 0
        #: Output port chosen by route computation for the packet currently
        #: occupying this VC (wormhole state; None between packets).
        self.route: Optional[int] = None
        #: Downstream VC granted by VC allocation (None until allocated).
        self.downstream_vc: Optional[int] = None
        #: Owning PortBuffer, if any — kept current on aggregate occupancy
        #: and complete-packet membership so those queries are O(1).
        self._owner: Optional["PortBuffer"] = None
        self._front_complete = False

    # -- FIFO interface -------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def free_slots(self) -> int:
        return self.depth - len(self._fifo)

    def is_empty(self) -> bool:
        return not self._fifo

    def is_full(self) -> bool:
        return len(self._fifo) >= self.depth

    def peek(self) -> Optional[Flit]:
        return self._fifo[0] if self._fifo else None

    def push(self, flit: Flit, cycle: int = 0) -> None:
        fifo = self._fifo
        held = len(fifo)
        if held >= self.depth:
            raise BufferError(
                f"VC {self.vc_id} overflow (depth {self.depth}); "
                "flow control must prevent this"
            )
        # :meth:`settle`, inlined here and in :meth:`pop`: every flit of
        # every buffer passes through both.
        if cycle > self._last_accounted_cycle:
            self.flit_cycles += held * (cycle - self._last_accounted_cycle)
            self._last_accounted_cycle = cycle
        owner = self._owner
        if owner is not None:
            owner._occupancy += 1
            if not held:
                owner._occupied_vcs.add(self.vc_id)
        fifo.append(flit)
        if flit.is_tail:
            # Only a tail can complete the front packet on the way in.
            self.tails_contained += 1
            if not self._front_complete and fifo[0].is_head:
                self._set_front_complete(True)

    def pop(self, cycle: int = 0) -> Flit:
        fifo = self._fifo
        if not fifo:
            raise BufferError(f"VC {self.vc_id} underflow")
        if cycle > self._last_accounted_cycle:
            self.flit_cycles += len(fifo) * (cycle - self._last_accounted_cycle)
            self._last_accounted_cycle = cycle
        flit = fifo.popleft()
        if flit.is_tail:
            self.tails_contained -= 1
            # Wormhole state tears down with the tail flit.
            self.route = None
            self.downstream_vc = None
        owner = self._owner
        if owner is not None:
            owner._occupancy -= 1
            if not fifo:
                owner._occupied_vcs.discard(self.vc_id)
        # A buffered tail implies a non-empty FIFO.
        complete = self.tails_contained > 0 and fifo[0].is_head
        if complete != self._front_complete:
            self._set_front_complete(complete)
        return flit

    def has_complete_packet(self) -> bool:
        """True when the FIFO's front packet is fully buffered.

        Flits of one packet enter a VC contiguously, so a head flit at the
        front plus any buffered tail means the front packet is complete
        (the gateway's store-and-forward criterion). The answer is cached
        on push/pop, making this an O(1) field read on the transmit hot
        path.
        """
        return self._front_complete

    def _set_front_complete(self, complete: bool) -> None:
        self._front_complete = complete
        owner = self._owner
        if owner is not None:
            if complete:
                owner._complete_vcs.add(self.vc_id)
            else:
                owner._complete_vcs.discard(self.vc_id)

    def settle(self, cycle: int) -> None:
        """Accumulate flit-cycles of residence up to *cycle* (call at end
        of run; :meth:`push` and :meth:`pop` carry the same three lines)."""
        if cycle > self._last_accounted_cycle:
            self.flit_cycles += len(self._fifo) * (cycle - self._last_accounted_cycle)
            self._last_accounted_cycle = cycle

    def reset_stats(self, at_cycle: int) -> None:
        """Clear statistics, settling residency at *at_cycle* first.

        Occupancy is accounted up to *at_cycle* (the warm-up boundary)
        and the accounting clock re-based to it, so flits resident
        across the boundary charge their warm-up residency to the
        discarded pre-reset bucket — not to the measured run.
        """
        self.settle(at_cycle)
        self.flit_cycles = 0
        self._last_accounted_cycle = at_cycle

    def __repr__(self) -> str:
        return f"VC(id={self.vc_id}, {len(self._fifo)}/{self.depth})"


class PortBuffer:
    """All virtual channels of one router port.

    Provides the helpers the 3-stage router pipeline needs: finding a VC
    with a routable head flit, credit accounting per VC, and aggregate
    occupancy for stats. Aggregate occupancy, the ids of the non-empty
    VCs and the set of VCs holding a complete front packet are maintained
    incrementally by the member VCs, so the per-cycle pipeline visits
    only VCs that hold flits and tests the rest in O(1).
    """

    def __init__(self, n_vcs: int, depth: int):
        if n_vcs <= 0:
            raise ValueError(f"n_vcs must be positive, got {n_vcs}")
        self.vcs: List[VirtualChannelBuffer] = [
            VirtualChannelBuffer(depth, vc_id=i) for i in range(n_vcs)
        ]
        self._occupancy = 0
        self._occupied_vcs: Set[int] = set()
        self._complete_vcs: Set[int] = set()
        for vc in self.vcs:
            vc._owner = self

    def __getitem__(self, vc: int) -> VirtualChannelBuffer:
        return self.vcs[vc]

    def __iter__(self):
        return iter(self.vcs)

    def __len__(self) -> int:
        return len(self.vcs)

    @property
    def occupancy(self) -> int:
        return self._occupancy

    def complete_vc_ids(self) -> List[int]:
        """VC ids with a complete front packet, in ascending order."""
        return sorted(self._complete_vcs)

    def first_free_vc(self) -> Optional[int]:
        """Lowest-numbered VC not owned by a packet (empty and unrouted),
        or None."""
        for vc in self.vcs:
            if not vc._fifo and vc.route is None:
                return vc.vc_id
        return None

    def push(self, flit: Flit, cycle: int = 0) -> None:
        self.vcs[flit.vc].push(flit, cycle)

    def can_accept(self, vc: int) -> bool:
        return not self.vcs[vc].is_full()

    def settle(self, cycle: int) -> None:
        for vc in self.vcs:
            vc.settle(cycle)

    def reset_stats(self, at_cycle: int) -> None:
        for vc in self.vcs:
            vc.reset_stats(at_cycle)

    @property
    def flit_cycles(self) -> int:
        return sum(vc.flit_cycles for vc in self.vcs)
