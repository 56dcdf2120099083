"""Deterministic cycle-driven simulation engine with an event-driven fast path.

The engine advances a global cycle counter. Each cycle it:

1. fires any events scheduled for that cycle (in FIFO order of scheduling
   for equal timestamps, so runs are deterministic), then
2. asks every registered component, in registration order, for its next
   wake (:meth:`ClockedComponent.next_wake`) and calls
   :meth:`ClockedComponent.tick` on those due this cycle; a component
   not yet due is skipped (its tick is a provable no-op) and
   :meth:`ClockedComponent.skip_cycles` accounts the cycle instead.

When **no** component is due the engine does not crawl cycle by cycle:
it jumps straight to the earliest answer, the next scheduled event, or
the end of the run, whichever comes first. Components are handed the
skipped span through :meth:`ClockedComponent.skip_cycles` so span-based
statistics (measured cycles, buffer flit-cycle residency) stay
bitwise-identical to the naive per-cycle loop; what a component keeps
lazily is counted by :meth:`ClockedComponent.settle` at the end of every
run. The naive loop remains available (``fast_path=False``, an
attribute a test sets on the run it builds) as the reference the
equivalence suite pins the fast path against.

Components exchange data through explicit delay queues (see
:class:`repro.noc.link.Link`), so the call order between *different*
components never changes observable behaviour by more than a cycle and is
fixed anyway by registration order.

The clock frequency only matters when converting cycles to seconds for
bandwidth/energy reporting; the thesis uses 2.5 GHz (table 3-3).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List

DEFAULT_CLOCK_HZ = 2.5e9

#: The wake of a component that only outside input (a scheduled event,
#: another component) can give work: later than any run reaches, and an
#: int, so the per-cycle comparisons with the cycle stay int comparisons.
NEVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised for invalid simulation configuration or invariant violations."""


class ClockedComponent:
    """Base class for components stepped once per simulated clock cycle.

    Subclasses override :meth:`tick`. Registration with a
    :class:`Simulator` is explicit via :meth:`Simulator.register` so the
    update order is visible at construction time.

    The wake protocol (the event-driven fast path)
    ----------------------------------------------
    * :meth:`next_wake` -- the first cycle at or after *cycle* at which
      :meth:`tick` may change anything (state, statistics, random
      draws); ``NEVER`` when only outside input can give the component
      work. The default derives it from :meth:`is_idle`, the one-line
      hook of a component that knows only "nothing now": *cycle* while
      it is busy, else ``NEVER``.
    * :meth:`skip_cycles` -- account a ``[start, stop)`` span the engine
      skipped (e.g. add ``stop - start`` to a measured-cycle counter).
      Must leave the component in the same state as ``stop - start``
      no-op ticks would have.
    * :meth:`settle` -- count everything kept lazily (a sleeping token
      ring's visits, a stream's lit steps) for the cycles before
      *cycle*. The engine calls it at the end of every run, so counts
      are current between runs, not inside a cycle.

    The engine promises: it skips a component only in cycles before the
    component's answer, so every skipped tick was a no-op by contract.
    """

    #: Human-readable name; used in error messages and stats prefixes.
    name: str = "component"

    def tick(self, cycle: int) -> None:
        """Advance one cycle. Override in subclasses."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when :meth:`tick` would be a no-op this cycle, and every
        cycle after it until outside input arrives."""
        return False

    def next_wake(self, cycle: int) -> int:
        """The first cycle at or after *cycle* at which :meth:`tick` may
        change anything; ``NEVER`` when only outside input can."""
        return NEVER if self.is_idle() else cycle

    def skip_cycles(self, start_cycle: int, stop_cycle: int) -> None:
        """Account the idle span ``[start_cycle, stop_cycle)`` skipped by
        the engine. Default: nothing to account."""

    def settle(self, cycle: int) -> None:
        """Count everything kept lazily for the cycles before *cycle*.
        Default: nothing kept lazily."""

    def reset_stats(self, cycle: int) -> None:
        """Clear warm-up statistics at the boundary *cycle* (the first
        measured cycle). Called at the end of the reset period.

        The thesis simulates 10 000 cycles with a 1 000-cycle reset period
        (table 3-3); measurements only cover post-reset cycles. Components
        whose statistics depend on *when* the reset happened (buffer
        flit-cycle residency, measured-cycle spans) settle accounting up
        to *cycle* before clearing. The default implementation does
        nothing.
        """


class Simulator:
    """Cycle-driven simulator with an auxiliary timed-event queue.

    Parameters
    ----------
    clock_hz:
        System clock frequency in Hz. Table 3-3 uses 2.5 GHz.
    seed:
        Master seed for the simulation's random streams.
    fast_path:
        ``True`` (default) enables the event-driven fast path: idle
        components are skipped and fully-idle spans are jumped in one
        step. ``False`` forces the naive per-cycle reference loop the
        equivalence suite pins fast == naive bitwise against. A plain
        attribute: it may be flipped between runs of one simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(3, lambda: fired.append(sim.cycle))
    >>> sim.run(5)
    >>> fired
    [3]
    """

    def __init__(
        self,
        clock_hz: float = DEFAULT_CLOCK_HZ,
        seed: int = 1,
        fast_path: bool = True,
    ):
        if clock_hz <= 0:
            raise SimulationError(f"clock_hz must be positive, got {clock_hz}")
        self.clock_hz = float(clock_hz)
        self.seed = int(seed)
        self.cycle = 0
        self.fast_path = fast_path
        self._components: List[ClockedComponent] = []
        self._event_heap: list = []
        self._event_counter = itertools.count()
        self._running = False
        #: Cycles some component ticked in, and cycles jumped or passed
        #: with every component idle: together, every cycle advanced.
        self.ticked_cycles = 0
        self.jumped_cycles = 0

    # ------------------------------------------------------------------
    # Registration and scheduling
    # ------------------------------------------------------------------
    def register(self, component: ClockedComponent) -> ClockedComponent:
        """Register *component* for per-cycle stepping; returns it."""
        if not isinstance(component, ClockedComponent):
            raise SimulationError(
                f"register() requires a ClockedComponent, got {type(component)!r}"
            )
        self._components.append(component)
        return component

    def schedule(self, delay_cycles: int, callback: Callable[[], None]) -> None:
        """Run *callback* at ``cycle + delay_cycles`` before components tick."""
        if delay_cycles < 0:
            raise SimulationError(f"delay_cycles must be >= 0, got {delay_cycles}")
        when = self.cycle + int(delay_cycles)
        heapq.heappush(self._event_heap, (when, next(self._event_counter), callback))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def in_cycle(self) -> bool:
        """True while :meth:`run` executes: ``cycle`` is under way and its
        events have fired (or, seen from an event, are firing). Between
        calls, nothing of ``cycle`` has run yet."""
        return self._running

    def step(self) -> None:
        """Advance exactly one cycle: ``run(1)``."""
        self.run(1)

    def run(self, cycles: int) -> None:
        """Advance *cycles* cycles (jumping over spans nobody is due in),
        then settle every component at the new cycle."""
        if cycles < 0:
            raise SimulationError(f"cycles must be >= 0, got {cycles}")
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            if self.fast_path:
                self._run_fast(self.cycle + cycles)
            else:
                for _ in range(cycles):
                    self._fire_due_events()
                    for component in self._components:
                        component.tick(self.cycle)
                    self.cycle += 1
                self.ticked_cycles += cycles
        finally:
            self._running = False
        for component in self._components:
            component.settle(self.cycle)

    def _run_fast(self, end: int) -> None:
        """Event-driven run loop: tick the components due, jump the spans
        in which none is."""
        components = self._components
        heap = self._event_heap
        while self.cycle < end:
            if heap and heap[0][0] <= self.cycle:
                self._fire_due_events()
            cycle = self.cycle
            target = end
            active = False
            skipped = None
            for component in components:
                # Each component is asked at its turn in the sweep,
                # exactly where its no-op tick would have run in the
                # naive loop; one that goes to sleep *during* its own
                # tick already accounted this cycle there.
                wake = component.next_wake(cycle)
                if wake > cycle:
                    if wake < target:
                        target = wake
                    if skipped is None:
                        skipped = [component]
                    else:
                        skipped.append(component)
                    continue
                active = True
                component.tick(cycle)
            if active:
                if skipped:
                    # Skipped components still account this cycle.
                    for component in skipped:
                        component.skip_cycles(cycle, cycle + 1)
                self.ticked_cycles += 1
                self.cycle = cycle + 1
                continue
            # Nobody due at `cycle`: jump to the earliest answer, the
            # next scheduled event or the end of the run. Every
            # component's ticks in the span are no-ops, so results match
            # the naive loop bitwise.
            if heap and heap[0][0] < target:
                target = heap[0][0]
            for component in components:
                component.skip_cycles(cycle, target)
            self.jumped_cycles += target - cycle
            self.cycle = target

    def reset_all_stats(self) -> None:
        """Invoke :meth:`ClockedComponent.reset_stats` on every component.

        The current cycle is threaded through so span-based statistics
        (buffer flit-cycle residency, measured-cycle windows) settle at
        the warm-up boundary before clearing — flits resident across the
        boundary charge their pre-reset residency to the discarded
        warm-up bucket, not the measured run.
        """
        for component in self._components:
            component.reset_stats(self.cycle)

    def run_with_reset(self, total_cycles: int, reset_cycles: int) -> None:
        """Run with a warm-up period whose statistics are discarded.

        Mirrors table 3-3: "Simulation Cycle: 10000 with 1000 reset cycle".
        """
        if reset_cycles > total_cycles:
            raise SimulationError(
                f"reset_cycles ({reset_cycles}) exceeds total_cycles ({total_cycles})"
            )
        self.run(reset_cycles)
        self.reset_all_stats()
        self.run(total_cycles - reset_cycles)

    def _fire_due_events(self) -> None:
        heap = self._event_heap
        while heap and heap[0][0] <= self.cycle:
            _when, _seq, callback = heapq.heappop(heap)
            callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(cycle={self.cycle}, components={len(self._components)}, "
            f"clock={self.clock_hz / 1e9:.2f} GHz)"
        )
