"""Deterministic cycle-driven simulation engine with an event-driven fast path.

The engine advances a global cycle counter. Each cycle it:

1. fires any events scheduled for that cycle (in FIFO order of scheduling
   for equal timestamps, so runs are deterministic), then
2. calls :meth:`ClockedComponent.tick` on every registered component in
   registration order — *unless* the component reports itself idle via
   :meth:`ClockedComponent.is_idle`, in which case the tick (a provable
   no-op) is skipped and :meth:`ClockedComponent.skip_cycles` accounts the
   span instead.

When **every** component is idle the engine does not crawl cycle by cycle:
it jumps straight to the next scheduled event, the earliest component
wake-up (:meth:`ClockedComponent.next_wake`), or the end of the run,
whichever comes first. Components are handed the skipped span through
:meth:`ClockedComponent.skip_cycles` so span-based statistics (measured
cycles, buffer flit-cycle residency) stay bitwise-identical to the naive
per-cycle loop. The naive loop remains available (``fast_path=False``, an
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
from typing import Callable, List, Optional

DEFAULT_CLOCK_HZ = 2.5e9


class SimulationError(RuntimeError):
    """Raised for invalid simulation configuration or invariant violations."""


class ClockedComponent:
    """Base class for components stepped once per simulated clock cycle.

    Subclasses override :meth:`tick`. Registration with a
    :class:`Simulator` is explicit via :meth:`Simulator.register` so the
    update order is visible at construction time.

    Activity-tracking protocol (the event-driven fast path)
    -------------------------------------------------------
    A component may additionally implement:

    * :meth:`is_idle` — return ``True`` only when calling :meth:`tick`
      right now would be a *no-op* (no state change, no statistics
      change, no random draws). The default, ``False``, keeps legacy
      components on the per-cycle path.
    * :meth:`next_wake` — when idle, the earliest future cycle at which
      the component could become active *on its own* (a timer, a due
      queue). ``None`` (the default) means "only external input — a
      scheduled event or another component — can wake me".
    * :meth:`skip_cycles` — account a ``[start, stop)`` span of skipped
      idle cycles (e.g. add ``stop - start`` to a measured-cycle
      counter). Must leave the component in the same state as ``stop -
      start`` no-op ticks would have.

    The engine promises: for any cycle it skips a component, either
    ``is_idle()`` returned ``True`` (and tick was a no-op by contract) or
    the whole simulation jumped over the cycle with every component idle.
    """

    #: Human-readable name; used in error messages and stats prefixes.
    name: str = "component"

    def tick(self, cycle: int) -> None:
        """Advance one cycle. Override in subclasses."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when :meth:`tick` would be a no-op this cycle (fast path)."""
        return False

    def next_wake(self) -> Optional[int]:
        """Earliest future cycle an idle component self-activates, or None."""
        return None

    def skip_cycles(self, start_cycle: int, stop_cycle: int) -> None:
        """Account the idle span ``[start_cycle, stop_cycle)`` skipped by
        the engine. Default: nothing to account."""

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
    def step(self) -> None:
        """Advance exactly one cycle (never jumps, but skips idle ticks)."""
        self._fire_due_events()
        if self.fast_path:
            cycle = self.cycle
            for component in self._components:
                if component.is_idle():
                    component.skip_cycles(cycle, cycle + 1)
                else:
                    component.tick(cycle)
        else:
            for component in self._components:
                component.tick(self.cycle)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Advance *cycles* cycles (jumping over fully-idle spans)."""
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
        finally:
            self._running = False

    def _run_fast(self, end: int) -> None:
        """Event-driven run loop: tick active components, jump idle spans."""
        components = self._components
        heap = self._event_heap
        while self.cycle < end:
            if heap and heap[0][0] <= self.cycle:
                self._fire_due_events()
            cycle = self.cycle
            active = False
            skipped = None
            for component in components:
                # The idle decision is made at the component's turn in
                # the sweep, exactly where its no-op tick would have run
                # in the naive loop; a component that turns idle *during*
                # its own tick already accounted this cycle there.
                if component.is_idle():
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
                self.cycle = cycle + 1
                continue
            # Everything idle at `cycle`: jump to the next scheduled
            # event, the earliest component wake-up, or the end of the
            # run. The skipped span is provably no-op for every
            # component, so results match the naive loop bitwise.
            target = end
            if heap and heap[0][0] < target:
                target = heap[0][0]
            for component in components:
                wake = component.next_wake()
                if wake is not None and cycle < wake < target:
                    target = wake
            if target <= cycle:
                target = cycle + 1
            for component in components:
                component.skip_cycles(cycle, target)
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
