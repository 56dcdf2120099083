"""Engine fast-path tests: idle skipping, whole-span jumps, wake-ups.

The contract under test (see ``repro.sim.engine``): a component is
skipped only while it reports :meth:`is_idle`, every skipped span is
handed to :meth:`skip_cycles`, and the union of ticked cycles and
skipped spans exactly partitions the run — no cycle is lost, none is
double-counted. The naive per-cycle loop stays available as the
reference behaviour.
"""

import pytest

from repro.sim.engine import ClockedComponent, Simulator


class Probe(ClockedComponent):
    """Scriptable component recording every tick and skipped span."""

    name = "probe"

    def __init__(self, idle=False, wake=None, sleep_after_tick=False):
        self.idle = idle
        self.wake = wake
        self.sleep_after_tick = sleep_after_tick
        self.ticks = []
        self.skips = []
        self.reset_cycles = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        if self.sleep_after_tick:
            self.idle = True

    def is_idle(self):
        return self.idle

    def next_wake(self):
        return self.wake

    def skip_cycles(self, start_cycle, stop_cycle):
        self.skips.append((start_cycle, stop_cycle))

    def reset_stats(self, cycle):
        self.reset_cycles.append(cycle)

    def covered_cycles(self):
        """Every cycle the engine accounted to this probe, in order."""
        events = [(c, "tick") for c in self.ticks]
        for start, stop in self.skips:
            events.extend((c, "skip") for c in range(start, stop))
        events.sort(key=lambda e: e[0])
        return [c for c, _ in events]


class TestPerCycleSkipping:
    def test_idle_component_skipped_while_active_one_ticks(self):
        sim = Simulator(fast_path=True)
        busy = sim.register(Probe(idle=False))
        idle = sim.register(Probe(idle=True))
        sim.run(5)
        assert busy.ticks == [0, 1, 2, 3, 4]
        assert idle.ticks == []
        # The busy component pins the loop per-cycle, so the idle one is
        # skipped in unit spans.
        assert idle.skips == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_step_skips_idle_but_advances_one_cycle(self):
        sim = Simulator(fast_path=True)
        idle = sim.register(Probe(idle=True))
        sim.step()
        assert sim.cycle == 1
        assert idle.ticks == []
        assert idle.skips == [(0, 1)]

    def test_naive_loop_ticks_idle_components(self):
        sim = Simulator(fast_path=False)
        idle = sim.register(Probe(idle=True))
        sim.run(10)
        assert idle.ticks == list(range(10))
        assert idle.skips == []


class TestWholeSpanJumps:
    def test_all_idle_jumps_to_run_end(self):
        sim = Simulator(fast_path=True)
        probes = [sim.register(Probe(idle=True)) for _ in range(3)]
        sim.run(10_000)
        assert sim.cycle == 10_000
        for probe in probes:
            assert probe.ticks == []
            assert probe.skips == [(0, 10_000)]

    def test_jump_stops_at_scheduled_event(self):
        sim = Simulator(fast_path=True)
        probe = sim.register(Probe(idle=True, sleep_after_tick=True))

        def wake():
            probe.idle = False

        sim.schedule(40, wake)
        sim.run(100)
        # One tick exactly at the event cycle; spans cover the rest.
        assert probe.ticks == [40]
        assert probe.covered_cycles() == list(range(100))

    def test_event_fires_at_its_exact_cycle_during_a_jump(self):
        sim = Simulator(fast_path=True)
        sim.register(Probe(idle=True))
        fired_at = []
        sim.schedule(37, lambda: fired_at.append(sim.cycle))
        sim.run(100)
        assert fired_at == [37]

    def test_next_wake_bounds_the_jump(self):
        sim = Simulator(fast_path=True)
        probe = sim.register(Probe(idle=True, wake=25))
        sim.run(100)
        # The engine lands on the wake cycle (giving is_idle a chance to
        # flip), finds the probe still idle, and jumps on to the end.
        assert probe.skips == [(0, 25), (25, 100)]

    def test_spans_and_ticks_partition_the_run(self):
        sim = Simulator(fast_path=True)
        probe = sim.register(Probe(idle=True, sleep_after_tick=True))
        for when in (3, 4, 50, 97):
            sim.schedule_at(when, lambda: setattr(probe, "idle", False))
        sim.run(100)
        assert probe.ticks == [3, 4, 50, 97]
        assert probe.covered_cycles() == list(range(100))


class TestEnvironmentSelection:
    def test_default_is_fast(self):
        assert Simulator().fast_path is True


class TestResetThreading:
    def test_reset_all_stats_threads_the_current_cycle(self):
        sim = Simulator(fast_path=True)
        probe = sim.register(Probe(idle=False))
        sim.run_with_reset(total_cycles=50, reset_cycles=20)
        assert probe.reset_cycles == [20]

    def test_default_reset_needs_the_boundary_cycle(self):
        class TickOnly(ClockedComponent):
            def tick(self, cycle):
                pass

        sim = Simulator()
        component = sim.register(TickOnly())
        sim.run(3)
        before = dict(vars(component))
        sim.reset_all_stats()  # reset_stats(3) on the base class
        assert vars(component) == before
        with pytest.raises(TypeError):
            component.reset_stats()  # the boundary cycle is required
