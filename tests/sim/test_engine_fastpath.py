"""Engine fast-path tests: idle skipping, whole-span jumps, wake-ups.

The contract under test (see ``repro.sim.engine``): a component is
skipped only in cycles before its :meth:`next_wake` answer, every
skipped span is handed to :meth:`skip_cycles`, and the union of ticked
cycles and skipped spans exactly partitions the run — no cycle is lost,
none is double-counted. The naive per-cycle loop stays available as the
reference behaviour.
"""

import pytest

from repro.sim.engine import NEVER, ClockedComponent, SimulationError, Simulator


class Probe(ClockedComponent):
    """Scriptable component recording every tick and skipped span: busy
    (due every cycle) unless *idle*; idle, it wakes at *wake* while that
    cycle is still ahead, else never."""

    name = "probe"

    def __init__(self, idle=False, wake=None, sleep_after_tick=False):
        self.idle = idle
        self.wake = wake
        self.sleep_after_tick = sleep_after_tick
        self.ticks = []
        self.skips = []
        self.reset_cycles = []
        self.settles = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        if self.sleep_after_tick:
            self.idle = True

    def next_wake(self, cycle):
        if not self.idle:
            return cycle
        return self.wake if self.wake is not None and self.wake > cycle else NEVER

    def skip_cycles(self, start_cycle, stop_cycle):
        self.skips.append((start_cycle, stop_cycle))

    def reset_stats(self, cycle):
        self.reset_cycles.append(cycle)

    def settle(self, cycle):
        self.settles.append(cycle)

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
        # The engine lands on the wake cycle (giving the probe a chance
        # to tick), is told the probe sleeps on, and jumps to the end.
        assert probe.skips == [(0, 25), (25, 100)]

    def test_spans_and_ticks_partition_the_run(self):
        sim = Simulator(fast_path=True)
        probe = sim.register(Probe(idle=True, sleep_after_tick=True))
        for when in (3, 4, 50, 97):
            sim.schedule(when, lambda: setattr(probe, "idle", False))
        sim.run(100)
        assert probe.ticks == [3, 4, 50, 97]
        assert probe.covered_cycles() == list(range(100))


class IdleOnly(ClockedComponent):
    """Overrides only ``is_idle``, the ledger's ``_Stub`` shape: the
    default ``next_wake`` answers the cycle while busy, else ``NEVER``."""

    def __init__(self, idle):
        self.idle = idle
        self.ticks = []
        self.skips = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        self.idle = True

    def is_idle(self):
        return self.idle

    def skip_cycles(self, start_cycle, stop_cycle):
        self.skips.append((start_cycle, stop_cycle))


class TestIsIdleOnlyComponents:
    def test_default_next_wake_derives_from_is_idle(self):
        assert IdleOnly(idle=False).next_wake(7) == 7
        assert IdleOnly(idle=True).next_wake(7) == NEVER

    def test_skipped_and_jumped_as_before(self):
        """Busy at 0 and at each event cycle, asleep between: ticks on
        those cycles and one jump per quiet span, the skips and counts
        such a component has always had."""
        sim = Simulator(fast_path=True)
        sleeper = sim.register(IdleOnly(idle=False))
        always = sim.register(IdleOnly(idle=True))
        for when in (30, 31, 80):
            sim.schedule(when, lambda: setattr(sleeper, "idle", False))
        sim.run(100)
        assert sleeper.ticks == [0, 30, 31, 80]
        assert sleeper.skips == [(1, 30), (32, 80), (81, 100)]
        assert always.ticks == []
        assert always.skips == [(0, 1), (1, 30), (30, 31), (31, 32),
                                (32, 80), (80, 81), (81, 100)]
        assert (sim.ticked_cycles, sim.jumped_cycles) == (4, 96)

    def test_a_ledger_style_idle_run_jumps_from_event_to_event(self):
        sim = Simulator(fast_path=True)
        stubs = [sim.register(IdleOnly(idle=True)) for _ in range(16)]
        for stop in range(100, 1_001, 100):
            sim.schedule(stop - 1, lambda: None)
        sim.run(1_000)
        assert all(stub.ticks == [] for stub in stubs)
        assert stubs[0].skips == [(0, 99)] + [
            (stop - 1, stop + 99) for stop in range(100, 901, 100)
        ] + [(999, 1_000)]
        assert (sim.ticked_cycles, sim.jumped_cycles) == (0, 1_000)


class TestStepIsRunOne:
    def test_step_equals_run_one(self):
        """Stepped or run one cycle at a time, the same ticks, skips and
        counts, and an event sees the cycle under way either way."""
        seen = []

        def build():
            sim = Simulator(fast_path=True)
            probes = [
                sim.register(Probe(idle=False)),
                sim.register(Probe(idle=True, wake=6)),
                sim.register(Probe(idle=True, sleep_after_tick=True)),
            ]
            for when in (2, 3, 9):
                sim.schedule(when, lambda: setattr(probes[2], "idle", False))
            sim.schedule(4, lambda: seen.append((sim.cycle, sim.in_cycle)))
            return sim, probes

        stepped, by_step = build()
        for _ in range(12):
            stepped.step()
        ran, by_run = build()
        for _ in range(12):
            ran.run(1)
        for a, b in zip(by_step, by_run):
            assert (a.ticks, a.skips) == (b.ticks, b.skips)
        assert by_step[2].ticks == [2, 3, 9]
        assert (stepped.cycle, stepped.ticked_cycles, stepped.jumped_cycles) == (
            ran.cycle, ran.ticked_cycles, ran.jumped_cycles)
        assert seen == [(4, True), (4, True)]
        assert not stepped.in_cycle and not ran.in_cycle


class TestSettleEndsEveryRun:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_one_settle_per_component_per_run_and_none_after_an_error(
            self, fast_path):
        sim = Simulator(fast_path=fast_path)
        probes = [sim.register(Probe(idle=False)),
                  sim.register(Probe(idle=True, wake=3))]
        sim.run(5)
        sim.run(0)
        sim.step()

        def fail():
            raise SimulationError("planted")

        sim.schedule(1, fail)
        with pytest.raises(SimulationError, match="planted"):
            sim.run(4)
        for probe in probes:
            assert probe.settles == [5, 5, 6]


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
