"""Tests for the cycle-driven simulation engine."""

import pytest

from repro.sim.engine import ClockedComponent, SimulationError, Simulator


class Recorder(ClockedComponent):
    def __init__(self, name="rec"):
        self.name = name
        self.ticks = []
        self.resets = 0

    def tick(self, cycle):
        self.ticks.append(cycle)

    def reset_stats(self, cycle):
        self.resets += 1
        self.ticks.clear()


class TestSimulatorBasics:
    def test_initial_cycle_is_zero(self, sim):
        assert sim.cycle == 0

    def test_run_advances_cycle(self, sim):
        sim.run(7)
        assert sim.cycle == 7

    def test_step_advances_one(self, sim):
        sim.step()
        assert sim.cycle == 1

    def test_components_tick_every_cycle(self, sim):
        rec = sim.register(Recorder())
        sim.run(5)
        assert rec.ticks == [0, 1, 2, 3, 4]

    def test_components_tick_in_registration_order(self, sim):
        order = []

        class Tagger(ClockedComponent):
            def __init__(self, tag):
                self.tag = tag

            def tick(self, cycle):
                order.append(self.tag)

        sim.register(Tagger("a"))
        sim.register(Tagger("b"))
        sim.step()
        assert order == ["a", "b"]

    def test_register_returns_component(self, sim):
        rec = Recorder()
        assert sim.register(rec) is rec

    def test_register_rejects_non_component(self, sim):
        with pytest.raises(SimulationError):
            sim.register(object())

    def test_negative_run_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.run(-1)

    def test_invalid_clock_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(clock_hz=0)


class TestEventScheduling:
    def test_event_fires_at_scheduled_cycle(self, sim):
        fired = []
        sim.schedule(3, lambda: fired.append(sim.cycle))
        sim.run(5)
        assert fired == [3]

    def test_zero_delay_fires_this_cycle(self, sim):
        fired = []
        sim.schedule(0, lambda: fired.append(sim.cycle))
        sim.step()
        assert fired == [0]

    def test_events_fire_before_components(self, sim):
        order = []

        class Probe(ClockedComponent):
            def tick(self, cycle):
                order.append("component")

        sim.register(Probe())
        sim.schedule(0, lambda: order.append("event"))
        sim.step()
        assert order == ["event", "component"]

    def test_equal_time_events_fire_fifo(self, sim):
        fired = []
        sim.schedule(1, lambda: fired.append("first"))
        sim.schedule(1, lambda: fired.append("second"))
        sim.run(3)
        assert fired == ["first", "second"]

    def test_event_can_reschedule_itself(self, sim):
        fired = []

        def recurring():
            fired.append(sim.cycle)
            if len(fired) < 3:
                sim.schedule(2, recurring)

        sim.schedule(0, recurring)
        sim.run(10)
        assert fired == [0, 2, 4]

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.run(2)
        sim.schedule_at(5, lambda: fired.append(sim.cycle))
        sim.run(5)
        assert fired == [5]

    def test_schedule_at_past_rejected(self, sim):
        sim.run(5)
        with pytest.raises(SimulationError):
            sim.schedule_at(2, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)


class TestWarmupReset:
    def test_run_with_reset_calls_reset_stats(self, sim):
        rec = sim.register(Recorder())
        sim.run_with_reset(10, 3)
        assert rec.resets == 1
        # Only post-reset cycles recorded.
        assert rec.ticks == [3, 4, 5, 6, 7, 8, 9]

    def test_reset_longer_than_total_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.run_with_reset(5, 6)

    def test_run_not_reentrant(self, sim):
        class Nested(ClockedComponent):
            def __init__(self, outer):
                self.outer = outer

            def tick(self, cycle):
                with pytest.raises(SimulationError):
                    self.outer.run(1)

        sim.register(Nested(sim))
        sim.run(1)
