"""Tests for the declarative scenario script objects."""

import random

import pytest

from repro.scenarios.schedule import (
    BurstLoad,
    FaultEvent,
    Phase,
    RampLoad,
    ScenarioError,
    ScenarioSchedule,
    SinusoidLoad,
    StepLoad,
    modulator_from_dict,
)


class TestModulators:
    def test_step_constant(self):
        runtime = StepLoad(0.7).runtime(random.Random(1))
        assert runtime(0, 100) == runtime(99, 100) == 0.7

    def test_ramp_endpoints(self):
        runtime = RampLoad(0.5, 1.5).runtime(random.Random(1))
        assert runtime(0, 101) == pytest.approx(0.5)
        assert runtime(100, 101) == pytest.approx(1.5)
        assert runtime(50, 101) == pytest.approx(1.0)

    def test_burst_visits_both_states(self):
        runtime = BurstLoad(
            on_scale=2.0, off_scale=0.1, mean_on_cycles=20, mean_off_cycles=20
        ).runtime(random.Random(7))
        seen = {runtime(t, 2000) for t in range(2000)}
        assert seen == {2.0, 0.1}

    def test_burst_deterministic_per_seed(self):
        mod = BurstLoad(mean_on_cycles=30, mean_off_cycles=50)
        a = [mod.runtime(random.Random(3))(t, 500) for t in range(500)]
        b = [mod.runtime(random.Random(3))(t, 500) for t in range(500)]
        assert a == b

    def test_sinusoid_swings_and_clamps(self):
        runtime = SinusoidLoad(
            base_scale=0.5, amplitude=1.0, period_cycles=100
        ).runtime(random.Random(1))
        values = [runtime(t, 100) for t in range(100)]
        assert max(values) == pytest.approx(1.5, abs=0.01)
        assert min(values) == 0.0  # clamped, never negative

    def test_roundtrip_via_dict(self):
        for mod in (StepLoad(0.7), RampLoad(0.1, 2.0),
                    BurstLoad(1.2, 0.2, 100, 300), SinusoidLoad(1.0, 0.3, 250)):
            assert modulator_from_dict(mod.to_dict()) == mod

    def test_validation(self):
        with pytest.raises(ScenarioError):
            StepLoad(-1)
        with pytest.raises(ScenarioError):
            BurstLoad(mean_on_cycles=0)
        with pytest.raises(ScenarioError):
            SinusoidLoad(period_cycles=0)
        with pytest.raises(ScenarioError):
            modulator_from_dict({"kind": "nope"})


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            FaultEvent(at_cycle=-1, action="freeze_token")
        with pytest.raises(ScenarioError):
            FaultEvent(at_cycle=0, action="explode")
        with pytest.raises(ScenarioError):
            FaultEvent(at_cycle=0, action="blackout_receiver", duration_cycles=0)
        with pytest.raises(ScenarioError):
            FaultEvent(at_cycle=0, action="kill_wavelengths", count=0)


class TestSchedule:
    def test_phase_ordering_enforced(self):
        with pytest.raises(ScenarioError):
            ScenarioSchedule("bad", (Phase(start_cycle=5),))
        with pytest.raises(ScenarioError):
            ScenarioSchedule(
                "bad", (Phase(start_cycle=0), Phase(start_cycle=0))
            )
        with pytest.raises(ScenarioError):
            ScenarioSchedule("bad", ())

    def test_phase_bounds_clip_to_run(self):
        schedule = ScenarioSchedule(
            "s", (Phase(start_cycle=0), Phase(start_cycle=400))
        )
        bounds = schedule.phase_bounds(1000)
        assert [(a, b) for a, b, _p in bounds] == [(0, 400), (400, 1000)]

    def test_run_shorter_than_last_phase_rejected(self):
        schedule = ScenarioSchedule(
            "s", (Phase(start_cycle=0), Phase(start_cycle=400))
        )
        with pytest.raises(ScenarioError):
            schedule.phase_bounds(300)

    def test_fault_past_phase_end_rejected(self):
        """A fault scripted beyond its phase would silently never fire;
        bounds resolution must refuse it instead."""
        schedule = ScenarioSchedule(
            "s",
            (Phase(start_cycle=0,
                   faults=(FaultEvent(500, "freeze_token"),)),
             Phase(start_cycle=400)),
        )
        with pytest.raises(ScenarioError, match="silently dropped"):
            schedule.phase_bounds(1000)
        # A fault past total_cycles in the final phase is equally dead.
        tail = ScenarioSchedule(
            "s", (Phase(start_cycle=0,
                        faults=(FaultEvent(900, "freeze_token"),)),)
        )
        with pytest.raises(ScenarioError, match="silently dropped"):
            tail.phase_bounds(800)
        assert tail.phase_bounds(1000)  # in range once the run is long enough

    def test_fingerprint_stable_and_content_sensitive(self):
        a = ScenarioSchedule("s", (Phase(start_cycle=0, load_scale=1.0),))
        b = ScenarioSchedule("s", (Phase(start_cycle=0, load_scale=1.0),))
        c = ScenarioSchedule("s", (Phase(start_cycle=0, load_scale=1.1),))
        d = ScenarioSchedule("t", (Phase(start_cycle=0, load_scale=1.0),))
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 16  # 64 bits of hex in a store key
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != d.fingerprint()

    def test_fingerprint_covers_faults_and_modulators(self):
        base = ScenarioSchedule("s", (Phase(start_cycle=0),))
        with_fault = ScenarioSchedule(
            "s",
            (Phase(start_cycle=0,
                   faults=(FaultEvent(10, "freeze_token"),)),),
        )
        with_mod = ScenarioSchedule(
            "s", (Phase(start_cycle=0, modulator=StepLoad(0.9)),)
        )
        prints = {base.fingerprint(), with_fault.fingerprint(),
                  with_mod.fingerprint()}
        assert len(prints) == 3
