"""Property tests for the scenario generator itself.

Every generated schedule must be valid by construction for the
``total_cycles`` it was sampled for, round-trip JSON with its content
fingerprint intact, and come back identical when re-sampled from the
same seed — the contract that makes a fuzz finding reproducible from
nothing but the seed it names.
"""

import pytest
from hypothesis import given

from repro.scenarios.coverage import DIMENSIONS, schedule_dimensions
from repro.scenarios.generate import (
    MIN_TOTAL_CYCLES,
    PATTERN_PALETTE,
    fault_events,
    feedback_rules,
    modulators,
    phases,
    sample_schedule,
    schedules,
)
from repro.scenarios.schedule import (
    FaultEvent,
    FeedbackRule,
    LoadModulator,
    Phase,
    ScenarioError,
    ScenarioSchedule,
    modulator_from_dict,
)

TOTAL = 900


class TestScheduleStrategy:
    @given(schedules(total_cycles=TOTAL))
    def test_valid_for_generation_cycles(self, schedule):
        bounds = schedule.phase_bounds(TOTAL)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == TOTAL

    @given(schedules(total_cycles=TOTAL))
    def test_phase_starts_strictly_increase(self, schedule):
        starts = [p.start_cycle for p in schedule.phases]
        assert starts == sorted(set(starts))
        assert starts[0] == 0

    @given(schedules(total_cycles=TOTAL))
    def test_faults_land_inside_their_phase(self, schedule):
        for start, end, phase in schedule.phase_bounds(TOTAL):
            for fault in phase.faults:
                assert start + fault.at_cycle < end

    @given(schedules(total_cycles=TOTAL))
    def test_patterns_come_from_the_palette(self, schedule):
        for phase in schedule.phases:
            assert phase.pattern is None or phase.pattern in PATTERN_PALETTE

    @given(schedules(total_cycles=TOTAL))
    def test_json_round_trip_preserves_fingerprint(self, schedule):
        clone = ScenarioSchedule.from_json(schedule.to_json())
        assert clone == schedule
        assert clone.fingerprint() == schedule.fingerprint()

    @given(schedules(total_cycles=TOTAL))
    def test_mutated_payload_is_rejected(self, schedule):
        payload = schedule.to_dict()
        payload["phases"][0]["surprise_knob"] = 1
        with pytest.raises(ScenarioError, match="unknown"):
            ScenarioSchedule.from_dict(payload)

    @given(schedules(total_cycles=TOTAL, allow_composition=False))
    def test_flat_schedules_also_valid(self, schedule):
        assert schedule.phase_bounds(TOTAL)[-1][1] == TOTAL


class TestComponentStrategies:
    @given(modulators())
    def test_modulators_round_trip(self, modulator):
        assert isinstance(modulator, LoadModulator)
        assert modulator_from_dict(modulator.to_dict()) == modulator

    @given(fault_events(span_cycles=300))
    def test_faults_fit_the_span(self, fault):
        assert isinstance(fault, FaultEvent)
        assert 0 <= fault.at_cycle < 300
        if fault.action == "blackout_receiver":
            assert fault.duration_cycles > 0

    @given(feedback_rules())
    def test_rules_round_trip(self, rule):
        assert isinstance(rule, FeedbackRule)
        assert FeedbackRule.from_dict(rule.to_dict()) == rule

    @given(phases(total_cycles=400))
    def test_phases_anchor_at_zero(self, phase):
        assert isinstance(phase, Phase)
        assert phase.start_cycle == 0
        for fault in phase.faults:
            assert fault.at_cycle < 400


class TestSeedSampler:
    def test_same_seed_same_fingerprint(self):
        a = sample_schedule(7, total_cycles=TOTAL)
        b = sample_schedule(7, total_cycles=TOTAL)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_name_embeds_the_reproduction_coordinates(self):
        assert sample_schedule(7, total_cycles=TOTAL).name == f"fuzz_s7_c{TOTAL}"

    def test_distinct_seeds_mostly_distinct_content(self):
        prints = {
            sample_schedule(seed, total_cycles=TOTAL).fingerprint()
            for seed in range(20)
        }
        assert len(prints) >= 15

    def test_every_seed_yields_a_valid_schedule(self):
        for seed in range(25):
            schedule = sample_schedule(seed, total_cycles=TOTAL)
            assert schedule.phase_bounds(TOTAL)[-1][1] == TOTAL

    def test_too_short_run_rejected(self):
        with pytest.raises(ScenarioError, match="total_cycles"):
            sample_schedule(1, total_cycles=MIN_TOTAL_CYCLES - 1)

    def test_twenty_seeds_span_every_dimension(self):
        # A fuzz run explores all four dimensions of scenario space: at
        # 700 cycles, 17, 6, 14 and 15 of seeds 1-20 are active on each.
        active = dict.fromkeys(DIMENSIONS, 0)
        for seed in range(1, 21):
            scores = schedule_dimensions(sample_schedule(seed, 700), 700)
            for dimension in DIMENSIONS:
                active[dimension] += scores[dimension] > 0
        assert all(active.values()), active
