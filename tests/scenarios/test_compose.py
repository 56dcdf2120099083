"""Combinators: sequence/overlay structure, fingerprints, execution.

Acceptance criteria covered here: combinator outputs are ordinary
schedules with *structural* fingerprints (same inputs → same
fingerprint → same store keys), they run through the sweep stack, and a
re-run against the same store is pure cache hits.
"""

import random

import pytest

from repro.api.session import Session
from repro.scenarios.compose import overlay, sequence
from repro.scenarios.library import build_scenario
from repro.scenarios.schedule import (
    FaultEvent,
    OffsetLoad,
    Phase,
    ProductLoad,
    RampLoad,
    ScenarioError,
    ScenarioSchedule,
    SinusoidLoad,
    StepLoad,
)
from repro.traffic.bandwidth_sets import BW_SET_1

from support import TINY

run_one = Session().run_one


class TestCompositeModulators:
    def test_product_multiplies_pointwise(self):
        runtime = ProductLoad(
            (StepLoad(0.5), StepLoad(2.0))
        ).runtime(random.Random(1))
        assert runtime(0, 100) == pytest.approx(1.0)

    def test_offset_shifts_the_waveform(self):
        inner = RampLoad(0.0, 1.0)
        shifted = OffsetLoad(inner, offset_cycles=50, span_cycles=101)
        rng = random.Random(1)
        assert shifted.runtime(rng)(0, 51) == pytest.approx(
            inner.runtime(rng)(50, 101)
        )
        # span=None passes the slice span plus the offset through.
        tail = OffsetLoad(inner, offset_cycles=50)
        assert tail.runtime(rng)(0, 51) == pytest.approx(
            inner.runtime(rng)(50, 101)
        )

    def test_validation(self):
        with pytest.raises(ScenarioError):
            ProductLoad(())
        with pytest.raises(ScenarioError):
            OffsetLoad(StepLoad(1.0), offset_cycles=-1)
        with pytest.raises(ScenarioError):
            OffsetLoad(StepLoad(1.0), span_cycles=0)

    def test_nested_json_roundtrip(self):
        from repro.scenarios.schedule import modulator_from_dict

        mod = ProductLoad(
            (OffsetLoad(SinusoidLoad(0.9, 0.4, 500.0), 250, 1000),
             StepLoad(1.5))
        )
        assert modulator_from_dict(mod.to_dict()) == mod


class TestSequence:
    def test_structure_and_shift(self):
        spike = build_scenario("load_spike", 600)
        storm = build_scenario("fault_storm", 600)
        seq = sequence(spike, storm, 600)
        assert [p.start_cycle for p in seq.phases] == [
            0, 200, 400, 600, 900
        ]
        # The shifted storm keeps its faults, offsets intact.
        assert len(seq.phases[-1].faults) == 5

    def test_truncation_drops_late_phases_and_faults(self):
        first = ScenarioSchedule(
            "cut-me",
            (Phase(start_cycle=0,
                   faults=(FaultEvent(50, "freeze_token"),
                           FaultEvent(450, "thaw_token"))),
             Phase(start_cycle=500)),
        )
        tail = ScenarioSchedule("tail", (Phase(start_cycle=0),))
        seq = sequence(first, tail, 400)
        assert [p.start_cycle for p in seq.phases] == [0, 400]
        # The thaw at absolute cycle 450 lies beyond the cut: dropped.
        assert [f.at_cycle for f in seq.phases[0].faults] == [50]

    def test_fingerprint_is_structural(self):
        a = sequence(build_scenario("diurnal", 700),
                     build_scenario("fault_storm", 700), 700)
        b = sequence(build_scenario("diurnal", 700),
                     build_scenario("fault_storm", 700), 700)
        c = sequence(build_scenario("diurnal", 700),
                     build_scenario("fault_storm", 700), 699)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_bad_cut_rejected(self):
        steady = build_scenario("steady", 700)
        with pytest.raises(ScenarioError):
            sequence(steady, steady, 0)


class TestOverlay:
    def test_boundaries_union_and_binding_fields(self):
        base = build_scenario("hotspot_drift", 800)   # starts 0/200/400/600
        mod = build_scenario("fault_storm", 700)      # starts 0/350
        over = overlay(base, mod)
        assert [p.start_cycle for p in over.phases] == [
            0, 200, 350, 400, 600
        ]
        # Binding fields only where a base phase actually starts; the
        # 350 slice exists only in the overlay and must not rebind.
        by_start = {p.start_cycle: p for p in over.phases}
        assert by_start[200].pattern == "skewed_hotspot1"
        assert by_start[350].pattern is None
        assert by_start[350].hotspot_core is None
        assert by_start[350].placement_key is None

    def test_faults_keep_their_absolute_cycles(self):
        base = build_scenario("diurnal", 700)
        mod = build_scenario("fault_storm", 700)

        def absolute(schedule):
            return sorted(
                p.start_cycle + f.at_cycle
                for p in schedule.phases for f in p.faults
            )

        assert absolute(overlay(base, mod)) == absolute(mod)

    def test_load_scales_multiply_and_modulators_product(self):
        base = ScenarioSchedule(
            "base", (Phase(start_cycle=0, load_scale=0.5,
                           modulator=SinusoidLoad(1.0, 0.2, 300.0)),)
        )
        mod = ScenarioSchedule(
            "mod", (Phase(start_cycle=0, load_scale=2.0),
                    Phase(start_cycle=300, load_scale=3.0,
                          modulator=StepLoad(0.5))),
        )
        over = overlay(base, mod)
        assert [p.load_scale for p in over.phases] == [1.0, 1.5]
        first, second = over.phases
        # Slice 0 runs the base waveform unshifted; slice 1 continues it
        # (offset 300) multiplied by the overlay's step.
        assert first.modulator == SinusoidLoad(1.0, 0.2, 300.0)
        assert second.modulator == ProductLoad(
            (OffsetLoad(SinusoidLoad(1.0, 0.2, 300.0), 300, None),
             StepLoad(0.5))
        )

    def test_overlay_fingerprint_is_structural(self):
        make = lambda: overlay(build_scenario("diurnal", 700),
                               build_scenario("fault_storm", 700))
        assert make().fingerprint() == make().fingerprint()

    def test_composed_scenario_runs_end_to_end(self):
        result = run_one("dhetpnoc", BW_SET_1, "skewed3", 400.0, fidelity=TINY,
                         seed=5, scenario="storm_over_diurnal")
        assert len(result.phases) == 2
        assert sum(p.faults_fired for p in result.phases) > 0
        assert result.packets_delivered > 0


class TestComposedThroughTheStack:
    def test_registered_composition_is_pure_cache_hits_on_rerun(self, tmp_path):
        """Combinator output → registry → ExperimentSpec → Session, with
        stable store keys across sessions (the acceptance criterion)."""
        from repro.api import ExperimentSpec, Session
        from repro.scenarios.library import register_schedule, scenarios

        name = "test-seq-spike-then-storm"
        schedule = sequence(
            build_scenario("load_spike", 300),
            build_scenario("fault_storm", 400),
            300, name=name,
        )
        register_schedule(schedule, "test composition")
        try:
            spec = ExperimentSpec(
                archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
                scenarios=(name,), fidelity=TINY,
            )
            store = str(tmp_path / "composed.jsonl")
            with Session(store) as session:
                first = session.run(spec)
                assert session.executed_count == spec.n_points()
            with Session(store) as session:
                second = session.run(spec)
                assert session.executed_count == 0
            assert first == second
        finally:
            scenarios.unregister(name)


class TestCompositionEdgeCases:
    def test_negative_cut_rejected_like_zero(self):
        steady = build_scenario("steady", 700)
        with pytest.raises(ScenarioError, match="after cycle 0"):
            sequence(steady, steady, -100)

    def test_overlay_over_an_already_composed_base(self):
        """Composition stacks: overlay applied on top of a sequence()
        output is still an ordinary, valid, structurally-fingerprinted
        schedule."""
        def stacked():
            base = sequence(build_scenario("diurnal", 700),
                            build_scenario("load_spike", 700), 700)
            return overlay(base, build_scenario("bursty_uniform", 1400))

        over = stacked()
        bounds = over.phase_bounds(1400)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1400
        # Boundary union: every component boundary survives the stack.
        starts = {p.start_cycle for p in over.phases}
        base = sequence(build_scenario("diurnal", 700),
                        build_scenario("load_spike", 700), 700)
        assert {p.start_cycle for p in base.phases} <= starts
        # Structural identity holds through the stack.
        assert stacked().fingerprint() == over.fingerprint()

    def test_sequence_keeps_feedback_rules_on_kept_phases(self):
        closed = build_scenario("closed_loop_shedding", 700)
        open_loop = build_scenario("steady", 700)
        composed = sequence(closed, open_loop, 700)
        kept_rules = sum(len(p.rules) for p in composed.phases)
        assert kept_rules == sum(len(p.rules) for p in closed.phases)

    def test_overlay_concatenates_rules_from_both_components(self):
        closed = build_scenario("closed_loop_shedding", 700)
        storm = build_scenario("fault_storm", 700)
        over = overlay(closed, storm)
        # Every merged slice carries at least the base's controller; the
        # total cannot be fewer rules than either component scripted.
        assert sum(len(p.rules) for p in over.phases) >= max(
            sum(len(p.rules) for p in closed.phases),
            sum(len(p.rules) for p in storm.phases),
        )
        assert over.phase_bounds(700)[-1][1] == 700
