"""Dimension scoring: modulator swings and known library scores.

The library scenarios make the per-dimension scorers checkable against
hand-derivable values (``steady`` is inactive everywhere,
``hotspot_drift`` moves its hotspot exactly three times, ...). That the
generator spans all four dimensions is ``test_generate.py``'s.
"""

import pytest

from repro.scenarios.coverage import (
    DIMENSIONS,
    fault_density,
    modulator_swing,
    schedule_dimensions,
)
from repro.scenarios.library import build_scenario
from repro.scenarios.schedule import (
    BurstLoad,
    OffsetLoad,
    ProductLoad,
    RampLoad,
    SinusoidLoad,
    StepLoad,
)

TOTAL = 900


class TestModulatorSwing:
    def test_none_and_step_are_flat(self):
        assert modulator_swing(None) == 0.0
        assert modulator_swing(StepLoad(1.5)) == 0.0

    def test_simple_kinds(self):
        assert modulator_swing(RampLoad(0.2, 1.0)) == pytest.approx(0.8)
        assert modulator_swing(
            BurstLoad(on_scale=1.6, off_scale=0.4,
                      mean_on_cycles=50.0, mean_off_cycles=50.0)
        ) == pytest.approx(1.2)
        assert modulator_swing(SinusoidLoad(1.0, 0.3, 400.0)) == pytest.approx(0.3)

    def test_composites_aggregate(self):
        product = ProductLoad((RampLoad(0.0, 0.5), SinusoidLoad(1.0, 0.25, 300.0)))
        assert modulator_swing(product) == pytest.approx(0.75)
        wrapped = OffsetLoad(RampLoad(0.0, 0.5), offset_cycles=100)
        assert modulator_swing(wrapped) == pytest.approx(0.5)


class TestKnownLibraryScores:
    def test_steady_is_inactive_everywhere(self):
        scores = schedule_dimensions(build_scenario("steady", TOTAL), TOTAL)
        assert set(scores) == set(DIMENSIONS)
        assert all(value == 0.0 for value in scores.values())

    def test_bursty_uniform_scores_burstiness(self):
        scores = schedule_dimensions(
            build_scenario("bursty_uniform", TOTAL), TOTAL
        )
        assert scores["burstiness"] > 0

    def test_hotspot_drift_moves_three_times(self):
        scores = schedule_dimensions(
            build_scenario("hotspot_drift", TOTAL), TOTAL
        )
        assert scores["hotspot_mobility"] == 3.0

    def test_fault_storm_scores_fault_density(self):
        scores = schedule_dimensions(
            build_scenario("fault_storm", TOTAL), TOTAL
        )
        assert scores["fault_density"] > 0

    def test_closed_loop_shedding_scores_rule_activity(self):
        scores = schedule_dimensions(
            build_scenario("closed_loop_shedding", TOTAL), TOTAL
        )
        assert scores["rule_activity"] > 0

    def test_fault_density_needs_positive_cycles(self):
        with pytest.raises(ValueError, match="positive"):
            fault_density(build_scenario("steady", TOTAL), 0)
