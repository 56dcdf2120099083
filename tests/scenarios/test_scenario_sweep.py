"""Scenario integration with the sweep/store stack.

Acceptance criteria covered here:

* a JSONL store round-trips a scenario sweep, phase windows included
  (that serial and parallel execution agree bitwise is the
  ``fault_storm`` row of ``tests/experiments/test_lane_matrix.py``);
* scenario identity is part of the store's content hash — different
  scenario, different key, no cache collisions.
"""

from contextlib import closing

import pytest

from repro.experiments.store import ResultStore, result_key
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor, derive_seed

from support import TINY

SPEC = ExperimentSpec(
    archs=("firefly", "dhetpnoc"),
    bw_sets=(1,),
    patterns=("skewed3",),
    seeds=(1,),
    fidelity=TINY,
    scenarios=(None, "steady", "fault_storm"),
)


class TestExpansion:
    def test_scenario_axis_multiplies_points(self):
        assert SPEC.n_points() == len(SPEC.expand()) == 2 * 1 * 1 * 3 * 1 * 2

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(scenarios=("steady", "steady"), fidelity=TINY)

    def test_scenario_joins_the_curve_coordinates(self):
        by_curve = {}
        for p in SPEC.expand():
            by_curve.setdefault(p.curve, set()).add(p.seed)
        # 2 archs x 3 scenarios = 6 curves, each with one derived seed.
        assert len(by_curve) == 6
        assert all(len(seeds) == 1 for seeds in by_curve.values())

    def test_scenarioless_seed_derivation_unchanged(self):
        """Golden stores from the pre-scenario layout must stay valid:
        a None scenario derives exactly the historic seed."""
        assert derive_seed(1, "firefly", 1, "uniform") == derive_seed(
            1, "firefly", 1, "uniform", None
        )
        assert derive_seed(1, "firefly", 1, "uniform", "steady") != derive_seed(
            1, "firefly", 1, "uniform"
        )


class TestSerialParallelIdentity:
    def test_store_roundtrip_and_resume(self, tmp_path):
        path = str(tmp_path / "scenarios.jsonl")
        with closing(SweepExecutor(workers=2, store=ResultStore(path))) as first:
            results = first.run(SPEC)
            assert first.executed_count == SPEC.n_points()
        second = SweepExecutor(workers=1, store=ResultStore(path))
        replayed = second.run(SPEC)
        assert second.executed_count == 0
        assert replayed == results
        # Per-phase windows survive the JSONL round trip, types intact.
        storm = [r for r in replayed if r.scenario == "fault_storm"]
        assert storm and all(len(r.phases) == 2 for r in storm)


class TestScenarioKeys:
    def test_distinct_scenarios_distinct_keys(self):
        executor = SweepExecutor()
        keys = {executor._key(p, TINY) for p in SPEC.expand()}
        assert len(keys) == SPEC.n_points()

    def test_key_depends_on_script_content(self):
        base = result_key("dhetpnoc", 1, "skewed3", 100.0, 1, TINY)
        steady = result_key(
            "dhetpnoc", 1, "skewed3", 100.0, 1, TINY, scenario="steady"
        )
        storm = result_key(
            "dhetpnoc", 1, "skewed3", 100.0, 1, TINY, scenario="fault_storm"
        )
        assert len({base, steady, storm}) == 3
        # The digest is content-addressed: faking a different schedule
        # fingerprint under the same name must change the key.
        forged = result_key(
            "dhetpnoc", 1, "skewed3", 100.0, 1, TINY,
            scenario="steady", scenario_digest="0" * 16,
        )
        assert forged != steady

    def test_no_cross_contamination_in_one_store(self):
        """steady and None share physics but must cache separately."""
        executor = SweepExecutor()
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,), fidelity=TINY, scenarios=(None, "steady"),
            derive_seeds=False,
        )
        results = executor.run(spec)
        assert executor.executed_count == spec.n_points()
        plain = [r for r in results if r.scenario is None]
        steady = [r for r in results if r.scenario == "steady"]
        assert [r.delivered_gbps for r in plain] == [
            r.delivered_gbps for r in steady
        ]


class TestPersistentPool:
    def test_pool_reused_across_batches(self):
        executor = SweepExecutor(workers=2)
        executor.run(SPEC)
        pool = executor._pool
        assert pool is not None
        executor.store.clear()
        executor.run(SPEC)
        assert executor._pool is pool
        executor.close()
        assert executor._pool is None

    def test_close_is_reentrant_and_pool_respawns(self):
        executor = SweepExecutor(workers=2)
        executor.close()
        executor.close()
        results = executor.run(SPEC)  # respawns lazily
        assert len(results) == SPEC.n_points()
        executor.close()

    def test_serial_executor_never_spawns_a_pool(self):
        executor = SweepExecutor(workers=1)
        executor.run(SPEC)
        assert executor._pool is None
