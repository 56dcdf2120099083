"""Fuzzing the stack's load-bearing invariants over generated scenarios.

The nine library scenarios pin these invariants at hand-picked points;
here generated schedules (:mod:`repro.scenarios.generate`) drive the
same checks across the scenario space:

* the event-driven fast path and the naive engine produce bitwise
  identical results;
* serial and parallel sweep execution produce bitwise identical
  results;
* per-phase energy and packet windows tile the whole run exactly;
* store keys are a pure function of scenario *content* (same
  fingerprint, same key; different content, different key).

The sim-backed suites pin tiny explicit example budgets (the ``ci``
profile is derandomized, so these are deterministic in tier-1; the
``nightly`` profile re-runs them randomized).
"""

from contextlib import contextmanager
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.api.session import Session
from repro.experiments import runner
from repro.experiments.runner import Fidelity
from repro.experiments.store import result_key
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor
from repro.scenarios.generate import sample_schedule, schedules
from repro.scenarios.library import register_schedule, scenarios
from repro.sim.engine import Simulator
from repro.traffic.bandwidth_sets import BW_SET_1

TOTAL = 500
TINY = Fidelity("tiny-fuzz", TOTAL, 100, (0.4,))
run_one = Session().run_one


@contextmanager
def registered(schedule):
    """Register *schedule* for the duration of one property example.

    Hypothesis examples outlive function-scoped fixtures, so cleanup is
    explicit here instead of via the ``clean_registry`` fixture idiom.
    """
    register_schedule(schedule, override=True)
    try:
        yield schedule.name
    finally:
        scenarios.unregister(schedule.name)


class TestEngineEquivalence:
    @settings(max_examples=2, deadline=None)
    @given(schedules(total_cycles=TOTAL, max_phases=3))
    def test_fast_path_matches_naive_bitwise(self, schedule):
        with registered(schedule) as name:
            fast = run_one("dhetpnoc", BW_SET_1, "uniform", 480.0,
                           fidelity=TINY, seed=3, scenario=name)
            # The reference loop, chosen on the one run that wants it.
            with mock.patch.object(
                runner, "Simulator", partial(Simulator, fast_path=False)
            ):
                naive = run_one("dhetpnoc", BW_SET_1, "uniform", 480.0,
                                fidelity=TINY, seed=3, scenario=name)
            assert fast == naive


class TestSerialParallelIdentity:
    @settings(max_examples=2, deadline=None)
    @given(schedules(total_cycles=TOTAL, max_phases=3))
    def test_worker_count_never_changes_results(self, schedule):
        with registered(schedule) as name:
            spec = ExperimentSpec(
                archs=("dhetpnoc",),
                bw_sets=(1,),
                patterns=("uniform",),
                seeds=(1,),
                fidelity=TINY,
                scenarios=(name,),
            )
            serial = SweepExecutor(workers=1).run(spec)
            with SweepExecutor(workers=2) as executor:
                parallel = executor.run(spec)
            assert serial == parallel


class TestWindowTiling:
    @settings(max_examples=3, deadline=None)
    @given(schedules(total_cycles=TOTAL, max_phases=3))
    def test_energy_and_packet_windows_tile_the_run(self, schedule):
        with registered(schedule) as name:
            result = run_one("dhetpnoc", BW_SET_1, "skewed3", 480.0,
                             fidelity=TINY, seed=5, scenario=name)
            assert sum(p.packets_delivered for p in result.phases) == (
                result.packets_delivered
            )
            total_pj = result.energy_per_message_pj * result.packets_delivered
            assert sum(p.energy_pj for p in result.phases) == pytest.approx(
                total_pj, rel=1e-9
            )


class TestStoreKeyStability:
    def _key(self, schedule):
        return result_key(
            "dhetpnoc", 1, "uniform", 480.0, 1, TINY,
            scenario=schedule.name,
            scenario_digest=schedule.fingerprint(),
        )

    def test_same_content_same_key(self):
        assert self._key(sample_schedule(11, 600)) == self._key(
            sample_schedule(11, 600)
        )

    def test_different_content_different_key(self):
        keys = {
            self._key(sample_schedule(seed, 600)) for seed in range(11, 16)
        }
        assert len(keys) == 5

    @settings(max_examples=10, deadline=None)
    @given(schedules(total_cycles=600, max_phases=3))
    def test_key_is_a_pure_function_of_content(self, schedule):
        clone = type(schedule).from_json(schedule.to_json())
        assert self._key(schedule) == self._key(clone)
