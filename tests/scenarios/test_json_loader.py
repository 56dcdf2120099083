"""The scenario JSON loader: round-trips, rejection, registry wiring.

Acceptance criteria covered here: round-trip equality, fingerprint
stability across the round trip, rejection of unknown modulator/rule
kinds, and JSON-loaded scenarios running through
``ExperimentSpec``/``Session`` with stable store keys (a re-run against
the same store is pure cache hits).
"""

import pytest

from repro.scenarios.library import (
    build_scenario,
    load_scenario_file,
    scenario_names,
    scenarios,
)
from repro.scenarios.schedule import (
    FaultEvent,
    FeedbackRule,
    Phase,
    ScenarioError,
    ScenarioSchedule,
    SinusoidLoad,
)

from support import TINY


def sample_schedule(name="test-json-workload"):
    return ScenarioSchedule(
        name,
        (
            Phase(start_cycle=0, modulator=SinusoidLoad(0.9, 0.4, 400.0)),
            Phase(
                start_cycle=350,
                pattern="skewed3",
                load_scale=1.5,
                placement_key="json",
                faults=(FaultEvent(40, "kill_wavelengths", cluster=0,
                                   count=2),),
                rules=(FeedbackRule(
                    metric="mean_latency_cycles", threshold=200.0,
                    action="shed_load", window_cycles=100, check_every=50,
                ),),
            ),
        ),
        description="loader test workload",
    )


@pytest.fixture
def clean_registry():
    """Unregister any scenario a test registered on top of the library."""
    before = set(scenarios.names())
    yield
    for name in set(scenarios.names()) - before:
        scenarios.unregister(name)


class TestRoundTrip:
    def test_roundtrip_equality_and_fingerprint(self):
        schedule = sample_schedule()
        rebuilt = ScenarioSchedule.from_json(schedule.to_json())
        assert rebuilt == schedule
        assert rebuilt.fingerprint() == schedule.fingerprint()

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_every_library_scenario_roundtrips(self, name):
        """The serialiser covers the whole schema: modulators (composite
        kinds included), faults, feedback rules, placement keys."""
        schedule = build_scenario(name, 700)
        rebuilt = ScenarioSchedule.from_json(schedule.to_json())
        assert rebuilt == schedule
        assert rebuilt.fingerprint() == schedule.fingerprint()

    def test_file_roundtrip(self, tmp_path):
        schedule = sample_schedule()
        path = str(tmp_path / "workload.json")
        schedule.save(path)
        assert ScenarioSchedule.load(path) == schedule


class TestRejection:
    def test_unknown_top_level_field(self):
        data = sample_schedule().to_dict()
        data["speed"] = 11
        with pytest.raises(ScenarioError, match="unknown schedule fields"):
            ScenarioSchedule.from_dict(data)

    def test_unknown_phase_field(self):
        data = sample_schedule().to_dict()
        data["phases"][0]["warp"] = True
        with pytest.raises(ScenarioError, match="unknown phase fields"):
            ScenarioSchedule.from_dict(data)

    def test_unknown_modulator_kind(self):
        data = sample_schedule().to_dict()
        data["phases"][0]["modulator"] = {"kind": "square"}
        with pytest.raises(ScenarioError, match="unknown modulator kind"):
            ScenarioSchedule.from_dict(data)

    def test_unknown_rule_kind(self):
        data = sample_schedule().to_dict()
        data["phases"][1]["rules"][0]["metric"] = "vibes"
        with pytest.raises(ScenarioError, match="unknown feedback metric"):
            ScenarioSchedule.from_dict(data)
        data["phases"][1]["rules"][0] = {"surprise": 1}
        with pytest.raises(ScenarioError, match="unknown feedback rule"):
            ScenarioSchedule.from_dict(data)

    def test_unknown_fault_action(self):
        data = sample_schedule().to_dict()
        data["phases"][1]["faults"][0]["action"] = "explode"
        with pytest.raises(ScenarioError, match="unknown fault action"):
            ScenarioSchedule.from_dict(data)

    def test_invalid_json_document(self):
        with pytest.raises(ScenarioError, match="invalid scenario JSON"):
            ScenarioSchedule.from_json("{not json")
        with pytest.raises(ScenarioError, match="JSON object"):
            ScenarioSchedule.from_json("[1, 2]")


class TestRegistryWiring:
    def test_load_registers_and_is_idempotent(self, tmp_path,
                                              clean_registry):
        path = str(tmp_path / "workload.json")
        sample_schedule().save(path)
        schedule = load_scenario_file(path)
        assert schedule.name in scenario_names()
        assert build_scenario(schedule.name, 700) == schedule
        # Same content again: no-op, not a duplicate-name error.
        assert load_scenario_file(path) == schedule

    def test_conflicting_content_under_taken_name_rejected(
        self, tmp_path, clean_registry
    ):
        first = str(tmp_path / "a.json")
        sample_schedule().save(first)
        load_scenario_file(first)
        second = str(tmp_path / "b.json")
        conflicting = ScenarioSchedule(
            sample_schedule().name, (Phase(start_cycle=0),)
        )
        conflicting.save(second)
        with pytest.raises(ScenarioError, match="already registered"):
            load_scenario_file(second)

    def test_spec_session_rerun_is_pure_cache_hits(self, tmp_path,
                                                   clean_registry):
        """The acceptance criterion: a JSON-loaded scenario runs through
        ExperimentSpec/Session, and re-running against the same store
        simulates nothing (store keys are stable)."""
        from repro.api import ExperimentSpec, Session

        path = str(tmp_path / "workload.json")
        sample_schedule().save(path)
        store = str(tmp_path / "store.jsonl")

        def run():
            spec = ExperimentSpec(
                archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
                scenarios=(sample_schedule().name,),
                scenario_files=(path,), fidelity=TINY,
            )
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec
            with Session(store) as session:
                results = session.run(spec)
                return results, session.executed_count

        first, executed_first = run()
        assert executed_first == len(TINY.load_fractions)
        second, executed_second = run()
        assert executed_second == 0
        assert first == second
        # Per-phase windows (rules_fired included) survive the store.
        assert all(len(r.phases) == 2 for r in first)

    def test_unvalidated_spec_scenario_fails_without_the_file(self):
        from repro.api import ExperimentSpec

        with pytest.raises(ScenarioError):
            ExperimentSpec(
                archs=("dhetpnoc",), bw_sets=(1,),
                scenarios=("never-registered-workload",), fidelity=TINY,
            )
