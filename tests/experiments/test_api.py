"""Tests for the declarative experiment API (`repro.api`).

Covers the three acceptance surfaces of the API redesign:

* ``ExperimentSpec`` serialisation: dict -> spec -> dict identity and
  the JSON file round-trip the CLI ``run --spec`` path rides on;
* ``Session`` execution: store resume and adaptive-spec dispatch;
* registry semantics: registration, override, unknown-name errors, and
  end-to-end use of a freshly registered architecture.
"""

import json

import pytest

from repro.api import ExperimentSpec, Registry, RegistryError, Session, registry
from repro.experiments.runner import Fidelity, QUICK_FIDELITY
from repro.traffic.bandwidth_sets import BW_SET_1

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        archs=("firefly",),
        bw_sets=(1,),
        patterns=("uniform",),
        seeds=(5,),
        fidelity=TINY,
        derive_seeds=False,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_dict_round_trip_identity(self):
        spec = ExperimentSpec(
            archs=("firefly", "dhetpnoc"),
            bw_sets=(1, 3),
            patterns=("uniform", "skewed3"),
            scenarios=(None, "fault_storm"),
            seeds=(1, 2, 3),
            fidelity=TINY,
            load_fractions=(0.4, 0.9),
            derive_seeds=True,
            mode="adaptive",
            resolution=0.1,
        )
        data = spec.to_dict()
        rebuilt = ExperimentSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.to_dict() == data  # dict -> spec -> dict identity

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(scenarios=(None, "steady"))
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.load(path) == spec
        # The file is plain JSON, hand-editable.
        assert json.loads(open(path).read())["archs"] == ["firefly"]

    def test_fidelity_by_registered_name(self):
        spec = ExperimentSpec.from_dict({"fidelity": "quick"})
        assert spec.fidelity == QUICK_FIDELITY
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"fidelity": "warp"})

    def test_axes_coerced_to_tuples(self):
        spec = ExperimentSpec.from_dict(
            {"archs": ["firefly"], "bw_sets": [1], "seeds": [1, 2]}
        )
        assert spec.archs == ("firefly",)
        assert spec.seeds == (1, 2)

    def test_unknown_names_fail_at_construction(self):
        with pytest.raises(ValueError):
            tiny_spec(archs=("tokenring",))
        with pytest.raises(KeyError):
            tiny_spec(bw_sets=(9,))
        with pytest.raises(ValueError):
            tiny_spec(patterns=("bogus",))
        with pytest.raises(ValueError):
            tiny_spec(scenarios=("does_not_exist",))
        with pytest.raises(ValueError):
            tiny_spec(mode="psychic")
        with pytest.raises(ValueError):
            tiny_spec(resolution=0.0)

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"archz": ["firefly"]})
        with pytest.raises(ValueError, match="version"):
            ExperimentSpec.from_dict({"version": 99})

    def test_structural_constraints_enforced(self):
        with pytest.raises(ValueError):
            tiny_spec(seeds=(1, 1))  # duplicate axis values
        with pytest.raises(ValueError):
            tiny_spec(patterns=())  # empty axis

    def test_to_sweep_spec_matches_axes(self):
        # The spec is the grid: the method is what the ledger calls.
        spec = tiny_spec(patterns=("uniform", "skewed3"))
        assert spec.to_sweep_spec() is spec
        points = spec.expand()
        assert spec.n_points() == len(points)
        per_curve = len(spec.fractions)
        assert [p.curve for p in points[::per_curve]] == list(spec.curves())


class TestSessionVsLegacyShims:
    """Session execution: store resume and adaptive-spec dispatch."""

    def test_session_store_is_resumable(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        spec = tiny_spec()
        with Session(path) as session:
            first = session.run(spec)
            assert session.executed_count == len(first)
        with Session(path) as session:
            again = session.run(spec)
            assert session.executed_count == 0  # pure cache hits
        assert again == first

    def test_adaptive_honours_load_fraction_cap(self):
        """Regression: an adaptive spec's load_fractions override caps
        the knee-search range instead of being silently ignored."""
        spec = tiny_spec(mode="adaptive", resolution=0.2,
                         load_fractions=(0.2, 0.4))
        with Session() as session:
            (estimate,) = session.adaptive(spec)
        assert estimate.max_fraction == pytest.approx(0.4)
        assert all(r.offered_gbps <= 0.4 * BW_SET_1.aggregate_gbps + 1e-6
                   for r in estimate.results)

    def test_adaptive_spec_dispatch(self):
        spec = tiny_spec(mode="adaptive", resolution=0.4)
        with Session() as session:
            with pytest.raises(ValueError):
                session.run(spec)  # grid-only entry point
            (estimate,) = session.adaptive(spec)
        assert estimate.arch == "firefly"
        assert estimate.knee_gbps > 0
        # peaks() transparently serves adaptive specs from the estimates.
        with Session() as session:
            peaks = session.peaks(spec)
        assert peaks[("firefly", 1, "uniform", None, 5)] == estimate.peak


class TestCliSpecEquivalence:
    """``run --spec`` is bitwise-equivalent to the flag-built sweep:
    the second invocation over the same store simulates nothing."""

    def test_spec_and_sweep_share_store_keys(self, tmp_path, capsys):
        from repro.experiments.cli import main

        registry.fidelities.register("tiny", TINY)
        try:
            store = str(tmp_path / "store.jsonl")
            spec = ExperimentSpec(
                archs=("firefly", "dhetpnoc"),
                bw_sets=(1,),
                patterns=("skewed3",),
                seeds=(1, 2),
                fidelity=TINY,
            )
            path = str(tmp_path / "spec.json")
            spec.save(path)
            assert main(["run", "--spec", path, "--store", store]) == 0
            first = capsys.readouterr().out
            assert "Saturation peaks" in first
            assert f"{spec.n_points()} simulated" in first

            # The equivalent flag-based sweep against the same store:
            # zero new simulations proves the two paths hash to the
            # same store keys, and identical data rows prove bitwise-
            # identical results.
            argv = ["sweep", "--arch", "firefly", "dhetpnoc", "--bw-set", "1",
                    "--pattern", "skewed3", "--seeds", "1", "2",
                    "--fidelity", "tiny", "--store", store]
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert "0 simulated" in second

            def rows(out):
                return [line for line in out.splitlines()
                        if line.startswith(("firefly", "dhetpnoc", "note:"))]

            assert rows(second) == rows(first)
        finally:
            registry.fidelities.unregister("tiny")

    def test_bad_spec_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert main(["run", "--spec", path]) == 2
        assert "bad spec" in capsys.readouterr().err
        assert main(["run", "--spec", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_run_requires_exactly_one_target(self, capsys):
        from repro.experiments.cli import main

        assert main(["run"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_bw_set_in_spec_is_a_clean_error(self, tmp_path, capsys):
        """Regression: the bandwidth-set registry raises KeyError (not
        ValueError), which must still surface as the clean spec error."""
        from repro.experiments.cli import main

        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump({"bw_sets": [9]}, fh)
        assert main(["run", "--spec", path]) == 2
        assert "bad spec" in capsys.readouterr().err

    def test_spec_rejects_fidelity_and_seed_flags(self, tmp_path, capsys):
        """--fidelity/--seed silently losing to the spec's own values
        would be a trap; the combination is rejected instead."""
        from repro.experiments.cli import main

        path = str(tmp_path / "spec.json")
        tiny_spec().save(path)
        assert main(["run", "--spec", path, "--fidelity", "paper"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main(["run", "--spec", path, "--seed", "3"]) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestRegistries:
    def test_register_get_names(self):
        reg = Registry("widget")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg.names() == ("a",)
        assert "a" in reg and "b" not in reg

    def test_duplicate_needs_override(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("a", 2)
        assert reg.register("a", 2, override=True) == 2
        assert reg.get("a") == 2

    def test_unknown_name_error_lists_entries(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(RegistryError, match="unknown widget 'b'"):
            reg.get("b")
        with pytest.raises(RegistryError):
            reg.unregister("b")

    def test_domain_registries_keep_their_error_contracts(self):
        from repro.scenarios.schedule import ScenarioError
        from repro.traffic.patterns import PatternError

        with pytest.raises(ValueError):
            registry.architectures.get("tokenring")
        with pytest.raises(PatternError):
            registry.patterns.get("bogus")
        with pytest.raises(ScenarioError):
            registry.scenarios.get("does_not_exist")
        with pytest.raises(KeyError):
            registry.bandwidth_sets.get(9)
        with pytest.raises(ValueError):
            registry.store_backends.get("postgres")
        with pytest.raises(ValueError):
            registry.fidelities.get("warp")

    def test_memory_backend_rejects_a_path(self):
        """A path handed to the memory backend would silently never
        persist; the factory refuses it instead."""
        from repro.experiments.store import make_backend

        assert make_backend("memory") is not None
        with pytest.raises(ValueError, match="does not persist"):
            make_backend("memory", "store.jsonl")

    def test_cli_store_backend_choices_exclude_memory(self):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--store", "x.jsonl", "--store-backend", "memory"]
            )

    def test_pattern_family_resolves_without_registration(self):
        assert "skewed3" in registry.patterns
        assert "skewed3" not in registry.patterns.names()
        assert registry.patterns.get("skewed_hotspot2")().name == "skewed_hotspot2"

    def test_registered_architecture_is_sweepable_end_to_end(self):
        """A register() call is all it takes: the new name validates in
        specs, dispatches in workers, and (being a Firefly clone) yields
        Firefly's exact metrics."""
        from repro.arch.firefly import FireflyNoC

        registry.architectures.register(
            "firefly_clone", lambda sim, config, pattern: FireflyNoC(sim, config)
        )
        try:
            with Session() as session:
                clone = session.run(tiny_spec(archs=("firefly_clone",)))
                original = session.run(tiny_spec())
            for c, o in zip(clone, original):
                assert c.arch == "firefly_clone"
                assert c.delivered_gbps == o.delivered_gbps
                assert c.energy_per_message_pj == o.energy_per_message_pj
        finally:
            registry.architectures.unregister("firefly_clone")
        with pytest.raises(ValueError):
            tiny_spec(archs=("firefly_clone",))
