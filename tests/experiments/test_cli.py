"""Tests for the dhetpnoc-repro command line.

The surface itself is pinned byte for byte by ``cli_golden.json``
(``test_cli_golden.py``: 35 parsers, a 77-call ``main(argv)``
transcript); a test belongs here only for what that transcript does not
run.
"""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_fidelity_parse(self):
        args = build_parser().parse_args(["run", "table-3-1", "--fidelity", "paper"])
        assert args.fidelity.name == "paper"

    def test_bad_fidelity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table-3-1", "--fidelity", "warp"])


class TestMain:
    def test_run_area_figure(self, capsys):
        assert main(["run", "figure-3-6"]) == 0
        out = capsys.readouterr().out
        assert "1.608" in out

    def test_run_gpu_figure(self, capsys):
        assert main(["run", "figure-1-1"]) == 0
        out = capsys.readouterr().out
        assert "MUM" in out

    def test_scenarios_load_validates_and_prints_script(self, capsys,
                                                        tmp_path):
        from repro.scenarios.library import scenarios
        from repro.scenarios.schedule import Phase, ScenarioSchedule, StepLoad

        path = str(tmp_path / "wl.json")
        ScenarioSchedule(
            "test-cli-workload",
            (Phase(start_cycle=0, modulator=StepLoad(0.8)),),
            description="cli loader test",
        ).save(path)
        try:
            assert main(["scenarios", "load", path]) == 0
            out = capsys.readouterr().out
            assert "test-cli-workload: cli loader test" in out
            assert "fingerprint:" in out
            assert '"kind": "step"' in out
        finally:
            scenarios.unregister("test-cli-workload")

        # A broken file exits 2 with a pointer, not a traceback.
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('{"name": "x", "phases": [{"start_cycle": 0, "warp": 1}]}')
        assert main(["scenarios", "load", bad]) == 2
        assert "bad scenario file" in capsys.readouterr().err
        assert main(["scenarios", "load", str(tmp_path / "missing.json")]) == 2

    def test_scenarios_run_accepts_json_path(self, capsys, tmp_path):
        from repro.scenarios.library import scenarios
        from repro.scenarios.schedule import Phase, ScenarioSchedule

        path = str(tmp_path / "wl.json")
        ScenarioSchedule(
            "test-cli-run-workload",
            (Phase(start_cycle=0), Phase(start_cycle=400, load_scale=0.5)),
        ).save(path)
        try:
            assert main(["scenarios", "run", path, "--arch", "dhetpnoc",
                         "--pattern", "skewed3"]) == 0
            out = capsys.readouterr().out
            assert "test-cli-run-workload on dhetpnoc" in out
            assert "overall:" in out
        finally:
            scenarios.unregister("test-cli-run-workload")

    def test_scenarios_sweep_reports_per_scenario_rows(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        argv = ["scenarios", "sweep", "--scenario", "steady", "load_spike",
                "--arch", "firefly", "dhetpnoc", "--pattern", "skewed3",
                "--workers", "2", "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Scenario saturation peaks" in out
        assert "steady" in out and "load_spike" in out
        assert "d-HetPNoC peak gain" in out
        # Resume: the scenario axis is cached like any other.
        assert main(argv) == 0
        assert "0 simulated" in capsys.readouterr().out


class TestDryRun:
    """``run --spec ... --dry-run``: count work, simulate nothing."""

    def _spec_path(self, tmp_path, **overrides) -> str:
        from repro.api import ExperimentSpec

        fields = dict(
            archs=("firefly",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,),
            fidelity={"name": "tiny", "total_cycles": 700,
                      "reset_cycles": 100, "load_fractions": [0.3, 0.8]},
        )
        fields.update(overrides)
        path = str(tmp_path / "spec.json")
        ExperimentSpec(**fields).save(path)
        return path

    def test_grid_dry_run_counts_points_and_misses(self, capsys, tmp_path):
        path = self._spec_path(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["run", "--spec", path, "--dry-run", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "dry run: 1 curve(s), 2 grid point(s), 2 to simulate (0 cached)" in out
        assert "firefly/set1/uniform seed 1: 2 point(s), 2 to simulate" in out

        # Execute for real, then dry-run again: everything is cached.
        assert main(["run", "--spec", path, "--store", store]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", path, "--dry-run", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 to simulate (2 cached)" in out

        # Half-warm, with a load fraction repeated in the grid (the one
        # way a spec repeats a store key): the dry run plans through the
        # step execution starts with, so it predicts the run exactly.
        from repro.api import ExperimentSpec, Session

        wider = ExperimentSpec.load(self._spec_path(
            tmp_path, archs=("firefly", "dhetpnoc"),
            fidelity={"name": "tiny", "total_cycles": 700,
                      "reset_cycles": 100, "load_fractions": [0.3, 0.3, 0.8]},
        ))
        with Session(store) as session:
            report = session.dry_run(wider)
            assert (report.total_points, report.to_simulate) == (6, 2)
            assert [c.to_simulate for c in report.curves] == [0, 2]
            session.run(wider)
            assert session.executed_count == report.to_simulate
            assert session.dry_run(wider).to_simulate == 0
