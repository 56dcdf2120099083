"""Smoke tests: every example script runs end to end.

Each runs at the cheapest fidelity it offers: ``--fidelity tiny`` where
the script has one, the quick fidelity otherwise (the default of the
studies without a ``tiny``, and all that ``electrical_vs_photonic.py``
runs). Each must exit 0 and print its key take-away. This keeps the
examples honest as the library evolves.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    @pytest.mark.parametrize("script,flag,load", [
        ("quickstart.py", "--load-gbps", "nan"),
        ("scenario_showdown.py", "--load-fraction", "inf"),
        ("closed_loop_shedding.py", "--load-fraction", "-1"),
    ])
    def test_a_load_not_finite_and_non_negative_is_refused(
            self, script, flag, load):
        """Refused at argument parsing, before any simulation."""
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script), flag, load],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert f"need a finite load >= 0, got '{load}'" in result.stderr

    def test_quickstart(self):
        out = run_example("quickstart.py", "--pattern", "skewed3",
                          "--load-gbps", "400")
        assert "d-HetPNoC bandwidth gain" in out
        assert "wavelength allocation" in out

    def test_task_remapping(self):
        out = run_example("task_remapping.py")
        assert "Held wavelengths around a task remap" in out
        assert "token" in out

    def test_photonic_design_check(self):
        out = run_example("photonic_design_check.py")
        assert "budget closes     : True" in out
        assert "max pass-by rings" in out

    def test_area_energy_tradeoff(self):
        out = run_example("area_energy_tradeoff.py", "--fidelity", "quick")
        assert "1.608" in out
        assert "Conclusion's mitigation" in out

    def test_scenario_showdown(self):
        out = run_example("scenario_showdown.py", "--fidelity", "tiny")
        assert "Per-phase delivered bandwidth" in out
        assert "hotspot_drift on firefly" in out
        assert "hotspot_drift on dhetpnoc" in out
        assert "Take-away" in out

    def test_closed_loop_shedding(self):
        out = run_example("closed_loop_shedding.py", "--fidelity", "tiny")
        assert "closed_loop_shedding on dhetpnoc" in out
        assert "open_loop_overload on dhetpnoc" in out
        assert "controller off vs on" in out
        # The loop actually closes at this fidelity: the controller
        # fires at least once on observed latency.
        assert "fired 0 time(s)" not in out
        assert "Take-away" in out

    def test_dba_ablations(self):
        out = run_example("dba_ablations.py", "--fidelity", "tiny")
        for study in ("d-HetPNoC per-channel wavelength cap",
                      "starvation floor size",
                      "reservation retry backoff",
                      "token circulation overhead"):
            assert f"Ablation: {study}" in out
        assert "cap of 8 wavelengths beats the Firefly-equivalent cap of 4" in out
        assert "the token ring is off the data path" in out

    def test_parallel_sweep_study(self):
        out = run_example("parallel_sweep_study.py", "--fidelity", "tiny",
                          "--seeds", "1", "2", "--workers", "2")
        assert "Replicated saturation peaks" in out
        assert "simulated" in out
        assert "Take-away" in out

    def test_parallel_sweep_study_resumes_from_store(self, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        args = ("--fidelity", "tiny", "--seeds", "1", "--workers", "1",
                "--store", store)
        first = run_example("parallel_sweep_study.py", *args)
        assert "0 from store" in first
        second = run_example("parallel_sweep_study.py", *args)
        assert "0 simulated" in second

    def test_skewed_traffic_study(self):
        out = run_example("skewed_traffic_study.py", "--fidelity", "quick")
        assert "Saturation peaks" in out

    def test_gpu_workload_study(self):
        out = run_example("gpu_workload_study.py", "--fidelity", "quick")
        assert "d-HetPNoC bandwidth gain on GPU/memory traffic" in out

    def test_electrical_vs_photonic(self):
        """Section 1.5's three claims, checked by the example: the mesh
        wins light-load latency, the crossbar wins bandwidth at scale
        and energy per message."""
        out = run_example("electrical_vs_photonic.py")
        claims = out.split("Chapter-1 claims")[1].split("\n\n")[0]
        assert claims.count(": True") == 3 and "False" not in claims
