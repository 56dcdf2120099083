"""Smoke tests: every example script runs end to end.

The heavier studies get trimmed arguments; each must exit 0 and print its
key take-away. This keeps the examples honest as the library evolves.
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
                      "token circulation overhead", "allocation policy"):
            assert f"Ablation: {study}" in out
        assert "max_request " in out and "proportional " in out  # table rows
        assert "cap of 8 wavelengths beats the Firefly-equivalent cap of 4" in out
        assert "the token ring is off the data path" in out
        assert "proportional sharing removes starvation" in out
        assert "without losing aggregate bandwidth" in out

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

    @pytest.mark.slow
    def test_skewed_traffic_study(self):
        out = run_example("skewed_traffic_study.py", "--fidelity", "quick")
        assert "Saturation peaks" in out

    @pytest.mark.slow
    def test_gpu_workload_study(self):
        out = run_example("gpu_workload_study.py", "--fidelity", "quick")
        assert "d-HetPNoC bandwidth gain on GPU/memory traffic" in out

    @pytest.mark.slow
    def test_electrical_vs_photonic(self):
        out = run_example("electrical_vs_photonic.py")
        assert "mesh" in out and "photonic" in out
