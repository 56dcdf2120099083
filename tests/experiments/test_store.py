"""Tests for the JSONL-backed result store (repro.experiments.store)."""

import dataclasses
import json

from repro.experiments.runner import Fidelity, RunResult
from repro.experiments.store import (
    ResultStore,
    config_fingerprint,
    result_from_dict,
    result_key,
    result_to_dict,
)
from repro.arch.config import SystemConfig
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))

SAMPLE = RunResult(
    arch="firefly",
    pattern="skewed3",
    bw_set_index=1,
    offered_gbps=640.0,
    delivered_gbps=257.72,
    photonic_gbps=301.5,
    per_core_gbps=4.03,
    energy_per_message_pj=11314.6,
    mean_latency_cycles=350.47,
    acceptance_ratio=0.82,
    packets_delivered=1234,
    reservations_nacked=56,
    laser_power_mw=640.0,
    lit_wavelengths=64,
)


class TestSerialization:
    def test_round_trip(self):
        restored = result_from_dict(result_to_dict(SAMPLE))
        assert restored == SAMPLE

    def test_round_trip_through_json(self):
        data = json.loads(json.dumps(result_to_dict(SAMPLE)))
        assert result_from_dict(data) == SAMPLE

    def test_unknown_fields_ignored(self):
        data = result_to_dict(SAMPLE)
        data["added_in_a_future_schema"] = 42
        assert result_from_dict(data) == SAMPLE


class TestResultKey:
    def test_stable(self):
        a = result_key("firefly", 1, "uniform", 100.0, 1, TINY)
        b = result_key("firefly", 1, "uniform", 100.0, 1, TINY)
        assert a == b and len(a) == 64

    def test_every_axis_matters(self):
        base = result_key("firefly", 1, "uniform", 100.0, 1, TINY)
        assert result_key("dhetpnoc", 1, "uniform", 100.0, 1, TINY) != base
        assert result_key("firefly", 2, "uniform", 100.0, 1, TINY) != base
        assert result_key("firefly", 1, "skewed3", 100.0, 1, TINY) != base
        assert result_key("firefly", 1, "uniform", 200.0, 1, TINY) != base
        assert result_key("firefly", 1, "uniform", 100.0, 2, TINY) != base

    def test_same_name_different_schedule_differs(self):
        """The historic ``_PEAK_CACHE`` bug: name-only fidelity identity."""
        longer = Fidelity("tiny", 1400, 100, (0.3, 0.8))
        assert result_key("firefly", 1, "uniform", 100.0, 1, TINY) != result_key(
            "firefly", 1, "uniform", 100.0, 1, longer
        )

    def test_load_grid_does_not_leak_into_identity(self):
        """A point's identity is its inputs, not the surrounding grid."""
        densegrid = Fidelity("tiny", 700, 100, (0.1, 0.3, 0.8, 1.1))
        assert result_key("firefly", 1, "uniform", 100.0, 1, TINY) == result_key(
            "firefly", 1, "uniform", 100.0, 1, densegrid
        )

    def test_config_fingerprint_matters(self):
        tweaked = SystemConfig(n_vcs=8)
        assert result_key(
            "firefly", 1, "uniform", 100.0, 1, TINY, config=tweaked
        ) != result_key("firefly", 1, "uniform", 100.0, 1, TINY)
        assert config_fingerprint(SystemConfig()) == config_fingerprint(
            SystemConfig()
        )


class TestStorePersistence:
    def test_in_memory_round_trip(self):
        store = ResultStore()
        store.put("k", SAMPLE)
        assert "k" in store and store.get("k") == SAMPLE
        assert store.hits == 1
        assert store.get("absent") is None
        assert store.misses == 1

    def test_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        ResultStore(path).put("k", SAMPLE)
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get("k") == SAMPLE

    def test_corrupted_lines_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put("good", SAMPLE)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{ not json at all\n")
            fh.write('{"key": "missing-result-field"}\n')
            fh.write('{"key": "bad-result", "result": {"arch": []}}\n')
            fh.write('{"key": "non-dict-result", "result": [1, 2, 3]}\n')
            fh.write('{"key": "torn", "result": {"arch": "fir\n')
        reloaded = ResultStore(path)
        assert reloaded.get("good") == SAMPLE
        assert len(reloaded) == 1
        assert reloaded.corrupt_lines == 5

    def test_put_many_stores_every_pair(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        other = dataclasses.replace(SAMPLE, arch="dhetpnoc")
        ResultStore(path).put_many([("a", SAMPLE), ("b", other)])
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.get("a") == SAMPLE and reloaded.get("b") == other

    def test_clear_keeps_backing_file(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put("k", SAMPLE)
        store.clear()
        assert len(store) == 0
        assert len(ResultStore(path)) == 1

    def test_reput_after_clear_does_not_duplicate_lines(self, tmp_path):
        """Regression: clear() drops the in-memory view only; re-putting
        an already-persisted key must not grow the JSONL file."""
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put("k", SAMPLE)
        store.clear()
        store.put("k", SAMPLE)
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1
        assert store.get("k") == SAMPLE


class TestResumeAfterPartialSweep:
    SPEC = ExperimentSpec(
        archs=("firefly",),
        bw_sets=(1,),
        patterns=("uniform", "skewed2"),
        seeds=(1,),
        fidelity=TINY,
    )

    def test_resume_runs_only_missing_points(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        points = self.SPEC.expand()

        # Partial sweep: only the first curve's points get simulated.
        partial = SweepExecutor(store=ResultStore(path))
        first_curve = [p for p in points if p.pattern == "uniform"]
        partial.run_points(first_curve, TINY)
        assert partial.executed_count == len(first_curve)

        # Resuming against the same file simulates only the remainder.
        resumed = SweepExecutor(store=ResultStore(path))
        results = resumed.run(self.SPEC)
        assert resumed.executed_count == len(points) - len(first_curve)
        assert len(results) == len(points)

        # A third pass is pure cache hits.
        final = SweepExecutor(store=ResultStore(path))
        again = final.run(self.SPEC)
        assert final.executed_count == 0
        assert again == results

    def test_resume_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        executor = SweepExecutor(store=ResultStore(path))
        results = executor.run(self.SPEC)

        # Simulate a crash mid-append: truncate the last line.
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

        resumed = SweepExecutor(store=ResultStore(path))
        again = resumed.run(self.SPEC)
        assert resumed.executed_count == 1  # only the torn point re-ran
        assert again == results
