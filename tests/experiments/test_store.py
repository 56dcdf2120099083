"""Tests for the JSONL-backed result store (repro.experiments.store)."""

import copy
import dataclasses
import hashlib
import json
import typing

from hypothesis import given, settings, strategies as st

from repro.api.base import canonical_json
from repro.experiments.runner import (
    PAPER_FIDELITY,
    QUICK_FIDELITY,
    Fidelity,
    RunResult,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    _BW_SET_FIELDS,
    ResultStore,
    _record_line,
    config_fingerprint,
    result_from_dict,
    result_key,
    result_to_dict,
)
from repro.scenarios.schedule import PhaseStats
from repro.arch.config import SystemConfig
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor
from repro.traffic.bandwidth_sets import BANDWIDTH_SETS

from support import TINY

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


#: Scalars a record carries, with the edge cases the JSON form must keep:
#: ``-0.0`` (``==`` to ``0.0``, but not the same bytes), infinities and
#: ints past 64 bits. NaN is left out: it is never ``==`` to itself.
_SCALARS = {
    int: st.one_of(st.integers(), st.just(2**64 + 1), st.just(-(2**70))),
    float: st.one_of(st.just(-0.0), st.floats(allow_nan=False)),
    str: st.text(max_size=8),
}


def _records(cls, **special):
    """Instances of a flat dataclass, each field drawn by its type."""
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        f.name: special[f.name] if f.name in special else _SCALARS[hints[f.name]]
        for f in dataclasses.fields(cls)
    })


RESULTS = _records(
    RunResult,
    scenario=st.one_of(st.none(), st.text(max_size=8)),
    phases=st.lists(_records(PhaseStats), max_size=3).map(tuple),
)


class TestCodecProperties:
    """The record codec against ``dataclasses.asdict`` as its reference."""

    @given(RESULTS)
    def test_encodes_as_asdict(self, result):
        data = result_to_dict(result)
        reference = dataclasses.asdict(result)
        assert data == reference
        assert canonical_json(data) == canonical_json(reference)
        assert _record_line("k", result) == canonical_json(
            {"key": "k", "result": reference}
        )

    @given(RESULTS)
    def test_round_trips_through_canonical_json(self, result):
        line = canonical_json(result_to_dict(result))
        back = result_from_dict(json.loads(line))
        assert back == result
        assert canonical_json(result_to_dict(back)) == line

    @given(RESULTS)
    def test_unknown_keys_ignored_at_both_levels(self, result):
        data = json.loads(canonical_json(result_to_dict(result)))
        data["added_in_a_future_schema"] = 1
        for phase in data["phases"]:
            phase["added_in_a_future_schema"] = [2]
        assert result_from_dict(data) == result

    @given(RESULTS)
    def test_empty_missing_and_null_phases(self, result):
        data = json.loads(canonical_json(result_to_dict(result)))
        data["phases"] = []
        assert result_from_dict(data).phases == ()
        del data["phases"]
        assert result_from_dict(data).phases == ()
        # A null ``phases`` decodes to ``None`` and re-encodes as null.
        data["phases"] = None
        back = result_from_dict(data)
        assert back.phases is None
        assert result_to_dict(back) == dataclasses.asdict(back) == data
        assert canonical_json(result_to_dict(back)) == canonical_json(data)

    @given(RESULTS)
    def test_never_mutates_its_input(self, result):
        data = json.loads(canonical_json(result_to_dict(result)))
        data["added_in_a_future_schema"] = 1
        for phase in data["phases"]:
            phase["added_in_a_future_schema"] = 2
        before = copy.deepcopy(data)
        result_from_dict(data)
        assert data == before
        assert canonical_json(data) == canonical_json(before)


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


def reference_key(arch, bw_set_index, pattern, offered_gbps, seed, fidelity,
                  config_digest, bw_set=None, scenario=None,
                  scenario_digest=None):
    """``result_key`` as the generic encoder writes it: the identity
    dict, ``canonical_json``, SHA-256."""
    identity = {
        "v": SCHEMA_VERSION,
        "arch": arch,
        "bw_set": bw_set_index,
        "pattern": pattern,
        "offered_gbps": round(float(offered_gbps), 9),
        "seed": int(seed),
        "total_cycles": fidelity.total_cycles,
        "reset_cycles": fidelity.reset_cycles,
        "config": config_digest,
    }
    if bw_set is not None:
        identity["bw_set_fields"] = _BW_SET_FIELDS.to_dict(bw_set)
    if scenario is not None:
        identity["scenario"] = {"name": scenario, "fp": scenario_digest}
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


#: Text with the characters JSON escapes: quotes, backslashes, control
#: characters, and non-ASCII ones beyond the basic plane.
KEY_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028é\U0001f600')
)

#: Offered loads, the awkward ones drawn often: signed zeros,
#: subnormals, a float repr switches to exponent form at, NaN, inf.
KEY_LOADS = st.one_of(
    st.floats(),
    st.sampled_from([
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 5e-10,
        123.4567890125, float("nan"), float("inf"), float("-inf"),
    ]),
)


class TestResultKeyBytes:
    @settings(max_examples=200)
    @given(
        arch=KEY_TEXT, pattern=KEY_TEXT, digest=KEY_TEXT,
        bw_set_index=st.integers(-5, 10**6),
        offered=KEY_LOADS,
        seed=st.integers(-(2**80), 2**80),
        fidelity=st.sampled_from([PAPER_FIDELITY, QUICK_FIDELITY]),
        bw_set=st.none() | st.sampled_from(BANDWIDTH_SETS),
        scenario=st.none() | st.tuples(KEY_TEXT, KEY_TEXT),
    )
    def test_key_is_the_canonical_identity_hash(
        self, arch, pattern, digest, bw_set_index, offered, seed, fidelity,
        bw_set, scenario,
    ):
        name, fingerprint = scenario or (None, None)
        assert result_key(
            arch, bw_set_index, pattern, offered, seed, fidelity,
            config_digest=digest, bw_set=bw_set, scenario=name,
            scenario_digest=fingerprint,
        ) == reference_key(
            arch, bw_set_index, pattern, offered, seed, fidelity, digest,
            bw_set, name, fingerprint,
        )


class TestStorePersistence:
    def test_in_memory_round_trip(self):
        store = ResultStore()
        store.put("k", SAMPLE)
        assert store.contains("k") and store.get("k") == SAMPLE
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
