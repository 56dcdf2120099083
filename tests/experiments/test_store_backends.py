"""Backend-conformance suite for the pluggable result-store backends.

Every persistent backend must honour the same contract: put/get
roundtrip, durable resume after a partial sweep, tolerance of corrupt
lines, and a compaction that preserves exactly the latest record per
key. The suite runs the same assertions against both layouts of
:class:`JsonlBackend` (one file, a directory of shards); sharded-only
guarantees (index headers, lazy per-shard loading) get their own tests.
"""

import dataclasses
import glob
import json
import os
from collections import Counter

import pytest

import repro.experiments.store as store_mod
from repro.experiments.runner import RunResult
from repro.experiments.store import (
    JsonlBackend,
    MemoryBackend,
    ResultStore,
    make_backend,
    open_store,
    shard_filename,
)
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor

from support import TINY, CountingBackend, tiny_spec

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

OTHER = dataclasses.replace(SAMPLE, arch="dhetpnoc", delivered_gbps=433.78)


@pytest.fixture(params=["jsonl", "sharded"])
def factory(request, tmp_path):
    """Builds fresh stores over the same on-disk storage."""
    if request.param == "jsonl":
        path = str(tmp_path / "store.jsonl")
    else:
        path = str(tmp_path / "shards")

    def make() -> ResultStore:
        return open_store(path, request.param)

    make.path = path
    make.kind = request.param
    return make


def _data_files(factory):
    """Every JSONL file the storage currently consists of."""
    if factory.kind == "jsonl":
        return [factory.path] if os.path.exists(factory.path) else []
    return sorted(glob.glob(os.path.join(factory.path, "*.jsonl")))


def _append_line(path: str, line: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


class TestConformance:
    def test_put_get_roundtrip_and_reopen(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        store.put("kb", OTHER)
        assert store.get("ka") == SAMPLE
        assert store.get("kb") == OTHER
        assert store.get("absent") is None

        reopened = factory()
        assert reopened.get("ka") == SAMPLE
        assert reopened.get("kb") == OTHER
        assert len(reopened) == 2
        assert dict(iter(reopened)) == {"ka": SAMPLE, "kb": OTHER}

    def test_coords_hint_roundtrip(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        reopened = factory()
        assert reopened.get("ka", (SAMPLE.arch, SAMPLE.bw_set_index)) == SAMPLE
        assert reopened.contains("ka", (SAMPLE.arch, SAMPLE.bw_set_index))

    def test_scan_with_and_without_coords(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        store.put("kb", OTHER)
        assert dict(store.backend.scan()) == {"ka": SAMPLE, "kb": OTHER}
        only = dict(store.backend.scan((SAMPLE.arch, SAMPLE.bw_set_index)))
        assert only == {"ka": SAMPLE}

    def test_flush_is_safe(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        store.flush()
        assert factory().get("ka") == SAMPLE

    def test_reput_after_clear_does_not_duplicate_lines(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        store.clear()
        store.put("ka", SAMPLE)
        total_lines = sum(
            1
            for path in _data_files(factory)
            for line in open(path, encoding="utf-8")
            if '"key"' in line
        )
        assert total_lines == 1

    def test_clear_then_scan_is_empty_and_reput_restores(self, factory):
        """Regression: after clear(), coords-restricted scans must see
        an empty view (not crash on stale shard indexes), and a re-put
        makes the record visible to both scan forms again."""
        store = factory()
        store.put("ka", SAMPLE)
        coords = (SAMPLE.arch, SAMPLE.bw_set_index)
        store.clear()
        assert list(store.backend.scan(coords)) == []
        assert list(store.backend.scan()) == []
        store.put("ka", SAMPLE)
        assert dict(store.backend.scan(coords)) == {"ka": SAMPLE}
        assert dict(store.backend.scan()) == {"ka": SAMPLE}

    def test_resume_after_partial_sweep(self, factory):
        spec = ExperimentSpec(
            archs=("firefly", "dhetpnoc"),
            bw_sets=(1,),
            patterns=("uniform",),
            seeds=(1,),
            fidelity=TINY,
        )
        points = spec.expand()
        first = [p for p in points if p.arch == "firefly"]

        partial = SweepExecutor(store=factory())
        partial.run_points(first, TINY)
        assert partial.executed_count == len(first)

        resumed = SweepExecutor(store=factory())
        results = resumed.run(spec)
        assert resumed.executed_count == len(points) - len(first)
        assert len(results) == len(points)

        final = SweepExecutor(store=factory())
        assert final.run(spec) == results
        assert final.executed_count == 0

    def test_corrupt_lines_tolerated(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        (path,) = _data_files(factory)
        _append_line(path, "{ not json at all")
        _append_line(path, '{"key": "missing-result-field"}')
        _append_line(path, '{"key": "torn", "result": {"arch": "fir')

        reloaded = factory()
        assert reloaded.get("ka") == SAMPLE
        assert len(reloaded) == 1
        assert reloaded.corrupt_lines == 3

    def test_a_line_holding_anything_but_one_record_is_corrupt(self, factory):
        """Glued records, a record trailed by junk, bare JSON values, a
        line opening on no JSON value, a record without its result:
        each is one corrupt line, loads nothing, and compaction drops
        it."""
        glued = [store_mod._record_line(k, SAMPLE) for k in ("kg1", "kg2")]
        trailed = store_mod._record_line("kt", SAMPLE)
        corrupt = [
            glued[0] + glued[1],
            glued[0] + " " + glued[1],
            trailed + " x",
            trailed + "}",
            "1", '"s"', "null", "[]",
            "x" + trailed,
            "\ufeff" + trailed,
            '{"key": "no-result"}',
        ]
        factory().put("ka", SAMPLE)
        (path,) = _data_files(factory)
        for line in corrupt:
            _append_line(path, line)

        reloaded = factory()
        assert dict(iter(reloaded)) == {"ka": SAMPLE}
        assert reloaded.corrupt_lines == len(corrupt)
        stats = reloaded.compact()
        assert stats.lines_before == len(corrupt) + 1
        assert (stats.corrupt_dropped, stats.records_after) == (len(corrupt), 1)
        assert factory().corrupt_lines == 0
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[-1] == store_mod._record_line("ka", SAMPLE)
        assert len(lines) == (2 if factory.kind == "sharded" else 1)

    def test_compaction_preserves_latest_record_per_key(self, factory):
        store = factory()
        store.put("ka", SAMPLE)
        store.put("kb", OTHER)
        # Simulate duplicate appends (e.g. two concurrent writers): a
        # later line for "ka" with a different payload must win.
        newer = dataclasses.replace(SAMPLE, delivered_gbps=999.0)
        path = next(
            p for p in _data_files(factory)
            if any(json.loads(line).get("key") == "ka"
                   for line in open(p, encoding="utf-8")
                   if '"key"' in line)
        )
        _append_line(path, store_mod._record_line("ka", newer))
        _append_line(path, "corrupt trailing line")

        before = factory()
        assert before.get("ka") == newer  # latest wins on load
        assert before.get("kb") == OTHER

        stats = before.compact()
        assert stats.duplicates_dropped == 1
        assert stats.corrupt_dropped == 1
        assert stats.records_after == 2

        after = factory()
        assert after.corrupt_lines == 0
        assert len(after) == 2
        # Identical get results before and after compaction.
        assert after.get("ka") == before.get("ka") == newer
        assert after.get("kb") == before.get("kb") == OTHER
        # Exactly one record line per key remains.
        lines = [
            line
            for p in _data_files(factory)
            for line in open(p, encoding="utf-8")
            if '"key"' in line
        ]
        assert len(lines) == 2

    def test_compact_empty_store_is_safe(self, factory):
        stats = factory().compact()
        assert stats.records_after == 0

    def test_put_after_a_torn_tail_is_not_lost(self, factory):
        """A crashed writer's unterminated fragment must stay one
        corrupt line: the next acknowledged put may not be glued onto
        it (and dropped with it on reopen)."""
        factory().put("ka", SAMPLE)
        (path,) = _data_files(factory)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "kb", "result": {"arch": "fir')  # no newline

        reopened = factory()
        assert len(reopened) == 1 and reopened.corrupt_lines == 1
        later = dataclasses.replace(SAMPLE, offered_gbps=700.0)
        reopened.put("kc", later)
        reopened.put("kd", SAMPLE)  # only the first append pays the check

        final = factory()
        assert dict(iter(final)) == {"ka": SAMPLE, "kc": later, "kd": SAMPLE}
        assert final.corrupt_lines == 1

    def test_compaction_syncs_before_replacing_and_sweeps_stale_temps(
        self, factory, monkeypatch
    ):
        store = factory()
        store.put("ka", SAMPLE)
        (path,) = _data_files(factory)
        # What a compaction that crashed before its replace leaves behind
        # (for a shard directory, also one whose shard is since gone).
        stale = [path + ".compact.tmp"]
        if factory.kind == "sharded":
            stale.append(os.path.join(factory.path, "gone-set9.jsonl.compact.tmp"))
        for tmp in stale:
            _append_line(tmp, store_mod._record_line("ghost", OTHER))

        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            store_mod.os, "fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            store_mod.os, "replace",
            lambda src, dst: (calls.append("replace"), real_replace(src, dst))[1],
        )
        store.compact()
        assert calls == ["fsync", "replace"]
        assert not any(os.path.exists(tmp) for tmp in stale)
        assert dict(iter(factory())) == {"ka": SAMPLE}


class TestShardedLayout:
    def test_one_shard_per_arch_bwset_with_header(self, tmp_path):
        root = str(tmp_path / "shards")
        store = open_store(root, "sharded")
        store.put("ka", SAMPLE)
        store.put("kb", OTHER)
        paths = store.backend.shard_paths()
        assert [os.path.basename(p) for p in paths] == [
            shard_filename("dhetpnoc", 1),
            shard_filename("firefly", 1),
        ]
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                header = json.loads(fh.readline())
            assert header["shard"]["bw_set"] == 1
            assert header["shard"]["arch"] in ("firefly", "dhetpnoc")

    def test_get_with_coords_reads_only_that_shard(self, tmp_path):
        root = str(tmp_path / "shards")
        seeded = open_store(root, "sharded")
        seeded.put("ka", SAMPLE)
        seeded.put("kb", OTHER)

        fresh = open_store(root, "sharded")
        assert fresh.get("ka", ("firefly", 1)) == SAMPLE
        assert fresh.backend.read_paths == [
            os.path.join(root, shard_filename("firefly", 1))
        ]

    def test_resume_restricted_sweep_reads_only_needed_shard(
        self, tmp_path, monkeypatch
    ):
        """Acceptance criterion: resuming a sweep restricted to one
        (arch, bandwidth-set) pair opens only that pair's shard file."""
        root = str(tmp_path / "shards")
        full_spec = ExperimentSpec(
            archs=("firefly", "dhetpnoc"),
            bw_sets=(1,),
            patterns=("uniform",),
            seeds=(1,),
            fidelity=TINY,
        )
        SweepExecutor(store=open_store(root, "sharded")).run(full_spec)
        assert len(os.listdir(root)) == 2

        opened = []
        real_open = store_mod._open_for_read

        def spying_open(path):
            opened.append(path)
            return real_open(path)

        monkeypatch.setattr(store_mod, "_open_for_read", spying_open)

        restricted = ExperimentSpec(
            archs=("firefly",),
            bw_sets=(1,),
            patterns=("uniform",),
            seeds=(1,),
            fidelity=TINY,
        )
        resumed = SweepExecutor(store=open_store(root, "sharded"))
        results = resumed.run(restricted)
        assert resumed.executed_count == 0  # pure cache hits
        assert len(results) == restricted.n_points()
        firefly_shard = os.path.join(root, shard_filename("firefly", 1))
        assert opened == [firefly_shard]  # the other shard stayed cold

    def test_clear_hides_all_shards_uniformly(self, tmp_path):
        """Regression: clear() must not let a not-yet-loaded shard
        resurrect its records while a loaded shard stays empty."""
        root = str(tmp_path / "shards")
        seeded = open_store(root, "sharded")
        seeded.put("ka", SAMPLE)
        seeded.put("kb", OTHER)

        fresh = open_store(root, "sharded")
        assert fresh.get("ka", ("firefly", 1)) == SAMPLE  # loads one shard
        fresh.clear()
        # Both the loaded and the never-loaded shard are invisible now.
        assert fresh.get("ka", ("firefly", 1)) is None
        assert fresh.get("kb", ("dhetpnoc", 1)) is None
        assert list(iter(fresh)) == []
        assert len(fresh) == 0
        # Disk state is untouched: a reopened store sees everything.
        assert len(open_store(root, "sharded")) == 2

    def test_unhinted_get_falls_back_to_full_load(self, tmp_path):
        root = str(tmp_path / "shards")
        seeded = open_store(root, "sharded")
        seeded.put("ka", SAMPLE)
        seeded.put("kb", OTHER)
        fresh = open_store(root, "sharded")
        assert fresh.get("kb") == OTHER  # no coords: loads everything
        assert len(fresh.backend.read_paths) == 2

    def test_shard_record_counts(self, tmp_path):
        root = str(tmp_path / "shards")
        store = open_store(root, "sharded")
        store.put("ka", SAMPLE)
        store.put("kb", OTHER)
        counts = store.backend.shard_record_counts()
        assert counts == {
            shard_filename("firefly", 1): 1,
            shard_filename("dhetpnoc", 1): 1,
        }


class LookupCounting(CountingBackend):
    """Counts ``get`` calls per key too: a membership test through the
    default ``contains`` is one."""

    def __init__(self) -> None:
        super().__init__()
        self.get_counts: Counter = Counter()

    def get(self, key, coords=None):
        self.get_counts[key] += 1
        return super().get(key, coords)


#: Three points, two keys: a load rounds to 9 decimals before it is
#: hashed, so the first two points are one simulation.
TWIN_SPEC = tiny_spec(load_fractions=(0.3, 0.3 + 1e-14, 0.8))


class TestOneLookupPerPoint:
    def test_a_full_resume_gets_each_point_once(self):
        """The plan's lookup is the only one: one ``get`` per key of a
        grid without repeats, one per point of a grid with a twin."""
        backend = LookupCounting()
        with Session(backend) as session:
            cold = session.run(TWIN_SPEC)
            for spec, expected in ((tiny_spec(), [cold[0], cold[2]]),
                                   (TWIN_SPEC, cold)):
                keys = [session.executor._key(p, TINY) for p in spec.expand()]
                backend.get_counts.clear()
                assert session.run(spec) == expected
                assert session.executed_count == 0
                assert backend.get_counts == Counter(keys)
        assert len(keys) == 3 and len(set(keys)) == 2

    def test_dry_run_predicts_the_run_with_a_repeated_key(self):
        with Session(LookupCounting()) as session:
            session.run(tiny_spec(load_fractions=(0.8,)))
            assert session.dry_run(TWIN_SPEC).to_simulate == 1
            session.run(TWIN_SPEC)
            assert session.executed_count == 1
            assert session.dry_run(TWIN_SPEC).to_simulate == 0

    def test_a_partial_store_simulates_only_its_misses(self):
        with Session() as cold:
            reference = cold.run(TWIN_SPEC)
        backend = LookupCounting()
        with Session(backend) as session:
            session.run(tiny_spec(load_fractions=(0.8,)))
            backend.put_counts.clear()
            assert session.run(TWIN_SPEC) == reference
            assert session.executed_count == 1
        assert backend.puts == 1


class TestFactory:
    def test_auto_picks_memory_without_path(self):
        assert isinstance(make_backend("auto"), MemoryBackend)

    def test_auto_picks_jsonl_for_file_path(self, tmp_path):
        backend = make_backend("auto", str(tmp_path / "store.jsonl"))
        assert isinstance(backend, JsonlBackend) and not backend.sharded

    def test_auto_picks_sharded_for_directory(self, tmp_path):
        existing = tmp_path / "shards"
        existing.mkdir()
        assert make_backend("auto", str(existing)).sharded
        created = make_backend("auto", str(tmp_path / "new") + "/")
        assert created.sharded and created.path == str(tmp_path / "new")

    def test_explicit_names(self, tmp_path):
        assert isinstance(make_backend("memory"), MemoryBackend)
        assert not make_backend("jsonl", str(tmp_path / "a.jsonl")).sharded
        assert make_backend("sharded", str(tmp_path / "s")).sharded

    def test_path_required_errors(self):
        with pytest.raises(ValueError):
            make_backend("jsonl")
        with pytest.raises(ValueError):
            make_backend("sharded")
        with pytest.raises(ValueError):
            make_backend("postgres", "x")

    def test_resultstore_default_backends_unchanged(self, tmp_path):
        assert isinstance(ResultStore().backend, MemoryBackend)
        backend = ResultStore(str(tmp_path / "s.jsonl")).backend
        assert isinstance(backend, JsonlBackend) and not backend.sharded


class TestStoreCli:
    def test_info_and_compact_commands(self, tmp_path, capsys):
        from repro.experiments.cli import main

        root = str(tmp_path / "shards")
        store = open_store(root, "sharded")
        store.put("ka", SAMPLE)
        store.put("kb", OTHER)
        newer = dataclasses.replace(SAMPLE, delivered_gbps=999.0)
        _append_line(
            os.path.join(root, shard_filename("firefly", 1)),
            store_mod._record_line("ka", newer),
        )

        assert main(["store", "info", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "backend: JsonlBackend (sharded)" in out
        assert shard_filename("firefly", 1) in out

        assert main(["store", "compact", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "1 duplicates" in out
        assert open_store(root, "sharded").get("ka") == newer

    def test_info_lists_files_the_same_way_for_both_layouts(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        tables = {}
        for kind, path in (
            ("jsonl", str(tmp_path / "firefly-set1.jsonl")),
            ("sharded", str(tmp_path / "shards")),
        ):
            open_store(path, kind).put("ka", SAMPLE)
            assert main(["store", "info", "--store", path]) == 0
            out = capsys.readouterr().out
            assert f"backend: JsonlBackend ({kind})" in out
            tables[kind] = out[out.index("Shards"):].splitlines()
        # Same table, row for row — only the byte count differs (the
        # shard's index header).
        assert len(tables["jsonl"]) == len(tables["sharded"])
        for one_file, shard in zip(tables["jsonl"], tables["sharded"]):
            assert one_file.split()[:-1] == shard.split()[:-1]
