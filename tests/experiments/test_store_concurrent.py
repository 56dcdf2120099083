"""Store backends under concurrent writers.

The file backends' durability story for multi-writer setups (several
fabric workers, or a fabric coordinator plus a local sweep, appending
to the same store) rests on one property: ``put`` appends **one whole
line per fresh key** to a file opened in append mode and flushes it.
POSIX ``O_APPEND`` writes of one buffered line land atomically, so two
processes interleave *records*, never *bytes within a record*. These
tests pin that: N-writer appends must all survive a fresh load with
zero corrupt lines, and a torn line planted by a crashed writer must
be skipped without taking any neighbouring record down.

Threads *sharing one backend* get more: the backend holds a write lock
per file it appends to, so the load / "is it on disk yet" / append
sequence of a ``put`` is one writer at a time and every key lands on
disk exactly once — with no wrapper around the backend.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.experiments.runner import RunResult
from repro.experiments.store import (
    JsonlBackend,
    ResultStore,
    result_to_dict,
)

#: Records appended by each concurrent writer process.
N_RECORDS = 25


def _result(arch: str, index: int) -> RunResult:
    return RunResult(
        arch=arch,
        pattern="uniform",
        bw_set_index=1,
        offered_gbps=100.0 + index,
        delivered_gbps=90.0 + index,
        photonic_gbps=80.0 + index,
        per_core_gbps=1.5,
        energy_per_message_pj=11.0,
        mean_latency_cycles=300.0 + index,
        acceptance_ratio=0.9,
        packets_delivered=1000 + index,
        reservations_nacked=index,
        laser_power_mw=640.0,
        lit_wavelengths=64,
    )


#: Child-process body: append N records to the store at argv[1] using
#: the backend named in argv[2], tagging keys with argv[3].
_WRITER = textwrap.dedent(
    """
    import sys

    from repro.experiments.store import JsonlBackend, result_from_dict

    path, backend_name, tag, payload = sys.argv[1:5]
    import json
    records = json.loads(payload)
    backend = JsonlBackend(path, sharded=backend_name == "sharded")
    for index, data in enumerate(records):
        backend.put(f"{tag}-{index}", result_from_dict(data))
    backend.flush()
    """
)


def _spawn_writer(path: str, backend_name: str, tag: str, arch: str):
    payload = json.dumps(
        [result_to_dict(_result(arch, i)) for i in range(N_RECORDS)]
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER, path, backend_name, tag, payload],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _run_writers(path: str, backend_name: str):
    writers = [
        _spawn_writer(path, backend_name, "alpha", "firefly"),
        _spawn_writer(path, backend_name, "beta", "dhetpnoc"),
    ]
    for proc in writers:
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err


@pytest.mark.parametrize("backend_name", ["jsonl", "sharded"])
class TestConcurrentWriters:
    def _path(self, tmp_path, backend_name: str) -> str:
        if backend_name == "jsonl":
            return str(tmp_path / "store.jsonl")
        return str(tmp_path / "shards")

    def _fresh_backend(self, path: str, backend_name: str):
        return JsonlBackend(path, sharded=backend_name == "sharded")

    def test_two_processes_interleave_without_corruption(
        self, tmp_path, backend_name
    ):
        path = self._path(tmp_path, backend_name)
        _run_writers(path, backend_name)

        backend = self._fresh_backend(path, backend_name)
        records = dict(backend.scan())
        assert len(records) == 2 * N_RECORDS
        assert backend.corrupt_lines == 0
        for index in range(N_RECORDS):
            assert records[f"alpha-{index}"] == _result("firefly", index)
            assert records[f"beta-{index}"] == _result("dhetpnoc", index)

    def test_torn_lines_tolerated_alongside_live_writers(
        self, tmp_path, backend_name
    ):
        # Two shapes of damage a crashed writer can leave, both planted
        # *before* the live writers: a line whose payload was truncated
        # but whose newline survived, and an unterminated tail (the
        # crash came mid-line). The first append after the tail must
        # end it with a newline — otherwise that writer's record is
        # glued onto the fragment and lost with it. Every record the
        # live writers append must survive both.
        path = self._path(tmp_path, backend_name)
        seed = self._fresh_backend(path, backend_name)
        seed.put("seed-0", _result("firefly", 999))
        seed.flush()
        if backend_name == "jsonl":
            torn_file = path
        else:
            (torn_file,) = [
                os.path.join(path, f) for f in os.listdir(path)
                if f.endswith(".jsonl")
            ]
        with open(torn_file, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn-mid", "result": {"arch": "fire\n')
            fh.write('{"key": "torn-tail", "result": {"arch')  # no newline

        _run_writers(path, backend_name)

        backend = self._fresh_backend(path, backend_name)
        records = dict(backend.scan())
        assert backend.corrupt_lines == 2  # both torn lines, nothing else
        assert records["seed-0"] == _result("firefly", 999)
        assert len(records) == 2 * N_RECORDS + 1
        for index in range(N_RECORDS):
            assert records[f"alpha-{index}"] == _result("firefly", index)
            assert records[f"beta-{index}"] == _result("dhetpnoc", index)
        # Compaction scrubs the torn lines for good.
        stats = backend.compact()
        assert stats.corrupt_dropped == 2
        clean = self._fresh_backend(path, backend_name)
        assert dict(clean.scan()) == records
        assert clean.corrupt_lines == 0

    def test_store_layer_sees_every_record(self, tmp_path, backend_name):
        path = self._path(tmp_path, backend_name)
        _run_writers(path, backend_name)
        store = ResultStore(backend=self._fresh_backend(path, backend_name))
        assert len(store) == 2 * N_RECORDS
        assert store.get("alpha-0", ("firefly", 1)) == _result("firefly", 0)
        assert store.corrupt_lines == 0

    def test_threads_sharing_one_backend_write_each_key_once(
        self, tmp_path, backend_name
    ):
        # More writers than cores, all into one (arch, bw set) — one
        # shard, or the one file — of a single shared backend. Each
        # thread puts its own keys plus a set every thread puts: the
        # per-file lock makes the check-then-append of a `put` atomic,
        # so the shared keys land once, not once per racing thread.
        path = self._path(tmp_path, backend_name)
        backend = self._fresh_backend(path, backend_name)
        n_threads, errors = 8, []
        start = threading.Barrier(n_threads)

        def write(tag: int) -> None:
            try:
                start.wait(timeout=30.0)
                for index in range(N_RECORDS):
                    backend.put(f"shared-{index}", _result("firefly", index))
                    backend.put(f"own-{tag}-{index}", _result("firefly", index))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(tag,), daemon=True)
            for tag in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)

        (data_file,) = backend.shard_paths()
        with open(data_file, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        keys = [line["key"] for line in lines if "key" in line]
        assert len(keys) == len(set(keys)) == (n_threads + 1) * N_RECORDS
        assert len(lines) - len(keys) == (backend_name == "sharded")  # header
        reopened = self._fresh_backend(path, backend_name)
        assert dict(reopened.scan()) == dict(backend.scan())
        assert reopened.corrupt_lines == 0
