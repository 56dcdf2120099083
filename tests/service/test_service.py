"""Experiment service integration tests: conformance, dedup, lifecycle.

The acceptance bar of docs/service.md is pinned here:

* results streamed by the daemon are **bitwise-equal** to a local
  ``Session.run`` of the same spec, with identical content-hash store
  keys;
* overlapping specs submitted by concurrent clients produce exactly
  one simulation (one store ``put``) per unique key, and both clients
  receive identical streams for the shared points;
* cancelling a running job leaves the store resumable — no torn
  shards, and a re-submission resumes with the already-stored points
  as hits;
* the daemon survives a client disconnecting mid-stream without
  losing the job.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter

import pytest

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.cli import main
from repro.experiments.runner import Fidelity
from repro.experiments.store import (
    MemoryBackend,
    StoreBackend,
    open_store,
    result_to_dict,
)
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    recv_message,
    send_message,
)
from repro.fabric.transport import make_transport
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.service.errors import ServiceError

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))


def tiny_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        archs=("firefly",),
        bw_sets=(1,),
        patterns=("uniform",),
        seeds=(1,),
        fidelity=TINY,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class CountingBackend(StoreBackend):
    """Memory backend that counts ``put`` calls per key."""

    def __init__(self) -> None:
        self.inner = MemoryBackend()
        self.put_counts: Counter = Counter()
        self._lock = threading.Lock()

    def put(self, key, result):
        with self._lock:
            self.put_counts[key] += 1
        self.inner.put(key, result)

    def get(self, key, coords=None):
        return self.inner.get(key, coords)

    def scan(self, coords=None):
        return self.inner.scan(coords)

    def flush(self):
        self.inner.flush()


@pytest.fixture
def service():
    svc = ExperimentService(max_jobs=2)
    svc.start()
    yield svc
    svc.stop()


def local_run(spec):
    """Reference execution: results + keys from a local Session.run."""
    with Session() as session:
        results = session.run(spec)
        keys = [
            session.executor._key(point, spec.fidelity)
            for point in spec.expand()
        ]
    return results, keys


# ---------------------------------------------------------------------------
# Conformance: service == local, bitwise
# ---------------------------------------------------------------------------

class TestConformance:
    def test_streamed_results_bitwise_equal_local_run(self, service):
        spec = tiny_spec(archs=("firefly", "dhetpnoc"), seeds=(1, 2))
        with ServiceClient(service.address) as client:
            run = client.run_spec(spec)
        expected, expected_keys = local_run(spec)
        assert [result_to_dict(r) for r in run.results] == [
            result_to_dict(r) for r in expected
        ]
        assert run.keys == expected_keys
        assert run.executed == len(expected)
        assert run.hits == 0

    def test_scenario_axis_round_trips(self, service):
        spec = tiny_spec(scenarios=(None, "steady"))
        with ServiceClient(service.address) as client:
            run = client.run_spec(spec)
        expected, expected_keys = local_run(spec)
        assert [result_to_dict(r) for r in run.results] == [
            result_to_dict(r) for r in expected
        ]
        assert run.keys == expected_keys

    def test_results_stream_incrementally_in_grid_order(self, service):
        spec = tiny_spec(seeds=(1, 2))
        indices = []
        with ServiceClient(service.address) as client:
            run = client.run_spec(
                spec,
                on_point=lambda i, key, result, cached: indices.append(i),
            )
        assert indices == list(range(spec.n_points()))
        assert len(run.results) == spec.n_points()

    def test_duplicate_submission_replays_identical_stream(self, service):
        spec = tiny_spec()
        with ServiceClient(service.address) as client:
            first = client.run_spec(spec)
            handle = client.submit(spec, watch=True)
            assert handle.deduped
            again = client.stream(handle.job_id)
        assert again.keys == first.keys
        assert [result_to_dict(r) for r in again.results] == [
            result_to_dict(r) for r in first.results
        ]


# ---------------------------------------------------------------------------
# Concurrent clients: dedup to one simulation per unique key
# ---------------------------------------------------------------------------

class TestConcurrentDedup:
    def _race(self, service, specs):
        """Run one spec per thread through its own client; return JobRuns."""
        runs = [None] * len(specs)
        errors = []
        barrier = threading.Barrier(len(specs))

        def drive(slot, spec):
            try:
                with ServiceClient(service.address) as client:
                    barrier.wait(timeout=10.0)
                    runs[slot] = client.run_spec(spec)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(slot, spec), daemon=True)
            for slot, spec in enumerate(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert all(run is not None for run in runs)
        return runs

    def test_overlapping_specs_simulate_each_key_once(self):
        counting = CountingBackend()
        service = ExperimentService(counting, max_jobs=2)
        service.start()
        try:
            spec_a = tiny_spec(seeds=(1, 2))
            spec_b = tiny_spec(seeds=(2, 3))
            run_a, run_b = self._race(service, [spec_a, spec_b])
            # One simulation (= one store put) per unique key, despite
            # the seed-2 curve appearing in both concurrent jobs.
            assert set(counting.put_counts.values()) == {1}
            shared = set(run_a.keys) & set(run_b.keys)
            assert shared  # the overlap actually exists
            by_key_a = dict(zip(run_a.keys, run_a.results))
            by_key_b = dict(zip(run_b.keys, run_b.results))
            for key in shared:
                assert result_to_dict(by_key_a[key]) == result_to_dict(
                    by_key_b[key]
                )
            # Both streams are bitwise-identical to local execution.
            for spec, run in ((spec_a, run_a), (spec_b, run_b)):
                expected, expected_keys = local_run(spec)
                assert run.keys == expected_keys
                assert [result_to_dict(r) for r in run.results] == [
                    result_to_dict(r) for r in expected
                ]
        finally:
            service.stop()

    @pytest.mark.parametrize("layout", ["jsonl", "sharded"])
    def test_overlapping_jobs_writing_one_shard_leave_it_whole(
        self, tmp_path, layout
    ):
        # Two jobs, two local lanes, one (arch, bw set): every fresh
        # result of both lands in the same file. The file backend's own
        # per-file write lock is all that serialises them — the daemon
        # wraps nothing around the store it is given.
        path = str(tmp_path / ("store.jsonl" if layout == "jsonl" else "shards"))
        service = ExperimentService(path, backend=layout, workers=2, max_jobs=2)
        service.start()
        try:
            assert service.store.backend.sharded == (layout == "sharded")
            spec_a = tiny_spec(seeds=(1, 2, 3))
            spec_b = tiny_spec(seeds=(3, 4, 5))
            run_a, run_b = self._race(service, [spec_a, spec_b])
        finally:
            service.stop()
        unique = set(run_a.keys) | set(run_b.keys)
        (data_file,) = service.store.backend.shard_paths()
        with open(data_file, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]  # every line parses
        on_disk = [line["key"] for line in lines if "key" in line]
        assert sorted(on_disk) == sorted(unique)  # each key exactly once
        reopened = open_store(path, layout)
        assert len(reopened) == len(unique) and reopened.corrupt_lines == 0

    def test_identical_specs_share_one_job(self):
        counting = CountingBackend()
        service = ExperimentService(counting, max_jobs=2)
        service.start()
        try:
            spec = tiny_spec(seeds=(1, 2))
            run_a, run_b = self._race(service, [spec, spec])
            assert run_a.job_id == run_b.job_id
            assert set(counting.put_counts.values()) == {1}
            assert run_a.keys == run_b.keys
            assert [result_to_dict(r) for r in run_a.results] == [
                result_to_dict(r) for r in run_b.results
            ]
        finally:
            service.stop()


# ---------------------------------------------------------------------------
# Cancellation: cooperative, resumable, no torn shards
# ---------------------------------------------------------------------------

class TestCancellation:
    def test_cancel_mid_run_then_resubmit_resumes(self, tmp_path):
        store_dir = tmp_path / "shards"
        service = ExperimentService(
            str(store_dir), backend="sharded", max_jobs=1
        )
        service.start()
        try:
            spec = tiny_spec(seeds=(1, 2, 3, 4, 5, 6))
            with ServiceClient(service.address) as client:
                handle = client.submit(spec)
                record = service.jobs.get(handle.job_id)
                # Let it get partway through, then cancel cooperatively.
                wait_until(
                    lambda: 0 < record.completed < record.total,
                    message="job partway through",
                )
                client.cancel(handle.job_id)
                wait_until(
                    lambda: record.state == "cancelled",
                    message="cooperative cancel",
                )
                stored = record.completed
                assert 0 < stored < spec.n_points()
                status = client.status(handle.job_id)
                assert status["state"] == "cancelled"
        finally:
            service.stop()

        # No torn shards: the store reopens cleanly, holding exactly
        # the completed points.
        reopened = open_store(str(store_dir), "sharded")
        assert reopened.corrupt_lines == 0
        assert len(reopened) == stored

        # A fresh daemon over the same store resumes: already-stored
        # points are hits, only the tail is simulated.
        resumed = ExperimentService(
            str(store_dir), backend="sharded", max_jobs=1
        )
        resumed.start()
        try:
            with ServiceClient(resumed.address) as client:
                run = client.run_spec(spec)
            assert run.hits == stored
            assert run.executed == spec.n_points() - stored
            expected, expected_keys = local_run(spec)
            assert run.keys == expected_keys
            assert [result_to_dict(r) for r in run.results] == [
                result_to_dict(r) for r in expected
            ]
        finally:
            resumed.stop()

    def test_cancelled_stream_reports_terminal_state(self, service):
        spec = tiny_spec(seeds=(1, 2, 3, 4, 5, 6))
        with ServiceClient(service.address) as client:
            handle = client.submit(spec, watch=True)
            record = service.jobs.get(handle.job_id)
            wait_until(lambda: record.completed > 0, message="first point")
            with ServiceClient(service.address) as other:
                other.cancel(handle.job_id)
            with pytest.raises(ServiceError, match="ended cancelled"):
                client.stream(handle.job_id)

    def test_cancel_queued_job_never_runs(self, service):
        # max_jobs=2: occupy both runners with slow jobs first.
        slow_a = tiny_spec(seeds=(10, 11, 12, 13))
        slow_b = tiny_spec(seeds=(20, 21, 22, 23))
        queued = tiny_spec(seeds=(30,))
        with ServiceClient(service.address) as client:
            client.submit(slow_a)
            client.submit(slow_b)
            handle = client.submit(queued)
            assert client.cancel(handle.job_id) == "cancelled"
            record = service.jobs.get(handle.job_id)
            assert record.state == "cancelled"
            assert record.completed == 0


# ---------------------------------------------------------------------------
# Robustness: disconnects, wire errors, admission, backoff
# ---------------------------------------------------------------------------

class TestRobustness:
    def test_client_disconnect_mid_stream_does_not_lose_the_job(
        self, service
    ):
        spec = tiny_spec(seeds=(1, 2, 3, 4))
        client = ServiceClient(service.address)
        handle = client.submit(spec, watch=True)
        record = service.jobs.get(handle.job_id)
        wait_until(lambda: record.completed > 0, message="first point")
        client.close()  # vanish mid-stream
        wait_until(lambda: record.state == "done", message="job completion")
        # A new client replays the full, intact stream.
        with ServiceClient(service.address) as fresh:
            run = fresh.watch(handle.job_id)
        assert len(run.results) == spec.n_points()

    def test_unknown_job_errors_keep_the_connection_usable(self, service):
        with ServiceClient(service.address) as client:
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("job-000000000000")
            # Same connection still serves RPCs afterwards.
            assert client.list_jobs() == []

    def test_bad_spec_is_rejected(self, service):
        with ServiceClient(service.address) as client:
            send_message(client._conn, {
                "type": "job_submit",
                "spec": {"archs": ["no-such-arch"]},
                "watch": False,
            })
            with pytest.raises(ServiceError, match="bad spec"):
                client._expect("job_accepted")

    def test_adaptive_specs_are_rejected(self, service):
        spec = tiny_spec(mode="adaptive")
        with ServiceClient(service.address) as client:
            with pytest.raises(ServiceError, match="grid specs"):
                client.submit(spec)

    def test_admission_control_over_the_wire(self):
        service = ExperimentService(max_jobs=1, max_pending=1)
        service.start()
        try:
            with ServiceClient(service.address) as client:
                client.submit(tiny_spec(seeds=(1, 2, 3, 4)))  # running
                client.submit(tiny_spec(seeds=(5,)))  # queued
                with pytest.raises(ServiceError, match="capacity"):
                    client.submit(tiny_spec(seeds=(6,)))
        finally:
            service.stop()

    def test_wrong_role_is_rejected(self, service):
        conn = make_transport("tcp").connect(service.address)
        try:
            send_message(conn, {
                "type": "hello", "role": "worker",
                "version": PROTOCOL_VERSION,
            })
            reply = recv_message(conn)
            assert reply["type"] == "error"
            assert "role" in reply["error"]
        finally:
            conn.close()

    def test_version_mismatch_is_rejected(self, service):
        conn = make_transport("tcp").connect(service.address)
        try:
            send_message(conn, {
                "type": "hello", "role": "jobs", "version": 999,
            })
            reply = recv_message(conn)
            assert reply["type"] == "error"
            assert "version" in reply["error"]
        finally:
            conn.close()

    def test_client_backoff_wins_the_bind_race(self):
        # Reserve a port, then start the daemon *after* the client has
        # begun dialling: bounded exponential backoff absorbs the race
        # that launcher-side sleep loops used to paper over.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        service = ExperimentService(host=host, port=port)

        def start_late():
            time.sleep(0.5)
            service.start()

        starter = threading.Thread(target=start_late, daemon=True)
        starter.start()
        try:
            with ServiceClient((host, port), connect_attempts=8) as client:
                run = client.run_spec(tiny_spec())
            assert run.executed == tiny_spec().n_points()
        finally:
            starter.join(timeout=10.0)
            service.stop()

    def test_unreachable_service_raises_service_error(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient(
                ("127.0.0.1", 1), connect_attempts=1, connect_timeout=0.2
            )


# ---------------------------------------------------------------------------
# CLI: run --spec --service
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_spec_via_service(self, service, tmp_path, capsys):
        spec = tiny_spec(archs=("firefly", "dhetpnoc"))
        path = tmp_path / "spec.json"
        spec.save(str(path))
        host, port = service.address
        code = main([
            "run", "--spec", str(path), "--service", f"{host}:{port}",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "done: 4 point(s), 4 simulated, 0 from store" in out
        assert "Saturation peaks" in out

    def test_service_and_fabric_are_mutually_exclusive(
        self, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        tiny_spec().save(str(path))
        code = main([
            "run", "--spec", str(path),
            "--service", "localhost:7123", "--fabric", "localhost:7023",
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Dry-run costing (satellite: run --spec --dry-run price line)
# ---------------------------------------------------------------------------

class TestDryRunCost:
    def test_dry_run_prints_cost_estimate(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.experiments import costing

        record = tmp_path / "BENCH_1.json"
        record.write_text(
            '{"workloads": {"photonic_busy": {"metrics": '
            '{"sim_cycles_per_s": {"value": 10000.0, "unit": "cycles/s"}}}}}'
        )
        monkeypatch.setenv(costing.BASELINE_ENV, str(record))
        path = tmp_path / "spec.json"
        tiny_spec().save(str(path))
        code = main(["run", "--spec", str(path), "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run: 1 curve(s), 2 grid point(s)" in out
        assert ("estimated cost: ~0.1s wall (2 sims x ~0.07s each "
                "across 1 workers)") in out

    def test_dry_run_without_baseline_prints_no_estimate(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import costing

        monkeypatch.setenv(
            costing.BASELINE_ENV, str(tmp_path / "missing.json")
        )
        path = tmp_path / "spec.json"
        tiny_spec().save(str(path))
        code = main(["run", "--spec", str(path), "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run:" in out
        assert "estimated cost" not in out
