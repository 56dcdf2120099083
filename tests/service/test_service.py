"""Experiment service integration tests: streaming, dedup, lifecycle.

That streamed results are bitwise-equal to a local ``Session.run``
under identical store keys is the ``jobs`` columns of
``tests/experiments/test_lane_matrix.py``. The rest of the acceptance
bar of docs/service.md is pinned here:

* results stream incrementally in grid order, and a duplicate
  submission or a later watch replays the identical stream, byte for
  byte; a watcher attaching mid-job gets the prefix, then the live
  tail; a client refuses a stream that skips or repeats an index;
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
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.experiments.cli import main
from repro.experiments.runner import RunResult
from repro.experiments.store import open_store, result_to_dict
from repro.experiments.sweep import execute_item
from repro.fabric.coordinator import Coordinator
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    recv_message,
    send_frames,
    send_message,
)
from repro.fabric.server import dial
from repro.fabric.transport import Connection, make_transport
from repro.service.client import ServiceClient
from repro.service.errors import ServiceError

from support import (
    CountingBackend,
    local_run,
    serving,
    tiny_spec,
    wait_until,
    wire_frame,
    within,
)


#: Nothing listens on port 1: a client dialling it is refused at once.
DEAD = "127.0.0.1:1"


@pytest.fixture
def service():
    svc = Coordinator(workers=1, max_jobs=2)
    svc.start()
    yield svc
    svc.stop()


# ---------------------------------------------------------------------------
# Streaming: grid order, identical replays
# ---------------------------------------------------------------------------

class TestConformance:
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


class Tap(Connection):
    """Wraps a connection and keeps every byte received through it."""

    def __init__(self, inner: Connection) -> None:
        self.inner = inner
        self.received = bytearray()

    def send_bytes(self, data: bytes) -> None:
        self.inner.send_bytes(data)

    def recv_bytes(self, n: int) -> bytes:
        data = self.inner.recv_bytes(n)
        self.received += data
        return data

    def close(self) -> None:
        self.inner.close()

    def take(self) -> bytes:
        """The bytes received since the last call."""
        data = bytes(self.received)
        self.received.clear()
        return data


class TestStoredFrames:
    def test_a_replay_resends_the_live_streams_bytes(self, service):
        spec = tiny_spec(seeds=(1, 2))
        with ServiceClient(service.address) as client:
            tap = client._conn = Tap(client._conn)
            handle = client.submit(spec, watch=True)
            tap.take()  # job_accepted
            client.stream(handle.job_id)
            live = tap.take()
            client.watch(handle.job_id)
            watched = tap.take()
            assert client.submit(spec, watch=True).deduped
            tap.take()
            client.stream(handle.job_id)
            duplicate = tap.take()
        assert watched == live and duplicate == live
        # Every byte is one frame per message of the record's dict view.
        frames, closing = service.jobs.get(handle.job_id).grid_view(0)
        assert len(frames) == spec.n_points()
        assert live == b"".join(map(wire_frame, [*frames, closing]))

    def test_a_watcher_attaching_mid_job_gets_the_prefix_then_the_tail(self):
        # No local lanes: this test is the only one simulating, one key
        # at a time, through the transitions a lane drives.
        spec = tiny_spec(seeds=(1, 2))
        n = spec.n_points()
        service = Coordinator(workers=0, max_jobs=1)
        service.start()
        lane = object()

        def complete_one() -> None:
            with service._state_changed:
                (item,) = service._lease(lane, 1)
            service._complete_point(
                item["key"], result_to_dict(execute_item(item))
            )

        conn = None
        try:
            with ServiceClient(service.address) as client:
                job_id = client.submit(spec).job_id
            record = service.jobs.get(job_id)
            wait_until(lambda: len(record.pending) == n, message="admission")
            complete_one()
            complete_one()
            conn, _welcome = dial(service.address, "jobs")
            send_message(conn, {"type": "job_results", "job_id": job_id})
            def read():
                return within(10, lambda: recv_message(conn))

            seen = [read(), read()]  # the prefix
            for _ in range(n - 2):  # the live tail, one point at a time
                complete_one()
                seen.append(read())
            seen.append(read())  # job_end
            frames, closing = record.grid_view(0)
            assert [f.get("index") for f in seen] == [*range(n), None]
            assert seen == json.loads(json.dumps([*frames, closing]))
            assert closing["state"] == "done" and closing["completed"] == n
        finally:
            if conn is not None:
                conn.close()
            service.stop()


# ---------------------------------------------------------------------------
# Stream integrity: a client refuses a shifted stream
# ---------------------------------------------------------------------------

#: Any decodable result: the scripted daemon below streams it.
RESULT = result_to_dict(RunResult(
    arch="firefly", pattern="uniform", bw_set_index=1, offered_gbps=1.0,
    delivered_gbps=1.0, photonic_gbps=0.5, per_core_gbps=0.01,
    energy_per_message_pj=2.0, mean_latency_cycles=30.0,
    acceptance_ratio=1.0, packets_delivered=10, reservations_nacked=0,
    laser_power_mw=640.0, lit_wavelengths=64,
))


def point(index: int) -> dict:
    return {
        "type": "job_point", "job_id": "job-x", "index": index,
        "key": f"k{index}", "result": RESULT, "cached": True,
    }


@contextmanager
def scripted_daemon(*frames):
    """A one-connection ``jobs`` daemon: it answers the handshake and
    the first request with ``job_accepted`` and then *frames*."""
    listener = make_transport("tcp").listen(("127.0.0.1", 0))

    def serve():
        conn = listener.accept()
        try:
            recv_message(conn)  # hello
            send_message(conn, {
                "type": "welcome", "version": PROTOCOL_VERSION,
                "server": "service",
            })
            recv_message(conn)  # job_submit
            send_frames(conn, [{
                "type": "job_accepted", "job_id": "job-x",
                "state": "running", "deduped": False, "total": 3,
            }, *frames])
            recv_message(conn)  # until the client hangs up
        finally:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.address
    finally:
        listener.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def end(completed: int) -> dict:
    return {
        "type": "job_end", "job_id": "job-x", "state": "done", "total": 3,
        "completed": completed, "executed": 0, "hits": completed,
        "error": "",
    }


class TestStreamIntegrity:
    @pytest.mark.parametrize("indices, wrong", [
        ((0, 2, 1), "index 2 arrived where index 1 was due"),
        ((0, 0, 1, 2), "index 0 arrived where index 1 was due"),
    ])
    def test_a_skipped_or_repeated_index_is_a_protocol_error(
        self, indices, wrong
    ):
        seen = []
        frames = [point(i) for i in indices]
        with scripted_daemon(*frames, end(3)) as address:
            with ServiceClient(address) as client:
                with pytest.raises(ProtocolError, match=wrong):
                    client.run_spec(
                        tiny_spec(), on_point=lambda i, *_: seen.append(i)
                    )
        assert seen == [0]

    def test_a_done_job_must_count_the_points_it_streamed(self):
        with scripted_daemon(point(0), point(1), end(3)) as address:
            with ServiceClient(address) as client:
                with pytest.raises(ProtocolError, match="3 point"):
                    client.run_spec(tiny_spec())


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
        service = Coordinator(counting, workers=1, max_jobs=2)
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
        service = Coordinator(path, backend=layout, workers=2, max_jobs=2)
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
        service = Coordinator(counting, workers=1, max_jobs=2)
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
        service = Coordinator(
            str(store_dir), workers=1, max_jobs=1, backend="sharded"
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
        resumed = Coordinator(
            str(store_dir), workers=1, max_jobs=1, backend="sharded"
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
        service = Coordinator(workers=1, max_jobs=1, max_pending=1)
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
        service = Coordinator(host=host, port=port, workers=1)

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

    def test_stop_joins_the_threads_it_started(self):
        """A stopped service leaves no thread behind, and stops at once:
        its accept loop, monitor, runners and lane wait on what ``stop``
        signals, not out a poll (a ``service_job`` op stops a service)."""
        before = threading.active_count()
        for _ in range(3):
            service = Coordinator(workers=1)
            service.start()
            began = time.perf_counter()
            service.stop()
            assert time.perf_counter() - began < 0.2
            assert threading.active_count() == before


# ---------------------------------------------------------------------------
# CLI: run --spec --fabric
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_spec_via_fabric_prints_the_local_run(
        self, service, tmp_path, capsys
    ):
        spec = tiny_spec(archs=("firefly", "dhetpnoc"))
        path = tmp_path / "spec.json"
        spec.save(str(path))
        assert main(["run", "--spec", str(path)]) == 0
        local = capsys.readouterr().out
        host, port = service.address
        code = main([
            "run", "--spec", str(path), "--fabric", f"{host}:{port}",
        ])
        banner, out = capsys.readouterr().out.split("\n", 1)
        assert code == 0
        assert banner == (
            f"fabric {host}:{port}: 2 curve(s), 4 grid point(s), "
            "4 not in the local store"
        )
        assert "4 points, 4 simulated" in out
        assert out == local

    def test_run_spec_via_fabric_to_an_unreachable_daemon_exits_1(
        self, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        tiny_spec().save(str(path))
        # The client's bounded backoff still dials every attempt; only
        # the waiting between them is stubbed out.
        with mock.patch("repro.fabric.server.time.sleep"):
            code = main(["run", "--spec", str(path), "--fabric", DEAD])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "dhetpnoc-repro: fabric error: "
        )

    def test_run_has_one_client_flag(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        tiny_spec().save(str(path))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--spec", str(path), f"--service={DEAD}"])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: --service={DEAD}"
                in capsys.readouterr().err)

    #: ``serve`` option -> (value given, Coordinator attribute, value read)
    SERVE_OPTIONS = {
        "--workers": ("0", "workers", 0),
        "--lease-size": ("5", "lease_size", 5),
        "--max-attempts": ("4", "max_attempts", 4),
        "--worker-timeout": ("7.5", "worker_timeout_s", 7.5),
    }

    @staticmethod
    def _served(monkeypatch, capsys, *argv):
        """The Coordinator ``serve *argv`` builds and starts, stopped
        where the verb would block."""
        from repro.experiments.cli import fabric

        served = []

        def serve_once(daemon):
            served.append((daemon, daemon.address))
            daemon.stop()

        monkeypatch.setattr(fabric, "_as_daemon", lambda: None)
        monkeypatch.setattr(Coordinator, "serve_forever", serve_once)
        argv = ["serve", "--host", "127.0.0.1", "--port", "0", *argv]
        assert main(argv) == 0
        ((daemon, (host, port)),) = served
        assert capsys.readouterr().out == (
            f"experiment service listening on {host}:{port} "
            "(store: service memory)\n"
        )
        return daemon

    @pytest.mark.parametrize("option", sorted(SERVE_OPTIONS))
    def test_each_serve_option_reaches_the_coordinator(
        self, option, monkeypatch, capsys
    ):
        given, attribute, expected = self.SERVE_OPTIONS[option]
        daemon = self._served(monkeypatch, capsys, option, given)
        assert getattr(daemon, attribute) == expected

    def test_serve_defaults_to_one_local_lane(self, monkeypatch, capsys):
        daemon = self._served(monkeypatch, capsys)
        assert (daemon.workers, daemon.lease_size, daemon.max_attempts,
                daemon.worker_timeout_s) == (1, 2, 3, 20.0)


# ---------------------------------------------------------------------------
# The perf ledger's name for the daemon
# ---------------------------------------------------------------------------

class TestLedgerName:
    def test_experiment_service_is_the_coordinator(self):
        from repro.service.daemon import ExperimentService

        assert ExperimentService is Coordinator

    def test_a_daemon_built_the_ledgers_way_serves_a_spec(self, tmp_path):
        """``service_job`` builds ``ExperimentService(store, workers=1,
        max_jobs=1)`` on a store path and runs ``ServiceClient.run_spec``:
        the stream equals a local run and lands in that store."""
        from repro.service.daemon import ExperimentService

        path = str(tmp_path / "store.jsonl")
        spec = tiny_spec(archs=("firefly", "dhetpnoc"))
        with serving(ExperimentService(path, workers=1, max_jobs=1)) as daemon:
            with ServiceClient(daemon.address) as client:
                run = client.run_spec(spec)
        expected, expected_keys = local_run(spec)
        assert run.keys == expected_keys
        assert [result_to_dict(r) for r in run.results] == [
            result_to_dict(r) for r in expected
        ]
        stored = open_store(path)
        assert sorted(key for key, _ in stored) == sorted(expected_keys)


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
