"""Distributed sweep fabric: protocol, fault tolerance, clean shutdown.

That a fabric sweep returns the serial path's results bitwise, under
the same store keys, is one column of ``test_lane_matrix.py`` per
worker kind. Here: the wire, and the fault-tolerance bar of
docs/fabric.md. The fault-tolerance tests use real subprocess workers
with the ``fail_after`` chaos hook (an ``os._exit`` while holding a
lease -- the deterministic stand-in for a machine dying mid-sweep) and
assert that leases are re-queued, bounded retries are honoured, and a
sweep ends in results or in ``PointFailedError`` -- never a hang.
"""

from __future__ import annotations

import dataclasses
import os
import re
import signal
import struct
import threading
from contextlib import contextmanager

import pytest

from repro.experiments.runner import Fidelity, RunResult
from repro.experiments.store import (
    ResultStore,
    open_store,
    shard_filename,
)
from repro.experiments.sweep import (
    FabricExecutor,
    SweepExecutor,
    ensure_scenario,
)
from repro.fabric.coordinator import Coordinator
from repro.fabric.errors import FabricError, PointFailedError, ProtocolError
from repro.fabric.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    _WRITE_BYTES,
    config_from_dict,
    config_to_dict,
    encode_message,
    point_from_dict,
    point_to_dict,
    recv_message,
    result_roundtrip,
    send_frames,
    send_message,
)
from repro.fabric.server import dial
from repro.fabric.transport import (
    Connection,
    _TcpConnection,
    make_transport,
    parse_address,
    transports,
)
from repro.fabric.worker import Worker
from repro.service.client import ServiceClient
from repro.service.errors import ServiceError

from support import (
    TINY,
    inthread_workers,
    serving,
    spawn_cli,
    spawn_worker,
    tiny_spec,
    wait_until,
    wire_frame,
    within,
)

SPEC = tiny_spec(archs=("firefly", "dhetpnoc"))
#: One point: the fault-tolerance and store tests need no curve.
ONE_POINT = tiny_spec(load_fractions=(0.5,))

#: Awkward floats that only survive repr-based JSON round-trips.
UGLY = (0.1 + 0.2, 1.0 / 3.0, 676.4999999999999, 1e-17, 2.0**-1074)

SAMPLE = RunResult(
    arch="firefly",
    pattern="uniform",
    bw_set_index=1,
    offered_gbps=UGLY[0],
    delivered_gbps=UGLY[1],
    photonic_gbps=UGLY[2],
    per_core_gbps=UGLY[3],
    energy_per_message_pj=UGLY[4],
    mean_latency_cycles=350.47,
    acceptance_ratio=0.82,
    packets_delivered=1234,
    reservations_nacked=56,
    laser_power_mw=640.0,
    lit_wavelengths=64,
)


# ---------------------------------------------------------------------------
# Protocol layer
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_parse_address(self):
        assert parse_address("10.0.0.2:7023") == ("10.0.0.2", 7023)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(FabricError):
            parse_address("no-port")
        with pytest.raises(FabricError):
            parse_address("host:xyz")

    def test_transport_registry(self):
        assert "tcp" in transports.names()
        with pytest.raises(FabricError):
            make_transport("mpi")  # no such transport is registered
        with pytest.raises(FabricError):
            make_transport("carrier-pigeon")

    def test_framing_roundtrip_over_tcp(self):
        transport = make_transport("tcp")
        listener = transport.listen(("127.0.0.1", 0))
        client = transport.connect(listener.address)
        server = listener.accept()
        message = {"type": "x", "floats": list(UGLY), "nested": {"a": [1]}}
        send_message(client, message)
        assert recv_message(server) == message
        client.close()
        assert recv_message(server) is None  # orderly EOF
        server.close()
        listener.close()

    def test_oversize_frame_rejected(self):
        transport = make_transport("tcp")
        listener = transport.listen(("127.0.0.1", 0))
        client = transport.connect(listener.address)
        server = listener.accept()
        client.send_bytes(b"\xff\xff\xff\xff")  # 4 GiB length prefix
        with pytest.raises(ProtocolError, match="exceeds cap"):
            recv_message(server)
        for conn in (client, server, listener):
            conn.close()

    def test_result_roundtrip_is_bitwise(self):
        back = result_roundtrip(SAMPLE)
        assert back == SAMPLE
        for name in (
            "offered_gbps", "delivered_gbps", "photonic_gbps",
            "per_core_gbps", "energy_per_message_pj",
        ):
            assert getattr(back, name) == getattr(SAMPLE, name)

    def test_point_fidelity_config_roundtrips(self):
        from repro.arch.config import SystemConfig
        from repro.experiments.sweep import RunPoint
        from repro.traffic.bandwidth_sets import BW_SET_2

        point = RunPoint(
            arch="dhetpnoc", bw_set_index=2, pattern="skewed3",
            load_fraction=UGLY[0], offered_gbps=UGLY[1],
            seed=12345, base_seed=1, bw_set=BW_SET_2,
            scenario="steady",
        )
        assert point_from_dict(point_to_dict(point)) == point
        plain = dataclasses.replace(point, bw_set=None, scenario=None)
        assert point_from_dict(point_to_dict(plain)) == plain
        assert Fidelity.from_dict(TINY.to_dict()) == TINY
        config = SystemConfig(bw_set=BW_SET_2)
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_dict(None) is None
        assert config_to_dict(None) is None

    def test_version_mismatch_rejected(self):
        with serving(Coordinator()) as coordinator:
            conn = make_transport("tcp").connect(coordinator.address)
            send_message(conn, {
                "type": "hello", "role": "worker", "version": -1,
            })
            reply = recv_message(conn)
            assert reply is not None and reply["type"] == "error"
            assert "version" in reply["error"]
            conn.close()

    def test_unknown_role_rejected(self):
        with serving(Coordinator()) as coordinator:
            conn = make_transport("tcp").connect(coordinator.address)
            send_message(conn, {
                "type": "hello", "role": "observer",
                "version": PROTOCOL_VERSION,
            })
            reply = recv_message(conn)
            assert reply is not None and reply["type"] == "error"
            conn.close()


# ---------------------------------------------------------------------------
# Framing under hostile segmentation
# ---------------------------------------------------------------------------

#: Frames of assorted sizes, multi-byte UTF-8 included.
FRAMES = [
    {"type": "x", "i": i, "floats": list(UGLY), "pad": "\u00e9" * (40 * i)}
    for i in range(6)
]


class Recording(Connection):
    """A connection that keeps every ``send_bytes`` call's data."""

    def __init__(self) -> None:
        self.writes = []

    def send_bytes(self, data: bytes) -> None:
        self.writes.append(data)

    def recv_bytes(self, n: int) -> bytes:
        return b""

    def close(self) -> None:
        pass


@contextmanager
def tcp_pair():
    """A connected ``(client, server)`` pair over localhost TCP."""
    transport = make_transport("tcp")
    listener = transport.listen(("127.0.0.1", 0))
    client = transport.connect(listener.address, timeout=10.0)
    server = listener.accept()
    try:
        yield client, server
    finally:
        for end in (client, server, listener):
            end.close()


def read_all(conn, n: int):
    """*n* frames, then what the next read returns (``None`` at EOF)."""
    return [recv_message(conn) for _ in range(n)], recv_message(conn)


class FakeSocket:
    """Serves queued segments to ``recv``, counting the calls."""

    def __init__(self, *segments: bytes) -> None:
        self.segments = list(segments)
        self.recvs = 0

    def recv(self, n: int) -> bytes:
        self.recvs += 1
        if not self.segments:
            return b""
        segment = self.segments.pop(0)
        if len(segment) > n:
            segment, rest = segment[:n], segment[n:]
            self.segments.insert(0, rest)
        return segment

    def close(self) -> None:
        pass


class TestFraming:
    def test_a_batch_is_one_write_of_one_frame_per_message(self):
        conn = Recording()
        send_frames(conn, FRAMES)
        assert conn.writes == [b"".join(map(wire_frame, FRAMES))]
        one_by_one = Recording()
        for frame in FRAMES:
            send_message(one_by_one, frame)
        assert one_by_one.writes == list(map(wire_frame, FRAMES))
        # A payload encoded earlier is sent as it is.
        stored = Recording()
        send_frames(stored, [encode_message(f) for f in FRAMES[:3]] + FRAMES[3:])
        assert stored.writes == conn.writes

    def test_a_batch_past_the_write_cap_splits_between_frames(self):
        big = {"type": "x", "pad": "a" * (_WRITE_BYTES // 3)}
        frames = [big] * 7
        conn = Recording()
        send_frames(conn, frames)
        assert len(conn.writes) > 1
        assert all(len(w) <= _WRITE_BYTES for w in conn.writes)
        assert b"".join(conn.writes) == b"".join(map(wire_frame, frames))
        whole = {"type": "x", "pad": "a" * _WRITE_BYTES}  # one frame, whole
        conn = Recording()
        send_frames(conn, [FRAMES[0], whole, FRAMES[1]])
        assert conn.writes == list(map(wire_frame, [FRAMES[0], whole, FRAMES[1]]))

    def test_coalesced_frames_decode_in_order(self):
        with tcp_pair() as (client, server):
            client.send_bytes(b"".join(map(wire_frame, FRAMES)))
            client.close()
            assert within(10, lambda: read_all(server, len(FRAMES))) == (
                FRAMES, None,
            )

    def test_frames_sent_one_byte_per_write_decode_in_order(self):
        data = b"".join(map(wire_frame, FRAMES))
        with tcp_pair() as (client, server):
            def trickle():
                for i in range(len(data)):
                    client.send_bytes(data[i:i + 1])
                client.close()

            writer = threading.Thread(target=trickle, daemon=True)
            writer.start()
            assert within(10, lambda: read_all(server, len(FRAMES))) == (
                FRAMES, None,
            )
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_a_valid_frame_then_an_over_cap_prefix_in_one_segment(self):
        with tcp_pair() as (client, server):
            client.send_bytes(
                wire_frame(FRAMES[1]) + struct.pack(">I", MAX_FRAME_BYTES + 1)
            )
            assert within(10, lambda: recv_message(server)) == FRAMES[1]
            with pytest.raises(ProtocolError, match="exceeds cap"):
                within(10, lambda: recv_message(server))

    def test_eof_mid_header_is_a_short_header(self):
        with tcp_pair() as (client, server):
            client.send_bytes(wire_frame(FRAMES[0]) + b"\x00\x00")
            client.close()
            assert within(10, lambda: recv_message(server)) == FRAMES[0]
            with pytest.raises(ProtocolError, match="short header"):
                within(10, lambda: recv_message(server))

    def test_eof_mid_payload_is_a_short_payload(self):
        frame = wire_frame(FRAMES[2])
        with tcp_pair() as (client, server):
            client.send_bytes(frame[:len(frame) // 2])
            client.close()
            with pytest.raises(ProtocolError, match="short payload"):
                within(10, lambda: recv_message(server))

    def test_orderly_eof_with_an_empty_buffer_is_none(self):
        with tcp_pair() as (client, server):
            client.close()
            assert within(10, lambda: recv_message(server)) is None

    def test_a_frame_that_arrived_whole_costs_one_recv(self):
        sock = FakeSocket(b"".join(map(wire_frame, FRAMES)))
        conn = _TcpConnection(sock)
        assert read_all(conn, len(FRAMES)) == (FRAMES, None)
        assert sock.recvs == 2  # the segment, then EOF
        # Split anywhere, a frame still decodes.
        data = wire_frame(FRAMES[3])
        for cut in (1, 3, 4, 5, len(data) - 1):
            sock = FakeSocket(data[:cut], data[cut:])
            assert read_all(_TcpConnection(sock), 1) == ([FRAMES[3]], None)


# ---------------------------------------------------------------------------
# Fault tolerance: lost workers, bounded retries
# ---------------------------------------------------------------------------

class TestFaultTolerance:
    def test_killed_worker_leases_requeued_and_sweep_completes(self):
        expected = SweepExecutor(store=ResultStore()).run(SPEC)
        with serving(Coordinator(lease_size=2, max_attempts=5)) as coordinator:
            # The dying worker runs alone first, so it deterministically
            # holds a lease (size 2), streams one result, and hard-exits
            # on the second point.
            dying = spawn_worker(coordinator.address, fail_after=1)
            outcome: dict = {}

            def run_fabric():
                fabric = FabricExecutor(
                    coordinator.address, store=ResultStore()
                )
                try:
                    outcome["results"] = fabric.run(SPEC)
                finally:
                    fabric.close()

            thread = threading.Thread(target=run_fabric, daemon=True)
            thread.start()
            try:
                wait_until(
                    lambda: coordinator.total_requeued >= 1,
                    message="the killed worker's lease to be re-queued",
                )
                assert dying.wait(timeout=30) == 17  # the chaos exit code
                healthy = spawn_worker(coordinator.address)
                try:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "sweep hung after worker loss"
                finally:
                    healthy.kill()
                    healthy.wait()
            finally:
                dying.kill()
                dying.wait()
        assert outcome["results"] == expected
        assert coordinator.total_requeued >= 1
        assert coordinator.total_failed == 0

    def test_bounded_retries_surface_point_failures(self):
        with serving(Coordinator(lease_size=1, max_attempts=2)) as coordinator:
            # Two workers that die immediately after leasing: the single
            # point burns both attempts and must surface as a failure,
            # not a hang.
            procs = [
                spawn_worker(coordinator.address, fail_after=0)
                for _ in range(2)
            ]
            fabric = FabricExecutor(coordinator.address, store=ResultStore())
            try:
                with pytest.raises(PointFailedError) as err:
                    fabric.run(ONE_POINT)
            finally:
                fabric.close()
                for proc in procs:
                    proc.kill()
                    proc.wait()
            assert len(err.value.failures) == 1
            failure = err.value.failures[0]
            assert failure.attempts == 2
            assert "firefly" in failure.label
            assert coordinator.total_failed == 1

    def test_heartbeat_timeout_requeues_leases(self):
        with serving(Coordinator(
            lease_size=1, worker_timeout_s=1.0, max_attempts=5
        )) as coordinator:
            # A hand-rolled zombie worker: registers, leases the point,
            # then goes silent (no heartbeats, no results).
            zombie = make_transport("tcp").connect(coordinator.address)
            send_message(zombie, {
                "type": "hello", "role": "worker",
                "version": PROTOCOL_VERSION, "capabilities": {},
            })
            assert recv_message(zombie)["type"] == "welcome"

            outcome: dict = {}

            def run_fabric():
                fabric = FabricExecutor(
                    coordinator.address, store=ResultStore()
                )
                try:
                    outcome["results"] = fabric.run(ONE_POINT)
                finally:
                    fabric.close()

            thread = threading.Thread(target=run_fabric, daemon=True)
            thread.start()
            wait_until(
                lambda: len(coordinator._queue) > 0,
                timeout=10,
                message="the job to be admitted",
            )
            send_message(zombie, {"type": "lease"})
            work = recv_message(zombie)
            assert work["type"] == "work" and len(work["items"]) == 1
            # ... and now the zombie says nothing, ever again.
            wait_until(
                lambda: coordinator.total_requeued >= 1,
                timeout=15,
                message="the silent worker's lease to time out",
            )
            workers, _ = inthread_workers(coordinator.address, 1)
            thread.join(timeout=60)
            assert not thread.is_alive(), "sweep hung on a silent worker"
            assert len(outcome["results"]) == 1
            for worker in workers:
                worker.stop()
            zombie.close()

    def test_worker_returns_when_its_connection_breaks_mid_lease(
        self, monkeypatch
    ):
        def broken(_conn):
            raise ConnectionResetError("the coordinator went away")

        monkeypatch.setattr("repro.fabric.worker.recv_message", broken)
        with serving(Coordinator()) as coordinator:
            assert Worker(coordinator.address).run() == 0
            wait_until(
                lambda: coordinator.stats()["workers"] == 0,
                message="the worker to be retired",
            )

    def test_stop_closes_a_worker_it_cannot_send_shutdown_to(
        self, monkeypatch
    ):
        coordinator = Coordinator()
        coordinator.start()
        conn, _welcome = dial(coordinator.address, "worker", capabilities={})
        wait_until(
            lambda: coordinator.stats()["workers"] == 1,
            message="the worker to register",
        )

        (peer,) = coordinator._workers.values()

        def broken(_conn, _message):
            raise BrokenPipeError("the worker went away")

        monkeypatch.setattr("repro.fabric.coordinator.send_message", broken)
        coordinator.stop()  # no frame went out, yet the worker is let go
        assert peer.conn._sock.fileno() == -1
        conn.close()


# ---------------------------------------------------------------------------
# SIGTERM: the daemons stop as they do on Ctrl-C
# ---------------------------------------------------------------------------

def test_sigterm_stops_serve_and_its_workers_cleanly(tmp_path):
    path = str(tmp_path / "store.jsonl")
    with open(tmp_path / "serve.log", "w") as log:
        serve = spawn_cli("fabric", "serve", "--host", "127.0.0.1",
                          "--port", "0", "--store", path, stderr=log)
    workers = []
    try:
        banner = serve.stdout.readline()
        host, port = re.search(r"listening on (\S+):(\d+)", banner).groups()
        address = (host, int(port))
        workers = [spawn_worker(address) for _ in range(2)]
        with ServiceClient(address) as client:
            wait_until(lambda: client.stats()["workers"] == 2,
                       message="both workers to register")
        fabric = FabricExecutor(address, store=ResultStore())
        try:
            fabric.run(ONE_POINT)
        finally:
            fabric.close()
        # A worker stops on its own SIGTERM; the rest stop when the
        # server does.
        workers[0].send_signal(signal.SIGTERM)
        assert workers[0].wait(timeout=30) == 0
        serve.send_signal(signal.SIGTERM)
        assert serve.wait(timeout=30) == 0
        outputs = [worker.communicate(timeout=30)[0] for worker in workers]
        assert [worker.returncode for worker in workers] == [0, 0], outputs
    finally:
        for process in (serve, *workers):
            process.kill()
            process.wait()
            process.stdout.close()
    assert all("worker done:" in out for out in outputs), outputs
    store = open_store(path)
    assert len(store) == 1
    assert store.corrupt_lines == 0


# ---------------------------------------------------------------------------
# Scenario shipping
# ---------------------------------------------------------------------------

class TestScenarioShipping:
    def test_builtin_scenario_verified_not_overridden(self):
        # Shipping the *right* script for a builtin name verifies.
        from repro.scenarios.library import build_scenario

        script = build_scenario("steady", 700).to_dict()
        ensure_scenario("steady", script, 700)
        # Shipping a *different* script under a builtin name refuses.
        other = build_scenario("hotspot_drift", 700).to_dict()
        with pytest.raises(FabricError, match="fingerprint mismatch"):
            ensure_scenario("steady", other, 700)
        # An unknown name with no script is an error, not a silent skip.
        with pytest.raises(FabricError, match="unknown to this worker"):
            ensure_scenario("no_such_scenario_anywhere", None, 700)


# ---------------------------------------------------------------------------
# Client / coordinator odds and ends
# ---------------------------------------------------------------------------

class TestClient:
    def test_stats_and_cross_job_dedup(self):
        with serving(Coordinator()) as coordinator:
            workers, _ = inthread_workers(coordinator.address, 1)
            a = FabricExecutor(coordinator.address, store=ResultStore())
            b = FabricExecutor(coordinator.address, store=ResultStore())
            ra = a.run(ONE_POINT)
            rb = b.run(ONE_POINT)  # same key: served from coordinator store
            assert ra == rb
            assert a.executed_count == 1
            assert b.executed_count == 0
            client = ServiceClient(coordinator.address)
            stats = client.stats()
            assert stats["executed"] == 1
            assert stats["store_records"] == 1
            client.close()
            a.close()
            b.close()
            for worker in workers:
                worker.stop()

    def test_fresh_result_touches_only_its_own_shard(self, tmp_path):
        # Recording a worker's result must not ask the store an
        # un-hinted question: on a sharded store that loads every shard.
        root = str(tmp_path / "shards")
        seeded = open_store(root, "sharded")
        seeded.put("ka", SAMPLE)
        seeded.put("kb", dataclasses.replace(SAMPLE, arch="dhetpnoc"))
        assert len(seeded.backend.shard_paths()) == 2

        store = open_store(root, "sharded")
        with serving(Coordinator(store=store)) as coordinator:
            workers, _ = inthread_workers(coordinator.address, 1)
            executor = FabricExecutor(coordinator.address, store=ResultStore())
            executor.run(ONE_POINT)
            assert executor.executed_count == 1
            executor.close()
            for worker in workers:
                worker.stop()
            assert coordinator.store.backend.read_paths == [
                os.path.join(root, shard_filename("firefly", 1))
            ]

    def test_duplicate_keys_in_one_job_rejected(self):
        with serving(Coordinator()) as coordinator:
            client = ServiceClient(coordinator.address)
            entries = [
                {"key": "same", "point": point_to_dict(_any_point())},
                {"key": "same", "point": point_to_dict(_any_point())},
            ]
            with pytest.raises(ServiceError, match="unique"):
                client.submit_batch(entries, TINY.to_dict(), None)
            client.close()


def _any_point():
    from repro.experiments.sweep import RunPoint

    return RunPoint(
        arch="firefly", bw_set_index=1, pattern="uniform",
        load_fraction=0.5, offered_gbps=320.0, seed=1, base_seed=1,
    )
