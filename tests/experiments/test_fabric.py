"""Distributed sweep fabric: protocol, conformance, fault tolerance.

The conformance bar of docs/fabric.md is pinned here: a sweep executed
through ``FabricExecutor`` with two or more localhost workers returns
``RunResult``\\ s **bitwise-equal** to the serial and multiprocessing
paths, with identical content-hash store keys across all three. The
fault-tolerance tests use real subprocess workers with the
``fail_after`` chaos hook (an ``os._exit`` while holding a lease — the
deterministic stand-in for a machine dying mid-sweep) and assert that
leases are re-queued, bounded retries are honoured, and a sweep ends
in results or in ``PointFailedError`` — never a hang.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments.runner import Fidelity, RunResult
from repro.experiments.store import (
    ResultStore,
    make_backend,
    open_store,
    result_to_dict,
    shard_filename,
)
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import (
    FabricExecutor,
    SweepExecutor,
    ensure_scenario,
)
from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator
from repro.fabric.errors import FabricError, PointFailedError, ProtocolError
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    config_from_dict,
    config_to_dict,
    point_from_dict,
    point_to_dict,
    recv_message,
    result_roundtrip,
    send_message,
)
from repro.fabric.remote_store import RemoteBackend
from repro.fabric.transport import make_transport, parse_address, transports
from repro.fabric.worker import Worker

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))

SPEC = ExperimentSpec(
    archs=("firefly", "dhetpnoc"),
    bw_sets=(1,),
    patterns=("uniform",),
    seeds=(1,),
    fidelity=TINY,
)

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
# Helpers
# ---------------------------------------------------------------------------

def _src_path() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def spawn_worker(address, fail_after=None) -> subprocess.Popen:
    """Start a real subprocess worker via the CLI entry point."""
    host, port = address
    cmd = [
        sys.executable, "-m", "repro.experiments.cli",
        "fabric", "worker", "--connect", f"{host}:{port}",
    ]
    if fail_after is not None:
        cmd += ["--fail-after", str(fail_after)]
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_path() + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def inthread_workers(address, n=2):
    """Run *n* workers inside this process (no chaos hooks allowed)."""
    workers = [Worker(address) for _ in range(n)]
    threads = [
        threading.Thread(target=w.run, daemon=True) for w in workers
    ]
    for thread in threads:
        thread.start()
    return workers, threads


def wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def store_keys(store: ResultStore):
    return {key for key, _result in store.backend.scan()}


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
        with Coordinator() as coordinator:
            conn = make_transport("tcp").connect(coordinator.address)
            send_message(conn, {
                "type": "hello", "role": "worker", "version": -1,
            })
            reply = recv_message(conn)
            assert reply is not None and reply["type"] == "error"
            assert "version" in reply["error"]
            conn.close()

    def test_unknown_role_rejected(self):
        with Coordinator() as coordinator:
            conn = make_transport("tcp").connect(coordinator.address)
            send_message(conn, {
                "type": "hello", "role": "observer",
                "version": PROTOCOL_VERSION,
            })
            reply = recv_message(conn)
            assert reply is not None and reply["type"] == "error"
            conn.close()


# ---------------------------------------------------------------------------
# Distributed conformance: serial == parallel == distributed, bitwise
# ---------------------------------------------------------------------------

class TestConformance:
    def test_serial_parallel_distributed_bitwise(self):
        serial = SweepExecutor(store=ResultStore())
        expected = serial.run(SPEC)
        assert serial.executed_count == SPEC.n_points()

        with SweepExecutor(workers=2, store=ResultStore()) as parallel:
            parallel_results = parallel.run(SPEC)
            assert parallel_results == expected

            with Coordinator(lease_size=1) as coordinator:
                workers, _threads = inthread_workers(coordinator.address, 2)
                fabric = FabricExecutor(
                    coordinator.address, store=ResultStore()
                )
                fabric_results = fabric.run(SPEC)
                assert fabric.executed_count == SPEC.n_points()
                assert fabric_results == expected
                # Identical content-hash keys across all three paths.
                assert (
                    store_keys(serial.store)
                    == store_keys(parallel.store)
                    == store_keys(fabric.store)
                    == store_keys(coordinator.store)
                )
                # And byte-identical stored records, fabric vs serial.
                fabric_records = dict(fabric.store.backend.scan())
                for key, result in serial.store.backend.scan():
                    assert result_to_dict(fabric_records[key]) == \
                        result_to_dict(result)

                # A second fabric pass resumes from the coordinator's
                # store: nothing is simulated anywhere.
                resumed = FabricExecutor(
                    coordinator.address, store=ResultStore()
                )
                assert resumed.run(SPEC) == expected
                assert resumed.executed_count == 0
                fabric.close()
                resumed.close()
                for worker in workers:
                    worker.stop()

    def test_subprocess_workers_conformance(self, tmp_path):
        expected = SweepExecutor(store=ResultStore()).run(SPEC)
        store = open_store(str(tmp_path / "shards") + os.sep)
        with Coordinator(store=store, lease_size=2) as coordinator:
            procs = [spawn_worker(coordinator.address) for _ in range(2)]
            try:
                fabric = FabricExecutor(
                    coordinator.address, store=ResultStore()
                )
                assert fabric.run(SPEC) == expected
                assert fabric.executed_count == SPEC.n_points()
                fabric.close()
            finally:
                for proc in procs:
                    proc.kill()
                    proc.wait()

    def test_session_over_fabric(self):
        """Every curve-shaped ``Session`` call is bitwise-equal whether
        its misses run serially, on a pool or over the fabric."""
        import dataclasses

        from repro.api import Session
        from repro.scenarios.library import (
            build_scenario,
            register_schedule,
            scenarios,
        )
        from repro.traffic.bandwidth_sets import BW_SET_1

        spec = ExperimentSpec(
            archs=("firefly", "dhetpnoc"), bw_sets=(1,),
            patterns=("uniform",), seeds=(1, 2), fidelity=TINY,
        )

        def late_scenario(s):
            # One batch first — a ``workers=2`` session forks its pool
            # on it — and only then does the scenario come to exist, so
            # no forked child has it in its registry: it must travel in
            # the work item, as it does to a fabric worker.
            s.run(spec)
            register_schedule(dataclasses.replace(
                build_scenario("hotspot_drift", TINY.total_cycles),
                name="late_spike",
            ))
            try:
                late = ExperimentSpec(
                    archs=("firefly", "dhetpnoc"), bw_sets=(1,),
                    patterns=("uniform",), scenarios=("late_spike",),
                    fidelity=TINY,
                )
                return s.run(late), s.executed_count
            finally:
                scenarios.unregister("late_spike")

        calls = {
            "late_scenario": late_scenario,
            "run": lambda s: (s.run(spec), s.executed_count),
            "curve": lambda s: s.curve(
                "dhetpnoc", BW_SET_1, "skewed3", TINY, seed=3
            ),
            "peaks": lambda s: s.peaks(spec),
            "knee": lambda s: s.knee(
                "dhetpnoc", 1, "skewed3", TINY, resolution=0.25
            ),
            "replicated": lambda s: s.replicated(spec),
        }
        for name, ask in calls.items():
            # Fresh stores everywhere, so simulation counts agree too.
            expected = ask(Session())
            with Session(workers=2) as pooled:
                assert pooled.fabric is None
                assert ask(pooled) == expected, name
            with Coordinator() as coordinator:
                workers, _ = inthread_workers(coordinator.address, 2)
                host, port = coordinator.address
                with Session(fabric=f"{host}:{port}") as session:
                    assert session.fabric == f"{host}:{port}"
                    assert ask(session) == expected, name
                for worker in workers:
                    worker.stop()
        assert "late_spike" not in scenarios


# ---------------------------------------------------------------------------
# Fault tolerance: lost workers, bounded retries
# ---------------------------------------------------------------------------

class TestFaultTolerance:
    def test_killed_worker_leases_requeued_and_sweep_completes(self):
        expected = SweepExecutor(store=ResultStore()).run(SPEC)
        with Coordinator(lease_size=2, max_attempts=5) as coordinator:
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
        spec = ExperimentSpec(
            archs=("firefly",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,),
            fidelity=Fidelity("tiny1", 700, 100, (0.5,)),
        )
        with Coordinator(lease_size=1, max_attempts=2) as coordinator:
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
                    fabric.run(spec)
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
        spec = ExperimentSpec(
            archs=("firefly",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,),
            fidelity=Fidelity("tiny1", 700, 100, (0.5,)),
        )
        with Coordinator(
            lease_size=1, worker_timeout_s=1.0, max_attempts=5
        ) as coordinator:
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
                    outcome["results"] = fabric.run(spec)
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


# ---------------------------------------------------------------------------
# Remote store backend
# ---------------------------------------------------------------------------

class TestRemoteBackend:
    def test_registry_and_cli_choices(self, monkeypatch):
        from repro.experiments.store import backend_names, store_backends

        # The dead dial below is about the exit after the last refused
        # attempt, not the ~3 s of backoff between attempts.
        monkeypatch.setattr("repro.fabric.server.time.sleep", lambda _s: None)
        assert "remote" in store_backends.names()
        assert "remote" in backend_names()
        with pytest.raises(ValueError, match="coordinator address"):
            make_backend("remote", None)
        with pytest.raises(FabricError, match="cannot reach"):
            make_backend("remote", "127.0.0.1:1")  # nothing listens there

    def test_ops_roundtrip_and_shared_view(self, tmp_path):
        store = open_store(str(tmp_path / "shards") + os.sep)
        with Coordinator(store=store) as coordinator:
            host, port = coordinator.address
            backend = make_backend("remote", f"{host}:{port}")
            assert isinstance(backend, RemoteBackend)
            assert backend.path == f"{host}:{port}"
            assert len(backend) == 0
            assert backend.get("absent") is None
            assert not backend.contains("absent")

            backend.put("k1", SAMPLE)
            fetched = backend.get("k1", ("firefly", 1))
            assert fetched == SAMPLE  # bitwise through two JSON hops
            assert backend.contains("k1")
            assert len(backend) == 1
            assert dict(backend.scan()) == {"k1": SAMPLE}
            backend.flush()

            # A second connection sees the same server-side records.
            other = RemoteBackend((host, port))
            assert other.get("k1") == SAMPLE
            stats = backend.compact()
            assert stats.records_after == 1
            backend.close()
            other.close()
        # The coordinator's sharded store really persisted the record.
        assert ("k1", SAMPLE) in list(open_store(
            str(tmp_path / "shards") + os.sep
        ).backend.scan())

    def test_sweep_resume_over_remote_store(self):
        spec = ExperimentSpec(
            archs=("firefly",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,), fidelity=TINY,
        )
        expected = SweepExecutor(store=ResultStore()).run(spec)
        with Coordinator() as coordinator:
            host, port = coordinator.address
            first = SweepExecutor(store=ResultStore(
                backend=RemoteBackend((host, port))
            ))
            assert first.run(spec) == expected
            assert first.executed_count == spec.n_points()
            # A different machine (fresh connection, fresh executor)
            # resumes from the shared remote store: zero simulations.
            second = SweepExecutor(store=ResultStore(
                backend=RemoteBackend((host, port))
            ))
            assert second.run(spec) == expected
            assert second.executed_count == 0


# ---------------------------------------------------------------------------
# Scenario shipping
# ---------------------------------------------------------------------------

class TestScenarioShipping:
    def test_client_only_scenario_ships_to_subprocess_worker(self):
        from repro.scenarios.compose import sequence
        from repro.scenarios.library import build_scenario, register_schedule

        name = "fabric_test_sequence"
        schedule = sequence(
            build_scenario("steady", TINY.total_cycles),
            build_scenario("hotspot_drift", TINY.total_cycles - 300),
            at_cycle=300,
            name=name,
        )
        register_schedule(schedule)
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,), fidelity=TINY, scenarios=(name,),
        )
        expected = SweepExecutor(store=ResultStore()).run(spec)
        with Coordinator() as coordinator:
            # The subprocess worker's registry has no idea about the
            # composed scenario; it must be rebuilt from the shipped
            # script, bit-for-bit.
            proc = spawn_worker(coordinator.address)
            try:
                fabric = FabricExecutor(
                    coordinator.address, store=ResultStore()
                )
                assert fabric.run(spec) == expected
                fabric.close()
            finally:
                proc.kill()
                proc.wait()

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
        with Coordinator() as coordinator:
            workers, _ = inthread_workers(coordinator.address, 1)
            a = FabricExecutor(coordinator.address, store=ResultStore())
            b = FabricExecutor(coordinator.address, store=ResultStore())
            spec = ExperimentSpec(
                archs=("firefly",), bw_sets=(1,),
                patterns=("uniform",), seeds=(1,),
                fidelity=Fidelity("tiny1", 700, 100, (0.5,)),
            )
            ra = a.run(spec)
            rb = b.run(spec)  # same key: served from coordinator store
            assert ra == rb
            assert a.executed_count == 1
            assert b.executed_count == 0
            client = FabricClient(coordinator.address)
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

        with Coordinator(store=open_store(root, "sharded")) as coordinator:
            workers, _ = inthread_workers(coordinator.address, 1)
            executor = FabricExecutor(coordinator.address, store=ResultStore())
            spec = ExperimentSpec(
                archs=("firefly",), bw_sets=(1,),
                patterns=("uniform",), seeds=(1,),
                fidelity=Fidelity("tiny1", 700, 100, (0.5,)),
            )
            executor.run(spec)
            assert executor.executed_count == 1
            executor.close()
            for worker in workers:
                worker.stop()
            assert coordinator.store.backend.read_paths == [
                os.path.join(root, shard_filename("firefly", 1))
            ]

    def test_duplicate_keys_in_one_job_rejected(self):
        with Coordinator() as coordinator:
            client = FabricClient(coordinator.address)
            entries = [
                {"key": "same", "point": point_to_dict(_any_point())},
                {"key": "same", "point": point_to_dict(_any_point())},
            ]
            with pytest.raises(ProtocolError, match="unique"):
                client.submit(entries, TINY.to_dict(), None)
            client.close()


def _any_point():
    from repro.experiments.sweep import RunPoint

    return RunPoint(
        arch="firefly", bw_set_index=1, pattern="uniform",
        load_fraction=0.5, offered_gbps=320.0, seed=1, base_seed=1,
    )
