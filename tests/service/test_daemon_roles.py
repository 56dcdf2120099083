"""One daemon, every role: the merged coordinator + ``jobs`` server.

``ExperimentService`` is the fabric coordinator serving one more role,
so these tests drive the paths the merge created or fixed:

* a malformed (well-framed) peer frame in any role earns an ``error``
  reply and leaves the daemon serving, never a dead handler thread;
* ``job_done.failed`` counts the job's own failures, not the
  coordinator's lifetime total;
* ``RemoteBackend`` dials with the same backoff as every other peer;
* admission control does not count a job an idle runner is about to
  take as backlog;
* a service job simulated only by a ``fabric worker`` attached to the
  daemon's own port is bitwise-equal to ``Session.run``, and a job and
  a fabric client that share a key share one simulation and one
  store ``put``.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.experiments.runner import Fidelity
from repro.experiments.store import ResultStore, result_to_dict
from repro.experiments.sweep import FabricExecutor
from repro.fabric.coordinator import Coordinator
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import (
    fidelity_to_dict,
    point_to_dict,
    recv_message,
    send_message,
)
from repro.fabric.remote_store import RemoteBackend
from repro.fabric.server import RoleServer, dial
from repro.fabric.worker import Worker
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.service.jobs import JobQueue, JobRejected

from test_service import CountingBackend, local_run, tiny_spec, wait_until

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))


def wire_point(seed: int = 1) -> dict:
    spec = tiny_spec(seeds=(seed,))
    return point_to_dict(spec.expand()[0])


def attach_worker(address):
    worker = Worker(address)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


# ---------------------------------------------------------------------------
# Hostile-but-well-framed input: one fix, in the server core
# ---------------------------------------------------------------------------

#: (server class, role, extra hello fields, the malformed frame)
MALFORMED = {
    "submit-without-fidelity": (
        Coordinator, "client", {},
        {"type": "submit", "points": [{"key": "k", "point": wire_point()}]},
    ),
    "entry-without-point": (
        Coordinator, "client", {},
        {"type": "submit", "fidelity": fidelity_to_dict(TINY),
         "points": [{"key": "k"}]},
    ),
    "result-without-key": (
        Coordinator, "worker", {"capabilities": {}},
        {"type": "result", "result": {}},
    ),
    "store-get-without-key": (
        Coordinator, "store", {}, {"type": "store_get"},
    ),
    "store-put-of-a-partial-result": (
        Coordinator, "store", {},
        {"type": "store_put", "key": "k", "result": {"arch": "firefly"}},
    ),
    "spec-with-scalar-archs": (
        ExperimentService, "jobs", {},
        {"type": "job_submit", "spec": {"archs": 5}, "watch": False},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_frame_gets_an_error_reply_and_the_daemon_lives(case):
    server_cls, role, hello, frame = MALFORMED[case]
    with server_cls() as server:
        conn, _welcome = dial(server.address, role, **hello)
        try:
            send_message(conn, frame)
            reply = recv_message(conn)
        finally:
            conn.close()
        assert reply is not None and reply["type"] == "error", reply
        # The same role still gets served on a fresh connection.
        fresh, welcome = dial(server.address, role, attempts=1, **hello)
        fresh.close()
        assert welcome["type"] == "welcome"
        # A worker that sent garbage is a lost worker, not a leaked one.
        wait_until(
            lambda: server.stats()["workers"] == 0, timeout=5.0,
            message="worker peers to be retired",
        )


def test_unknown_role_is_rejected_by_the_service():
    with ExperimentService() as service:
        with pytest.raises(ProtocolError, match="unknown role 'observer'"):
            dial(service.address, "observer", attempts=1)


# ---------------------------------------------------------------------------
# job_done.failed is the job's own count
# ---------------------------------------------------------------------------

def _submit_raw(conn, seed: int) -> dict:
    """Submit one point over a raw client connection; the job_done."""
    send_message(conn, {
        "type": "submit",
        "fidelity": fidelity_to_dict(TINY),
        "config": None,
        "points": [{"key": f"key-{seed}", "point": wire_point(seed)}],
    })
    while True:
        message = recv_message(conn)
        assert message is not None
        if message["type"] == "job_done":
            return message


def test_job_done_reports_the_jobs_own_failures():
    with Coordinator(max_attempts=1) as coordinator:
        # A worker that errors on whatever it leases: with one attempt
        # per point, the first job fails its point.
        saboteur, _ = dial(coordinator.address, "worker", capabilities={})
        client, _ = dial(coordinator.address, "client")
        outcome: dict = {}
        waiter = threading.Thread(
            target=lambda: outcome.update(_submit_raw(client, 1)), daemon=True
        )
        waiter.start()
        wait_until(lambda: coordinator._queue, message="job admission")
        send_message(saboteur, {"type": "lease"})
        (item,) = recv_message(saboteur)["items"]
        send_message(saboteur, {
            "type": "result_error", "key": item["key"], "error": "boom",
        })
        waiter.join(timeout=10.0)
        saboteur.close()
        assert outcome["failed"] == 1
        assert coordinator.total_failed == 1

        # A clean job after the unrelated failure claims none.
        worker, thread = attach_worker(coordinator.address)
        try:
            done = _submit_raw(client, 2)
        finally:
            worker.stop()
            client.close()
        assert done["failed"] == 0
        assert done["executed"] == 1


# ---------------------------------------------------------------------------
# RemoteBackend inherits the shared dial's backoff
# ---------------------------------------------------------------------------

def test_remote_backend_backoff_wins_the_bind_race():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    coordinator = Coordinator(host=host, port=port)

    def start_late():
        time.sleep(0.5)
        coordinator.start()

    starter = threading.Thread(target=start_late, daemon=True)
    starter.start()
    try:
        backend = RemoteBackend((host, port))
        try:
            assert len(backend) == 0
        finally:
            backend.close()
    finally:
        starter.join(timeout=10.0)
        coordinator.stop()


# ---------------------------------------------------------------------------
# Admission control counts backlog, not jobs an idle runner will take
# ---------------------------------------------------------------------------

def test_job_an_idle_runner_is_about_to_take_is_not_backlog():
    queue = JobQueue(threading.Condition(), max_pending=1)
    claimed = []
    runner = threading.Thread(
        target=lambda: claimed.append(queue.claim(timeout=10.0)), daemon=True
    )
    runner.start()
    wait_until(lambda: queue._idle == 1, message="the runner to go idle")
    # Holding the queue's lock keeps the notified runner from waking:
    # the window a client's back-to-back submissions can land in.
    with queue.changed:
        first, _ = queue.submit(tiny_spec(seeds=(1,)))
        queue.submit(tiny_spec(seeds=(2,)))  # the one queued job allowed
        with pytest.raises(JobRejected, match="capacity"):
            queue.submit(tiny_spec(seeds=(3,)))
    runner.join(timeout=10.0)
    assert claimed == [first]


# ---------------------------------------------------------------------------
# The merged path: jobs in, fabric workers out, one port
# ---------------------------------------------------------------------------

def test_job_simulated_by_an_attached_fabric_worker_equals_local_run():
    spec = tiny_spec(archs=("firefly", "dhetpnoc"), scenarios=(None, "steady"))
    store = ResultStore()
    with ExperimentService(store, workers=0) as service:
        worker, thread = attach_worker(service.address)
        try:
            with ServiceClient(service.address) as client:
                run = client.run_spec(spec)
        finally:
            worker.stop()
    expected, expected_keys = local_run(spec)
    assert [result_to_dict(r) for r in run.results] == [
        result_to_dict(r) for r in expected
    ]
    assert run.keys == expected_keys
    assert run.executed == spec.n_points() and run.hits == 0
    assert {key for key, _result in store.backend.scan()} == set(expected_keys)


def test_pool_lanes_equal_local_run():
    spec = tiny_spec(seeds=(1, 2))
    with ExperimentService(workers=2) as service:
        with ServiceClient(service.address) as client:
            run = client.run_spec(spec)
    expected, expected_keys = local_run(spec)
    assert run.results == expected
    assert run.keys == expected_keys


def test_job_and_fabric_client_share_one_simulation_per_key():
    counting = CountingBackend()
    job_spec = tiny_spec(seeds=(1, 2))
    batch_spec = tiny_spec(seeds=(2, 3))
    _expected, job_keys = local_run(job_spec)
    batch_expected, batch_keys = local_run(batch_spec)
    shared = set(job_keys) & set(batch_keys)
    assert shared
    # No local lanes: nothing simulates until the worker attaches, so
    # the job and the batch are both waiting on the shared keys first.
    with ExperimentService(counting, workers=0) as service:
        outcome: dict = {}

        def run_batch():
            with FabricExecutor(service.address, store=ResultStore()) as fabric:
                outcome["results"] = fabric.run(batch_spec)
                outcome["executed"] = fabric.executed_count

        with ServiceClient(service.address) as client:
            handle = client.submit(job_spec)
            wait_until(
                lambda: set(job_keys) <= set(service._work),
                message="the job to own its keys",
            )
            batch = threading.Thread(target=run_batch, daemon=True)
            batch.start()
            wait_until(
                lambda: all(
                    key in service._work and len(service._work[key].waiters) == 2
                    for key in shared
                ),
                message="both waiters on the shared keys",
            )
            worker, thread = attach_worker(service.address)
            try:
                run = client.watch(handle.job_id)
                batch.join(timeout=60.0)
            finally:
                worker.stop()
        assert not batch.is_alive()
    assert set(counting.put_counts) == set(job_keys) | set(batch_keys)
    assert set(counting.put_counts.values()) == {1}
    assert outcome["results"] == batch_expected
    assert run.keys == job_keys
    # Each shared key was paid for once: by the job (first to want it).
    assert run.executed == len(job_keys)
    assert outcome["executed"] == len(batch_keys) - len(shared)


# ---------------------------------------------------------------------------
# Lifecycle: a stopped server leaves no thread behind
# ---------------------------------------------------------------------------

def test_stopped_servers_leave_no_accept_thread_parked():
    """``close()`` on a listening socket does not wake a thread already
    blocked in ``accept()`` on Linux; the listener must ``shutdown()``
    first, or every stopped server leaks its accept thread."""
    before = threading.active_count()
    for _ in range(5):
        server = RoleServer("127.0.0.1", 0)
        server.start()
        server.stop()
    wait_until(
        lambda: threading.active_count() <= before,
        timeout=2.0,
        message="the accept threads of five stopped servers to exit",
    )
