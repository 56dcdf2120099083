"""One server, every role: the coordinator's ``worker`` and ``jobs`` roles.

Every coordinator serves both roles, local lanes or none, so these
tests drive the paths the two roles share:

* a malformed (well-framed) peer frame in any role earns an ``error``
  reply and leaves the daemon serving, never a dead handler thread;
* a hello in the retired protocol version is told so, whatever role
  it names;
* ``job_end.failed`` lists the job's own failures, not the
  coordinator's lifetime ones;
* admission control does not count a job an idle runner is about to
  take as backlog.

A job simulated only by a ``fabric worker`` attached to the daemon's
own port is the ``jobs-worker`` column of
``tests/experiments/test_lane_matrix.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.fabric.coordinator import Coordinator, JobRecord
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import recv_message, send_message
from repro.fabric.server import RoleServer, dial
from repro.service.jobs import JobQueue, JobRejected

from support import (
    TINY,
    attach_worker,
    serving,
    tiny_spec,
    wait_until,
    wire_point,
)


# ---------------------------------------------------------------------------
# Hostile-but-well-framed input: one fix, in the server core
# ---------------------------------------------------------------------------

#: (role, extra hello fields, the malformed frame)
MALFORMED = {
    "batch-without-fidelity": (
        "jobs", {},
        {"type": "job_submit",
         "points": [{"key": "k", "point": wire_point()}]},
    ),
    "entry-without-point": (
        "jobs", {},
        {"type": "job_submit", "fidelity": TINY.to_dict(),
         "points": [{"key": "k"}]},
    ),
    "fidelity-with-an-unknown-field": (
        "jobs", {},
        {"type": "job_submit", "fidelity": {**TINY.to_dict(), "warmup": 5},
         "points": [{"key": "k", "point": wire_point()}]},
    ),
    "result-without-key": (
        "worker", {"capabilities": {}},
        {"type": "result", "result": {}},
    ),
    "spec-with-scalar-archs": (
        "jobs", {},
        {"type": "job_submit", "spec": {"archs": 5}, "watch": False},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_frame_gets_an_error_reply_and_the_daemon_lives(case):
    role, hello, frame = MALFORMED[case]
    with serving(Coordinator()) as server:
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
    with serving(Coordinator(workers=1)) as service:
        with pytest.raises(ProtocolError, match="unknown role 'observer'"):
            dial(service.address, "observer", attempts=1)


@pytest.mark.parametrize("role", ["client", "jobs"])
def test_a_version_1_hello_is_a_version_mismatch(role):
    # The retired `client` role is no longer served, but a peer that
    # still speaks it learns that its protocol is old, not that its
    # role is unknown.
    with serving(Coordinator()) as coordinator:
        with pytest.raises(
            ProtocolError, match="version mismatch: peer speaks 1, "
        ):
            dial(coordinator.address, role, attempts=1, version=1)


# ---------------------------------------------------------------------------
# job_end.failed lists the job's own failures
# ---------------------------------------------------------------------------

def _submit_raw(conn, seed: int) -> dict:
    """Submit a one-point batch over a raw ``jobs`` connection; its
    job_end."""
    send_message(conn, {
        "type": "job_submit",
        "fidelity": TINY.to_dict(),
        "config": None,
        "points": [{"key": f"key-{seed}", "point": wire_point(seed)}],
        "watch": True,
    })
    while True:
        message = recv_message(conn)
        assert message is not None
        if message["type"] == "job_end":
            return message


def test_job_end_lists_the_jobs_own_failures():
    with serving(Coordinator(max_attempts=1)) as coordinator:
        # A worker that errors on whatever it leases: with one attempt
        # per point, the first job fails its point.
        saboteur, _ = dial(coordinator.address, "worker", capabilities={})
        client, _ = dial(coordinator.address, "jobs")
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
        assert outcome["state"] == "failed"
        assert outcome["failed"] == [
            {"key": "key-1", "error": "boom", "attempts": 1},
        ]
        assert coordinator.total_failed == 1

        # A clean job after the unrelated failure claims none.
        worker, thread = attach_worker(coordinator.address)
        try:
            done = _submit_raw(client, 2)
        finally:
            worker.stop()
            client.close()
        assert done["state"] == "done" and done["failed"] == []
        assert done["executed"] == 1


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
        first, _ = queue.submit(JobRecord.for_spec(tiny_spec(seeds=(1,))))
        # The one queued job allowed:
        queue.submit(JobRecord.for_spec(tiny_spec(seeds=(2,))))
        with pytest.raises(JobRejected, match="capacity"):
            queue.submit(JobRecord.for_spec(tiny_spec(seeds=(3,))))
    runner.join(timeout=10.0)
    assert claimed == [first]


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
