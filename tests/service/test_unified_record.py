"""One job record on one work table, driven over the wire.

A ``jobs``-role job and a ``client``-role batch are the same
``JobRecord``, put on the coordinator's work table by the same
admission method. These tests pin the edges that merge created:

* admission queues a job's misses in grid order (the incremental
  stream stalls otherwise) and pays for a key repeated in the grid
  once;
* a cancel that lands while the job is still being admitted leaves it
  on no waiter list and leaves no orphan work item;
* a job whose point exhausts its attempts fails naming the point by
  label, lets go of the keys only it wanted, and restarts cleanly;
* cancelling a queued job gives its backlog slot back;
* a fabric client batch that wanted a key first pays for it, and the
  job that joins later reports it as a hit — still one ``put`` per key;
* the frames either role receives carry exactly the catalogued fields.
"""

from __future__ import annotations

import threading

import pytest

from repro.experiments.runner import Fidelity
from repro.experiments.store import ResultStore, result_to_dict
from repro.experiments.sweep import FabricExecutor
from repro.fabric.coordinator import Coordinator
from repro.fabric.protocol import recv_message, send_message
from repro.fabric.server import dial
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.service.errors import ServiceError

from test_daemon_roles import TINY, attach_worker, wire_point
from test_service import CountingBackend, local_run, tiny_spec, wait_until


# ---------------------------------------------------------------------------
# Admission: grid order, store hits, in-grid repeats
# ---------------------------------------------------------------------------

def test_misses_are_queued_in_grid_order_and_hits_resolve_at_admission():
    spec = tiny_spec(seeds=(1, 2, 3))
    results, keys = local_run(spec)
    store = ResultStore()
    for key, result in list(zip(keys, results))[::2]:
        store.put(key, result)  # indices 0, 2, 4 are warm
    with ExperimentService(store, workers=0) as service:
        with ServiceClient(service.address) as client:
            handle = client.submit(spec)
            record = service.jobs.get(handle.job_id)
            wait_until(
                lambda: len(service._queue) == 3, message="admission to end"
            )
            assert service._queue == keys[1::2]
            assert record.pending == set(keys[1::2])
            assert list(record.log) == keys[::2]
            # Index 0 streams at once; index 1 is the first miss.
            assert record.completed == 1 and record.state == "running"
            worker, _thread = attach_worker(service.address)
            try:
                run = client.watch(handle.job_id)
            finally:
                worker.stop()
    assert run.keys == keys
    assert [result_to_dict(r) for r in run.results] == [
        result_to_dict(r) for r in results
    ]
    assert (run.executed, run.hits) == (3, 3)


def test_key_repeated_in_the_grid_is_simulated_once_and_streamed_twice():
    # A fidelity that repeats a load fraction is the one way a spec's
    # grid repeats a store key.
    spec = tiny_spec(fidelity=Fidelity("tiny", 700, 100, (0.3, 0.3, 0.8)))
    counting = CountingBackend()
    with ExperimentService(counting) as service:
        with ServiceClient(service.address) as client:
            run = client.run_spec(spec)
    expected, expected_keys = local_run(spec)
    assert expected_keys[0] == expected_keys[1]
    assert run.keys == expected_keys and run.results == expected
    assert (run.executed, run.hits) == (2, 1)
    assert set(counting.put_counts.values()) == {1}


# ---------------------------------------------------------------------------
# A cancel racing admission
# ---------------------------------------------------------------------------

class GatedBackend(CountingBackend):
    """Lets *free* reads through, then parks every ``get`` until opened."""

    def __init__(self, free: int) -> None:
        super().__init__()
        self.free = free
        self.parked = threading.Event()
        self.gate = threading.Event()

    def get(self, key, coords=None):
        with self._lock:
            self.free -= 1
            free = self.free
        if free < 0:
            self.parked.set()
            assert self.gate.wait(timeout=30.0)
        return super().get(key, coords)


def test_cancel_racing_admission_leaves_no_waiter_and_no_orphan_item():
    spec = tiny_spec(seeds=(1, 2))
    backend = GatedBackend(free=1)
    with ExperimentService(backend, workers=0, max_jobs=1) as service:
        with ServiceClient(service.address) as client:
            handle = client.submit(spec)
            record = service.jobs.get(handle.job_id)
            # The first key is on the table; the second key's store
            # read is parked, so admission is mid-grid.
            wait_until(backend.parked.is_set, message="admission mid-grid")
            assert len(service._work) == 1 and len(record.pending) == 1
            assert client.cancel(handle.job_id) == "running"
            backend.gate.set()
            wait_until(
                lambda: record.state == "cancelled", message="the cancel"
            )
            assert record.completed == 0 and not record.pending
            assert service._work == {}
            assert service.stats()["jobs"] == 0
            with service._state_changed:  # the stale queue entry is skipped
                assert service._lease(object(), 10) == []
            # A resubmission is a clean restart.
            again = client.submit(spec)
            assert not again.deduped
            worker, _thread = attach_worker(service.address)
            try:
                run = client.watch(again.job_id)
            finally:
                worker.stop()
    expected, expected_keys = local_run(spec)
    assert run.keys == expected_keys and run.results == expected
    assert set(backend.put_counts.values()) == {1}


# ---------------------------------------------------------------------------
# A failed job
# ---------------------------------------------------------------------------

def test_failed_job_names_the_point_by_label_lets_go_and_restarts():
    spec = tiny_spec()
    expected, expected_keys = local_run(spec)
    with ExperimentService(workers=0, max_jobs=1) as service:
        service.max_attempts = 1
        saboteur, _ = dial(service.address, "worker", capabilities={})
        with ServiceClient(service.address) as client:
            handle = client.submit(spec)
            wait_until(
                lambda: len(service._queue) == 2, message="job admission"
            )
            send_message(saboteur, {"type": "lease"})
            items = recv_message(saboteur)["items"]
            assert [item["key"] for item in items] == expected_keys
            send_message(saboteur, {
                "type": "result_error", "key": items[0]["key"],
                "error": "boom",
            })
            with pytest.raises(
                ServiceError,
                match=r"ended failed: point firefly/set1/uniform@\d+Gb/s "
                      r"failed after 1 attempt\(s\): boom",
            ):
                client.watch(handle.job_id)
            status = client.status(handle.job_id)
            assert status["state"] == "failed"
            assert status["error"].startswith("point firefly/set1/uniform@")
            # It stopped waiting on the other key at once; the item
            # itself goes when the worker holding it lets go.
            assert service.stats()["jobs"] == 0
            saboteur.close()
            wait_until(
                lambda: not service._work, message="its keys to leave _work"
            )
            again = client.submit(spec)
            assert not again.deduped and again.state == "queued"
            worker, _thread = attach_worker(service.address)
            try:
                run = client.watch(again.job_id)
            finally:
                worker.stop()
    assert run.keys == expected_keys
    assert [result_to_dict(r) for r in run.results] == [
        result_to_dict(r) for r in expected
    ]
    assert run.executed == spec.n_points()


# ---------------------------------------------------------------------------
# Admission control: a cancelled queued job is not backlog
# ---------------------------------------------------------------------------

def test_cancelling_a_queued_job_frees_its_slot_over_the_wire():
    # No lanes and no workers: the running job stays running.
    with ExperimentService(workers=0, max_jobs=1, max_pending=1) as service:
        with ServiceClient(service.address) as client:
            running = client.submit(tiny_spec(seeds=(1,)))
            wait_until(
                lambda: client.status(running.job_id)["state"] == "running",
                message="the runner to take the first job",
            )
            queued = client.submit(tiny_spec(seeds=(2,)))
            assert queued.state == "queued"
            with pytest.raises(ServiceError, match="capacity"):
                client.submit(tiny_spec(seeds=(3,)))
            assert client.cancel(queued.job_id) == "cancelled"
            admitted = client.submit(tiny_spec(seeds=(3,)))
            assert not admitted.deduped and admitted.state == "queued"
            assert service.jobs._fifo == [admitted.job_id]


# ---------------------------------------------------------------------------
# Client batch first, job second: the mirror of the job-first case
# ---------------------------------------------------------------------------

def test_fabric_client_first_then_job_share_one_simulation_per_key():
    counting = CountingBackend()
    batch_spec = tiny_spec(seeds=(1, 2))
    job_spec = tiny_spec(seeds=(2, 3))
    batch_expected, batch_keys = local_run(batch_spec)
    job_expected, job_keys = local_run(job_spec)
    shared = set(batch_keys) & set(job_keys)
    assert shared
    with ExperimentService(counting, workers=0) as service:
        outcome: dict = {}

        def run_batch():
            with FabricExecutor(service.address, store=ResultStore()) as fabric:
                outcome["results"] = fabric.run(batch_spec)
                outcome["executed"] = fabric.executed_count

        batch = threading.Thread(target=run_batch, daemon=True)
        batch.start()
        wait_until(
            lambda: set(batch_keys) <= set(service._work),
            message="the batch to own its keys",
        )
        with ServiceClient(service.address) as client:
            handle = client.submit(job_spec)
            wait_until(
                lambda: all(
                    len(service._work[key].waiters) == 2 for key in shared
                ) and set(job_keys) <= set(service._work),
                message="both waiters on the shared keys",
            )
            worker, _thread = attach_worker(service.address)
            try:
                run = client.watch(handle.job_id)
                batch.join(timeout=60.0)
            finally:
                worker.stop()
        assert not batch.is_alive()
    assert set(counting.put_counts) == set(batch_keys) | set(job_keys)
    assert set(counting.put_counts.values()) == {1}
    assert outcome["results"] == batch_expected
    assert run.keys == job_keys and run.results == job_expected
    # Each shared key was paid for once: by the batch (first to want it).
    assert outcome["executed"] == len(batch_keys)
    assert run.executed == len(job_keys) - len(shared)
    assert run.hits == len(shared)


# ---------------------------------------------------------------------------
# Exactly the catalogued fields on the wire
# ---------------------------------------------------------------------------

def _frames_until(conn, closing: str) -> list:
    frames = []
    while not frames or frames[-1]["type"] != closing:
        frame = recv_message(conn)
        assert frame is not None, frames
        frames.append(frame)
    return frames


def test_jobs_role_frames_carry_exactly_the_catalogued_fields():
    spec = tiny_spec()
    with ExperimentService() as service:
        conn, _welcome = dial(service.address, "jobs")
        try:
            send_message(conn, {
                "type": "job_submit", "spec": spec.to_dict(), "watch": True,
            })
            accepted, *points, end = _frames_until(conn, "job_end")
        finally:
            conn.close()
    assert set(accepted) == {"type", "job_id", "state", "deduped", "total"}
    assert [frame["index"] for frame in points] == [0, 1]
    for frame in points:
        assert set(frame) == {
            "type", "job_id", "index", "key", "result", "cached",
        }
    assert set(end) == {
        "type", "job_id", "state", "total", "completed", "executed",
        "hits", "error",
    }
    assert end["state"] == "done" and end["error"] == ""


def test_client_role_frames_carry_exactly_the_catalogued_fields():
    from repro.fabric.protocol import fidelity_to_dict

    with Coordinator(max_attempts=1) as coordinator:
        saboteur, _ = dial(coordinator.address, "worker", capabilities={})
        client, _ = dial(coordinator.address, "client")
        try:
            send_message(client, {
                "type": "submit", "fidelity": fidelity_to_dict(TINY),
                "config": None,
                "points": [
                    {"key": f"key-{seed}", "point": wire_point(seed)}
                    for seed in (1, 2)
                ],
            })
            wait_until(
                lambda: len(coordinator._queue) == 2, message="admission"
            )
            send_message(saboteur, {"type": "lease"})
            broken, healthy = recv_message(saboteur)["items"]
            send_message(saboteur, {
                "type": "result_error", "key": broken["key"], "error": "boom",
            })
            from repro.experiments.sweep import execute_item

            send_message(saboteur, {
                "type": "result", "key": healthy["key"],
                "result": result_to_dict(execute_item(healthy)),
            })
            failed, done, summary = _frames_until(client, "job_done")
        finally:
            saboteur.close()
            client.close()
    assert set(failed) == {"type", "key", "error", "attempts"}
    assert set(done) == {"type", "key", "result", "cached"}
    assert summary == {
        "type": "job_done", "executed": 1, "hits": 0, "failed": 1,
    }
