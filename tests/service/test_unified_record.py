"""One job record on one work table, driven over the wire.

A spec job and a planned batch (what ``FabricExecutor`` submits) are
the same ``JobRecord`` on the ``jobs`` role, put on the coordinator's
work table by the same admission method. These tests pin its edges:

* admission queues a job's misses in grid order (the incremental
  stream stalls otherwise) and pays for a key repeated in the grid
  once;
* a cancel that lands while the job is still being admitted leaves it
  on no waiter list and leaves no orphan work item;
* a job whose point exhausts its attempts fails naming the point by
  label, lets go of the keys only it wanted, and restarts cleanly;
* cancelling a queued job gives its backlog slot back;
* whichever of a spec job and a fabric batch wants a shared key
  first pays for it, and the other reports it as a hit — one ``put``
  per key;
* a batch whose peer leaves runs on, and the same batch again attaches
  to its record; a batch past the backlog is refused like a spec;
* the frames either form receives carry exactly the catalogued fields.
"""

from __future__ import annotations

import threading
from contextlib import closing

import pytest

from repro.experiments.runner import Fidelity
from repro.experiments.store import ResultStore, result_to_dict
from repro.experiments.sweep import FabricExecutor, PointExecutor
from repro.fabric.coordinator import Coordinator
from repro.fabric.protocol import recv_message, send_message
from repro.fabric.server import dial
from repro.service.client import ServiceClient
from repro.service.daemon import ExperimentService
from repro.service.errors import ServiceError

from support import (
    TINY,
    CountingBackend,
    attach_worker,
    local_run,
    serving,
    tiny_spec,
    wait_until,
    wire_point,
)


# ---------------------------------------------------------------------------
# Admission: grid order, store hits, in-grid repeats
# ---------------------------------------------------------------------------

def test_misses_are_queued_in_grid_order_and_hits_resolve_at_admission():
    spec = tiny_spec(seeds=(1, 2, 3))
    results, keys = local_run(spec)
    store = ResultStore()
    for key, result in list(zip(keys, results))[::2]:
        store.put(key, result)  # indices 0, 2, 4 are warm
    with serving(ExperimentService(store, workers=0)) as service:
        with ServiceClient(service.address) as client:
            handle = client.submit(spec)
            record = service.jobs.get(handle.job_id)
            wait_until(
                lambda: len(service._queue) == 3, message="admission to end"
            )
            assert service._queue == keys[1::2]
            assert record.pending == set(keys[1::2])
            assert list(record.results) == keys[::2]
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
    with serving(ExperimentService(counting)) as service:
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
    service = ExperimentService(backend, workers=0, max_jobs=1)
    with serving(service):
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
    with serving(ExperimentService(workers=0, max_jobs=1)) as service:
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
    service = ExperimentService(workers=0, max_jobs=1, max_pending=1)
    with serving(service):
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
# A spec job and a fabric batch sharing keys, in either order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("first", ["job", "client"])
def test_job_and_fabric_client_share_one_simulation_per_key(first):
    counting = CountingBackend()
    specs = tiny_spec(seeds=(1, 2)), tiny_spec(seeds=(2, 3))
    job_spec, batch_spec = specs if first == "job" else specs[::-1]
    job_expected, job_keys = local_run(job_spec)
    batch_expected, batch_keys = local_run(batch_spec)
    shared = set(job_keys) & set(batch_keys)
    assert shared
    # No local lanes: nothing simulates until the worker attaches, so
    # the job and the batch are both waiting on the shared keys first.
    with serving(ExperimentService(counting, workers=0)) as service:
        outcome: dict = {}

        def run_batch():
            with closing(FabricExecutor(service.address,
                                        store=ResultStore())) as fabric:
                outcome["results"] = fabric.run(batch_spec)
                outcome["executed"] = fabric.executed_count

        def owns(keys):
            return set(keys) <= set(service._work)

        batch = threading.Thread(target=run_batch, daemon=True)
        with ServiceClient(service.address) as client:
            if first == "client":
                batch.start()
                wait_until(lambda: owns(batch_keys),
                           message="the batch to own its keys")
            handle = client.submit(job_spec)
            if first == "job":
                wait_until(lambda: owns(job_keys),
                           message="the job to own its keys")
                batch.start()
            wait_until(
                lambda: owns(job_keys) and owns(batch_keys) and all(
                    len(service._work[key].waiters) == 2 for key in shared
                ),
                message="both waiters on the shared keys",
            )
            worker, _thread = attach_worker(service.address)
            try:
                run = client.watch(handle.job_id)
                batch.join(timeout=60.0)
            finally:
                worker.stop()
        assert not batch.is_alive()
    assert set(counting.put_counts) == set(job_keys) | set(batch_keys)
    assert set(counting.put_counts.values()) == {1}
    assert outcome["results"] == batch_expected
    assert run.keys == job_keys and run.results == job_expected
    # Each shared key was paid for once: by the side first to want it.
    paid_by_job = len(shared) if first == "job" else 0
    assert run.executed == len(job_keys) - len(shared) + paid_by_job
    assert run.hits == len(shared) - paid_by_job
    assert outcome["executed"] == len(batch_keys) - paid_by_job


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
    with serving(ExperimentService()) as service:
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
        "hits", "error", "failed",
    }
    assert end["state"] == "done" and end["error"] == ""
    assert end["failed"] == []


def test_batch_frames_carry_exactly_the_catalogued_fields():
    with serving(Coordinator(max_attempts=1)) as coordinator:
        saboteur, _ = dial(coordinator.address, "worker", capabilities={})
        conn, _ = dial(coordinator.address, "jobs")
        try:
            send_message(conn, {
                "type": "job_submit", "fidelity": TINY.to_dict(),
                "config": None,
                "points": [
                    {"key": f"key-{seed}", "point": wire_point(seed)}
                    for seed in (1, 2)
                ],
                "watch": True,
            })
            wait_until(
                lambda: len(coordinator._queue) == 2, message="admission"
            )
            send_message(saboteur, {"type": "lease"})
            healthy, broken = recv_message(saboteur)["items"]
            from repro.experiments.sweep import execute_item

            send_message(saboteur, {
                "type": "result", "key": healthy["key"],
                "result": result_to_dict(execute_item(healthy)),
            })
            send_message(saboteur, {
                "type": "result_error", "key": broken["key"], "error": "boom",
            })
            accepted, *points, end = _frames_until(conn, "job_end")
        finally:
            saboteur.close()
            conn.close()
    assert set(accepted) == {"type", "job_id", "state", "deduped", "total"}
    (point,) = points
    assert set(point) == {
        "type", "job_id", "index", "key", "result", "cached",
    }
    assert (point["index"], point["key"]) == (0, "key-1")
    assert end["state"] == "failed" and end["completed"] == 1
    assert end["failed"] == [
        {"key": "key-2", "error": "boom", "attempts": 1},
    ]


# ---------------------------------------------------------------------------
# A batch is a job: detached on disconnect, deduped, admission-controlled
# ---------------------------------------------------------------------------

def _batch(spec):
    """*spec*'s grid as the planned batch a ``FabricExecutor`` submits:
    ``(entries, fidelity, config)``."""
    planner = PointExecutor()
    points = spec.expand()
    keys, unique = planner.plan(points, spec.fidelity)
    items = [planner.work_item(p, keys[i], spec.fidelity) for i, p in unique]
    entries = [{"key": item["key"], "point": item["point"]} for item in items]
    return entries, items[0]["fidelity"], items[0]["config"]


def test_a_batch_whose_peer_leaves_runs_on_and_a_resubmission_attaches():
    spec = tiny_spec(seeds=(1, 2))
    expected, keys = local_run(spec)
    batch = _batch(spec)
    # No worker yet: the peer leaves before any point is simulated.
    with serving(Coordinator()) as coordinator:
        with ServiceClient(coordinator.address) as client:
            handle = client.submit_batch(*batch, watch=True)
        record = coordinator.jobs.get(handle.job_id)
        worker, _thread = attach_worker(coordinator.address)
        try:
            wait_until(lambda: record.state == "done",
                       message="the detached batch to finish")
            assert record.executed == len(keys)
            with ServiceClient(coordinator.address) as client:
                again = client.submit_batch(*batch, watch=True)
                run = client.stream(again.job_id)
            with closing(FabricExecutor(coordinator.address,
                                        store=ResultStore())) as fabric:
                results = fabric.run(spec)
                executed = fabric.executed_count
        finally:
            worker.stop()
        assert len(coordinator.jobs.list_jobs()) == 1
        assert coordinator.total_executed == len(keys)
    assert again.deduped and again.job_id == handle.job_id
    assert run.keys == keys and run.results == expected
    # The submission that attached paid for nothing.
    assert results == expected and executed == 0


def test_a_batch_past_max_pending_is_refused():
    # No worker: the first job holds the one runner slot, the second
    # fills the backlog.
    with serving(Coordinator(max_jobs=1, max_pending=1)) as coordinator:
        with ServiceClient(coordinator.address) as client:
            running = client.submit_batch(*_batch(tiny_spec(seeds=(1,))))
            wait_until(
                lambda: client.status(running.job_id)["state"] == "running",
                message="the runner to take the first batch",
            )
            queued = client.submit_batch(*_batch(tiny_spec(seeds=(2,))))
            assert queued.state == "queued"
            with pytest.raises(ServiceError, match="capacity"):
                client.submit_batch(*_batch(tiny_spec(seeds=(3,))))
            # The refusal left the connection usable.
            assert client.stats()["jobs"] == 1
