"""Job model unit tests: IDs, lifecycle, admission, the record's view.

The service's dedup contract starts here: job IDs are content hashes
of the spec's canonical JSON, or of a planned batch's ordered keys, so
equality of experiments — not of submission events — decides
identity. The queue tests pin the lifecycle (queued/running/terminal,
restartable states, cancellation of queued vs running jobs) and the
admission-control backpressure; the record tests pin the grid-ordered
filled prefix a ``jobs`` peer is streamed, each ``job_point`` of it
encoded once per record, and the ``job_end`` that lists the points
given up on.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.spec import ExperimentSpec
from repro.fabric.coordinator import JobRecord
from repro.fabric.protocol import encode_message
from repro.service.errors import ServiceError
from repro.service.jobs import (
    JobQueue,
    JobRejected,
    job_id_for_batch,
    job_id_for_spec,
)

from support import tiny_spec


def make_queue(**kwargs) -> JobQueue:
    """A queue on a condition of its own (the daemon passes the
    coordinator's scheduling condition)."""
    return JobQueue(threading.Condition(), **kwargs)


def spec_job(**kwargs) -> JobRecord:
    """A fresh record for ``tiny_spec(**kwargs)``, as the coordinator
    builds one per ``job_submit``."""
    return JobRecord.for_spec(tiny_spec(**kwargs))


# ---------------------------------------------------------------------------
# Job IDs
# ---------------------------------------------------------------------------

class TestJobIds:
    def test_deterministic_across_round_trips(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert job_id_for_spec(spec) == job_id_for_spec(clone)

    def test_distinct_specs_get_distinct_ids(self):
        assert job_id_for_spec(tiny_spec()) != job_id_for_spec(
            tiny_spec(seeds=(2,))
        )

    def test_shape(self):
        job_id = job_id_for_spec(tiny_spec())
        assert job_id.startswith("job-")
        assert len(job_id) == len("job-") + 12
        int(job_id[4:], 16)  # hex digest tail

    def test_a_batch_is_named_by_its_ordered_keys(self):
        items = [{"key": key} for key in ("k0", "k1")]
        record = JobRecord.for_batch(items)
        assert record.job_id == job_id_for_batch(["k0", "k1"])
        assert record.job_id != job_id_for_batch(["k1", "k0"])
        assert (record.total, record.items, record.spec) == (2, items, None)
        assert record.job_id.startswith("job-") and len(record.job_id) == 16


# ---------------------------------------------------------------------------
# Queue lifecycle
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_submit_then_claim(self):
        queue = make_queue()
        record, deduped = queue.submit(spec_job())
        assert not deduped
        assert record.state == "queued"
        assert record.total == tiny_spec().n_points()
        claimed = queue.claim(timeout=0.1)
        assert claimed is record
        assert record.state == "running"

    def test_duplicate_submission_dedups(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        again, deduped = queue.submit(spec_job())
        assert deduped
        assert again is record
        # Only one queue entry: the second claim times out.
        assert queue.claim(timeout=0.05) is record
        assert queue.claim(timeout=0.05) is None

    def test_finish_requires_terminal_state(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        with pytest.raises(ValueError):
            queue.finish(record, "running")
        queue.finish(record, "done")
        assert record.terminal

    def test_failed_and_cancelled_restart_instead_of_dedup(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        queue.claim(timeout=0.1)
        record.keys = ["k0", "k1"]
        record.done("k0", {"r": 0}, cached=False)
        queue.finish(record, "failed", error="boom")
        again, deduped = queue.submit(spec_job())
        assert not deduped  # restart, not dedup
        # A fresh record in the old one's place: nothing of the failed
        # attempt — its results, its prefix, its waits — carries over.
        assert again is not record and queue.get(record.job_id) is again
        assert again.state == "queued" and again.total == record.total
        assert again.completed == 0 and again.error == ""
        assert not again.results and not again.pending
        assert record.state == "failed" and record.completed == 1
        assert queue.claim(timeout=0.1) is again
        queue.finish(again, "cancelled")
        _, deduped = queue.submit(spec_job())
        assert not deduped
        assert len(queue.list_jobs()) == 1  # one row per job id, ever

    def test_done_jobs_dedup_forever(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        queue.claim(timeout=0.1)
        queue.finish(record, "done")
        again, deduped = queue.submit(spec_job())
        assert deduped and again is record

    def test_cancel_queued_is_immediate(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        assert queue.cancel(record.job_id) == "cancelled"
        assert record.state == "cancelled"
        # Its FIFO entry went with it: nothing to claim.
        assert queue.claim(timeout=0.05) is None

    def test_cancelling_a_queued_job_gives_its_backlog_slot_back(self):
        queue = make_queue(max_pending=1)
        first, _ = queue.submit(spec_job(seeds=(1,)))
        queue.cancel(first.job_id)
        # The backlog is empty again, so a fresh submission is admitted.
        second, deduped = queue.submit(spec_job(seeds=(2,)))
        assert not deduped and second.state == "queued"
        assert queue._fifo == [second.job_id]

    def test_cancel_then_resubmit_queues_the_job_once(self):
        queue = make_queue(max_pending=2)
        first, _ = queue.submit(spec_job())
        queue.cancel(first.job_id)
        again, deduped = queue.submit(spec_job())
        assert not deduped
        assert queue._fifo == [again.job_id]
        assert queue.claim(timeout=0.05) is again
        assert queue.claim(timeout=0.05) is None

    def test_cancel_running_is_cooperative(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        queue.claim(timeout=0.1)
        assert queue.cancel(record.job_id) == "running"
        assert record.cancelled and record.state == "running"

    def test_cancel_terminal_is_a_no_op(self):
        queue = make_queue()
        record, _ = queue.submit(spec_job())
        queue.claim(timeout=0.1)
        queue.finish(record, "done")
        assert queue.cancel(record.job_id) == "done"

    def test_unknown_job_raises(self):
        with pytest.raises(ServiceError, match="unknown job"):
            make_queue().get("job-000000000000")

    def test_admission_control(self):
        queue = make_queue(max_pending=2)
        queue.submit(spec_job(seeds=(1,)))
        queue.submit(spec_job(seeds=(2,)))
        with pytest.raises(JobRejected, match="capacity"):
            queue.submit(spec_job(seeds=(3,)))
        # Duplicates of queued jobs never count against capacity.
        _, deduped = queue.submit(spec_job(seeds=(1,)))
        assert deduped

    def test_list_jobs_reports_every_admission(self):
        queue = make_queue()
        queue.submit(spec_job(seeds=(1,)))
        queue.submit(spec_job(seeds=(2,)))
        rows = queue.list_jobs()
        assert len(rows) == 2
        assert {row["state"] for row in rows} == {"queued"}


# ---------------------------------------------------------------------------
# One record, one view
# ---------------------------------------------------------------------------

class TestJobRecord:
    def test_grid_prefix_fills_in_order_whatever_completes_first(self):
        record = JobRecord(job_id="job-x", total=2, keys=["k0", "k1"])
        record.pending = {"k0", "k1"}
        record.done("k1", {"r": 1}, cached=True)
        # Index 1 landed first: the record has it, the stream does not.
        assert record.completed == 0 and record.pending == {"k0"}
        assert record.grid_view(0) == ([], None)
        assert list(record.results) == ["k1"]
        record.done("k0", {"r": 0}, cached=False)
        assert record.completed == 2
        assert (record.executed, record.hits) == (1, 1)
        frames, closing = record.grid_view(0)
        assert closing is None  # not terminal until its runner says so
        assert [(f["index"], f["key"], f["result"], f["cached"])
                for f in frames] == [
            (0, "k0", {"r": 0}, False), (1, "k1", {"r": 1}, True),
        ]
        # A late watcher replays from any index; a terminal record
        # closes with the job's own counts.
        assert [f["index"] for f in record.grid_view(1)[0]] == [1]
        record.state = "done"
        assert record.grid_view(2) == ([], {
            "type": "job_end", "job_id": "job-x", "state": "done",
            "total": 2, "completed": 2, "executed": 1, "hits": 1,
            "error": "", "failed": [],
        })

    def test_key_repeated_in_the_grid_is_executed_once_then_a_hit(self):
        record = JobRecord(job_id="job-x", total=3, keys=["a", "b", "a"])
        record.done("b", {"r": "b"}, cached=False)
        record.done("a", {"r": "a"}, cached=False)
        assert record.completed == 3
        assert record.cached == [False, False, True]
        assert (record.executed, record.hits) == (2, 1)
        assert len(record.results) == 2  # one result per unique key
        assert [f["result"] for f in record.grid_view(0)[0]] == [
            {"r": "a"}, {"r": "b"}, {"r": "a"},
        ]

    def test_a_point_given_up_on_stops_the_prefix_and_is_listed(self):
        record = JobRecord(
            job_id="job-x", total=3, keys=["k0", "k1", "k2"],
            pending={"k0", "k2"},
        )
        record.done("k1", {"r": 1}, cached=False)
        record.failed("k0", "point a/set1/u@1Gb/s failed: boom", "boom", 2)
        record.failed("k2", "a later reason", "bang", 3)
        assert record.completed == 0 and not record.pending
        assert record.error == "point a/set1/u@1Gb/s failed: boom"
        record.state = "failed"
        assert record.grid_view(0)[1]["failed"] == [
            {"key": "k0", "error": "boom", "attempts": 2},
            {"key": "k2", "error": "bang", "attempts": 3},
        ]

    def test_each_grid_frame_is_grid_views_dict_encoded_once(self):
        record = JobRecord(job_id="job-x", total=3, keys=["a", "b", "a"])
        record.done("a", {"r": [0.1 + 0.2, "\u00e9"]}, cached=False)
        frames, closing = record.grid_frames(0)
        # Index 1 is unresolved: the prefix stops at index 0.
        assert (len(frames), closing) == (1, None)
        record.done("b", {"r": 1.0 / 3.0}, cached=True)
        record.state = "done"
        frames, closing = record.grid_frames(0)
        dicts, end = record.grid_view(0)
        assert frames == [encode_message(frame) for frame in dicts]
        assert closing == end and closing["completed"] == 3
        # Stored, not re-encoded: every later stream resends the same
        # objects, from whatever index it starts at.
        again, _ = record.grid_frames(0)
        assert all(x is y for x, y in zip(again, frames))
        assert record.grid_frames(2)[0] == frames[2:]
        assert record.grid_frames(3) == ([], closing)
