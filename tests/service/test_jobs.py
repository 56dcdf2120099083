"""Job model unit tests: IDs, lifecycle, admission, the record's views.

The service's dedup contract starts here: job IDs are content hashes
of the spec's canonical JSON, so equality of experiments — not of
submission events — decides identity. The queue tests pin the
lifecycle (queued/running/terminal, restartable states, cancellation
of queued vs running jobs) and the admission-control backpressure; the
record tests pin the two views one ``JobRecord`` carries — the
completion-ordered log a ``client`` peer streams and the grid-ordered
filled prefix a ``jobs`` peer streams.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.spec import ExperimentSpec
from repro.experiments.runner import Fidelity
from repro.service.errors import ServiceError
from repro.service.jobs import (
    JobQueue,
    JobRecord,
    JobRejected,
    job_id_for_spec,
)

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


def make_queue(**kwargs) -> JobQueue:
    """A queue on a condition of its own (the daemon passes the
    coordinator's scheduling condition)."""
    return JobQueue(threading.Condition(), **kwargs)


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


# ---------------------------------------------------------------------------
# Queue lifecycle
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_submit_then_claim(self):
        queue = make_queue()
        record, deduped = queue.submit(tiny_spec())
        assert not deduped
        assert record.state == "queued"
        assert record.total == tiny_spec().n_points()
        claimed = queue.claim(timeout=0.1)
        assert claimed is record
        assert record.state == "running"

    def test_duplicate_submission_dedups(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        again, deduped = queue.submit(tiny_spec())
        assert deduped
        assert again is record
        # Only one queue entry: the second claim times out.
        assert queue.claim(timeout=0.05) is record
        assert queue.claim(timeout=0.05) is None

    def test_finish_requires_terminal_state(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        with pytest.raises(ValueError):
            queue.finish(record, "running")
        queue.finish(record, "done")
        assert record.terminal

    def test_failed_and_cancelled_restart_instead_of_dedup(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        record.keys = ["k0", "k1"]
        record.done("k0", {"r": 0}, cached=False)
        queue.finish(record, "failed", error="boom")
        again, deduped = queue.submit(tiny_spec())
        assert not deduped  # restart, not dedup
        # A fresh record in the old one's place: nothing of the failed
        # attempt — its log, its prefix, its waits — carries over.
        assert again is not record and queue.get(record.job_id) is again
        assert again.state == "queued" and again.total == record.total
        assert again.completed == 0 and again.error == ""
        assert not again.log and not again.pending
        assert record.state == "failed" and record.completed == 1
        assert queue.claim(timeout=0.1) is again
        queue.finish(again, "cancelled")
        _, deduped = queue.submit(tiny_spec())
        assert not deduped
        assert len(queue) == 1  # one registry row per job id, ever

    def test_done_jobs_dedup_forever(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        queue.finish(record, "done")
        again, deduped = queue.submit(tiny_spec())
        assert deduped and again is record

    def test_cancel_queued_is_immediate(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        assert queue.cancel(record.job_id) == "cancelled"
        assert record.state == "cancelled"
        # Its FIFO entry went with it: nothing to claim.
        assert queue.claim(timeout=0.05) is None

    def test_cancelling_a_queued_job_gives_its_backlog_slot_back(self):
        queue = make_queue(max_pending=1)
        first, _ = queue.submit(tiny_spec(seeds=(1,)))
        queue.cancel(first.job_id)
        # The backlog is empty again, so a fresh submission is admitted.
        second, deduped = queue.submit(tiny_spec(seeds=(2,)))
        assert not deduped and second.state == "queued"
        assert queue._fifo == [second.job_id]

    def test_cancel_then_resubmit_queues_the_job_once(self):
        queue = make_queue(max_pending=2)
        first, _ = queue.submit(tiny_spec())
        queue.cancel(first.job_id)
        again, deduped = queue.submit(tiny_spec())
        assert not deduped
        assert queue._fifo == [again.job_id]
        assert queue.claim(timeout=0.05) is again
        assert queue.claim(timeout=0.05) is None

    def test_cancel_running_is_cooperative(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        assert queue.cancel(record.job_id) == "running"
        assert record.cancelled and record.state == "running"

    def test_cancel_terminal_is_a_no_op(self):
        queue = make_queue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        queue.finish(record, "done")
        assert queue.cancel(record.job_id) == "done"

    def test_unknown_job_raises(self):
        with pytest.raises(ServiceError, match="unknown job"):
            make_queue().get("job-000000000000")

    def test_admission_control(self):
        queue = make_queue(max_pending=2)
        queue.submit(tiny_spec(seeds=(1,)))
        queue.submit(tiny_spec(seeds=(2,)))
        with pytest.raises(JobRejected, match="capacity"):
            queue.submit(tiny_spec(seeds=(3,)))
        # Duplicates of queued jobs never count against capacity.
        _, deduped = queue.submit(tiny_spec(seeds=(1,)))
        assert deduped

    def test_list_jobs_reports_every_admission(self):
        queue = make_queue()
        queue.submit(tiny_spec(seeds=(1,)))
        queue.submit(tiny_spec(seeds=(2,)))
        rows = queue.list_jobs()
        assert len(rows) == 2 == len(queue)
        assert {row["state"] for row in rows} == {"queued"}


# ---------------------------------------------------------------------------
# One record, two views
# ---------------------------------------------------------------------------

class TestJobRecord:
    def test_grid_prefix_fills_in_order_whatever_completes_first(self):
        record = JobRecord(job_id="job-x", total=2, keys=["k0", "k1"])
        record.pending = {"k0", "k1"}
        record.done("k1", {"r": 1}, cached=True)
        # Index 1 landed first: the log has it, the grid stream does not.
        assert record.completed == 0 and record.pending == {"k0"}
        assert record.grid_view(0) == ([], None)
        assert [f["key"] for f in record.log_view(0)[0]] == ["k1"]
        record.done("k0", {"r": 0}, cached=False)
        assert record.completed == 2
        assert (record.executed, record.hits) == (1, 1)
        frames, closing = record.grid_view(0)
        assert closing is None  # not terminal until its runner says so
        assert [(f["index"], f["key"], f["result"], f["cached"])
                for f in frames] == [
            (0, "k0", {"r": 0}, False), (1, "k1", {"r": 1}, True),
        ]
        # A late watcher replays from any index; the log keeps
        # completion order and closes with the job's own counts.
        assert [f["index"] for f in record.grid_view(1)[0]] == [1]
        frames, closing = record.log_view(0)
        assert [f["key"] for f in frames] == ["k1", "k0"]
        assert closing == {
            "type": "job_done", "executed": 1, "hits": 1, "failed": 0,
        }

    def test_key_repeated_in_the_grid_is_executed_once_then_a_hit(self):
        record = JobRecord(job_id="job-x", total=3, keys=["a", "b", "a"])
        record.done("b", {"r": "b"}, cached=False)
        record.done("a", {"r": "a"}, cached=False)
        assert record.completed == 3
        assert record.cached == [False, False, True]
        assert (record.executed, record.hits) == (2, 1)
        assert len(record.log) == 2  # one frame per unique key
        assert [f["result"] for f in record.grid_view(0)[0]] == [
            {"r": "a"}, {"r": "b"}, {"r": "a"},
        ]

    def test_a_point_given_up_on_stops_the_prefix_and_names_the_failure(self):
        record = JobRecord(job_id="job-x", total=2, keys=["k0", "k1"])
        record.done("k1", {"r": 1}, cached=False)
        record.failed("k0", "point a/set1/u@1Gb/s failed: boom", "boom", 2)
        record.failed("k0", "a later reason", "boom", 2)
        assert record.completed == 0
        assert record.error == "point a/set1/u@1Gb/s failed: boom"
        assert record.log_view(0)[1] == {
            "type": "job_done", "executed": 1, "hits": 0, "failed": 1,
        }
