"""Job model unit tests: IDs, lifecycle, admission.

The service's dedup contract starts here: job IDs are content hashes
of the spec's canonical JSON, so equality of experiments — not of
submission events — decides identity. The queue tests pin the
lifecycle (queued/running/terminal, restartable states, cancellation
of queued vs running jobs) and the admission-control backpressure.
"""

from __future__ import annotations

import pytest

from repro.api.spec import ExperimentSpec
from repro.experiments.runner import Fidelity
from repro.service.errors import ServiceError
from repro.service.jobs import (
    JobQueue,
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
        queue = JobQueue()
        record, deduped = queue.submit(tiny_spec())
        assert not deduped
        assert record.state == "queued"
        assert record.total == tiny_spec().n_points()
        claimed = queue.claim(timeout=0.1)
        assert claimed is record
        assert record.state == "running"

    def test_duplicate_submission_dedups(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        again, deduped = queue.submit(tiny_spec())
        assert deduped
        assert again is record
        # Only one queue entry: the second claim times out.
        assert queue.claim(timeout=0.05) is record
        assert queue.claim(timeout=0.05) is None

    def test_points_resolve_in_grid_order_only(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        with pytest.raises(ServiceError, match="grid order"):
            queue.record_point(record, 1, "k1", {"r": 1}, cached=True)
        queue.record_point(record, 0, "k0", {"r": 0}, cached=False)
        with pytest.raises(ServiceError, match="resolved twice"):
            queue.record_point(record, 0, "k0", {"r": 0}, cached=False)
        queue.record_point(record, 1, "k1", {"r": 1}, cached=True)
        assert record.completed == 2
        assert record.executed == 1
        assert record.hits == 1

    def test_finish_requires_terminal_state(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        with pytest.raises(ValueError):
            queue.finish(record, "running")
        queue.finish(record, "done")
        assert record.terminal

    def test_failed_and_cancelled_restart_instead_of_dedup(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        queue.record_point(record, 0, "k0", {"r": 0}, cached=False)
        queue.finish(record, "failed", error="boom")
        again, deduped = queue.submit(tiny_spec())
        assert again is record
        assert not deduped  # restart, not dedup
        assert record.state == "queued"
        assert record.completed == 0 and record.error == ""
        assert record.results == [None, None]

    def test_done_jobs_dedup_forever(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        queue.finish(record, "done")
        again, deduped = queue.submit(tiny_spec())
        assert deduped and again is record

    def test_cancel_queued_is_immediate(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        assert queue.cancel(record.job_id) == "cancelled"
        assert record.state == "cancelled"
        # The FIFO entry is skipped, not run.
        assert queue.claim(timeout=0.05) is None

    def test_cancel_running_is_cooperative(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        assert queue.cancel(record.job_id) == "running"
        assert record.cancel_event.is_set()

    def test_cancel_terminal_is_a_no_op(self):
        queue = JobQueue()
        record, _ = queue.submit(tiny_spec())
        queue.claim(timeout=0.1)
        queue.finish(record, "done")
        assert queue.cancel(record.job_id) == "done"

    def test_unknown_job_raises(self):
        with pytest.raises(ServiceError, match="unknown job"):
            JobQueue().get("job-000000000000")

    def test_admission_control(self):
        queue = JobQueue(max_pending=2)
        queue.submit(tiny_spec(seeds=(1,)))
        queue.submit(tiny_spec(seeds=(2,)))
        with pytest.raises(JobRejected, match="capacity"):
            queue.submit(tiny_spec(seeds=(3,)))
        # Duplicates of queued jobs never count against capacity.
        _, deduped = queue.submit(tiny_spec(seeds=(1,)))
        assert deduped

    def test_list_jobs_reports_every_admission(self):
        queue = JobQueue()
        queue.submit(tiny_spec(seeds=(1,)))
        queue.submit(tiny_spec(seeds=(2,)))
        rows = queue.list_jobs()
        assert len(rows) == 2 == len(queue)
        assert {row["state"] for row in rows} == {"queued"}
