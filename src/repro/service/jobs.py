"""Job model of the experiment service: IDs, lifecycle, admission.

A **job** is one :class:`~repro.api.spec.ExperimentSpec` submitted to a
running :class:`~repro.service.daemon.ExperimentService`. Its identity
is content-derived, exactly like store keys: :func:`job_id_for_spec`
hashes the spec's canonical JSON form, so two clients submitting the
same experiment — concurrently or hours apart — name the *same* job
and share one execution, the job-level analogue of the store's
content-hash dedup.

Lifecycle::

    queued -> running -> done
                      -> failed      (execution error; message kept)
                      -> cancelled   (cooperative, at a point boundary)

``failed`` and ``cancelled`` are restartable: re-submitting the same
spec queues a fresh record in the old one's place, and every point the
previous attempt persisted resolves as a store hit — cancellation
never tears the store, so a resumed job reports the already-stored
points as hits ("0 simulated" when everything landed meanwhile).

The record is the coordinator's
:class:`~repro.fabric.coordinator.JobRecord`, the one a fabric client
batch uses too. :class:`JobQueue` adds what only specs need: a FIFO of
queued job IDs plus the registry of every job ever admitted (status and
result replay stay available for the daemon's lifetime). It owns no
lock: it is built on the coordinator's scheduling condition, so a job's
lifecycle and the work table it waits on change under one lock.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from repro.api.base import canonical_json
from repro.api.spec import ExperimentSpec
from repro.fabric.coordinator import TERMINAL, JobRecord
from repro.service.errors import ServiceError

__all__ = [
    "JobQueue",
    "JobRecord",
    "JobRejected",
    "job_id_for_spec",
]

#: States a re-submission restarts instead of deduplicating against.
RESTARTABLE = ("failed", "cancelled")


class JobRejected(ServiceError):
    """The service refused a submission (admission control)."""


def job_id_for_spec(spec: ExperimentSpec) -> str:
    """Deterministic job ID: a content hash of the spec's JSON form.

    Hashes the same canonical form as the store's ``result_key``
    (:func:`repro.api.base.canonical_json`), so equal specs map to
    equal IDs on every machine and duplicate submissions dedup exactly
    like store keys.

    >>> spec = ExperimentSpec(archs=("firefly",), bw_sets=(1,))
    >>> job_id_for_spec(spec) == job_id_for_spec(
    ...     ExperimentSpec.from_dict(spec.to_dict()))
    True
    >>> job_id_for_spec(spec).startswith("job-")
    True
    """
    canonical = canonical_json(spec.to_dict())
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"job-{digest[:12]}"


class JobQueue:
    """FIFO admission queue + registry behind the service daemon.

    Args:
        changed: The condition guarding every record and this queue —
            the coordinator's scheduling condition, notified on each change.
        max_pending: Queued (not yet running) jobs admitted before
            submissions are rejected with :class:`JobRejected` —
            backpressure instead of an unbounded backlog.
    """

    def __init__(self, changed: threading.Condition, max_pending: int = 16) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.changed = changed
        self.max_pending = max_pending
        self._jobs: Dict[str, JobRecord] = {}
        #: IDs of the queued jobs, oldest first.
        self._fifo: List[str] = []
        #: Runners blocked in :meth:`claim`: a queued job one of them is
        #: about to take is not backlog.
        self._idle = 0

    # -- admission -----------------------------------------------------------
    def submit(self, spec: ExperimentSpec) -> Tuple[JobRecord, bool]:
        """Admit *spec*; returns ``(record, deduped)``.

        A spec whose job is queued, running or done dedups onto the
        existing record (``deduped=True``); a failed/cancelled job is
        queued again on a fresh record (a restart, not a dedup). Fresh
        submissions beyond ``max_pending`` queued jobs raise
        :class:`JobRejected`.
        """
        job_id = job_id_for_spec(spec)
        with self.changed:
            record = self._jobs.get(job_id)
            if record is not None and record.state not in RESTARTABLE:
                return record, True
            if len(self._fifo) - self._idle >= self.max_pending:
                raise JobRejected(
                    f"service at capacity: {len(self._fifo)} job(s) "
                    f"queued (max_pending={self.max_pending})"
                )
            record = self._jobs[job_id] = JobRecord(
                job_id=job_id, spec=spec, total=spec.n_points()
            )
            self._fifo.append(job_id)
            self.changed.notify_all()
            return record, False

    # -- scheduling ----------------------------------------------------------
    def claim(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """Pop the next queued job and mark it running.

        Blocks up to *timeout* seconds (forever when ``None``) for work;
        returns ``None`` on timeout.
        """
        with self.changed:
            while not self._fifo:
                self._idle += 1
                try:
                    if not self.changed.wait(timeout=timeout):
                        return None
                finally:
                    self._idle -= 1
            record = self._jobs[self._fifo.pop(0)]
            record.state = "running"
            self.changed.notify_all()
            return record

    def finish(self, record: JobRecord, state: str, error: str = "") -> None:
        """Move a running job to a terminal *state* (runner-only)."""
        if state not in TERMINAL:
            raise ValueError(f"not a terminal state: {state!r}")
        with self.changed:
            record.state = state
            record.error = error
            self.changed.notify_all()

    # -- lifecycle RPCs ------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        """Look a job up by ID; unknown IDs raise :class:`ServiceError`."""
        with self.changed:
            record = self._jobs.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job {job_id!r}")
            return record

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the state after the request.

        A queued job cancels immediately and gives its place in the
        backlog back; a running one is flagged and cancels at the next
        point boundary (the reply then still reads ``running``);
        terminal jobs are left untouched.
        """
        with self.changed:
            record = self.get(job_id)
            if record.state == "queued":
                record.state = "cancelled"
                self._fifo.remove(job_id)
            elif record.state == "running":
                record.cancelled = True
            self.changed.notify_all()
            return record.state

    def list_jobs(self) -> List[dict]:
        """Status rows for every admitted job, in admission order."""
        with self.changed:
            return [record.describe() for record in self._jobs.values()]

    def __len__(self) -> int:
        with self.changed:
            return len(self._jobs)
