"""Job model of the experiment service: records, IDs, queue, admission.

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
spec resets the record in place and queues it again, and every point
the previous attempt persisted resolves as a store hit — cancellation
never tears the store, so a resumed job reports the already-stored
points as hits ("0 simulated" when everything landed meanwhile).

The :class:`JobQueue` is the daemon's single source of truth: a FIFO of
queued job IDs plus the registry of every job ever admitted (status and
result replay stay available for the daemon's lifetime). All state
lives behind one condition variable (:attr:`JobQueue.changed`) that
runner threads and result streamers share, mirroring the coordinator's
thread model.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.spec import ExperimentSpec
from repro.service.errors import ServiceError

__all__ = [
    "JobQueue",
    "JobRecord",
    "JobRejected",
    "JOB_STATES",
    "job_id_for_spec",
]

#: Every state a job can be in (see module docstring for transitions).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a re-submission restarts instead of deduplicating against.
RESTARTABLE = ("failed", "cancelled")

#: States no further transition leaves.
TERMINAL = ("done", "failed", "cancelled")


class JobRejected(ServiceError):
    """The service refused a submission (admission control)."""


def job_id_for_spec(spec: ExperimentSpec) -> str:
    """Deterministic job ID: a content hash of the spec's JSON form.

    Uses the same canonicalisation discipline as the store's
    ``result_key`` (sorted keys, compact separators, repr-exact
    floats), so equal specs map to equal IDs on every machine and
    duplicate submissions dedup exactly like store keys.

    >>> spec = ExperimentSpec(archs=("firefly",), bw_sets=(1,))
    >>> job_id_for_spec(spec) == job_id_for_spec(
    ...     ExperimentSpec.from_dict(spec.to_dict()))
    True
    >>> job_id_for_spec(spec).startswith("job-")
    True
    """
    canonical = json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"job-{digest[:12]}"


@dataclass
class JobRecord:
    """One admitted job: spec, lifecycle state, and streamed results.

    ``results``/``cached``/``keys`` are grid-ordered and fill strictly
    left to right (the runner records points in grid order), so a
    streamer can replay ``results[:completed]`` at any moment and then
    follow the live tail.
    """

    job_id: str
    spec: ExperimentSpec
    state: str = "queued"
    #: Expanded grid size (``spec.n_points()``).
    total: int = 0
    #: Protocol-dict results in grid order; ``None`` = not yet resolved.
    results: List[Optional[dict]] = field(default_factory=list)
    #: Whether each resolved point came from the store (or a concurrent
    #: job) rather than a fresh simulation owned by this job.
    cached: List[bool] = field(default_factory=list)
    #: Content-hash store keys in grid order (filled when running).
    keys: List[Optional[str]] = field(default_factory=list)
    #: Points resolved so far (== the filled prefix of ``results``).
    completed: int = 0
    #: Points this job simulated fresh.
    executed: int = 0
    #: Points answered from the store / concurrent jobs.
    hits: int = 0
    #: Failure message for ``state == "failed"``.
    error: str = ""
    #: Cooperative cancel flag the runner checks at point boundaries.
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def reset(self) -> None:
        """Rearm a terminal (failed/cancelled) record for a re-run."""
        self.state = "queued"
        self.results = [None] * self.total
        self.cached = [False] * self.total
        self.keys = [None] * self.total
        self.completed = 0
        self.executed = 0
        self.hits = 0
        self.error = ""
        self.cancel_event = threading.Event()

    @property
    def terminal(self) -> bool:
        """Whether no further transition can leave this state."""
        return self.state in TERMINAL

    def describe(self) -> dict:
        """JSON-able status row (``job_status`` / ``job_list`` replies)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "executed": self.executed,
            "hits": self.hits,
            "error": self.error,
        }


class JobQueue:
    """FIFO admission queue + registry behind the service daemon.

    Args:
        max_pending: Queued (not yet running) jobs admitted before
            submissions are rejected with :class:`JobRejected` —
            backpressure instead of an unbounded backlog.
    """

    def __init__(self, max_pending: int = 16) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.max_pending = max_pending
        self._lock = threading.RLock()
        #: Notified on every job state/result change; runner threads and
        #: result streamers wait on it.
        self.changed = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._fifo: List[str] = []
        #: Runners blocked in :meth:`claim`: a queued job one of them is
        #: about to take is not backlog.
        self._idle = 0

    # -- admission -----------------------------------------------------------
    def submit(self, spec: ExperimentSpec) -> Tuple[JobRecord, bool]:
        """Admit *spec*; returns ``(record, deduped)``.

        A spec whose job is queued, running or done dedups onto the
        existing record (``deduped=True``); a failed/cancelled job is
        reset and queued again (a restart, not a dedup). Fresh
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
            if record is None:
                record = JobRecord(
                    job_id=job_id, spec=spec, total=spec.n_points()
                )
                record.reset()
                self._jobs[job_id] = record
            else:
                record.reset()
            self._fifo.append(job_id)
            self.changed.notify_all()
            return record, False

    # -- scheduling ----------------------------------------------------------
    def claim(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """Pop the next queued job and mark it running.

        Blocks up to *timeout* seconds (forever when ``None``) for work;
        returns ``None`` on timeout. Jobs cancelled while still queued
        are skipped (they already reached their terminal state).
        """
        with self.changed:
            while True:
                while self._fifo:
                    record = self._jobs[self._fifo.pop(0)]
                    if record.state != "queued":
                        continue  # cancelled while waiting in the FIFO
                    record.state = "running"
                    self.changed.notify_all()
                    return record
                self._idle += 1
                try:
                    if not self.changed.wait(timeout=timeout):
                        return None
                finally:
                    self._idle -= 1

    def record_point(
        self,
        record: JobRecord,
        index: int,
        key: str,
        result: dict,
        cached: bool,
    ) -> None:
        """Resolve grid point *index* of a running job (runner-only)."""
        with self.changed:
            if record.results[index] is not None:
                raise ServiceError(
                    f"{record.job_id}: point {index} resolved twice"
                )
            if index != record.completed:
                raise ServiceError(
                    f"{record.job_id}: points must resolve in grid order "
                    f"(got {index}, expected {record.completed})"
                )
            record.results[index] = result
            record.cached[index] = cached
            record.keys[index] = key
            record.completed += 1
            if cached:
                record.hits += 1
            else:
                record.executed += 1
            self.changed.notify_all()

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

        A queued job cancels immediately; a running one gets its
        cooperative flag set and cancels at the next point boundary
        (the reply then still reads ``running``); terminal jobs are
        left untouched.
        """
        with self.changed:
            record = self.get(job_id)
            if record.state == "queued":
                record.state = "cancelled"
                self.changed.notify_all()
            elif record.state == "running":
                record.cancel_event.set()
            return record.state

    def list_jobs(self) -> List[dict]:
        """Status rows for every admitted job, in admission order."""
        with self.changed:
            return [record.describe() for record in self._jobs.values()]

    def __len__(self) -> int:
        with self.changed:
            return len(self._jobs)
