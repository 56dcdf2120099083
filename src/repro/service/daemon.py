"""``ExperimentService``: the coordinator plus a ``jobs`` role.

``repro serve`` is the fabric coordinator
(:class:`~repro.fabric.coordinator.Coordinator`: one endpoint, one
store, one work table, ``worker`` / ``client`` / ``store`` peers)
serving one more role on the same port. ``jobs`` peers submit
:class:`~repro.api.spec.ExperimentSpec` JSON; each admitted job is a
:class:`~repro.fabric.coordinator.JobRecord` — the record a fabric
client batch uses — put on the work table by the same admission method
and resolved there by whoever completes its keys. ``max_jobs`` runner
threads bound how many jobs are on the table at once: a runner admits
one and holds its slot until the record is resolved, failed or cancelled.

What keeps concurrent execution honest:

* **Identical results.** A job's content-hash keys and work items come
  from the same :class:`~repro.experiments.sweep.PointExecutor`
  planning a local :meth:`Session.run <repro.api.session.Session.run>`
  starts with, and every miss is simulated through
  :func:`~repro.experiments.sweep.execute_item` — by one of the daemon's
  ``workers`` local lanes or by a remote ``fabric worker`` attached to
  the daemon's own port — so streamed results are bitwise-equal to a
  local run and land under identical store keys.
* **Single-writer stores.** The store backend owns the write lock of
  each file it appends to
  (:class:`~repro.experiments.store.JsonlBackend`): one writer per
  ``(arch, bw_set_index)`` shard at a time, whoever shares the
  backend; the daemon adds nothing.
* **Cross-job point dedup.** Admission answers a job's store hits and
  puts the misses on the work table, where a key another job — or a
  concurrent fabric client — already wants gains a waiter instead of a
  second simulation: one simulation and one store ``put`` per unique
  key across everything the daemon serves.
* **Job-level dedup.** Job IDs are content hashes of the spec
  (:func:`~repro.service.jobs.job_id_for_spec`), so duplicate
  submissions attach to the same record and replay the same stream.

Cancellation is cooperative at point boundaries: a cancelled job's
runner stops admitting, withdraws it from every point no worker holds
yet, lets the ones in flight land in the record, and ends it. Completed
points are already durably in the store (whole appended lines — no torn
shards), so a cancelled job's spec can simply be re-submitted and
resumes from the store. The daemon itself keeps no durable job state:
after a crash or restart the registry starts empty, and re-submitting
any spec resumes from whatever the store already holds.
"""

from __future__ import annotations

import logging
import multiprocessing
from typing import Optional, Tuple

from repro.api.session import StoreLike, _resolve_store
from repro.api.spec import ExperimentSpec
from repro.arch.config import SystemConfig
from repro.experiments.store import result_to_dict
from repro.experiments.sweep import PointExecutor, execute_item
from repro.fabric.coordinator import Coordinator
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import send_message
from repro.fabric.transport import Connection
from repro.service.errors import ServiceError
from repro.service.jobs import JobQueue, JobRecord

__all__ = ["DEFAULT_PORT", "ExperimentService"]

#: Default TCP port of ``dhetpnoc-repro serve`` (``fabric serve``'s 7023
#: plus a hundred: same server, one more role).
DEFAULT_PORT = 7123

log = logging.getLogger("repro.service")


class ExperimentService(Coordinator):
    """Serve ``job_*`` RPCs beside the fabric roles (see module docstring).

    Args:
        store: Anything :class:`~repro.api.session.Session` accepts —
            ``None`` (in-memory), a path, a ResultStore or a backend.
        host, port: Bind address (port ``0`` picks a free port; read it
            back from :attr:`address` after :meth:`start`).
        workers: Local simulation lanes shared by every running job
            (one in-process lane for ``1``; above that a spawned process
            pool of this width, so an embedding script needs the usual
            ``__main__`` guard). ``0`` simulates nothing locally: every
            miss waits for a ``fabric worker`` attached to this port.
        max_jobs: Jobs executed concurrently (runner threads).
        max_pending: Queued-job backlog admitted before submissions are
            rejected (admission control).
        backend: Store-backend name for path stores.
        config: Optional :class:`~repro.arch.config.SystemConfig`
            override applied to every job.
    """

    title = "experiment service"

    def __init__(
        self,
        store: StoreLike = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        max_jobs: int = 2,
        max_pending: int = 16,
        backend: str = "auto",
        config: Optional[SystemConfig] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must not be negative")
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        super().__init__(
            _resolve_store(store, backend), host, port
        )
        self._roles["jobs"] = self._serve_jobs
        self.workers = workers
        self.max_jobs = max_jobs
        self.jobs = JobQueue(self._state_changed, max_pending=max_pending)
        # Plans jobs the way a local Session.run does (keys, in-batch
        # dedup, work items). It holds no results: the daemon's store is
        # read at admission, under its lock, so every unique key "misses".
        self._planner = PointExecutor(config=config)
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and begin accepting + executing in background threads."""
        address = super().start()
        if self.workers > 1:
            # Spawned, not forked: the daemon is already multi-threaded.
            self._pool = multiprocessing.get_context("spawn").Pool(self.workers)
        for i in range(self.workers):
            self._spawn(self._lane_loop, f"lane-{i}")
        for i in range(self.max_jobs):
            self._spawn(self._runner_loop, f"runner-{i}")
        return address

    def _release(self) -> None:
        """Drop the workers, wake every waiter, flush the store."""
        super()._release()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()

    # -- local lanes ---------------------------------------------------------
    def _lane_loop(self) -> None:
        """An in-process worker: lease one key, simulate it, report it —
        through the same state transitions a remote worker's frames
        drive, so retries, failure budgets and dedup are shared."""
        lane = object()  # what its leases are held by
        while not self._closed:
            with self._state_changed:
                items = self._lease(lane, 1)
                if not items:
                    self._state_changed.wait(timeout=0.5)
                    continue
            (item,) = items
            try:
                if self._pool is None:
                    result = execute_item(item)
                else:
                    result = self._pool.apply(execute_item, (item,))
            except Exception as exc:  # noqa: BLE001 - spent on the point's budget
                self._requeue_or_fail(
                    item["key"], f"{type(exc).__name__}: {exc}"
                )
            else:
                self._complete_point(item["key"], result_to_dict(result))

    # -- job execution -------------------------------------------------------
    def _runner_loop(self) -> None:
        while not self._closed:
            record = self.jobs.claim(timeout=0.5)
            if record is not None:
                self._execute_job(record)

    def _execute_job(self, record: JobRecord) -> None:
        """Hold one of the ``max_jobs`` slots for *record*: admit it,
        then wait while the work table resolves it."""
        failure = ""
        try:
            points = record.spec.expand()
            fidelity = record.spec.fidelity
            keys, unique = self._planner.plan(points, fidelity)
            self._admit(
                record, keys,
                [(i, (point.arch, point.bw_set_index)) for i, point in unique],
                lambda i: self._planner.work_item(points[i], keys[i], fidelity),
            )
            with self._state_changed:
                while True:
                    if record.cancelled:
                        self._withdraw(record, keep_leased=True)
                    if record.error or not record.pending:
                        break
                    if self._closed:
                        raise ProtocolError(f"{self.title} shutting down")
                    self._state_changed.wait(timeout=0.5)
        except Exception as exc:  # noqa: BLE001 - surfaced via job state
            log.warning("%s failed: %r", record.job_id, exc)
            failure = f"{type(exc).__name__}: {exc}"
        with self._state_changed:
            # Off the table before the state says so: a restart must
            # never find this attempt still waiting on its keys.
            self._withdraw(record)
            error = record.error or failure
            if error:
                state = "failed"
            elif record.completed == record.total:
                state = "done"
            else:
                state = "cancelled"
            self.jobs.finish(record, state, error=error)
        log.info(
            "%s %s: %d/%d point(s), %d simulated, %d from store",
            record.job_id, state, record.completed, record.total,
            record.executed, record.hits,
        )

    # -- jobs role -----------------------------------------------------------
    def _serve_jobs(self, conn: Connection, hello: dict) -> None:
        self._welcome(conn, server="service")
        for message in self._frames(conn):
            kind = message["type"]
            job_id = str(message.get("job_id"))
            try:
                if kind == "job_submit":
                    self._handle_submit(conn, message)
                elif kind == "job_status":
                    send_message(conn, {
                        "type": "job_status_reply",
                        "job": self.jobs.get(job_id).describe(),
                    })
                elif kind == "job_results":
                    record = self.jobs.get(job_id)
                    self._follow(conn, self._state_changed, record.grid_frames)
                elif kind == "job_cancel":
                    send_message(conn, {
                        "type": "job_cancel_reply",
                        "job_id": job_id,
                        "state": self.jobs.cancel(job_id),
                    })
                elif kind == "job_list":
                    send_message(conn, {
                        "type": "job_list_reply",
                        "jobs": self.jobs.list_jobs(),
                    })
                else:
                    raise ProtocolError(
                        f"unexpected service frame {kind!r}"
                    )
            except ServiceError as exc:
                # RPC-level refusals (bad spec, unknown job, capacity)
                # keep the connection: reply and serve the next frame.
                send_message(conn, {"type": "error", "error": str(exc)})

    def _handle_submit(self, conn: Connection, message: dict) -> None:
        try:
            spec = ExperimentSpec.from_dict(message.get("spec"))
        except (KeyError, ValueError, OSError) as exc:
            raise ServiceError(f"bad spec: {exc}")
        if spec.mode != "grid":
            raise ServiceError(
                f"service jobs execute grid specs; this spec has "
                f"mode={spec.mode!r} (run adaptive searches locally)"
            )
        record, deduped = self.jobs.submit(spec)
        log.info(
            "%s %s: %d point(s) (%s)",
            record.job_id, record.state, record.total,
            "deduped" if deduped else "admitted",
        )
        send_message(conn, {
            "type": "job_accepted",
            "job_id": record.job_id,
            "state": record.state,
            "deduped": deduped,
            "total": record.total,
        })
        if message.get("watch"):
            self._follow(conn, self._state_changed, record.grid_frames)
