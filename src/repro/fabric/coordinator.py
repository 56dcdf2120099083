"""The coordinator: scatter ``RunPoint``\\ s, gather results.

One :class:`Coordinator` (``dhetpnoc-repro serve``) multiplexes two
peer roles over a single listening endpoint (role declared in the
``hello`` handshake):

* **workers** register with capability info, lease batches of points
  off the shared work queue, stream one ``result`` frame back per
  completed point, and heartbeat while computing;
* **jobs** peers (:class:`~repro.service.client.ServiceClient`, which
  :class:`~repro.experiments.sweep.FabricExecutor` submits through)
  submit jobs — an :class:`~repro.api.spec.ExperimentSpec`, or a
  planned batch of ``(key, point)`` entries plus the fidelity and
  config — and receive ``job_point`` frames in grid order as the grid
  fills (coordinator-store hits fill it at once), closed by a
  ``job_end`` summary. A point already in the coordinator's
  :class:`~repro.experiments.store.ResultStore` is such a hit, so a
  client on any machine resumes from, and adds to, that one store.

Its ``workers`` local lanes lease from the same work table, one key at
a time (:meth:`Coordinator._lane_loop`); ``workers=0`` leaves every
miss to the attached ``fabric worker``\\ s.

Failure semantics
-----------------
A worker is **lost** when its connection drops or its heartbeats go
quiet for ``worker_timeout_s``. Every key the lost worker still held a
lease on is re-queued; a key that has been leased ``max_attempts``
times without producing a result is *failed*, and so is every job
waiting on it: its ``job_end`` lists the points given up on — a
distributed sweep degrades into a diagnosable failure, never a hang.
Worker-side execution errors count against the same attempt budget (a
deterministic simulation bug fails fast instead of hot-looping).

Every job is one :class:`JobRecord`, registered in a
:class:`~repro.service.jobs.JobQueue` under its content-hash ID, run by
one of ``max_jobs`` runner threads and admitted by
:meth:`Coordinator._admit`. Work items are **deduplicated by store key
across jobs**: two records wanting the same point concurrently share
one simulation, exactly like the in-process executor dedups within a
batch. A job whose peer disconnects runs on (re-submitting it attaches
to its record); a cancelled one stops waiting on its keys, and a key
nobody waits on and no worker holds leaves the table.

Thread model: the accept loop and one handler thread per connection
come from :class:`~repro.fabric.server.RoleServer` (as do the
handshake and the result-stream loop), plus one liveness monitor and
the runner threads. All queue/job/lease state — the records included —
lives behind a single condition variable; the result store has its own
lock so slow file I/O never blocks scheduling.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.api.session import StoreLike, _resolve_store
from repro.api.spec import ExperimentSpec
from repro.experiments.runner import Fidelity
from repro.experiments.store import result_from_dict, result_to_dict
from repro.experiments.sweep import PointExecutor, execute_item
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import encode_message, point_label, send_message
from repro.fabric.server import RoleServer
from repro.fabric.transport import Connection
from repro.service.errors import ServiceError
from repro.service.jobs import (
    TERMINAL,
    JobQueue,
    job_id_for_batch,
    job_id_for_spec,
)

if TYPE_CHECKING:  # imported when start() builds a lane pool
    import multiprocessing.pool

__all__ = ["Coordinator", "JobRecord"]

log = logging.getLogger("repro.fabric")


@dataclass(eq=False)
class JobRecord:
    """One job: a batch of points somebody waits for, a waiter on the
    work table.

    A spec job (planned from its spec when a runner admits it) and a
    planned batch (the work items it was submitted as) are the same
    record, written only under the coordinator's scheduling lock. Peers
    are streamed the filled prefix of its grid, ``keys[:completed]``,
    in strict grid order (:meth:`grid_view`), each ``job_point`` frame
    encoded once per record (:meth:`grid_frames`).
    """

    job_id: str
    #: The submitted :class:`~repro.api.spec.ExperimentSpec` ...
    spec: Any = None
    #: ... or the planned batch's wire-form work items, in grid order
    #: (``None`` again once the job is terminal).
    items: Optional[List[dict]] = None
    #: The size of the job's grid.
    total: int = 0
    state: str = "queued"
    #: Why the job failed.
    error: str = ""
    #: Cancellation was requested; the thread that admitted the job
    #: withdraws it at the next point boundary.
    cancelled: bool = False
    #: Store keys in grid order (filled at admission).
    keys: List[str] = field(default_factory=list)
    #: Keys this job waits for on the work table (each leaves when it
    #: resolves or the job withdraws from it).
    pending: Set[str] = field(default_factory=set)
    #: Each resolved key's protocol-dict result.
    results: Dict[str, dict] = field(default_factory=dict)
    #: The points given up on, as ``job_end`` lists them:
    #: ``{key, error, attempts}`` each.
    failures: List[dict] = field(default_factory=list)
    #: Keys this job simulated and has not yet counted: a key repeated
    #: in the grid is paid for once and a hit afterwards.
    owned: Set[str] = field(default_factory=set)
    #: Per grid index of the filled prefix: answered from the store, a
    #: concurrent job or an earlier index rather than simulated here.
    cached: List[bool] = field(default_factory=list)
    #: Encoded ``job_point`` payload per grid index, as far as a peer
    #: has been streamed: every later stream resends these bytes.
    encoded: List[bytes] = field(default_factory=list)

    @classmethod
    def for_spec(cls, spec: ExperimentSpec) -> "JobRecord":
        """A spec job's record, named by the spec's content hash."""
        return cls(job_id_for_spec(spec), spec=spec, total=spec.n_points())

    @classmethod
    def for_batch(cls, items: List[dict]) -> "JobRecord":
        """A planned batch's record, named by its ordered keys' hash."""
        return cls(
            job_id_for_batch([item["key"] for item in items]),
            items=items, total=len(items),
        )

    def done(self, key: str, result: dict, cached: bool) -> None:
        """Record *key*'s protocol-dict *result*."""
        if not cached:
            self.owned.add(key)
        self.pending.discard(key)
        self.results[key] = result
        # Grow the filled prefix over every grid index now answered.
        while self.completed < len(self.keys):
            key = self.keys[self.completed]
            if key not in self.results:
                break  # unresolved, or given up on
            self.cached.append(key not in self.owned)
            self.owned.discard(key)

    def failed(self, key: str, reason: str, error: str, attempts: int) -> None:
        """Record that *key* was given up on; the first *reason* fails
        the job."""
        self.error = self.error or reason
        self.pending.discard(key)
        self.failures.append({"key": key, "error": error, "attempts": attempts})

    @property
    def completed(self) -> int:
        """Points resolved so far: the length of the filled prefix."""
        return len(self.cached)

    @property
    def hits(self) -> int:
        """Prefix points answered from the store / concurrent jobs."""
        return self.cached.count(True)

    @property
    def executed(self) -> int:
        """Prefix points this job simulated fresh."""
        return self.cached.count(False)

    @property
    def terminal(self) -> bool:
        """Whether no further transition can leave this state."""
        return self.state in TERMINAL

    def end(self, state: str, error: str = "") -> None:
        """Move to the terminal *state*. A batch's work items go: a
        restart queues a fresh record and an attach replays the stored
        frames, so nothing reads them again."""
        self.state = state
        self.error = error
        self.items = None

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

    def grid_view(self, index: int):
        """``job_point`` frames for the filled prefix from grid *index*
        on, and ``job_end`` — with the points given up on — once the
        job is terminal."""
        frames = [
            {
                "type": "job_point", "job_id": self.job_id, "index": i,
                "key": self.keys[i],
                "result": self.results[self.keys[i]],
                "cached": self.cached[i],
            }
            for i in range(index, self.completed)
        ]
        return frames, (
            {"type": "job_end", **self.describe(), "failed": self.failures}
            if self.terminal else None
        )

    def grid_frames(self, index: int):
        """:meth:`grid_view` with each ``job_point`` frame as its encoded
        payload, encoded the first time any peer is streamed it."""
        fresh, closing = self.grid_view(len(self.encoded))
        self.encoded.extend(map(encode_message, fresh))
        return self.encoded[index:], closing


@dataclass
class _WorkItem:
    """One deduplicated unit of simulation work, keyed by store key."""

    #: The wire-form work item: ``{key, point, fidelity, config, script}``.
    payload: dict
    #: Jobs waiting on this key (cross-job dedup), first come first:
    #: ``waiters[0]`` owns the simulation (its ``executed``), everyone
    #: behind it shares the result as a hit.
    waiters: List[JobRecord] = field(default_factory=list)
    #: Who is simulating this key right now: a :class:`_WorkerState`,
    #: or an in-process lane's token; ``None`` while it is only queued.
    holder: Optional[object] = None
    #: Lease grants so far (bounds the retry loop).
    attempts: int = 0


@dataclass(eq=False)
class _WorkerState:
    """Book-keeping for one registered worker connection."""

    worker_id: int
    conn: Connection
    last_seen: float


class Coordinator(RoleServer):
    """Serve the fabric protocol over a bound endpoint.

    Args:
        store: The authoritative result store every completed point is
            persisted to, and every submission is first answered from:
            anything :class:`~repro.api.session.Session` accepts --
            ``None`` (a fresh in-memory store), a path, a ResultStore or
            a backend. Production runs point it at a sharded directory.
        host, port: Bind address (port ``0`` picks a free port;
            read it back from :attr:`address` after :meth:`start`).
        workers: Local simulation lanes shared by every job (one
            in-process lane for ``1``; above that a spawned process pool
            of this width, so an embedding script needs the usual
            ``__main__`` guard). ``0`` simulates nothing locally.
        lease_size: Points handed out per worker lease. Small leases
            re-balance better when workers are heterogeneous; large
            leases amortise protocol round-trips.
        heartbeat_s: Interval workers are told to heartbeat at.
        worker_timeout_s: Silence (no frames at all) after which a
            worker is declared lost and its leases re-queued.
        max_attempts: Lease grants per key before the point is failed.
        max_jobs: Jobs on the work table at once (runner threads).
        max_pending: Queued-job backlog admitted before submissions are
            refused (admission control).
        backend: Store-backend name for a path *store*.
    """

    title = "coordinator"

    def __init__(
        self,
        store: StoreLike = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 0,
        lease_size: int = 2,
        heartbeat_s: float = 2.0,
        worker_timeout_s: float = 20.0,
        max_attempts: int = 3,
        max_jobs: int = 2,
        max_pending: int = 16,
        backend: str = "auto",
    ) -> None:
        if workers < 0:
            raise ValueError("workers must not be negative")
        if lease_size < 1:
            raise ValueError("lease_size must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        super().__init__(host, port)
        self._roles.update(worker=self._serve_worker, jobs=self._serve_jobs)
        self.store = _resolve_store(store, backend)
        self.workers = workers
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self.lease_size = lease_size
        self.heartbeat_s = heartbeat_s
        self.worker_timeout_s = worker_timeout_s
        self.max_attempts = max_attempts
        self.max_jobs = max_jobs

        self._lock = threading.RLock()
        self._state_changed = threading.Condition(self._lock)
        self.jobs = JobQueue(self._state_changed, max_pending=max_pending)
        # Plans spec jobs the way a local Session.run does (keys,
        # in-batch dedup, work items). It holds no results: the store is
        # read at admission, under its lock, so every unique key "misses".
        self._planner = PointExecutor()
        self._store_lock = threading.RLock()
        self._queue: List[str] = []  # FIFO of work-item keys
        self._work: Dict[str, _WorkItem] = {}
        self._workers: Dict[int, _WorkerState] = {}
        self._ids = itertools.count(1)

        #: Cumulative counters (exposed via :meth:`stats`).
        self.total_executed = 0
        self.total_requeued = 0
        self.total_failed = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and begin accepting, monitoring, running jobs and
        simulating on the local lanes in background threads."""
        address = super().start()
        self._spawn(self._monitor_loop, "monitor")
        for i in range(self.max_jobs):
            self._spawn(self._runner_loop, f"runner-{i}")
        if self.workers > 1:
            import multiprocessing

            # Spawned, not forked: the coordinator is already multi-threaded.
            self._pool = multiprocessing.get_context("spawn").Pool(self.workers)
        for i in range(self.workers):
            self._spawn(self._lane_loop, f"lane-{i}")
        return address

    def _release(self) -> None:
        """Drop the workers, wake every waiter, flush the store."""
        with self._lock:
            workers = list(self._workers.values())
            self.jobs.close()  # wakes every waiter on the condition
        for worker in workers:
            try:
                send_message(worker.conn, {"type": "shutdown"})
            except Exception:
                pass
            worker.conn.close()
        with self._store_lock:
            self.store.flush()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()

    def stats(self) -> dict:
        """Point-in-time counters (also served as a ``stats`` RPC)."""
        with self._lock:
            return {
                "workers": len(self._workers),
                "queued": len(self._queue),
                "leased": sum(i.holder is not None for i in self._work.values()),
                "jobs": len({
                    job for i in self._work.values() for job in i.waiters
                }),
                "executed": self.total_executed,
                "requeued": self.total_requeued,
                "failed": self.total_failed,
            }

    # -- the work table ------------------------------------------------------
    def _admit(
        self,
        job: JobRecord,
        keys: List[str],
        wanted: Sequence[Tuple[int, Tuple[str, int]]],
        item_for: Callable[[int], dict],
    ) -> None:
        """Put *job* on the work table: the admission path of every role.

        *keys* is the job's grid; *wanted* names, in grid order, the
        ``(index, store coords)`` of each unique key's first occurrence;
        ``item_for(index)`` builds that point's wire-form work item and
        is asked only for store misses, so a warm job serialises
        nothing. The store is read outside the scheduling lock. A hit
        resolves at once; a miss already on the table gains a waiter
        instead of a second work item: one simulation per unique key
        across every job.
        """
        with self._lock:
            job.keys = keys
        for index, coords in wanted:
            key = keys[index]
            with self._store_lock:
                hit = self.store.get(key, coords)
            if hit is None:
                payload = item_for(index)
            else:
                result = result_to_dict(hit)
            with self._lock:
                if job.cancelled:
                    return  # its admitting thread withdraws the rest
                if hit is not None:
                    job.done(key, result, cached=True)
                else:
                    if key not in self._work:
                        self._work[key] = _WorkItem(payload)
                        self._queue.append(key)
                    self._work[key].waiters.append(job)
                    job.pending.add(key)
                self._state_changed.notify_all()

    def _withdraw(self, job: JobRecord, keep_leased: bool = False) -> None:
        """Stop *job* waiting on its unresolved keys.

        A key nobody else waits on and no worker holds leaves the
        table (its stale queue entry is skipped at lease time). With
        *keep_leased* the job stays a waiter on keys a worker is
        simulating right now — a cancelled job finishes at a point
        boundary, so what is in flight still lands in its record.
        """
        with self._lock:
            for key in sorted(job.pending):
                item = self._work[key]
                if keep_leased and item.holder is not None:
                    continue
                job.pending.discard(key)
                item.waiters.remove(job)
                if not item.waiters and item.holder is None:
                    del self._work[key]

    def _lease(self, holder: object, limit: int) -> List[dict]:
        """Hand *holder* up to *limit* queued keys, as wire-form work
        items. Caller holds the lock."""
        items = []
        while self._queue and len(items) < limit:
            key = self._queue.pop(0)
            item = self._work.get(key)
            if item is None or item.holder is not None:
                continue  # resolved or withdrawn since it was queued
            item.holder = holder
            item.attempts += 1
            items.append(item.payload)
        return items

    def _complete_point(self, key: str, result: dict) -> None:
        # Persist outside the scheduling lock: store I/O can be slow.
        # No `contains` guard: `put` is idempotent per key and routes by
        # the result's own coords, so it touches one shard, not all.
        with self._store_lock:
            self.store.put(key, result_from_dict(result))
        with self._lock:
            item = self._work.pop(key, None)
            if item is None:
                return  # duplicate completion after a requeue race
            self.total_executed += 1
            for position, job in enumerate(item.waiters):
                job.done(key, result, cached=position > 0)
            self._state_changed.notify_all()

    def _requeue_or_fail(self, key: str, error: str) -> None:
        """Re-queue one lost/errored key, or fail it past the budget."""
        with self._lock:
            item = self._work.get(key)
            if item is None:
                return
            item.holder = None
            label = point_label(item.payload["point"])
            if not item.waiters:
                del self._work[key]  # withdrawn in flight: nobody to retry for
            elif item.attempts >= self.max_attempts:
                del self._work[key]
                self.total_failed += 1
                reason = (
                    f"point {label} failed after {item.attempts} "
                    f"attempt(s): {error}"
                )
                log.warning(reason)
                for job in item.waiters:
                    job.failed(key, reason, error, item.attempts)
            else:
                self.total_requeued += 1
                log.info(
                    "re-queueing %s (attempt %d/%d): %s",
                    label, item.attempts, self.max_attempts, error,
                )
                self._queue.append(key)
            self._state_changed.notify_all()

    # -- worker role ---------------------------------------------------------
    def _serve_worker(self, conn: Connection, hello: dict) -> None:
        capabilities = hello.get("capabilities")
        if not isinstance(capabilities, dict):
            raise ProtocolError(
                "a hello for role 'worker' must carry a capabilities object"
            )
        with self._lock:
            worker = _WorkerState(next(self._ids), conn, time.monotonic())
            self._workers[worker.worker_id] = worker
        log.info("worker %d registered: %s", worker.worker_id, capabilities)
        self._welcome(
            conn,
            worker_id=worker.worker_id,
            lease_size=self.lease_size,
            heartbeat_s=self.heartbeat_s,
        )
        try:
            for message in self._frames(conn):
                with self._lock:
                    worker.last_seen = time.monotonic()
                kind = message["type"]
                if kind == "heartbeat":
                    continue
                if kind == "lease":
                    with self._lock:
                        items = self._lease(worker, self.lease_size)
                    send_message(conn, {
                        "type": "work", "lease_id": next(self._ids), "items": items,
                    } if items else {
                        "type": "wait", "delay": min(0.2, self.heartbeat_s),
                    })
                elif kind == "result":
                    self._complete_point(message["key"], message["result"])
                elif kind == "result_error":
                    self._requeue_or_fail(
                        message["key"],
                        str(message.get("error", "worker execution error")),
                    )
                elif kind == "goodbye":
                    break
                else:
                    raise ProtocolError(f"unexpected worker frame {kind!r}")
        finally:
            # Runs before the server core answers a bad frame and closes
            # the connection: the leases move whatever ended the loop.
            self._worker_lost(worker, "worker connection closed")

    def _worker_lost(self, worker: _WorkerState, reason: str) -> None:
        with self._lock:
            if self._workers.pop(worker.worker_id, None) is None:
                return  # already declared lost
            lost_keys = sorted(
                key for key, item in self._work.items() if item.holder is worker
            )
            for key in lost_keys:
                self._requeue_or_fail(key, reason)
        if lost_keys:
            log.warning(
                "worker %d lost with %d leased point(s): %s",
                worker.worker_id, len(lost_keys), reason,
            )

    def _monitor_loop(self) -> None:
        """Declare workers lost when their heartbeats go quiet."""
        while not self._stopped.wait(min(1.0, self.worker_timeout_s / 4)):
            now = time.monotonic()
            with self._lock:
                stale = [
                    w for w in self._workers.values()
                    if now - w.last_seen > self.worker_timeout_s
                ]
            for worker in stale:
                self._worker_lost(
                    worker,
                    f"no heartbeat for {self.worker_timeout_s:.0f}s",
                )
                worker.conn.close()  # unblocks its handler thread

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

    def _plan(self, record: JobRecord):
        """*record*'s ``(keys, wanted, item_for)``, as :meth:`_admit`
        takes them."""
        if record.spec is None:  # a planned batch: its items are the plan
            items = record.items
            keys = [item["key"] for item in items]
            wanted = [
                (i, (item["point"]["arch"], item["point"]["bw_set_index"]))
                for i, item in enumerate(items)
            ]
            return keys, wanted, items.__getitem__
        points = record.spec.expand()
        fidelity = record.spec.fidelity
        keys, unique = self._planner.plan(points, fidelity)
        wanted = [(i, (point.arch, point.bw_set_index)) for i, point in unique]
        return keys, wanted, lambda i: self._planner.work_item(
            points[i], keys[i], fidelity
        )

    def _execute_job(self, record: JobRecord) -> None:
        """Hold one of the ``max_jobs`` slots for *record*: admit it,
        then wait while the work table resolves it."""
        failure = ""
        try:
            self._admit(record, *self._plan(record))
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
        self._welcome(conn)
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
                elif kind == "stats":
                    with self._store_lock:  # len() may load shards
                        stats = {**self.stats(), "store_records": len(self.store)}
                    send_message(conn, {"type": "stats_reply", "stats": stats})
                else:
                    raise ProtocolError(f"unexpected jobs frame {kind!r}")
            except ServiceError as exc:
                # RPC-level refusals (bad spec, unknown job, capacity)
                # keep the connection: reply and serve the next frame.
                send_message(conn, {"type": "error", "error": str(exc)})

    def _handle_submit(self, conn: Connection, message: dict) -> None:
        if "points" in message:
            record = JobRecord.for_batch(self._batch_items(message))
        else:
            record = JobRecord.for_spec(self._grid_spec(message.get("spec")))
        record, deduped = self.jobs.submit(record)
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

    @staticmethod
    def _grid_spec(data) -> ExperimentSpec:
        try:
            spec = ExperimentSpec.from_dict(data)
        except (KeyError, ValueError, OSError) as exc:
            raise ServiceError(f"bad spec: {exc}")
        if spec.mode != "grid":
            raise ServiceError(
                f"service jobs execute grid specs; this spec has "
                f"mode={spec.mode!r} (run adaptive searches locally)"
            )
        return spec

    @staticmethod
    def _batch_items(message: dict) -> List[dict]:
        """A planned batch's entries merged with the fidelity and config
        they share into wire-form work items."""
        # Decoded once here, so a malformed fidelity earns the peer an
        # error frame instead of a failure on every worker it reaches.
        Fidelity.from_dict(message["fidelity"])
        shared = {"fidelity": message["fidelity"], "config": message.get("config")}
        items = [
            {"key": entry["key"], "point": entry["point"],
             "script": entry.get("script"), **shared}
            for entry in message["points"]
        ]
        if len({item["key"] for item in items}) != len(items):
            raise ServiceError("submitted keys must be unique per job")
        return items
