"""The fabric coordinator: scatter ``RunPoint``\\ s, gather results.

One :class:`Coordinator` multiplexes three peer roles over a single
listening endpoint (role declared in the ``hello`` handshake):

* **workers** register with capability info, lease batches of points
  off the shared work queue, stream one ``result`` frame back per
  completed point, and heartbeat while computing;
* **clients** (:class:`~repro.experiments.sweep.FabricExecutor`)
  submit jobs — lists of ``(key, point)`` pairs plus the fidelity and
  config — and receive ``point_done`` frames as points complete
  (coordinator-store hits complete immediately), closed by a
  ``job_done`` summary;
* **store** peers (:class:`~repro.fabric.remote_store.RemoteBackend`)
  speak a small get/put/contains/scan/flush/compact RPC against the
  coordinator's own :class:`~repro.experiments.store.ResultStore`, so
  content-hash resume and dedup work across machines.

Failure semantics
-----------------
A worker is **lost** when its connection drops or its heartbeats go
quiet for ``worker_timeout_s``. Every key the lost worker still held a
lease on is re-queued; a key that has been leased ``max_attempts``
times without producing a result is *failed* and reported to its
waiting clients as a ``point_failed`` frame — a distributed sweep
degrades into a diagnosable partial failure, never a hang. Worker-side
execution errors count against the same attempt budget (a
deterministic simulation bug fails fast instead of hot-looping).

Every batch somebody waits for — a client's submission, or a spec job
of the experiment service built on this class — is one
:class:`JobRecord`, admitted by :meth:`Coordinator._admit`. Work items
are **deduplicated by store key across jobs**: two records wanting the
same point concurrently share one simulation, exactly like the
in-process executor dedups within a batch. A job that goes away (its
client disconnected, or it was cancelled) stops waiting on its keys; a
key nobody waits on and no worker holds leaves the table.

Thread model: the accept loop and one handler thread per connection
come from :class:`~repro.fabric.server.RoleServer` (as do the
handshake and the result-stream loop), plus one liveness monitor. All
queue/job/lease state — the records included — lives behind a single
condition variable; the result store has its own lock so slow file I/O
never blocks scheduling.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.runner import Fidelity
from repro.experiments.store import ResultStore, result_from_dict, result_to_dict
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import point_label, send_message
from repro.fabric.server import RoleServer
from repro.fabric.transport import Connection

__all__ = ["Coordinator", "DEFAULT_PORT", "JobRecord"]

#: Default TCP port of ``dhetpnoc-repro fabric serve``.
DEFAULT_PORT = 7023

log = logging.getLogger("repro.fabric")


#: Job states no further transition leaves (see :mod:`repro.service.jobs`).
TERMINAL = ("done", "failed", "cancelled")


@dataclass(eq=False)
class JobRecord:
    """One batch of points somebody waits for: a waiter on the work table.

    A ``jobs``-role job (a spec, a content-hash id, a lifecycle) and a
    ``client``-role batch (unique keys, no spec, born running) are the
    same record, written only under the coordinator's scheduling lock.
    It carries both views of itself: ``log``, one ``point_done`` or
    ``point_failed`` frame per resolved key, streamed to a ``client``
    peer verbatim in completion order (:meth:`log_view`); and the filled
    prefix of its grid, ``keys[:completed]``, streamed to ``jobs`` peers
    in strict grid order (:meth:`grid_view`).
    """

    job_id: str
    #: The submitted :class:`~repro.api.spec.ExperimentSpec`, and the size
    #: of its expanded grid; a client batch has no spec and reports no total.
    spec: Any = None
    total: int = 0
    state: str = "queued"
    #: Why the job failed.
    error: str = ""
    #: Cancellation was requested; the thread that admitted the job
    #: withdraws it at the next point boundary.
    cancelled: bool = False
    #: Store keys in grid order (filled at admission).
    keys: List[str] = field(default_factory=list)
    #: Keys this job waits for on the work table (each leaves when its
    #: frame is logged or the job withdraws from it).
    pending: Set[str] = field(default_factory=set)
    #: Each resolved key's frame; insertion order is completion order.
    log: Dict[str, dict] = field(default_factory=dict)
    #: Keys this job simulated and has not yet counted: a key repeated
    #: in the grid is paid for once and a hit afterwards.
    owned: Set[str] = field(default_factory=set)
    #: Per grid index of the filled prefix: answered from the store, a
    #: concurrent job or an earlier index rather than simulated here.
    cached: List[bool] = field(default_factory=list)

    def done(self, key: str, result: dict, cached: bool) -> None:
        """Log *key*'s protocol-dict *result*."""
        if not cached:
            self.owned.add(key)
        self._resolve({
            "type": "point_done", "key": key,
            "result": result, "cached": cached,
        })

    def failed(self, key: str, reason: str, error: str, attempts: int) -> None:
        """Log that *key* was given up on; the first *reason* fails the job."""
        self.error = self.error or reason
        self._resolve({
            "type": "point_failed", "key": key,
            "error": error, "attempts": attempts,
        })

    def _resolve(self, frame: dict) -> None:
        self.pending.discard(frame["key"])
        self.log[frame["key"]] = frame
        # Grow the filled prefix over every grid index now answered.
        while self.completed < len(self.keys):
            key = self.keys[self.completed]
            if "result" not in self.log.get(key, ()):
                break  # unresolved, or given up on
            self.cached.append(key not in self.owned)
            self.owned.discard(key)

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

    def log_view(self, index: int):
        """The log from *index* on, and ``job_done`` — this job's own
        simulated / shared / given-up-on counts — once nothing is
        pending (see :meth:`~repro.fabric.server.RoleServer._follow`)."""
        frames = []
        if index < len(self.log):  # a wake-up for someone else skips nothing
            frames = list(itertools.islice(self.log.values(), index, None))
        if self.pending:
            return frames, None
        done = [f["cached"] for f in self.log.values() if "result" in f]
        return frames, {
            "type": "job_done", "executed": done.count(False),
            "hits": done.count(True), "failed": len(self.log) - len(done),
        }

    def grid_view(self, index: int):
        """``job_point`` frames for the filled prefix from grid *index*
        on, and ``job_end`` once the job is terminal."""
        frames = [
            {
                "type": "job_point", "job_id": self.job_id, "index": i,
                "key": self.keys[i],
                "result": self.log[self.keys[i]]["result"],
                "cached": self.cached[i],
            }
            for i in range(index, self.completed)
        ]
        return frames, (
            {"type": "job_end", **self.describe()} if self.terminal else None
        )


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
            persisted to (and the store the ``store`` role serves).
            Defaults to a fresh in-memory store; production runs point
            it at a sharded directory.
        host, port: Bind address (port ``0`` picks a free port;
            read it back from :attr:`address` after :meth:`start`).
        lease_size: Points handed out per worker lease. Small leases
            re-balance better when workers are heterogeneous; large
            leases amortise protocol round-trips.
        heartbeat_s: Interval workers are told to heartbeat at.
        worker_timeout_s: Silence (no frames at all) after which a
            worker is declared lost and its leases re-queued.
        max_attempts: Lease grants per key before the point is failed.
    """

    title = "coordinator"

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_size: int = 2,
        heartbeat_s: float = 2.0,
        worker_timeout_s: float = 20.0,
        max_attempts: int = 3,
    ) -> None:
        if lease_size < 1:
            raise ValueError("lease_size must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        super().__init__(host, port)
        self._roles.update(
            worker=self._serve_worker,
            client=self._serve_client,
            store=self._serve_store,
        )
        self.store = store if store is not None else ResultStore()
        self.lease_size = lease_size
        self.heartbeat_s = heartbeat_s
        self.worker_timeout_s = worker_timeout_s
        self.max_attempts = max_attempts

        self._lock = threading.RLock()
        self._state_changed = threading.Condition(self._lock)
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
        """Bind and begin accepting and monitoring in background threads."""
        address = super().start()
        self._spawn(self._monitor_loop, "monitor")
        return address

    def _release(self) -> None:
        """Drop the workers, wake every waiter, flush the store."""
        with self._lock:
            workers = list(self._workers.values())
            self._state_changed.notify_all()
        for worker in workers:
            try:
                send_message(worker.conn, {"type": "shutdown"})
            except Exception:
                pass
            worker.conn.close()
        with self._store_lock:
            self.store.flush()

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
        while not self._closed:
            time.sleep(min(1.0, self.worker_timeout_s / 4))
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

    # -- client role ---------------------------------------------------------
    def _serve_client(self, conn: Connection, hello: dict) -> None:
        self._welcome(conn)
        for message in self._frames(conn):
            kind = message["type"]
            if kind == "submit":
                self._run_job(conn, message)
            elif kind == "stats":
                with self._store_lock:  # len() may load shards
                    stats = {**self.stats(), "store_records": len(self.store)}
                send_message(conn, {"type": "stats_reply", "stats": stats})
            else:
                raise ProtocolError(f"unexpected client frame {kind!r}")

    def _run_job(self, conn: Connection, message: dict) -> None:
        """Admit one batch — the degenerate job: unique keys, no spec,
        born running — and stream its log until completion."""
        entries = message.get("points") or []
        # Decoded once here, so a malformed fidelity earns the client an
        # error frame instead of a failure on every worker it reaches.
        Fidelity.from_dict(message["fidelity"])
        shared = {"fidelity": message["fidelity"], "config": message.get("config")}
        keys = [entry["key"] for entry in entries]
        if len(set(keys)) != len(keys):
            raise ProtocolError("submitted keys must be unique per job")
        wanted = [
            (index, (entry["point"]["arch"], entry["point"]["bw_set_index"]))
            for index, entry in enumerate(entries)
        ]
        job = JobRecord(job_id=f"job-{next(self._ids)}", state="running")
        try:
            self._admit(job, keys, wanted, lambda index: {
                "key": keys[index], "point": entries[index]["point"],
                "script": entries[index].get("script"), **shared,
            })
            log.info(
                "%s: %d point(s) submitted, %d store hit(s), %d to simulate",
                job.job_id, len(entries), len(job.log), len(job.pending),
            )
            self._follow(conn, self._state_changed, job.log_view)
        finally:
            self._withdraw(job)

    # -- store role ----------------------------------------------------------
    def _serve_store(self, conn: Connection, hello: dict) -> None:
        self._welcome(conn)
        for message in self._frames(conn):
            kind = message["type"]
            coords = message.get("coords")
            if coords is not None:
                coords = (coords[0], int(coords[1]))
            records = None
            with self._store_lock:  # replies go out after it is released
                if kind == "store_get":
                    result = self.store.get(message["key"], coords)
                    reply = {
                        "result": None if result is None else result_to_dict(result)
                    }
                elif kind == "store_contains":
                    reply = {"value": self.store.contains(message["key"], coords)}
                elif kind == "store_put":
                    self.store.put(
                        message["key"], result_from_dict(message["result"])
                    )
                    reply = {"ok": True}
                elif kind == "store_scan":
                    records = [
                        {"type": "store_record", "key": key,
                         "result": result_to_dict(result)}
                        for key, result in self.store.backend.scan(coords)
                    ]
                    reply = {"type": "store_scan_end", "count": len(records)}
                elif kind == "store_flush":
                    self.store.flush()
                    reply = {"ok": True}
                elif kind == "store_len":
                    reply = {"value": len(self.store)}
                elif kind == "store_compact":
                    reply = {"stats": self.store.compact().__dict__}
                else:
                    raise ProtocolError(f"unexpected store frame {kind!r}")
            for record in records or ():
                send_message(conn, record)
            # (a scan's reply carries its own type, which wins here)
            send_message(conn, {"type": "store_reply", **reply})
