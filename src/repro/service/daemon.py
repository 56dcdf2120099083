"""``ExperimentService``: the coordinator plus a ``jobs`` role.

``repro serve`` is the fabric coordinator
(:class:`~repro.fabric.coordinator.Coordinator`: one endpoint, one
store, one work table, ``worker`` / ``client`` / ``store`` peers)
serving one more role on the same port. ``jobs`` peers submit
:class:`~repro.api.spec.ExperimentSpec` JSON; a pool of runner threads
turns each admitted job into waiters on the coordinator's work table
and records the results, in grid order, for streaming.

What keeps concurrent execution honest:

* **Identical results.** A runner computes content-hash keys with the
  same :class:`~repro.experiments.sweep.PointExecutor` machinery a
  local :meth:`Session.run <repro.api.session.Session.run>` uses, and
  every miss is simulated through
  :func:`~repro.fabric.worker.execute_item` — by one of the daemon's
  ``workers`` local lanes or by a remote ``fabric worker`` attached to
  the daemon's own port — so streamed results are bitwise-equal to a
  local run and land under identical store keys.
* **Single-writer stores.** The store backend owns the write lock of
  each file it appends to
  (:class:`~repro.experiments.store.JsonlBackend`): one writer per
  ``(arch, bw_set_index)`` shard at a time, whoever shares the
  backend; the daemon adds nothing.
* **Cross-job point dedup.** A job resolves its store hits itself and
  hands the misses to the work table, where a key another job — or a
  concurrent fabric client — already wants gains a waiter instead of a
  second simulation: one simulation and one store ``put`` per unique
  key across everything the daemon serves.
* **Job-level dedup.** Job IDs are content hashes of the spec
  (:func:`~repro.service.jobs.job_id_for_spec`), so duplicate
  submissions attach to the same record and replay the same stream.

Cancellation is cooperative at point boundaries: a cancelled job stops
waiting on every point no worker holds yet, records the ones in flight
as they land, and ends. Completed points are already durably in the
store (whole appended lines — no torn shards), so a cancelled job's
spec can simply be re-submitted and resumes from the store. The daemon
itself keeps no durable job state: after a crash or restart the
registry starts empty, and re-submitting any spec resumes from whatever
the store already holds.
"""

from __future__ import annotations

import logging
import multiprocessing
from typing import Dict, Optional, Tuple

from repro.api.session import StoreLike, _resolve_store
from repro.api.spec import ExperimentSpec
from repro.arch.config import SystemConfig
from repro.experiments.store import result_to_dict
from repro.experiments.sweep import FabricExecutor
from repro.fabric.coordinator import Coordinator, _Job
from repro.fabric.errors import ProtocolError
from repro.fabric.protocol import (
    config_to_dict,
    fidelity_to_dict,
    point_to_dict,
    send_message,
)
from repro.fabric.transport import Connection
from repro.fabric.worker import execute_item
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
        transport: Transport registry name (default ``tcp``).
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
        transport: str = "tcp",
    ) -> None:
        if workers < 0:
            raise ValueError("workers must not be negative")
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        super().__init__(
            _resolve_store(store, backend), host, port, transport=transport
        )
        self._roles["jobs"] = self._serve_jobs
        self.workers = workers
        self.max_jobs = max_jobs
        self.config = config
        self.jobs = JobQueue(max_pending=max_pending)
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
        with self.jobs.changed:
            self.jobs.changed.notify_all()
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
        """Execute one job: hits from the store, misses through the
        work table, every point recorded in grid order."""
        job = _Job(job_id=record.job_id)
        try:
            state = self._resolve(record, job)
            self.jobs.finish(record, state)
            log.info(
                "%s %s: %d/%d point(s), %d simulated, %d from store",
                record.job_id, state, record.completed, record.total,
                record.executed, record.hits,
            )
        except Exception as exc:  # noqa: BLE001 - surfaced via job state
            log.warning("%s failed: %r", record.job_id, exc)
            self.jobs.finish(
                record, "failed", error=f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._withdraw(job)

    def _resolve(self, record: JobRecord, job: _Job) -> str:
        """Record *record*'s grid through *job*; returns the end state."""
        # Never dials: it derives keys, configs and scenario scripts, so
        # a job's work items are exactly what a fabric client would ship.
        derive = FabricExecutor(self.address, store=self.store, config=self.config)
        points = record.spec.to_sweep_spec().expand()
        fidelity = record.spec.fidelity
        keys = [derive._key(point, fidelity) for point in points]
        resolved: Dict[str, Tuple[dict, bool]] = {}
        recorded = 0

        def record_resolved_prefix() -> None:
            nonlocal recorded
            while recorded < len(points) and keys[recorded] in resolved:
                key = keys[recorded]
                result, cached = resolved[key]
                self.jobs.record_point(record, recorded, key, result, cached)
                resolved[key] = (result, True)  # a repeat within the grid
                recorded += 1

        wire_fidelity = fidelity_to_dict(fidelity)
        misses: Dict[str, dict] = {}
        for point, key in zip(points, keys):
            if key not in resolved and key not in misses:
                with self._store_lock:
                    hit = self.store.get(key, (point.arch, point.bw_set_index))
                if hit is not None:
                    resolved[key] = (result_to_dict(hit), True)
                else:
                    misses[key] = {
                        "key": key,
                        "point": point_to_dict(point),
                        "fidelity": wire_fidelity,
                        "config": config_to_dict(derive._config_for(point)),
                        "script": None if point.scenario is None else
                        derive._scenario_script(point.scenario, fidelity),
                    }
            record_resolved_prefix()
        self._enqueue(job, list(misses.values()))

        def snapshot(index: int):
            if record.cancel_event.is_set():
                self._withdraw(job, keep_leased=True)
            return job.snapshot(index)

        for frames in self._tail(self._state_changed, snapshot):
            for frame in frames:
                if frame["type"] == "point_failed":
                    raise ServiceError(
                        f"point {frame['key']} failed after "
                        f"{frame['attempts']} attempt(s): {frame['error']}"
                    )
                if frame["type"] == "point_done":
                    resolved[frame["key"]] = (frame["result"], frame["cached"])
            record_resolved_prefix()
        # A cancelled job stops short: it withdrew from what was queued
        # and recorded only what was already in flight.
        return "done" if recorded == len(points) else "cancelled"

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
                    self._stream_job(conn, self.jobs.get(job_id))
                elif kind == "job_cancel":
                    state = self.jobs.cancel(job_id)
                    with self._state_changed:  # its runner waits here
                        self._state_changed.notify_all()
                    send_message(conn, {
                        "type": "job_cancel_reply",
                        "job_id": job_id,
                        "state": state,
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
            self._stream_job(conn, record)

    def _stream_job(self, conn: Connection, record: JobRecord) -> None:
        """Stream ``job_point`` frames from index 0, then ``job_end``."""

        def snapshot(index: int):
            frames = [
                {
                    "type": "job_point",
                    "job_id": record.job_id,
                    "index": i,
                    "key": record.keys[i],
                    "result": record.results[i],
                    "cached": record.cached[i],
                }
                for i in range(index, record.completed)
            ]
            closing = (
                {"type": "job_end", **record.describe()}
                if record.terminal else None
            )
            return frames, closing

        self._follow(conn, self.jobs.changed, snapshot)
