"""``ExperimentService``: the coordinator as a long-lived daemon.

``repro serve`` is the fabric coordinator
(:class:`~repro.fabric.coordinator.Coordinator`: one endpoint, one
store, one work table, ``worker`` / ``jobs`` peers) with what a daemon
adds on top: local simulation lanes (and their process pool), a store
given as a path, and its own default port. ``jobs`` peers submit
:class:`~repro.api.spec.ExperimentSpec` JSON or planned batches; each
admitted job is a :class:`~repro.fabric.coordinator.JobRecord`, put on
the work table by the coordinator's one admission method and resolved
there by whoever completes its keys. ``max_jobs`` runner threads bound
how many jobs are on the table at once: a runner admits one and holds
its slot until the record is resolved, failed or cancelled.

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
  puts the misses on the work table, where a key another job already
  wants gains a waiter instead of a second simulation: one simulation
  and one store ``put`` per unique key across everything the daemon
  serves.
* **Job-level dedup.** Job IDs are content hashes of the spec or of
  the batch's keys (:mod:`repro.service.jobs`), so duplicate
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

from typing import TYPE_CHECKING, Optional, Tuple

from repro.api.session import StoreLike, _resolve_store
from repro.experiments.store import result_to_dict
from repro.experiments.sweep import execute_item
from repro.fabric.coordinator import Coordinator

if TYPE_CHECKING:  # imported when start() builds a lane pool
    import multiprocessing.pool

__all__ = ["DEFAULT_PORT", "ExperimentService"]

#: Default TCP port of ``dhetpnoc-repro serve`` (``fabric serve``'s 7023
#: plus a hundred: same server, plus local lanes).
DEFAULT_PORT = 7123


class ExperimentService(Coordinator):
    """The coordinator plus local simulation lanes (see module docstring).

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
    ) -> None:
        if workers < 0:
            raise ValueError("workers must not be negative")
        super().__init__(
            _resolve_store(store, backend), host, port,
            max_jobs=max_jobs, max_pending=max_pending,
        )
        self.workers = workers
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and begin accepting + executing in background threads."""
        address = super().start()
        if self.workers > 1:
            import multiprocessing

            # Spawned, not forked: the daemon is already multi-threaded.
            self._pool = multiprocessing.get_context("spawn").Pool(self.workers)
        for i in range(self.workers):
            self._spawn(self._lane_loop, f"lane-{i}")
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
