"""The service client: submit jobs, follow streams, drive job RPCs.

:class:`ServiceClient` is the connection object behind ``repro jobs``,
and :class:`~repro.experiments.sweep.FabricExecutor` (``run --spec
--fabric``, ``sweep --fabric``). It is a
:class:`~repro.fabric.server.Peer` — one persistent connection, dialled
with backoff — in the ``jobs`` role, speaking ``job_*`` frames: submit an
:class:`~repro.api.spec.ExperimentSpec` or a planned batch, then consume
the incremental ``job_point`` stream until ``job_end``.

:meth:`run_spec` is the drop-in analogue of
:meth:`Session.run <repro.api.session.Session.run>`: same spec in,
grid-ordered :class:`RunResult` list out, bitwise-identical to a local
run (the daemon executes through the same ``sweep.execute_item`` entry and
the stream carries the same protocol dicts the store persists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.api.spec import ExperimentSpec
from repro.experiments.runner import RunResult
from repro.experiments.store import result_from_dict
from repro.fabric.errors import PointFailedError, PointFailure, ProtocolError
from repro.fabric.protocol import expect, recv_message, send_message
from repro.fabric.server import Peer
from repro.service.errors import ServiceError

__all__ = ["JobHandle", "JobRun", "ServiceClient"]

#: Callback invoked per streamed point: ``(index, key, result, cached)``.
PointCallback = Callable[[int, str, RunResult, bool], None]


@dataclass(frozen=True)
class JobHandle:
    """The daemon's answer to a submission (``job_accepted``)."""

    job_id: str
    state: str
    #: Whether the submission attached to an already-admitted job.
    deduped: bool
    #: Expanded grid size.
    total: int


@dataclass(frozen=True)
class JobRun:
    """A fully streamed job: results plus execution accounting."""

    job_id: str
    #: Results in grid order — bitwise-identical to ``Session.run``.
    results: List[RunResult]
    #: Content-hash store keys in grid order.
    keys: List[str]
    #: Points the job simulated fresh.
    executed: int
    #: Points answered from the store or a concurrent job.
    hits: int


class ServiceClient(Peer):
    """One ``jobs``-role connection to a coordinator or service daemon:
    one in-flight stream at a time (the dedup happens server-side, so
    concurrent clients still share executions)."""

    role = "jobs"
    unreachable = ServiceError

    # -- lifecycle RPCs ------------------------------------------------------
    def submit(self, spec: ExperimentSpec, *, watch: bool = False) -> JobHandle:
        """Submit *spec*; returns the :class:`JobHandle` immediately.

        With ``watch=True`` the daemon follows the acceptance with the
        result stream on this same connection — consume it with
        :meth:`stream` (or use :meth:`run_spec`, which does both).
        """
        return self._submit({"spec": spec.to_dict()}, watch)

    def submit_batch(
        self,
        entries: List[dict],
        fidelity: dict,
        config: Optional[dict],
        *,
        watch: bool = False,
    ) -> JobHandle:
        """Submit a planned batch; returns the :class:`JobHandle`.

        *entries* are ``{"key", "point", "script"?}`` dicts with unique
        keys; *fidelity*/*config* are the protocol dict forms shared by
        every point of the batch. The job ID is the content hash of the
        ordered keys, so the same batch again attaches to its record.
        """
        return self._submit(
            {"points": entries, "fidelity": fidelity, "config": config}, watch
        )

    def _submit(self, job: dict, watch: bool) -> JobHandle:
        send_message(self._conn, {"type": "job_submit", **job, "watch": watch})
        reply = self._expect("job_accepted")
        return JobHandle(
            job_id=str(reply["job_id"]),
            state=str(reply["state"]),
            deduped=bool(reply["deduped"]),
            total=int(reply["total"]),
        )

    def status(self, job_id: str) -> dict:
        """The daemon's status row for *job_id* (raises on unknown IDs)."""
        send_message(self._conn, {"type": "job_status", "job_id": job_id})
        return self._expect("job_status_reply")["job"]

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job state after the request."""
        send_message(self._conn, {"type": "job_cancel", "job_id": job_id})
        return str(self._expect("job_cancel_reply")["state"])

    def list_jobs(self) -> List[dict]:
        """Status rows for every job the daemon has admitted."""
        send_message(self._conn, {"type": "job_list"})
        return self._expect("job_list_reply")["jobs"]

    def stats(self) -> dict:
        """The server's point-in-time counters."""
        send_message(self._conn, {"type": "stats"})
        return self._expect("stats_reply")["stats"]

    # -- streaming -----------------------------------------------------------
    def watch(
        self, job_id: str, *, on_point: Optional[PointCallback] = None
    ) -> JobRun:
        """Attach to *job_id*'s stream (replays from point 0) and
        follow it to the end. See :meth:`stream` for outcome handling."""
        send_message(self._conn, {"type": "job_results", "job_id": job_id})
        return self.stream(job_id, on_point=on_point)

    def stream(
        self,
        job_id: str,
        *,
        on_point: Optional[PointCallback] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> JobRun:
        """Consume ``job_point`` frames until ``job_end``.

        Returns the :class:`JobRun` when the job finished ``done``;
        raises :class:`ServiceError` naming the terminal state when it
        was cancelled or failed (the partial stream is consumed either
        way, and *on_point* sees every streamed point). Given *labels*
        (store key -> point label, as a batch's submitter knows them), a
        job failed by points given up on raises
        :class:`~repro.fabric.errors.PointFailedError` instead, one
        :class:`~repro.fabric.errors.PointFailure` per point. A stream whose
        indices skip or repeat, or a ``done`` job whose ``completed``
        disagrees with the points streamed, raises
        :class:`~repro.fabric.errors.ProtocolError`.
        """
        results: List[RunResult] = []
        keys: List[str] = []
        for message in self._stream("job_end"):
            kind = message["type"]
            if kind == "job_point":
                index = int(message["index"])
                if index != len(results):
                    # A lost or repeated frame would shift every later
                    # result onto the wrong grid point.
                    raise ProtocolError(
                        f"job {job_id}: job_point index {index} arrived "
                        f"where index {len(results)} was due"
                    )
                result = result_from_dict(message["result"])
                results.append(result)
                keys.append(str(message["key"]))
                if on_point is not None:
                    on_point(
                        index, str(message["key"]), result,
                        bool(message["cached"]),
                    )
            elif kind != "job_end":
                raise ProtocolError(f"unexpected stream frame {kind!r}")
        state = str(message.get("state"))  # the last frame is the job_end
        if state == "done" and message.get("completed") != len(results):
            raise ProtocolError(
                f"job {job_id} ended done with "
                f"{message.get('completed')!r} point(s) completed, "
                f"but {len(results)} were streamed"
            )
        if state != "done":
            failed = message.get("failed") or ()
            if labels is not None and failed:
                raise PointFailedError([
                    PointFailure(
                        key=f["key"], label=labels.get(f["key"], f["key"]),
                        error=str(f["error"]), attempts=int(f["attempts"]),
                    )
                    for f in failed
                ])
            detail = str(message.get("error") or "")
            raise ServiceError(
                f"job {job_id} ended {state}" + (f": {detail}" if detail else "")
            )
        return JobRun(
            job_id=job_id,
            results=results,
            keys=keys,
            executed=int(message.get("executed", 0)),
            hits=int(message.get("hits", 0)),
        )

    def run_spec(
        self, spec: ExperimentSpec, *, on_point: Optional[PointCallback] = None
    ) -> JobRun:
        """Submit *spec* and stream it to completion — the remote
        analogue of ``Session.run`` (same grid order, same results,
        same store keys daemon-side)."""
        handle = self.submit(spec, watch=True)
        return self.stream(handle.job_id, on_point=on_point)

    # -- internals -----------------------------------------------------------
    def _expect(self, kind: str) -> dict:
        try:
            return expect(recv_message(self._conn), kind)
        except ProtocolError as exc:
            # `expect` unwraps daemon `error` frames into "peer
            # reported: ..."; re-brand those RPC-level refusals (unknown
            # job, bad spec, capacity) as ServiceError so callers can
            # tell them from wire-protocol violations.
            if str(exc).startswith("peer reported:"):
                raise ServiceError(str(exc))
            raise
