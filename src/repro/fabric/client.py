"""The fabric client: submit point batches, collect streamed results.

:class:`FabricClient` is the thin connection object behind
:class:`~repro.experiments.sweep.FabricExecutor`. It holds one
persistent connection to the coordinator (adaptive sweeps submit many
small jobs; paying a TCP handshake per batch would dominate dispatch
cost) and exposes exactly one blocking operation: :meth:`submit` a
batch of unique ``(key, point)`` entries, then collect ``point_done``
/ ``point_failed`` frames until the coordinator's ``job_done``.

The client never decides *how* points run — store hits, leasing,
retries and failure budgets all live coordinator-side — it only maps
the streamed outcome back into :class:`RunResult` objects and
:class:`~repro.fabric.errors.PointFailure` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import RunResult
from repro.experiments.store import result_from_dict
from repro.fabric.errors import PointFailure, ProtocolError
from repro.fabric.protocol import (
    expect,
    point_label,
    recv_message,
    send_message,
)
from repro.fabric.server import Peer

__all__ = ["FabricClient", "JobOutcome"]


@dataclass(frozen=True)
class JobOutcome:
    """What came back for one submitted batch."""

    #: Completed results, keyed by store key (hits and fresh alike).
    results: Dict[str, RunResult]
    #: Points simulated fresh for this job (the rest were store hits).
    executed: int
    #: Points answered from the coordinator's store.
    hits: int
    #: Points given up on after bounded retries.
    failures: Tuple[PointFailure, ...]


class FabricClient(Peer):
    """One ``client``-role connection to a fabric coordinator: one
    in-flight job at a time (the executor that owns it is synchronous)."""

    role = "client"

    def stats(self) -> dict:
        """Fetch the coordinator's point-in-time counters."""
        send_message(self._conn, {"type": "stats"})
        return expect(recv_message(self._conn), "stats_reply")["stats"]

    def submit(
        self,
        entries: List[dict],
        fidelity: dict,
        config: Optional[dict],
    ) -> JobOutcome:
        """Run one batch through the fabric; block until it resolves.

        *entries* are ``{"key", "point", "script"?}`` dicts with unique
        keys (the executor dedups duplicates before submitting);
        *fidelity*/*config* are the protocol dict forms shared by every
        point of the batch. Every key comes back exactly once — as a
        result or as a failure — or :class:`ProtocolError` is raised if
        the coordinator vanishes first.
        """
        labels = {e["key"]: point_label(e["point"]) for e in entries}
        send_message(self._conn, {
            "type": "submit",
            "fidelity": fidelity,
            "config": config,
            "points": entries,
        })
        results: Dict[str, RunResult] = {}
        failures: List[PointFailure] = []
        for message in self._stream("job_done"):
            kind = message["type"]
            if kind == "point_done":
                results[message["key"]] = result_from_dict(message["result"])
            elif kind == "point_failed":
                key = message["key"]
                failures.append(PointFailure(
                    key=key,
                    label=labels.get(key, key),
                    error=str(message.get("error", "unknown")),
                    attempts=int(message.get("attempts", 0)),
                ))
            elif kind != "job_done":
                raise ProtocolError(f"unexpected job frame {kind!r}")
        return JobOutcome(  # the stream's last frame is the job_done
            results=results,
            executed=int(message.get("executed", 0)),
            hits=int(message.get("hits", 0)),
            failures=tuple(failures),
        )
