"""Exception hierarchy of the distributed sweep fabric.

Every fabric-layer failure derives from :class:`FabricError`, so
callers that treat the fabric as optional infrastructure can catch one
class. The distinction that matters operationally:

* :class:`ProtocolError` — the wire itself misbehaved (bad frame, bad
  message, version mismatch). Talking to a non-fabric endpoint, or to
  an incompatible build, lands here.
* :class:`PointFailedError` — one or more sweep points could not be
  completed after bounded retries. Carries the per-point
  :class:`PointFailure` records so a distributed sweep degrades into a
  *diagnosable* partial failure instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


class FabricError(RuntimeError):
    """Base class of every distributed-fabric failure."""


class ProtocolError(FabricError):
    """Malformed frame/message or incompatible protocol version."""


@dataclass(frozen=True)
class PointFailure:
    """One sweep point the fabric gave up on (after bounded retries)."""

    #: Content-hash store key of the failed point.
    key: str
    #: Human-readable coordinates (arch/set/pattern/load) for messages.
    label: str
    #: Last error observed for the point (worker loss or execution error).
    error: str
    #: Lease attempts consumed before giving up.
    attempts: int


class PointFailedError(FabricError):
    """Some points of a distributed sweep failed after bounded retries.

    The sweep as a whole did not hang: every other point completed and
    was persisted to the coordinator's store, so a re-run resumes from
    there. ``failures`` lists what was given up on and why.
    """

    def __init__(self, failures: Sequence[PointFailure]) -> None:
        self.failures: Tuple[PointFailure, ...] = tuple(failures)
        lines = "; ".join(
            f"{f.label}: {f.error} (after {f.attempts} attempt(s))"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed after bounded "
            f"retries: {lines}"
        )
