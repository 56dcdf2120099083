"""Experiment service: the ``jobs`` role's queue and client.

One daemon (``dhetpnoc-repro serve``, a
:class:`~repro.fabric.coordinator.Coordinator`) owns a result store, a
job queue and the work table; any number of clients submit
:class:`~repro.api.spec.ExperimentSpec` JSON over the fabric's wire
layer (``repro jobs submit|status|watch|cancel|list`` or
:class:`ServiceClient`) and receive results streamed incrementally as
points resolve, simulated by the daemon's local lanes or by ``fabric
worker`` processes attached to the same port. Jobs run concurrently
against the shared store, whose backend serialises the writers of each
of its files; duplicate submissions dedup by content-hashed job ID, and
every result is bitwise-identical to a local ``Session.run`` with
identical store keys — see docs/service.md.

Layout::

    errors   ServiceError (extends FabricError)
    jobs     JobQueue: IDs, lifecycle, admission (JobRecord is the coordinator's)
    daemon   ExperimentService: the Coordinator, by the perf ledger's name
    client   ServiceClient: submit/stream/status/cancel/list/stats

Submodules are imported lazily, mirroring ``repro.fabric``: the client
pulls in the simulation stack, and ``repro.service.errors`` alone must
stay cheap.
"""

from __future__ import annotations

from repro.api.base import lazy_exports
from repro.service.errors import ServiceError

__all__ = [
    "JobQueue",
    "JobRecord",
    "JobRejected",
    "ServiceClient",
    "ServiceError",
    "job_id_for_spec",
]

_LAZY = {
    "JobQueue": ("repro.service.jobs", "JobQueue"),
    "JobRecord": ("repro.fabric.coordinator", "JobRecord"),
    "JobRejected": ("repro.service.jobs", "JobRejected"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "job_id_for_spec": ("repro.service.jobs", "job_id_for_spec"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
