"""Distributed sweep fabric: cross-machine ``RunPoint`` execution.

One coordinator (``dhetpnoc-repro fabric serve``) owns the result
store and a work queue; any number of workers (``fabric worker
--connect host:port``) lease point batches and stream results back;
clients (``sweep --fabric host:port`` or
:class:`~repro.experiments.sweep.FabricExecutor`) submit batches and
collect results. The conformance bar: serial == parallel ==
distributed, **bitwise**, with identical content-hash store keys —
see docs/fabric.md.

Layout::

    errors        exception hierarchy + PointFailure records
    transport     Transport/Listener/Connection seam (tcp)
    protocol      length-prefixed JSON frames + payload serialisers
    server        RoleServer (accept loop, handshake, role dispatch,
                  result-stream loop) + dial(), the one client handshake
    coordinator   RoleServer + work table, leases, retries, store server
    worker        lease/execute/stream loop + heartbeats
    client        submit/collect connection used by FabricExecutor
    remote_store  RemoteBackend(StoreBackend) over the store RPCs

Submodules are imported lazily: the fabric pulls in the whole
simulation stack, and ``repro.fabric.errors`` alone must stay cheap
for callers that only need the exception types.
"""

from __future__ import annotations

from repro.api.base import lazy_exports
from repro.fabric.errors import (
    FabricError,
    PointFailedError,
    PointFailure,
    ProtocolError,
    WorkerLostError,
)

__all__ = [
    "Coordinator",
    "FabricClient",
    "FabricError",
    "PointFailedError",
    "PointFailure",
    "ProtocolError",
    "RemoteBackend",
    "Worker",
    "WorkerLostError",
    "transports",
]

_LAZY = {
    "Coordinator": ("repro.fabric.coordinator", "Coordinator"),
    "FabricClient": ("repro.fabric.client", "FabricClient"),
    "RemoteBackend": ("repro.fabric.remote_store", "RemoteBackend"),
    "Worker": ("repro.fabric.worker", "Worker"),
    "transports": ("repro.fabric.transport", "transports"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
