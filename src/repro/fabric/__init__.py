"""Distributed sweep fabric: cross-machine ``RunPoint`` execution.

One coordinator (``dhetpnoc-repro serve``) owns the result
store and a work queue; any number of workers (``fabric worker
--connect host:port``) lease point batches and stream results back;
clients (``sweep --fabric host:port`` or
:class:`~repro.experiments.sweep.FabricExecutor`) submit batches as
jobs, through :class:`~repro.service.client.ServiceClient`, and collect
results. The conformance bar: serial == parallel ==
distributed, **bitwise**, with identical content-hash store keys —
see docs/fabric.md.

Layout::

    errors        exception hierarchy + PointFailure records
    transport     Transport/Listener/Connection seam (tcp)
    protocol      length-prefixed JSON frames + payload serialisers
    server        RoleServer (accept loop, handshake, role dispatch,
                  result-stream loop) + dial(), the one client handshake
    coordinator   RoleServer + work table, leases, retries, shared
                  store, the jobs role and its runner threads, local
                  lanes
    worker        lease/execute/stream loop + heartbeats

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
)

__all__ = [
    "Coordinator",
    "FabricError",
    "PointFailedError",
    "PointFailure",
    "ProtocolError",
    "Worker",
    "transports",
]

_LAZY = {
    "Coordinator": ("repro.fabric.coordinator", "Coordinator"),
    "Worker": ("repro.fabric.worker", "Worker"),
    "transports": ("repro.fabric.transport", "transports"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
