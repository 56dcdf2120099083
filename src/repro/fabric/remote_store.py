"""``RemoteBackend``: a :class:`StoreBackend` proxied over the fabric.

The coordinator hosts a store server over its own (typically sharded)
:class:`~repro.experiments.store.ResultStore`; this backend speaks the
``store_*`` RPCs against it, so any machine can resume from — and
contribute to — the same content-hash store:

::

    store = open_store("127.0.0.1:7023", backend="remote")
    session = Session("127.0.0.1:7023", backend="remote")

Every operation is one request/reply exchange over a single persistent
connection (``scan`` streams ``store_record`` frames closed by a
``store_scan_end``). A lock serialises the exchanges, making the
backend thread-safe the same way the file backends are process-local:
safe for the one-writer-per-connection pattern the executors use.

Durability semantics match the contract: :meth:`put` returns after the
coordinator acknowledged the write into its backend (which appends and
flushes per fresh key), so a worker crash after an acknowledged put
never loses the record. ``coords`` locality hints are forwarded so the
coordinator's sharded backend only touches the relevant shard.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.experiments.runner import RunResult
from repro.experiments.store import (
    CompactionStats,
    ShardCoords,
    StoreBackend,
    result_from_dict,
    result_to_dict,
)
from repro.fabric.protocol import expect, recv_message, send_message
from repro.fabric.server import Peer
from repro.fabric.transport import Address

__all__ = ["RemoteBackend"]


class RemoteBackend(Peer, StoreBackend):
    """Store backend proxying every operation to a fabric coordinator.

    Args:
        address: The coordinator's ``host:port``.
        connect_timeout: Seconds to wait for the coordinator per dial
            (dials back off like every other peer's, so a store opened
            in the same breath as ``fabric serve`` wins the bind race).
    """

    role = "store"

    def __init__(
        self,
        address: Address,
        *,
        connect_timeout: float = 10.0,
    ) -> None:
        import threading

        super().__init__(
            address, connect_timeout=connect_timeout
        )
        #: Mirrors the file backends' ``path`` attribute so store
        #: tooling can print *where* a store lives.
        self.path = "%s:%d" % self.address
        self._lock = threading.Lock()

    # -- plumbing ------------------------------------------------------------
    def _request(self, message: dict, reply_type: str = "store_reply") -> dict:
        with self._lock:
            send_message(self._conn, message)
            return expect(recv_message(self._conn), reply_type)

    @staticmethod
    def _coords(coords: Optional[ShardCoords]):
        return None if coords is None else [coords[0], coords[1]]

    # -- StoreBackend contract -----------------------------------------------
    def get(
        self, key: str, coords: Optional[ShardCoords] = None
    ) -> Optional[RunResult]:
        reply = self._request({
            "type": "store_get", "key": key, "coords": self._coords(coords),
        })
        data = reply.get("result")
        return None if data is None else result_from_dict(data)

    def contains(
        self, key: str, coords: Optional[ShardCoords] = None
    ) -> bool:
        reply = self._request({
            "type": "store_contains",
            "key": key,
            "coords": self._coords(coords),
        })
        return bool(reply.get("value"))

    def put(self, key: str, result: RunResult) -> None:
        self._request({
            "type": "store_put", "key": key,
            "result": result_to_dict(result),
        })

    def scan(
        self, coords: Optional[ShardCoords] = None
    ) -> Iterator[Tuple[str, RunResult]]:
        # Collect under the lock (frames must not interleave with other
        # ops), then yield outside it so consumers can nest requests.
        records = []
        with self._lock:
            send_message(self._conn, {
                "type": "store_scan", "coords": self._coords(coords),
            })
            for message in self._stream("store_scan_end"):
                if message["type"] == "store_record":
                    records.append(
                        (message["key"], result_from_dict(message["result"]))
                    )
        yield from records

    def flush(self) -> None:
        self._request({"type": "store_flush"})

    def compact(self) -> CompactionStats:
        reply = self._request({"type": "store_compact"})
        return CompactionStats(**reply.get("stats", {}))

    def clear(self) -> None:
        """No local view to drop; records live on the coordinator."""

    def __len__(self) -> int:
        reply = self._request({"type": "store_len"})
        return int(reply.get("value", 0))
