"""The fabric worker: lease points, simulate them, stream results.

A :class:`Worker` opens one connection to the coordinator, registers
with capability info (hostname, pid, core count, interpreter), then
loops: request a lease, simulate each leased work item through the one
entry every lane uses — the in-process path, the multiprocessing pool
and the service daemon's lanes included
(:func:`repro.experiments.sweep.execute_item`) — and stream one
``result`` frame back per point. A background thread heartbeats every
``heartbeat_s`` (the coordinator's welcome frame sets the cadence) so
a worker that is deep in a long simulation is still visibly alive.

Scenario points ship the built schedule's JSON alongside the name;
``execute_item`` rebuilds names this worker knows and *verifies* them
against the shipped fingerprint, and registers names it does not
(file-loaded or combinator scenarios registered only on the client)
from the shipped schedule. Either way the worker simulates exactly the
schedule the client fingerprinted into the store key — a mismatch is a
loud per-point failure, never a silently different simulation.

Chaos hook: ``fail_after=N`` makes the worker hard-exit
(``os._exit``) after streaming *N* results while still holding a
lease — the deterministic stand-in for "machine died mid-sweep" that
the kill-a-worker tests use (``fail_after=0`` dies after leasing,
before simulating anything).
"""

from __future__ import annotations

import logging
import os
import platform
import socket as _socket
import sys
import threading
from typing import Optional

from repro.experiments.store import result_to_dict
from repro.experiments.sweep import execute_item
from repro.fabric.errors import FabricError
from repro.fabric.protocol import recv_message, send_message
from repro.fabric.server import dial
from repro.fabric.transport import Address

__all__ = ["Worker", "default_capabilities"]

log = logging.getLogger("repro.fabric")


def default_capabilities() -> dict:
    """Capability info sent in the worker's ``hello`` frame."""
    return {
        "hostname": _socket.gethostname(),
        "pid": os.getpid(),
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


class Worker:
    """One fabric worker process (or thread, in tests).

    Args:
        connect: Coordinator address (``"host:port"`` or tuple).
        capabilities: Extra capability keys merged over
            :func:`default_capabilities`.
        fail_after: Chaos hook — hard-exit after this many streamed
            results (see module docstring). ``None`` disables it.
        connect_timeout: Seconds to wait for the coordinator per dial.
        connect_attempts: Initial-connect dials before giving up. A
            worker is routinely launched in the same breath as ``fabric
            serve``, so the first dial races the coordinator's bind;
            :func:`~repro.fabric.server.dial`'s bounded backoff absorbs
            that race without launcher-side sleep loops.
    """

    def __init__(
        self,
        connect: Address,
        *,
        capabilities: Optional[dict] = None,
        fail_after: Optional[int] = None,
        connect_timeout: float = 10.0,
        connect_attempts: int = 8,
    ) -> None:
        self._address = connect
        self._capabilities = default_capabilities()
        if capabilities:
            self._capabilities.update(capabilities)
        self._fail_after = fail_after
        self._connect_timeout = connect_timeout
        self._connect_attempts = connect_attempts
        self._conn = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._completed = 0
        self.worker_id: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------
    def stop(self) -> None:
        """Ask the run loop to exit (used by in-thread test workers)."""
        self._stop.set()
        if self._conn is not None:
            self._conn.close()

    def run(self) -> int:
        """Connect, register, and process leases until told to stop.

        Returns the number of points simulated (0 is normal for a
        worker that joined after the queue drained). A
        ``KeyboardInterrupt`` stops the loop as :meth:`stop` does; the
        coordinator re-queues whatever the worker still held.
        """
        conn, welcome = dial(
            self._address, "worker",
            timeout=self._connect_timeout, attempts=self._connect_attempts,
            capabilities=self._capabilities,
        )
        self._conn = conn
        try:
            self.worker_id = welcome.get("worker_id")
            heartbeat_s = float(welcome.get("heartbeat_s", 2.0))
            log.info(
                "registered as worker %s (heartbeat %.1fs)",
                self.worker_id, heartbeat_s,
            )
            beat = threading.Thread(
                target=self._heartbeat_loop, args=(heartbeat_s,),
                name="fabric-heartbeat", daemon=True,
            )
            beat.start()
            self._lease_loop()
        except KeyboardInterrupt:
            pass  # Ctrl-C, or SIGTERM under the CLI: stop like stop()
        finally:
            self._stop.set()
            try:
                self._send({"type": "goodbye"})
            except Exception:
                pass
            conn.close()
        return self._completed

    # -- internals -----------------------------------------------------------
    def _send(self, message: dict) -> None:
        with self._send_lock:
            send_message(self._conn, message)

    def _heartbeat_loop(self, heartbeat_s: float) -> None:
        while not self._stop.wait(heartbeat_s):
            try:
                self._send({"type": "heartbeat"})
            except Exception:
                return  # connection gone; the main loop notices too

    def _lease_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._send({"type": "lease"})
                message = recv_message(self._conn)
            except OSError:
                return
            if message is None:
                return
            kind = message["type"]
            if kind == "shutdown":
                return
            if kind == "wait":
                if self._stop.wait(float(message.get("delay", 0.2))):
                    return
                continue
            if kind != "work":
                raise FabricError(f"unexpected coordinator frame {kind!r}")
            self._process_lease(message)

    def _process_lease(self, message: dict) -> None:
        lease_id = message.get("lease_id")
        for item in message.get("items", ()):
            if (
                self._fail_after is not None
                and self._completed >= self._fail_after
            ):
                # Chaos hook: die *while holding the lease*, without
                # unwinding — indistinguishable from a machine loss.
                log.warning(
                    "fail_after=%d reached; hard-exiting", self._fail_after
                )
                os._exit(17)
            key = item["key"]
            try:
                result = execute_item(item)
            except Exception as exc:  # simulation bug / bad payload
                log.warning("point %s failed: %r", key, exc)
                self._send({
                    "type": "result_error",
                    "lease_id": lease_id,
                    "key": key,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            self._send({
                "type": "result",
                "lease_id": lease_id,
                "key": key,
                "result": result_to_dict(result),
            })
            self._completed += 1
