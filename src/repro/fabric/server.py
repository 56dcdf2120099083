"""The one connection/role server of the wire layer, and its peers' half.

Every daemon here is a :class:`RoleServer`: bind one endpoint, accept
peers on a background thread, validate ``hello`` (type,
:data:`~repro.fabric.protocol.PROTOCOL_VERSION`, role) and hand the
connection to the handler registered for the peer's role.
:class:`~repro.fabric.coordinator.Coordinator` registers ``worker`` /
``jobs`` (its local lanes are threads, not roles). Shared by every role, and so defined only here: the
lifecycle, the handshake, the rule that a peer's bad frame earns an
``error`` frame instead of a traceback, and the result-stream loop
(:meth:`RoleServer._follow`).

:func:`dial` is the client half — connect with bounded backoff, send
``hello``, expect ``welcome`` — and :class:`Peer` the connection
object built on it.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.fabric.errors import FabricError, ProtocolError
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    expect,
    recv_message,
    send_frames,
    send_message,
)
from repro.fabric.transport import (
    Address,
    Connection,
    make_transport,
    parse_address,
)

__all__ = ["Peer", "RoleServer", "dial"]

log = logging.getLogger("repro.fabric")


def dial(
    address: Address,
    role: str,
    *,
    timeout: float = 10.0,
    attempts: int = 5,
    unreachable: Type[FabricError] = FabricError,
    **hello,
) -> Tuple[Connection, dict]:
    """Connect to the server at *address* as a *role* peer.

    Daemons and the peers that join them usually start within moments
    of each other (CI smoke lanes, ``worker --connect`` fired alongside
    ``serve``), so the first dial routinely races the listener's bind:
    refused connects are retried, *attempts* dials in total, sleeping
    0.2 s, 0.4 s, ... (capped at 2 s) in between. A server that never
    answers raises *unreachable*; one that answers the ``hello`` (extra
    *hello* fields ride along) with anything but ``welcome`` raises
    :class:`ProtocolError`. Returns ``(connection, welcome_frame)``.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    host, port = parse_address(address)
    dialler = make_transport()
    delay = 0.2
    for attempt in range(1, attempts + 1):
        try:
            conn = dialler.connect((host, port), timeout=timeout)
            break
        except OSError as exc:
            if attempt == attempts:
                raise unreachable(
                    f"cannot reach a server for role {role!r} at "
                    f"{host}:{port}: {exc}"
                )
        time.sleep(min(delay, 2.0))
        delay *= 2
    try:
        send_message(conn, {
            "type": "hello", "role": role, "version": PROTOCOL_VERSION,
            **hello,
        })
        return conn, expect(recv_message(conn), "welcome")
    except BaseException:
        conn.close()
        raise


class Peer:
    """One persistent connection to a :class:`RoleServer`, as :attr:`role`.

    Not thread-safe: one exchange in flight per connection by design.
    Use one peer per thread.

    Args:
        connect: Server address (``"host:port"`` or tuple).
        connect_timeout: Seconds to wait for the server per dial.
        connect_attempts: Dials before giving up (see :func:`dial`).
    """

    role = ""
    #: Raised when no server answers at the address.
    unreachable: Type[FabricError] = FabricError

    def __init__(
        self,
        connect: Address,
        *,
        connect_timeout: float = 10.0,
        connect_attempts: int = 5,
    ) -> None:
        self.address = parse_address(connect)
        self._conn, _welcome = dial(
            self.address, self.role, timeout=connect_timeout,
            attempts=connect_attempts, unreachable=self.unreachable,
        )

    def close(self) -> None:
        """Drop the connection (idempotent; server-side state lives on)."""
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _stream(self, closing: str) -> Iterator[dict]:
        """The server's frames up to and including the *closing* one."""
        while True:
            message = recv_message(self._conn)
            if message is None or message["type"] == "error":
                expect(message, closing)  # raises, with the server's reason
            yield message
            if message["type"] == closing:
                return


#: Seconds :meth:`RoleServer.stop` waits in all for its threads to end.
JOIN_TIMEOUT_S = 2.0


class RoleServer:
    """Bind one endpoint and serve peers by the role they declare.

    Subclasses fill :attr:`_roles` (``role -> handler(conn, hello)``)
    and override :meth:`_release`; a handler opens with
    :meth:`_welcome` and usually iterates :meth:`_frames`.

    Args:
        host, port: Bind address (port ``0`` picks a free port; read it
            back from :attr:`address` after :meth:`start`).
    """

    #: What log lines and error messages call this server.
    title = "server"

    def __init__(self, host: str, port: int) -> None:
        self._transport = make_transport()
        self._bind = (host, port)
        self._listener = None
        self._closed = False
        #: Set by :meth:`stop`: what a background loop waits on between
        #: rounds, so it leaves at once.
        self._stopped = threading.Event()
        #: The background threads started (finished ones are dropped as
        #: new ones start); :meth:`stop` joins them.
        self._threads: List[threading.Thread] = []
        self._roles: Dict[str, Callable[[Connection, dict], None]] = {}

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """Actual bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError(f"{self.title} is not started")
        return self._listener.address

    def start(self) -> Tuple[str, int]:
        """Bind and begin accepting in a background thread."""
        if self._listener is not None:
            raise RuntimeError(f"{self.title} already started")
        self._listener = self._transport.listen(self._bind)
        self._spawn(self._accept_loop, "accept")
        host, port = self.address
        log.info("%s listening on %s:%d", self.title, host, port)
        return host, port

    def _spawn(self, target: Callable[..., None], name: str, *args) -> None:
        thread = threading.Thread(
            target=target, args=args, name=f"{self.title}-{name}", daemon=True
        )
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()

    def serve_forever(self) -> None:
        """Blocking convenience for the CLI: start, then wait."""
        if self._listener is None:
            self.start()
        try:
            while not self._closed:
                time.sleep(0.5)
        except KeyboardInterrupt:  # Ctrl-C, or SIGTERM under the CLI
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut down: stop accepting, release what the roles hold, then
        join the background threads (``JOIN_TIMEOUT_S`` at most in all:
        a peer still connected keeps its thread)."""
        if self._closed:
            return
        self._closed = True
        self._stopped.set()
        if self._listener is not None:
            self._listener.close()
        self._release()
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(max(0.0, deadline - time.monotonic()))

    def _release(self) -> None:
        """Drop peers, wake waiters, flush state (subclass hook)."""

    # -- accept / dispatch ---------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn = self._listener.accept()
            except OSError:
                return  # listener closed
            self._spawn(self._serve_connection, "peer", conn)

    def _serve_connection(self, conn: Connection) -> None:
        role = None
        try:
            hello = recv_message(conn)
            if hello is None:
                return
            if hello["type"] != "hello":
                raise ProtocolError(f"expected hello, got {hello['type']!r}")
            if hello.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: peer speaks "
                    f"{hello.get('version')!r}, this {self.title} speaks "
                    f"{PROTOCOL_VERSION}"
                )
            role = hello.get("role")
            if role not in self._roles:
                raise ProtocolError(
                    f"unknown role {role!r}: this {self.title} serves "
                    f"{sorted(self._roles)}"
                )
            self._roles[role](conn, hello)
        except (ProtocolError, KeyError, TypeError, ValueError,
                AttributeError) as exc:
            # A well-framed message whose fields a handler cannot use is
            # the peer's fault like any protocol violation: name it to
            # the peer and drop this connection, never the thread.
            reason = (
                str(exc) if isinstance(exc, ProtocolError)
                else f"malformed frame: {type(exc).__name__}: {exc}"
            )
            log.warning("%s peer rejected: %s", role or "unidentified", reason)
            try:
                send_message(conn, {"type": "error", "error": reason})
            except Exception:
                pass
        except OSError:
            pass  # the peer vanished; whatever it started keeps running
        finally:
            conn.close()

    def _welcome(self, conn: Connection, **fields) -> None:
        """Accept the peer's ``hello``."""
        send_message(conn, {
            "type": "welcome", "version": PROTOCOL_VERSION, **fields,
        })

    def _frames(self, conn: Connection) -> Iterator[dict]:
        """The peer's frames until it hangs up or the server stops."""
        while not self._closed:
            message = recv_message(conn)
            if message is None:
                return
            yield message

    def _follow(
        self,
        conn: Connection,
        changed: threading.Condition,
        snapshot: Callable[[int], Tuple[List[dict], Optional[dict]]],
    ) -> None:
        """Stream a job to a peer: replay it from frame 0, then follow
        the live tail.

        *snapshot(index)*, called with *changed* held, returns the
        job's frames (dicts, or payloads encoded earlier) from *index*
        on plus the closing frame (``None`` while more can still come).
        Each snapshot goes out as one batch (:func:`send_frames`) — a
        late watcher gets the whole prefix first — with the closing
        frame last. A send failure (the peer left mid-stream) raises
        ``OSError`` and drops only this connection, never the job.
        """
        index = 0
        closing = None
        while closing is None:
            with changed:
                frames, closing = snapshot(index)
                while not frames and closing is None:
                    if self._closed:
                        raise ProtocolError(f"{self.title} shutting down")
                    changed.wait(timeout=0.5)
                    frames, closing = snapshot(index)
            index += len(frames)
            send_frames(conn, frames if closing is None else [*frames, closing])
