"""Byte transports under the fabric protocol.

The protocol layer (:mod:`repro.fabric.protocol`) frames JSON messages
over an abstract byte-stream :class:`Connection`; this module supplies
the concrete transports behind a registry seam:

* ``tcp`` — stdlib sockets (:class:`TcpTransport`). Works anywhere,
  needs no dependencies, and is what every server and peer uses.

A cluster interconnect only has to implement the three-method surface
below and register its factory in :data:`transports` to slot in;
nothing above the seam knows about sockets.

How a transport is chosen: from the address, never from an option.
Addresses are ``"host:port"`` strings (or ``(host, port)`` tuples;
:func:`parse_address` normalises them), every one of them means TCP
today, and :func:`make_transport` -- called where a server binds and
where a peer dials, in :mod:`repro.fabric.server` -- is the one place a
second registry entry would be told apart by the address it is given
(a scheme prefix, say). No signature above it carries a transport
name.
"""

from __future__ import annotations

import abc
import socket
from typing import Optional, Tuple, Union

from repro.api.base import Registry
from repro.fabric.errors import FabricError

__all__ = [
    "Connection",
    "Listener",
    "TcpTransport",
    "Transport",
    "parse_address",
    "transports",
]

Address = Union[str, Tuple[str, int]]


def parse_address(address: Address) -> Tuple[str, int]:
    """Normalise ``"host:port"`` / ``(host, port)`` to a tuple.

    >>> parse_address("127.0.0.1:7023")
    ('127.0.0.1', 7023)
    >>> parse_address(("localhost", 0))
    ('localhost', 0)
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise FabricError(
            f"bad fabric address {address!r}; expected 'host:port'"
        )
    try:
        return host, int(port)
    except ValueError:
        raise FabricError(
            f"bad fabric address {address!r}; port must be an integer"
        )


class Connection(abc.ABC):
    """One bidirectional byte stream between two fabric peers."""

    @abc.abstractmethod
    def send_bytes(self, data: bytes) -> None:
        """Send all of *data* (blocking)."""

    @abc.abstractmethod
    def recv_bytes(self, n: int) -> bytes:
        """Receive exactly *n* bytes; ``b""`` on orderly EOF."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear the connection down (idempotent)."""


class Listener(abc.ABC):
    """A bound endpoint accepting inbound :class:`Connection`\\ s."""

    @property
    @abc.abstractmethod
    def address(self) -> Tuple[str, int]:
        """The actual bound ``(host, port)`` (port 0 resolves here)."""

    @abc.abstractmethod
    def accept(self) -> Connection:
        """Block until a peer connects; return its connection."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop accepting (idempotent); pending ``accept`` unblocks."""


class Transport(abc.ABC):
    """Factory for listeners and outbound connections."""

    @abc.abstractmethod
    def listen(self, address: Address) -> Listener:
        """Bind *address* and return a :class:`Listener`."""

    @abc.abstractmethod
    def connect(
        self, address: Address, timeout: Optional[float] = None
    ) -> Connection:
        """Open a connection to *address* (raises on refusal/timeout)."""


# ---------------------------------------------------------------------------
# TCP (stdlib sockets) — the default transport
# ---------------------------------------------------------------------------

class _TcpConnection(Connection):
    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send_bytes(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv_bytes(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                break  # EOF mid-message is the caller's ProtocolError
            chunks.append(chunk)
            remaining -= len(chunk)
        data = b"".join(chunks)
        # A clean EOF before any byte is an orderly close; a partial
        # read is surfaced as-is and the framing layer rejects it.
        return data

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


class _TcpListener(Listener):
    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._sock.getsockname()[:2]
        return host, port

    def accept(self) -> Connection:
        sock, _peer = self._sock.accept()
        # Small frames dominate the protocol; don't batch them.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _TcpConnection(sock)

    def close(self) -> None:
        # close() alone does not wake a thread already blocked in
        # accept() on Linux; shutdown() does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


class TcpTransport(Transport):
    """Plain stdlib TCP: the default (and reference) transport."""

    def listen(self, address: Address) -> Listener:
        host, port = parse_address(address)
        return _TcpListener(host, port)

    def connect(
        self, address: Address, timeout: Optional[float] = None
    ) -> Connection:
        host, port = parse_address(address)
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        return _TcpConnection(sock)


#: Registry of ``name -> factory() -> Transport`` (exposed through
#: :mod:`repro.api.registry`). A cluster-interconnect transport starts
#: by registering its factory here.
transports = Registry("fabric transport", error=FabricError)

transports.register("tcp", TcpTransport)


def make_transport(name: str = "tcp") -> Transport:
    """Build a transport by registry *name* (default ``tcp``)."""
    return transports.get(name)()
