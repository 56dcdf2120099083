"""Wire protocol of the sweep fabric: length-prefixed JSON frames.

Framing
-------
One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON — trivially debuggable (``nc`` + a hex dump), and with no
dependencies beyond the stdlib. Frames above :data:`MAX_FRAME_BYTES`
are rejected so a corrupt length prefix cannot allocate gigabytes.
A stream of frames (:func:`send_frames`) goes out a batch per write,
and the TCP transport reads through a buffer, so frames coalesce and
split on the wire freely; only the byte sequence is the protocol.

Every message is a JSON object with a ``"type"`` field. Connections
open with a ``hello``/``welcome`` handshake that pins the peer's
*role* (``worker`` / ``jobs``) and checks
:data:`PROTOCOL_VERSION`; everything after the handshake is
role-specific (see :mod:`repro.fabric.coordinator` for the full
message flow and docs/fabric.md for the frame catalogue).

Determinism
-----------
The payload serialisers below reuse the repository's existing wire
forms — :func:`repro.experiments.store.result_to_dict` for results,
``Fidelity.to_dict`` for fidelities and plain ``dataclasses.asdict``
for points/configs. Python's
``json`` emits floats via ``repr``, which round-trips ``float``
exactly, so a :class:`~repro.experiments.runner.RunResult` that
crosses the fabric compares **bitwise equal** to one computed in
process — the property the distributed-conformance suite pins.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Iterable, Optional, Union

from repro.api.base import FieldTable
from repro.arch.config import SystemConfig
from repro.experiments.runner import RunResult
from repro.experiments.store import result_from_dict, result_to_dict
from repro.experiments.sweep import RunPoint
from repro.fabric.errors import ProtocolError
from repro.fabric.transport import Connection
from repro.traffic.bandwidth_sets import BandwidthSet

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "config_from_dict",
    "config_to_dict",
    "encode_message",
    "point_from_dict",
    "point_label",
    "point_to_dict",
    "recv_message",
    "result_from_dict",
    "result_to_dict",
    "send_frames",
    "send_message",
]

#: Bump on incompatible message-schema changes; checked in the
#: ``hello``/``welcome`` handshake.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload. Work batches and scan replies
#: are far below this; the cap only guards against garbage prefixes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Bytes one ``send_bytes`` call carries at most when a batch of frames
#: goes out together (a single larger frame still goes out whole).
_WRITE_BYTES = 256 * 1024

#: Built once: ``json.dumps`` with these arguments builds a fresh
#: encoder per call. An encoder keeps no state between calls.
_WIRE = json.JSONEncoder(separators=(",", ":"))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def encode_message(message: dict) -> bytes:
    """The UTF-8 JSON payload *message* travels as (no length prefix)."""
    return _WIRE.encode(message).encode("utf-8")


def send_frames(conn: Connection, frames: Iterable[Union[dict, bytes]]) -> None:
    """Send *frames* in order, length-prefixed, in as few writes as fit.

    A frame is a message dict, or ``bytes`` that :func:`encode_message`
    produced earlier (a stored frame is sent, not re-encoded). The
    frames are joined into one ``send_bytes`` call per
    :data:`_WRITE_BYTES`; the bytes on the wire are the same as one
    :func:`send_message` per frame.
    """
    parts: list = []
    size = 0
    for frame in frames:
        payload = frame if isinstance(frame, bytes) else encode_message(frame)
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"refusing to send a {len(payload)}-byte frame "
                f"(cap: {MAX_FRAME_BYTES})"
            )
        if parts and size + _LENGTH.size + len(payload) > _WRITE_BYTES:
            conn.send_bytes(b"".join(parts))
            parts, size = [], 0
        parts += (_LENGTH.pack(len(payload)), payload)
        size += _LENGTH.size + len(payload)
    if parts:
        conn.send_bytes(b"".join(parts))


def send_message(conn: Connection, message: dict) -> None:
    """Serialise *message* and send it as one length-prefixed frame."""
    send_frames(conn, (message,))


def recv_message(conn: Connection) -> Optional[dict]:
    """Receive one frame; ``None`` on orderly EOF before a frame starts.

    A connection dropped *mid-frame*, an oversized length prefix, or a
    non-object payload raise :class:`ProtocolError` — those are never
    legitimate peer behaviour.
    """
    header = conn.recv_bytes(_LENGTH.size)
    if not header:
        return None
    if len(header) < _LENGTH.size:
        raise ProtocolError("connection dropped mid-frame (short header)")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds cap {MAX_FRAME_BYTES} "
            "(corrupt stream or non-fabric peer?)"
        )
    payload = conn.recv_bytes(length)
    if len(payload) < length:
        raise ProtocolError("connection dropped mid-frame (short payload)")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}")
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not a typed message object")
    return message


def expect(message: Optional[dict], expected_type: str) -> dict:
    """Assert *message* exists and has the expected ``type``.

    ``error`` frames are unwrapped into :class:`ProtocolError` with the
    peer's reason, so a coordinator-side rejection reads as itself
    rather than as a type mismatch.
    """
    if message is None:
        raise ProtocolError(
            f"peer closed the connection (expected {expected_type!r})"
        )
    if message.get("type") == "error":
        raise ProtocolError(f"peer reported: {message.get('error')}")
    if message.get("type") != expected_type:
        raise ProtocolError(
            f"expected {expected_type!r} frame, got {message.get('type')!r}"
        )
    return message


# ---------------------------------------------------------------------------
# Payload serialisers (exact round-trips; see module docstring)
# ---------------------------------------------------------------------------

#: Field tables of the payload dataclasses, read once.
_BW_SET_FIELDS = FieldTable(BandwidthSet)
_POINT_FIELDS = FieldTable(RunPoint)
_CONFIG_FIELDS = FieldTable(SystemConfig)


def _bw_set_from_dict(data: dict) -> BandwidthSet:
    return _BW_SET_FIELDS.build(data, class_gbps=tuple(data["class_gbps"]))


def point_to_dict(point: RunPoint) -> dict:
    """JSON form of a :class:`~repro.experiments.sweep.RunPoint` (a
    pinned bandwidth set becomes a nested dict)."""
    return dataclasses.asdict(point)


def point_from_dict(data: dict) -> RunPoint:
    """Exact inverse of :func:`point_to_dict`."""
    bw_set = data.get("bw_set")
    if bw_set is None:
        return _POINT_FIELDS.build(data)
    return _POINT_FIELDS.build(data, bw_set=_bw_set_from_dict(bw_set))


def point_label(point: dict) -> str:
    """Human-readable coordinates of a wire-form point, for messages."""
    label = (
        f"{point.get('arch')}/set{point.get('bw_set_index')}/"
        f"{point.get('pattern')}@{point.get('offered_gbps'):.0f}Gb/s"
    )
    if point.get("scenario"):
        label += f"/{point['scenario']}"
    return label


def config_to_dict(config: Optional[SystemConfig]) -> Optional[dict]:
    """JSON form of a :class:`~repro.arch.config.SystemConfig`."""
    if config is None:
        return None
    return dataclasses.asdict(config)


def config_from_dict(data: Optional[dict]) -> Optional[SystemConfig]:
    """Exact inverse of :func:`config_to_dict`."""
    if data is None:
        return None
    return _CONFIG_FIELDS.build(data, bw_set=_bw_set_from_dict(data["bw_set"]))


def result_roundtrip(result: RunResult) -> RunResult:
    """``result -> JSON -> result`` (test helper; must be bitwise)."""
    return result_from_dict(
        json.loads(json.dumps(result_to_dict(result)))
    )
