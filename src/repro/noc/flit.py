"""Packets and flow-control units (flits).

"In wormhole switching, each packet is divided into fixed length flow
control units (flits). The header flit has the routing information and is
used to establish a path from source to destination. The body flits follow
the path established by the header flit." (thesis section 1.4)

Packet geometry follows table 3-3: every bandwidth set carries 2048-bit
packets, split as 64x32b (set 1), 16x128b (set 2) or 8x256b (set 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional


class FlitType(Enum):
    """Flit roles within a wormhole packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: Single-flit packet: head and tail at once.
    HEAD_TAIL = "head_tail"


_HEAD, _TAIL, _HEAD_TAIL = FlitType.HEAD, FlitType.TAIL, FlitType.HEAD_TAIL

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A network packet.

    Attributes
    ----------
    src, dst:
        Flat core indices (0..63 in the 64-core system of table 3-3).
    n_flits, flit_bits:
        Packet geometry; ``size_bits = n_flits * flit_bits``.
    bw_class:
        Index of the application bandwidth class that produced the packet
        (table 3-1), or ``None`` for class-less traffic.
    created_cycle:
        Injection-queue entry cycle; used for end-to-end latency.
    retries:
        Number of reservation retransmissions this packet needed (thesis
        1.4: dropped header flits are retransmitted by the source).
    """

    src: int
    dst: int
    n_flits: int
    flit_bits: int
    created_cycle: int = 0
    bw_class: Optional[int] = None
    pid: int = field(default_factory=lambda: next(_packet_ids))
    retries: int = 0

    def __post_init__(self) -> None:
        if self.n_flits <= 0:
            raise ValueError(f"n_flits must be positive, got {self.n_flits}")
        if self.flit_bits <= 0:
            raise ValueError(f"flit_bits must be positive, got {self.flit_bits}")
        if self.src == self.dst:
            raise ValueError(f"packet src == dst == {self.src}")

    @property
    def size_bits(self) -> int:
        return self.n_flits * self.flit_bits

    def __repr__(self) -> str:
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
            f"{self.n_flits}x{self.flit_bits}b)"
        )


class Flit:
    """One flow-control unit of a packet.

    ``vc`` is assigned by virtual-channel allocation and may be rewritten
    hop by hop; all other fields are immutable in spirit. ``is_head`` and
    ``is_tail`` are fixed from ``ftype`` and ``bits`` from the packet at
    construction — plain values, because every buffer push/pop, router
    hop and energy charge reads them.
    """

    __slots__ = ("packet", "ftype", "seq", "vc", "is_head", "is_tail", "bits")

    def __init__(self, packet: Packet, ftype: FlitType, seq: int, vc: int = 0):
        self.packet = packet
        self.ftype = ftype
        self.seq = seq
        self.vc = vc
        self.is_head = ftype is _HEAD or ftype is _HEAD_TAIL
        self.is_tail = ftype is _TAIL or ftype is _HEAD_TAIL
        self.bits = packet.flit_bits

    def __repr__(self) -> str:
        return f"Flit(pid={self.packet.pid}, {self.ftype.value}, seq={self.seq})"


def packetize(packet: Packet) -> List[Flit]:
    """Split *packet* into its flit sequence.

    A 1-flit packet yields a single HEAD_TAIL flit; otherwise HEAD,
    BODY*, TAIL.

    >>> p = Packet(src=0, dst=1, n_flits=4, flit_bits=32)
    >>> [f.ftype.value for f in packetize(p)]
    ['head', 'body', 'body', 'tail']
    """
    if packet.n_flits == 1:
        return [Flit(packet, FlitType.HEAD_TAIL, 0)]
    flits = [Flit(packet, FlitType.HEAD, 0)]
    flits.extend([Flit(packet, FlitType.BODY, i) for i in range(1, packet.n_flits - 1)])
    flits.append(Flit(packet, FlitType.TAIL, packet.n_flits - 1))
    return flits

