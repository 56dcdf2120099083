"""Injection-trace record and replay.

Traces make experiments repeatable across architectures: record the
injection stream once (cycle, src, dst, class) and replay it bit-identically
into both Firefly and d-HetPNoC, removing generator randomness from A/B
comparisons. Traces serialise to JSON lines for archival.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional

from repro.noc.flit import Packet
from repro.traffic.bandwidth_sets import BandwidthSet


@dataclass(frozen=True)
class TraceRecord:
    """One injected packet."""

    cycle: int
    src: int
    dst: int
    bw_class: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("cycle must be >= 0")
        if self.src == self.dst:
            raise ValueError("src == dst in trace record")


class TrafficTrace:
    """An ordered collection of :class:`TraceRecord`."""

    def __init__(self, records: Optional[List[TraceRecord]] = None):
        self.records: List[TraceRecord] = list(records or [])
        #: Lines skipped by :meth:`load` (torn writes, corrupt JSON).
        self.corrupt_lines = 0
        self._sorted = True
        self._check_order()

    def _check_order(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.cycle < prev.cycle:
                self._sorted = False
                break

    def append(self, record: TraceRecord) -> None:
        if self.records and record.cycle < self.records[-1].cycle:
            self._sorted = False
        self.records.append(record)

    def sort(self) -> None:
        self.records.sort(key=lambda r: (r.cycle, r.src, r.dst))
        self._sorted = True

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- record -----------------------------------------------------------
    @classmethod
    def recording_submit(
        cls, trace: "TrafficTrace", inner: Callable[[Packet], bool]
    ) -> Callable[[Packet], bool]:
        """Wrap a submit callback so accepted packets are recorded."""

        def submit(packet: Packet) -> bool:
            accepted = inner(packet)
            if accepted:
                trace.append(
                    TraceRecord(
                        cycle=packet.created_cycle,
                        src=packet.src,
                        dst=packet.dst,
                        bw_class=packet.bw_class,
                    )
                )
            return accepted

        return submit

    @property
    def span_cycles(self) -> int:
        """Cycle span of the trace (last record's cycle + 1; 0 empty)."""
        if not self.records:
            return 0
        if not self._sorted:
            self.sort()
        return self.records[-1].cycle + 1

    # -- persistence --------------------------------------------------------
    def save(self, path: Path | str) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(asdict(record)) + "\n")

    @classmethod
    def load(cls, path: Path | str) -> "TrafficTrace":
        """Load a JSONL trace, skipping corrupt or torn lines.

        Mirrors :class:`~repro.experiments.store.ResultStore`'s
        torn-write tolerance: a truncated tail or a garbled line is
        counted in :attr:`corrupt_lines` instead of poisoning the whole
        replay. Records with invalid *values* (negative cycle,
        ``src == dst``) and records with unknown fields are rejected the
        same way.
        """
        path = Path(path)
        records = []
        corrupt = 0
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    records.append(TraceRecord(**data))
                except (ValueError, TypeError, KeyError):
                    corrupt += 1
        if corrupt and not records:
            # Every line rejected is systematic corruption (schema
            # mismatch, wrong file), not a torn tail: replaying an
            # empty trace would silently simulate zero traffic.
            raise ValueError(
                f"no valid records in {path}: all {corrupt} non-empty "
                "lines are corrupt or schema-incompatible"
            )
        trace = cls(records)
        trace.corrupt_lines = corrupt
        return trace


class TraceReplayGenerator:
    """A trace replay shaped like a traffic generator: the one replay loop.

    Speaks the generator protocol the architectures drive
    (``tick``/``is_idle``/``acceptance_ratio``/``reset_stats``), so a
    recorded injection stream can be attached via
    ``arch.attach_generator`` and replayed through the full simulation
    loop — including the event-driven engine's idle-skip, which this
    generator re-enables once the trace is exhausted. Each replayed
    packet is created at the cycle it is injected, with *bw_set*'s
    packet geometry.
    """

    def __init__(self, trace: TrafficTrace, bw_set: BandwidthSet, submit):
        if not trace._sorted:
            trace.sort()
        self._records = trace.records
        self._position = 0
        self._submit = submit
        self._bw_set = bw_set
        self.packets_offered = 0
        self.packets_accepted = 0

    def tick(self, cycle: int) -> None:
        """Inject every record due at/before *cycle* (no-op when idle)."""
        records = self._records
        while (
            self._position < len(records)
            and records[self._position].cycle <= cycle
        ):
            record = records[self._position]
            self._position += 1
            self.packets_offered += 1
            accepted = self._submit(
                Packet(
                    src=record.src,
                    dst=record.dst,
                    n_flits=self._bw_set.packet_flits,
                    flit_bits=self._bw_set.flit_bits,
                    created_cycle=cycle,
                    bw_class=record.bw_class,
                )
            )
            if accepted:
                self.packets_accepted += 1

    def is_idle(self) -> bool:
        """Idle only when the whole trace has been replayed (records
        are due at fixed cycles, so an exhausted replay never injects
        again and the engine may skip ahead)."""
        return self._position >= len(self._records)

    @property
    def acceptance_ratio(self) -> float:
        if self.packets_offered == 0:
            return 1.0
        return self.packets_accepted / self.packets_offered

    def reset_stats(self) -> None:
        """Zero the offered/accepted counters (warm-up reset); the
        replay position is untouched."""
        self.packets_offered = 0
        self.packets_accepted = 0
