"""Persistent, content-addressed store for :class:`RunResult` records.

Every simulated point is identified by a **content hash** over the full
set of inputs that determine its outcome:

* the run point itself (architecture, bandwidth-set index, pattern,
  offered load in Gb/s, RNG seed),
* the fidelity *schedule* fields (``total_cycles``, ``reset_cycles``) —
  deliberately **not** ``fidelity.name``, so two fidelities that happen
  to share a name but differ in cycles can never collide (the historic
  ``_PEAK_CACHE`` bug), and
* a fingerprint of the :class:`~repro.arch.config.SystemConfig` the run
  used.

Persistence is delegated to a pluggable :class:`StoreBackend`
(``get``/``put``/``scan``/``flush`` plus an offline ``compact``):

* :class:`MemoryBackend` — process-local dict, no persistence;
* :class:`JsonlBackend` — one monolithic JSONL file, eagerly loaded
  (the original ``ResultStore`` behaviour);
* :class:`ShardedJsonlBackend` — a directory with one JSONL shard per
  (architecture, bandwidth set), each starting with a small index
  header. Shards load lazily: a sweep restricted to one (arch, bw set)
  pair reads only that shard instead of the whole store.

All JSONL forms store one ``{"key": ..., "result": ...}`` object per
line, so a store file is append-only, human-greppable, safe to merge
with ``cat``, and tolerant of torn writes: corrupted or truncated lines
are skipped on load rather than poisoning the sweep. ``compact``
rewrites a store in place, deduplicating repeated keys (latest record
wins) and dropping corrupt lines.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.api.base import Registry
from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, RunResult
from repro.scenarios.schedule import PhaseStats

#: Bump when the hashed identity or the serialised schema changes.
SCHEMA_VERSION = 1

#: Shard coordinates: ``(arch, bw_set_index)``. Passing them to
#: :meth:`ResultStore.get`/:meth:`ResultStore.contains` lets a sharded
#: backend load only the shard that can hold the key.
ShardCoords = Tuple[str, int]


def _canonical(obj) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: SystemConfig) -> str:
    """Stable digest of every field of a :class:`SystemConfig`."""
    return hashlib.sha256(
        _canonical(dataclasses.asdict(config)).encode()
    ).hexdigest()[:16]


def result_key(
    arch: str,
    bw_set_index: int,
    pattern: str,
    offered_gbps: float,
    seed: int,
    fidelity: Fidelity,
    config: Optional[SystemConfig] = None,
    config_digest: Optional[str] = None,
    bw_set=None,
    scenario: Optional[str] = None,
    scenario_digest: Optional[str] = None,
) -> str:
    """Content hash identifying one simulation's full input set.

    Only quantities that influence the simulated outcome participate:
    the fidelity's *name* and its *load grid* are excluded (a point's
    result does not depend on which other loads the sweep visits).
    ``bw_set`` need only be passed when simulating a set that is *not*
    the canonical one for ``bw_set_index`` alongside an explicit config
    (otherwise the config fingerprint already covers the set's fields).

    Scenario identity hashes by *content*: ``scenario_digest`` is the
    built schedule's :meth:`~repro.scenarios.schedule.ScenarioSchedule.
    fingerprint`, so a library edit that changes a scenario's script
    also changes every affected key. Scenario-less runs omit the field
    entirely, leaving pre-scenario store files valid.

    Returns the 64-hex-character SHA-256 digest:

    >>> tiny = Fidelity("tiny", 700, 100, (0.5,))
    >>> key = result_key("firefly", 1, "uniform", 100.0, 1, tiny)
    >>> len(key)
    64
    >>> key == result_key("firefly", 1, "uniform", 100.0, 1, tiny)
    True
    """
    if config_digest is None:
        config_digest = config_fingerprint(config or SystemConfig())
    identity = {
        "v": SCHEMA_VERSION,
        "arch": arch,
        "bw_set": bw_set_index,
        "pattern": pattern,
        "offered_gbps": round(float(offered_gbps), 9),
        "seed": int(seed),
        "total_cycles": fidelity.total_cycles,
        "reset_cycles": fidelity.reset_cycles,
        "config": config_digest,
    }
    if bw_set is not None:
        identity["bw_set_fields"] = dataclasses.asdict(bw_set)
    if scenario is not None:
        if scenario_digest is None:
            from repro.scenarios.library import build_scenario

            scenario_digest = build_scenario(
                scenario, fidelity.total_cycles
            ).fingerprint()
        identity["scenario"] = {"name": scenario, "fp": scenario_digest}
    return hashlib.sha256(_canonical(identity).encode()).hexdigest()


def result_to_dict(result: RunResult) -> dict:
    """Serialise a :class:`RunResult` to a plain JSON-able dict."""
    return dataclasses.asdict(result)


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output.

    Unknown fields are ignored (forward compatibility); the per-phase
    tuple is rebuilt from its JSON list-of-dicts form so store-loaded
    results compare equal (bitwise) to freshly simulated ones.
    """
    fields = {f.name for f in dataclasses.fields(RunResult)}
    kwargs = {k: v for k, v in data.items() if k in fields}
    phases = kwargs.get("phases")
    if phases:
        phase_fields = {f.name for f in dataclasses.fields(PhaseStats)}
        kwargs["phases"] = tuple(
            PhaseStats(**{k: v for k, v in p.items() if k in phase_fields})
            for p in phases
        )
    elif phases is not None:
        kwargs["phases"] = ()
    return RunResult(**kwargs)


def _record_line(key: str, result: RunResult) -> str:
    return _canonical({"key": key, "result": result_to_dict(result)})


def _record_from_obj(obj) -> Optional[Tuple[str, RunResult]]:
    """Build a record from already-parsed JSON; ``None`` if not one."""
    try:
        return obj["key"], result_from_dict(obj["result"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def _parse_record(line: str) -> Optional[Tuple[str, RunResult]]:
    """Parse one JSONL record line; ``None`` for corrupt/foreign lines."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return _record_from_obj(obj)


def _open_for_read(path: str):
    """All backend *reads* go through here (file-open instrumentation
    point: tests monkeypatch this to prove lazy shard loading)."""
    return open(path, "r", encoding="utf-8")


def _matching_coords(
    items: Iterable[Tuple[str, RunResult]], coords: "ShardCoords"
) -> Iterator[Tuple[str, RunResult]]:
    """Filter ``(key, result)`` pairs down to one (arch, bw set)."""
    arch, bw = coords
    for key, result in items:
        if result.arch == arch and result.bw_set_index == bw:
            yield key, result


@dataclasses.dataclass
class CompactionStats:
    """Outcome of one offline :meth:`StoreBackend.compact` pass."""

    #: Files rewritten (1 for a monolithic store, one per shard).
    files: int = 0
    #: JSONL lines read before compaction (headers excluded).
    lines_before: int = 0
    #: Unique records written back.
    records_after: int = 0
    #: Lines dropped because they could not be parsed.
    corrupt_dropped: int = 0
    #: Lines dropped because a later record had the same key.
    duplicates_dropped: int = 0
    #: On-disk size before/after, in bytes.
    bytes_before: int = 0
    bytes_after: int = 0

    def merge(self, other: "CompactionStats") -> None:
        """Accumulate *other* (per-shard stats) into this total."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _compact_jsonl_file(
    path: str,
    header_field: Optional[str] = None,
    make_header=None,
) -> Tuple[CompactionStats, Dict[str, RunResult], List[str]]:
    """Rewrite one JSONL file: one record line per key, latest wins.

    Shared by both file-backed backends. Reads the file fresh (another
    process may have appended), drops corrupt lines, keeps first-seen
    key order with the latest record per key, writes a temp file and
    atomically replaces the original. With *header_field* set, a JSON
    object line containing that field is treated as the shard's index
    header and preserved (or synthesized by ``make_header(first_record)``
    when absent). Returns the stats plus the surviving records/order so
    callers can refresh their in-memory view.
    """
    stats = CompactionStats(files=1, bytes_before=os.path.getsize(path))
    records: Dict[str, RunResult] = {}
    order: List[str] = []
    header = None
    with _open_for_read(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                obj = None
            if (
                header_field is not None
                and isinstance(obj, dict)
                and header_field in obj
            ):
                header = line
                continue
            stats.lines_before += 1
            parsed = None if obj is None else _record_from_obj(obj)
            if parsed is None:
                stats.corrupt_dropped += 1
                continue
            key, result = parsed
            if key in records:
                stats.duplicates_dropped += 1
            else:
                order.append(key)
            records[key] = result
    if header is None and make_header is not None and order:
        header = make_header(records[order[0]])
    tmp = path + ".compact.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for key in order:
            fh.write(_record_line(key, records[key]) + "\n")
    os.replace(tmp, path)
    stats.records_after = len(order)
    stats.bytes_after = os.path.getsize(path)
    return stats, records, order


class StoreBackend(abc.ABC):
    """Persistence contract behind :class:`ResultStore`.

    A backend maps content-hash keys to :class:`RunResult` records. The
    four required operations are deliberately small so alternative
    storage (s3, redis, sqlite) can slot in without touching the sweep
    layer:

    * :meth:`get` — fetch one record (``None`` when absent);
    * :meth:`put` — persist one record durably;
    * :meth:`scan` — iterate every ``(key, result)`` pair;
    * :meth:`flush` — force buffered state to durable storage.

    ``coords`` — an optional ``(arch, bw_set_index)`` pair — is a
    *locality hint*: backends that partition by it (the sharded backend)
    use it to touch only the relevant partition; others ignore it.
    """

    #: Unparseable JSONL lines skipped while loading (0 for memory).
    corrupt_lines: int = 0

    @abc.abstractmethod
    def get(self, key: str, coords: Optional[ShardCoords] = None) -> Optional[RunResult]:
        """Return the record stored under *key*, or ``None``."""

    @abc.abstractmethod
    def put(self, key: str, result: RunResult) -> None:
        """Durably store *result* under *key* (idempotent per key)."""

    @abc.abstractmethod
    def scan(
        self, coords: Optional[ShardCoords] = None
    ) -> Iterator[Tuple[str, RunResult]]:
        """Iterate ``(key, result)`` pairs; *coords* restricts a
        partitioned backend to one shard."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Force any buffered writes to durable storage."""

    def contains(self, key: str, coords: Optional[ShardCoords] = None) -> bool:
        """Whether *key* is present (default: via :meth:`get`)."""
        return self.get(key, coords) is not None

    def compact(self) -> CompactionStats:
        """Offline dedupe/rewrite; a no-op for non-persistent backends."""
        return CompactionStats()

    def clear(self) -> None:
        """Drop the in-memory view (durable records stay on disk)."""

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())


class MemoryBackend(StoreBackend):
    """Plain in-process dict: the cache used when no path is given.

    >>> backend = MemoryBackend()
    >>> backend.get("absent") is None
    True
    """

    def __init__(self) -> None:
        self._results: Dict[str, RunResult] = {}

    def get(self, key: str, coords: Optional[ShardCoords] = None) -> Optional[RunResult]:
        """Return the record under *key* (coords hint is irrelevant)."""
        return self._results.get(key)

    def put(self, key: str, result: RunResult) -> None:
        """Store *result* in the process-local dict."""
        self._results[key] = result

    def contains(self, key: str, coords: Optional[ShardCoords] = None) -> bool:
        """Whether *key* is present."""
        return key in self._results

    def scan(
        self, coords: Optional[ShardCoords] = None
    ) -> Iterator[Tuple[str, RunResult]]:
        """Iterate records; *coords* filters by (arch, bw set)."""
        if coords is None:
            yield from self._results.items()
        else:
            yield from _matching_coords(self._results.items(), coords)

    def flush(self) -> None:
        """No-op: nothing is buffered, nothing is durable."""

    def clear(self) -> None:
        """Drop every record."""
        self._results.clear()

    def __len__(self) -> int:
        return len(self._results)


class JsonlBackend(StoreBackend):
    """One monolithic JSONL file, loaded eagerly at construction.

    Every :meth:`put` appends one line and flushes immediately, so a
    concurrently-resumed sweep (or a crash) loses at most the record
    being written. Keys already on disk survive :meth:`clear`, so a
    re-simulated point (deterministic, hence identical) is never
    appended as a duplicate line.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.corrupt_lines = 0
        #: Paths this backend actually opened for reading (instrumentation).
        self.read_paths: List[str] = []
        self._results: Dict[str, RunResult] = {}
        self._persisted: Set[str] = set()
        if os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        self.read_paths.append(path)
        with _open_for_read(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parsed = _parse_record(line)
                if parsed is None:
                    self.corrupt_lines += 1
                    continue
                key, result = parsed
                self._results[key] = result
                self._persisted.add(key)

    def get(self, key: str, coords: Optional[ShardCoords] = None) -> Optional[RunResult]:
        """Return the record under *key* (the file is already loaded)."""
        return self._results.get(key)

    def contains(self, key: str, coords: Optional[ShardCoords] = None) -> bool:
        """Whether *key* is in the loaded view."""
        return key in self._results

    def put(self, key: str, result: RunResult) -> None:
        """Store *result*; new keys are appended to the file eagerly."""
        if key not in self._persisted:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(_record_line(key, result) + "\n")
                fh.flush()
            self._persisted.add(key)
        self._results[key] = result

    def scan(
        self, coords: Optional[ShardCoords] = None
    ) -> Iterator[Tuple[str, RunResult]]:
        """Iterate records; *coords* filters by (arch, bw set)."""
        if coords is None:
            yield from self._results.items()
        else:
            yield from _matching_coords(self._results.items(), coords)

    def flush(self) -> None:
        """No-op: every :meth:`put` already flushed to disk."""

    def clear(self) -> None:
        """Drop the in-memory view; on-disk lines stay authoritative."""
        self._results.clear()

    def compact(self) -> CompactionStats:
        """Dedupe the file in place: one line per key, latest wins.

        See :func:`_compact_jsonl_file`; the in-memory view is reset to
        the compacted contents.
        """
        if not os.path.exists(self.path):
            return CompactionStats()
        self.read_paths.append(self.path)
        stats, records, _order = _compact_jsonl_file(self.path)
        self._results = dict(records)
        self._persisted = set(records)
        self.corrupt_lines = 0
        return stats

    def __len__(self) -> int:
        return len(self._results)


def shard_filename(arch: str, bw_set_index: int) -> str:
    """Deterministic shard file name for an ``(arch, bw set)`` pair."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in arch)
    return f"{safe}-set{int(bw_set_index)}.jsonl"


class ShardedJsonlBackend(StoreBackend):
    """A directory of JSONL shards, one per (architecture, bw set).

    Each shard's first line is a small **index header**::

        {"shard": {"arch": "firefly", "bw_set": 1}, "v": 1}

    so a shard is self-describing even if renamed. Shards load
    **lazily**: :meth:`get`/:meth:`contains` with ``coords`` read only
    the shard that can hold the key, so resuming a sweep restricted to
    one (arch, bw set) pair never touches the rest of a million-point
    store. Calls without ``coords`` (or :meth:`scan`/``len``) fall back
    to loading every shard.

    :meth:`put` routes by the *result's* own ``arch``/``bw_set_index``
    (the same coordinates the key was hashed over), appending one line
    per new key with an eager flush, exactly like :class:`JsonlBackend`.
    """

    HEADER_FIELD = "shard"

    def __init__(self, root: str) -> None:
        self.root = root
        self.path = root  # uniform attribute across backends
        self.corrupt_lines = 0
        #: Shard paths actually opened for reading (instrumentation for
        #: the "resume loads only the needed shard" guarantee).
        self.read_paths: List[str] = []
        self._results: Dict[str, RunResult] = {}
        self._persisted: Set[str] = set()
        self._loaded: Set[str] = set()  # shard filenames already read
        self._loaded_all = False
        self._shard_keys: Dict[str, Set[str]] = {}

    # -- shard discovery / loading ------------------------------------------
    def _shard_path(self, coords: ShardCoords) -> str:
        return os.path.join(self.root, shard_filename(*coords))

    def shard_paths(self) -> List[str]:
        """Every shard file currently on disk, sorted for determinism."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.endswith(".jsonl")
        )

    def shard_record_counts(self) -> Dict[str, int]:
        """Record count per shard filename (loads every shard)."""
        self._ensure_all()
        return {
            os.path.basename(path): len(
                self._shard_keys.get(os.path.basename(path), ())
            )
            for path in self.shard_paths()
        }

    @staticmethod
    def _header_line(coords: ShardCoords) -> str:
        arch, bw = coords
        return _canonical(
            {"shard": {"arch": arch, "bw_set": int(bw)}, "v": SCHEMA_VERSION}
        )

    def _load_shard(self, path: str) -> None:
        if not os.path.exists(path):
            return
        name = os.path.basename(path)
        keys = self._shard_keys.setdefault(name, set())
        self.read_paths.append(path)
        with _open_for_read(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if isinstance(obj, dict) and self.HEADER_FIELD in obj:
                    continue  # index header, not a record
                parsed = _record_from_obj(obj)
                if parsed is None:
                    self.corrupt_lines += 1
                    continue
                key, result = parsed
                self._results[key] = result
                self._persisted.add(key)
                keys.add(key)

    def _ensure_shard(self, coords: ShardCoords) -> None:
        name = shard_filename(*coords)
        if self._loaded_all or name in self._loaded:
            return
        self._loaded.add(name)
        self._load_shard(self._shard_path(coords))

    def _ensure_all(self) -> None:
        if self._loaded_all:
            return
        for path in self.shard_paths():
            name = os.path.basename(path)
            if name not in self._loaded:
                self._loaded.add(name)
                self._load_shard(path)
        self._loaded_all = True

    # -- backend interface ---------------------------------------------------
    def get(self, key: str, coords: Optional[ShardCoords] = None) -> Optional[RunResult]:
        """Return the record under *key*, lazily loading only the shard
        *coords* names (or every shard when no hint is given)."""
        if coords is not None:
            self._ensure_shard(coords)
        elif key not in self._results:
            self._ensure_all()
        return self._results.get(key)

    def contains(self, key: str, coords: Optional[ShardCoords] = None) -> bool:
        """Membership test with the same lazy-loading as :meth:`get`."""
        return self.get(key, coords) is not None

    def put(self, key: str, result: RunResult) -> None:
        """Append *result* to the shard its own (arch, bw set) names,
        creating the shard (header first) when needed."""
        coords = (result.arch, result.bw_set_index)
        self._ensure_shard(coords)
        if key not in self._persisted:
            os.makedirs(self.root, exist_ok=True)
            path = self._shard_path(coords)
            fresh = not os.path.exists(path)
            with open(path, "a", encoding="utf-8") as fh:
                if fresh:
                    fh.write(self._header_line(coords) + "\n")
                fh.write(_record_line(key, result) + "\n")
                fh.flush()
            self._persisted.add(key)
        self._results[key] = result
        # Keep the per-shard key index consistent even for re-puts of
        # already-persisted keys (e.g. re-simulation after clear()).
        self._shard_keys.setdefault(shard_filename(*coords), set()).add(key)

    def scan(
        self, coords: Optional[ShardCoords] = None
    ) -> Iterator[Tuple[str, RunResult]]:
        """Iterate records of one shard (*coords*) or of the whole store."""
        if coords is not None:
            self._ensure_shard(coords)
            name = shard_filename(*coords)
            for key in sorted(self._shard_keys.get(name, ())):
                yield key, self._results[key]
        else:
            self._ensure_all()
            yield from self._results.items()

    def flush(self) -> None:
        """No-op: every :meth:`put` already flushed to disk."""

    def clear(self) -> None:
        """Drop the in-memory view uniformly across all shards.

        Mirrors :meth:`JsonlBackend.clear`: cleared records stay
        invisible (no shard — loaded or not — is transparently
        reloaded afterwards; reopen the store to see disk state again),
        while keys known to be on disk are remembered so a re-put does
        not append a duplicate line. Caveat: a post-clear re-put into a
        shard that was never loaded cannot know the key is already on
        disk and may append a duplicate; latest-wins loading and
        :meth:`compact` make that harmless.
        """
        self._results.clear()
        self._shard_keys.clear()
        # Mark every shard currently on disk as loaded so later
        # coords-hinted gets do not resurrect cleared records from the
        # shards that happened not to be loaded yet.
        self._loaded.update(os.path.basename(p) for p in self.shard_paths())
        self._loaded_all = True

    def compact(self) -> CompactionStats:
        """Rewrite every shard: header + one line per key, latest wins.

        See :func:`_compact_jsonl_file`; a missing header is
        synthesized from the shard's first record.
        """
        total = CompactionStats()
        for path in self.shard_paths():
            self.read_paths.append(path)
            stats, records, order = _compact_jsonl_file(
                path,
                header_field=self.HEADER_FIELD,
                make_header=lambda first: self._header_line(
                    (first.arch, first.bw_set_index)
                ),
            )
            name = os.path.basename(path)
            if name in self._loaded or self._loaded_all:
                for key in order:
                    self._results[key] = records[key]
                self._shard_keys[name] = set(order)
            self._persisted.update(order)
            total.merge(stats)
        self.corrupt_lines = 0
        return total

    def __len__(self) -> int:
        self._ensure_all()
        return len(self._results)


#: Registry of ``name -> factory(path) -> StoreBackend`` (also exposed
#: through :mod:`repro.api.registry`). A remote backend (s3, redis)
#: becomes CLI-addressable by registering its factory here.
store_backends = Registry("store backend", error=ValueError)


@store_backends.register("jsonl")
def _jsonl_backend(path: Optional[str]) -> StoreBackend:
    """One monolithic JSONL file (requires a file path)."""
    if path is None:
        raise ValueError("jsonl backend needs a file path")
    return JsonlBackend(path)


@store_backends.register("sharded")
def _sharded_backend(path: Optional[str]) -> StoreBackend:
    """One JSONL shard per (arch, bw set) (requires a directory path)."""
    if path is None:
        raise ValueError("sharded backend needs a directory path")
    return ShardedJsonlBackend(path.rstrip("/" + os.sep))


@store_backends.register("memory")
def _memory_backend(path: Optional[str] = None) -> StoreBackend:
    """Process-local dict; rejects a path (nothing would persist there)."""
    if path is not None:
        raise ValueError(
            "memory backend does not persist; omit the store path "
            "(or pick jsonl/sharded to write to it)"
        )
    return MemoryBackend()


@store_backends.register("remote")
def _remote_backend(path: Optional[str]) -> StoreBackend:
    """Proxy to a fabric coordinator's store server (path = host:port).

    The implementation lives in :mod:`repro.fabric.remote_store`;
    importing it lazily keeps the store module free of any fabric (and
    socket) dependency for the common local-file case.
    """
    if path is None:
        raise ValueError(
            "remote backend needs the coordinator address as the store "
            "path, e.g. --store 127.0.0.1:7023 --store-backend remote"
        )
    from repro.fabric.remote_store import RemoteBackend

    return RemoteBackend(path)


def backend_names() -> Tuple[str, ...]:
    """Names accepted by :func:`make_backend` (``auto`` + the registry)."""
    return ("auto",) + tuple(store_backends.names())


def make_backend(name: str, path: Optional[str] = None) -> StoreBackend:
    """Build a backend by *name* (see :func:`backend_names`).

    ``auto`` picks :class:`MemoryBackend` without a path,
    :class:`ShardedJsonlBackend` when *path* is (or looks like) a
    directory, and :class:`JsonlBackend` otherwise. Every other name is
    a :data:`store_backends` registry lookup, so registered third-party
    backends are constructible here (and from the CLI) by name.
    """
    if name == "auto":
        if path is None:
            return MemoryBackend()
        if os.path.isdir(path) or path.endswith(("/", os.sep)):
            return ShardedJsonlBackend(path.rstrip("/" + os.sep))
        return JsonlBackend(path)
    return store_backends.get(name)(path)


def open_store(path: Optional[str], backend: str = "auto") -> "ResultStore":
    """Open a :class:`ResultStore` over the named backend (CLI helper)."""
    return ResultStore(backend=make_backend(backend, path))


class ResultStore:
    """Keyed store of :class:`RunResult` over a pluggable backend.

    ``ResultStore(path)`` is a monolithic JSONL file
    (:class:`JsonlBackend`) loaded eagerly, or a pure in-process cache
    (:class:`MemoryBackend`) when ``path`` is ``None``.
    Pass ``backend=`` — a :class:`StoreBackend` instance — for anything
    else (e.g. :class:`ShardedJsonlBackend`, or :func:`open_store`).

    The store layer adds what every backend shares: hit/miss counters
    and the coordinate *hint* plumbing the sweep executor uses to keep
    sharded loads lazy.

    >>> store = ResultStore()
    >>> store.get("absent") is None
    True
    >>> store.misses
    1
    """

    def __init__(
        self,
        path: Optional[str] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        if backend is None:
            backend = MemoryBackend() if path is None else JsonlBackend(path)
        self.backend = backend
        self.path = getattr(backend, "path", path)
        self.hits = 0
        self.misses = 0

    @property
    def corrupt_lines(self) -> int:
        """Unparseable JSONL lines skipped by the backend so far."""
        return self.backend.corrupt_lines

    # -- mapping interface --------------------------------------------------
    def get(
        self, key: str, coords: Optional[ShardCoords] = None
    ) -> Optional[RunResult]:
        """Fetch *key*; ``coords=(arch, bw_set_index)`` keeps a sharded
        backend from loading shards the key cannot live in."""
        result = self.backend.get(key, coords)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def contains(self, key: str, coords: Optional[ShardCoords] = None) -> bool:
        """Membership test with the same coordinate hint as :meth:`get`."""
        return self.backend.contains(key, coords)

    def put(self, key: str, result: RunResult) -> None:
        """Store *result* under *key*, persisting it durably."""
        self.backend.put(key, result)

    def put_many(self, items: Iterable[Tuple[str, RunResult]]) -> None:
        """Store every ``(key, result)`` pair of *items*."""
        for key, result in items:
            self.put(key, result)

    def flush(self) -> None:
        """Force buffered backend state to durable storage."""
        self.backend.flush()

    def compact(self) -> CompactionStats:
        """Offline dedupe/rewrite of the backing files; see backend."""
        return self.backend.compact()

    def __contains__(self, key: str) -> bool:
        return self.backend.contains(key)

    def __len__(self) -> int:
        return len(self.backend)

    def __iter__(self) -> Iterator[Tuple[str, RunResult]]:
        return iter(self.backend.scan())

    def clear(self) -> None:
        """Drop the in-memory view.

        Backing files are left untouched, and the set of keys known to
        be on disk is retained: if a cleared point is re-simulated (the
        result is deterministic, so the record is identical), it is not
        appended to a file a second time.
        """
        self.backend.clear()
        self.hits = self.misses = 0
