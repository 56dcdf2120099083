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
* :class:`JsonlBackend` — append-only JSONL files, in one of two
  layouts that differ only in which file a result lives in: ``jsonl``,
  one monolithic file, eagerly loaded; or ``sharded``, a directory
  with one shard per (architecture, bandwidth set), each starting with
  a small index header. Shards load lazily: a sweep restricted to one
  (arch, bw set) pair reads only that shard instead of the whole store.

Either layout stores one ``{"key": ..., "result": ...}`` object per
line, so a store file is append-only, human-greppable, safe to merge
with ``cat``, and tolerant of torn writes: corrupted or truncated lines
are skipped on load rather than poisoning the sweep. The backend owns
its files *and* their write locks, so threads sharing one (a
``Session``, ``fabric serve``, the job daemon) are single-writer per
file without wrapping it. ``compact`` rewrites a store in place,
deduplicating repeated keys (latest record wins) and dropping corrupt
lines.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import os
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.api.base import Registry, canonical_json
from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, RunResult
from repro.scenarios.schedule import PhaseStats

#: Bump when the hashed identity or the serialised schema changes.
SCHEMA_VERSION = 1

#: Shard coordinates: ``(arch, bw_set_index)``. Passing them to
#: :meth:`ResultStore.get`/:meth:`ResultStore.contains` lets a sharded
#: backend load only the shard that can hold the key.
ShardCoords = Tuple[str, int]


def config_fingerprint(config: SystemConfig) -> str:
    """Stable digest of every field of a :class:`SystemConfig`."""
    return hashlib.sha256(
        canonical_json(dataclasses.asdict(config)).encode()
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
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


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
    return canonical_json({"key": key, "result": result_to_dict(result)})


def _open_for_read(path: str):
    """All backend *loads* go through here (file-open instrumentation
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


def shard_filename(arch: str, bw_set_index: int) -> str:
    """Deterministic shard file name for an ``(arch, bw set)`` pair."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in arch)
    return f"{safe}-set{int(bw_set_index)}.jsonl"


def _header_line(coords: ShardCoords) -> str:
    arch, bw = coords
    return canonical_json(
        {"shard": {"arch": arch, "bw_set": int(bw)}, "v": SCHEMA_VERSION}
    )


#: What :func:`_read_lines` yields for a shard's index header line.
_HEADER = object()

#: Suffix of the temp file a compaction writes beside the file it replaces.
_COMPACT_TMP = ".compact.tmp"


def _read_lines(path: str) -> Iterator[Tuple[str, object]]:
    """Classify every non-blank line of one store file.

    Yields ``(line, parsed)``: *parsed* is the ``(key, result)`` pair of
    a record line, :data:`_HEADER` for a shard index header, and
    ``None`` for anything else (corrupt, torn or foreign).
    """
    with _open_for_read(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict) and "shard" in obj:
                    parsed = _HEADER
                else:
                    parsed = obj["key"], result_from_dict(obj["result"])
            except (ValueError, KeyError, TypeError, AttributeError):
                parsed = None
            yield line, parsed


def _ends_with_newline(path: str) -> bool:
    """Whether the last byte of the (non-empty) file *path* is ``\\n``."""
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


class _StoreFile:
    """One JSONL file of a :class:`JsonlBackend` and the lock that
    serialises this process's writers to it."""

    __slots__ = ("path", "lock", "persisted", "loaded", "appended")

    def __init__(self, path: str) -> None:
        self.path = path
        self.lock = threading.Lock()
        #: Keys known to be on disk in this file (survives ``clear``).
        self.persisted: Set[str] = set()
        #: Already read, or hidden by ``clear``: never read (again).
        self.loaded = False
        #: This instance has appended here, so the file ends in a newline.
        self.appended = False


class JsonlBackend(StoreBackend):
    """Append-only JSONL files: one file, or a directory of shards.

    The two layouts differ in one decision — which file a result lives
    in. ``JsonlBackend(path)`` keeps every record in the file *path*
    and loads it eagerly; ``JsonlBackend(root, sharded=True)`` keeps one
    file per (architecture, bandwidth set) under the directory *root*,
    named by :func:`shard_filename`, each starting with a small **index
    header**::

        {"shard": {"arch": "firefly", "bw_set": 1}, "v": 1}

    so a shard is self-describing even if renamed. Shards load
    **lazily**: :meth:`get`/:meth:`contains` with ``coords`` read only
    the shard that can hold the key, so resuming a sweep restricted to
    one (arch, bw set) pair never touches the rest of a million-point
    store. Calls without ``coords`` (or an unrestricted
    :meth:`scan`/``len``) fall back to loading every shard.

    :meth:`put` routes by the *result's* own ``arch``/``bw_set_index``
    (the coordinates the key was hashed over) and appends one whole
    line per new key with an eager flush, under that file's write lock:
    threads sharing one backend write each key once, and a crash (or a
    concurrently-resumed sweep in another process) loses at most the
    record being written. A crashed writer's newline-less tail is
    terminated before the first append after it, so the fragment stays
    one corrupt line and takes no acknowledged record with it. Keys
    already on disk survive :meth:`clear`, so a re-simulated point
    (deterministic, hence identical) is never appended twice.
    """

    def __init__(self, path: str, sharded: bool = False) -> None:
        self.path = path
        self.sharded = sharded
        self.corrupt_lines = 0
        #: Paths actually opened for reading (instrumentation for the
        #: "resume loads only the needed shard" guarantee).
        self.read_paths: List[str] = []
        self._results: Dict[str, RunResult] = {}
        self._files: Dict[str, _StoreFile] = {}  # by path
        self._by_coords: Dict[ShardCoords, _StoreFile] = {}  # hot-path index
        self._loaded_all = False
        if not sharded:
            self._ensure_all()

    # -- layout: which file holds what ---------------------------------------
    def _file(self, coords: ShardCoords) -> _StoreFile:
        entry = self._by_coords.get(coords)
        if entry is None:
            path = self.path
            if self.sharded:
                path = os.path.join(path, shard_filename(*coords))
            entry = self._by_coords[coords] = self._entry(path)
        return entry

    def _entry(self, path: str) -> _StoreFile:
        # `setdefault` is atomic: racing first users of a file get one
        # entry, hence one lock. (Off the hot path; see `_by_coords`.)
        return self._files.setdefault(path, _StoreFile(path))

    def _on_disk(self, suffix: str = "") -> List[str]:
        """Store files on disk (or, with *suffix*, their leftovers),
        sorted for determinism."""
        if not self.sharded:
            path = self.path + suffix
            return [path] if os.path.exists(path) else []
        if not os.path.isdir(self.path):
            return []
        return sorted(
            os.path.join(self.path, name)
            for name in os.listdir(self.path)
            if name.endswith(".jsonl" + suffix)
        )

    def shard_paths(self) -> List[str]:
        """Every store file currently on disk (one for a file store)."""
        return self._on_disk()

    def shard_record_counts(self) -> Dict[str, int]:
        """Record count per store file name (loads every file)."""
        self._ensure_all()
        return {
            os.path.basename(path): len(self._entry(path).persisted)
            for path in self._on_disk()
        }

    # -- loading -------------------------------------------------------------
    def _load(self, entry: _StoreFile) -> None:
        """Read *entry*'s file once. Caller holds ``entry.lock``."""
        if entry.loaded:
            return
        if os.path.exists(entry.path):
            self.read_paths.append(entry.path)
            for _line, parsed in _read_lines(entry.path):
                if parsed is None:
                    self.corrupt_lines += 1
                elif parsed is not _HEADER:
                    key, result = parsed
                    self._results[key] = result
                    entry.persisted.add(key)
        entry.loaded = True

    def _ensure(self, entry: _StoreFile) -> None:
        if not entry.loaded:
            with entry.lock:
                self._load(entry)

    def _ensure_all(self) -> None:
        if self._loaded_all:
            return
        for path in self._on_disk():
            self._ensure(self._entry(path))
        self._loaded_all = True

    # -- backend interface ---------------------------------------------------
    def get(self, key: str, coords: Optional[ShardCoords] = None) -> Optional[RunResult]:
        """Return the record under *key*, lazily loading only the file
        *coords* names (or every file when no hint is given)."""
        if not self._loaded_all:
            if coords is not None:
                self._ensure(self._file(coords))
            elif key not in self._results:
                self._ensure_all()
        return self._results.get(key)

    def put(self, key: str, result: RunResult) -> None:
        """Append *result* to the file its own (arch, bw set) names,
        under that file's write lock; a new shard gets its header first."""
        coords = (result.arch, result.bw_set_index)
        entry = self._file(coords)
        with entry.lock:
            self._load(entry)
            if key not in entry.persisted:
                self._append(entry, coords, _record_line(key, result))
                entry.persisted.add(key)
            self._results[key] = result

    def _append(self, entry: _StoreFile, coords: ShardCoords, line: str) -> None:
        """The one place a store file is opened for append. Caller
        holds ``entry.lock``."""
        if not entry.appended:
            # First append of this instance: see what is already there.
            try:
                size = os.path.getsize(entry.path)
            except OSError:
                size = 0
                os.makedirs(os.path.dirname(entry.path) or os.curdir, exist_ok=True)
            if size == 0:
                if self.sharded:
                    line = _header_line(coords) + "\n" + line
            elif not _ends_with_newline(entry.path):
                # A crashed writer's torn tail: end it, or this record
                # is glued onto the fragment and lost with it.
                line = "\n" + line
        with open(entry.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
        entry.appended = True

    def scan(
        self, coords: Optional[ShardCoords] = None
    ) -> Iterator[Tuple[str, RunResult]]:
        """Iterate the records of one (arch, bw set) — loading only its
        file — or of the whole store."""
        if coords is None:
            self._ensure_all()
            yield from self._results.items()
        else:
            if not self._loaded_all:
                self._ensure(self._file(coords))
            yield from _matching_coords(self._results.items(), coords)

    def flush(self) -> None:
        """No-op: every :meth:`put` already flushed to disk."""

    def clear(self) -> None:
        """Drop the in-memory view uniformly across all files.

        Cleared records stay invisible (no file — loaded or not — is
        transparently reloaded afterwards; reopen the store to see disk
        state again), while keys known to be on disk are remembered so
        a re-put does not append a duplicate line. Caveat: a post-clear
        re-put into a shard that was never loaded cannot know the key
        is already on disk and may append a duplicate; latest-wins
        loading and :meth:`compact` make that harmless.
        """
        self._results.clear()
        for path in self._on_disk():
            self._entry(path).loaded = True
        self._loaded_all = True

    def compact(self) -> CompactionStats:
        """Rewrite every file in place: one line per key, latest wins.

        Each file is read fresh (another process may have appended),
        corrupt lines are dropped, keys keep first-seen order, and a
        temp file — synced before it atomically replaces the original —
        takes the result; temp files a crashed compaction left behind
        are removed. A shard keeps its header (synthesized from its
        first record when absent). Loaded files' in-memory view is
        refreshed to the compacted contents.
        """
        total = CompactionStats()
        for stale in self._on_disk(_COMPACT_TMP):
            os.remove(stale)
        for path in self._on_disk():
            entry = self._entry(path)
            with entry.lock:
                self.read_paths.append(path)
                stats, records = self._compact_file(path)
                if entry.loaded:
                    self._results.update(records)
                entry.persisted = set(records)
            total.merge(stats)
        self.corrupt_lines = 0
        return total

    def _compact_file(
        self, path: str
    ) -> Tuple[CompactionStats, Dict[str, RunResult]]:
        stats = CompactionStats(files=1, bytes_before=os.path.getsize(path))
        records: Dict[str, RunResult] = {}
        header = None
        for line, parsed in _read_lines(path):
            if parsed is _HEADER:
                header = line
                continue
            stats.lines_before += 1
            if parsed is None:
                stats.corrupt_dropped += 1
                continue
            key, result = parsed
            if key in records:
                stats.duplicates_dropped += 1
            records[key] = result  # first-seen position, latest value
        if not self.sharded:
            header = None
        elif header is None and records:
            first = next(iter(records.values()))
            header = _header_line((first.arch, first.bw_set_index))
        tmp = path + _COMPACT_TMP
        with open(tmp, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(header + "\n")
            for key, result in records.items():
                fh.write(_record_line(key, result) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        stats.records_after = len(records)
        stats.bytes_after = os.path.getsize(path)
        return stats, records

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
    return JsonlBackend(path.rstrip("/" + os.sep), sharded=True)


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

    ``auto`` resolves to ``memory`` without a path, ``sharded`` when
    *path* is (or looks like) a directory, and ``jsonl`` otherwise.
    Every name is then a :data:`store_backends` registry lookup, so
    registered third-party backends are constructible here (and from
    the CLI) by name.
    """
    if name == "auto":
        if path is None:
            name = "memory"
        elif os.path.isdir(path) or path.endswith(("/", os.sep)):
            name = "sharded"
        else:
            name = "jsonl"
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
    else (e.g. a sharded :class:`JsonlBackend`, or :func:`open_store`).

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
