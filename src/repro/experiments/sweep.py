"""The executors: the mechanism level of the sweep layer.

The thesis's headline exhibits are all offered-load sweeps over an
(architecture x bandwidth set x traffic pattern x scenario x seed x
load) grid. The sweep layer has two levels with one door between them:

* **Mechanism — this module.** An
  :class:`~repro.api.spec.ExperimentSpec` *is* the grid and expands
  itself to flat :class:`RunPoint`\\ s (:func:`curve_points` builds
  them); a :class:`PointExecutor` turns points into results —
  content-hash keys, in-batch dedup, store consultation, ordered
  reassembly — and its two subclasses differ only in where the miss
  set is simulated (:class:`SweepExecutor`: in-process or a local
  ``multiprocessing`` pool; :class:`FabricExecutor`: a fabric
  coordinator). A miss has one form everywhere: the wire work item
  :meth:`PointExecutor.work_item` encodes and :func:`execute_item`
  decodes and simulates — the single entry of the in-process path, the
  pool, the daemon's local lanes and remote fabric workers. An
  executor's public surface is ``plan`` / ``work_item`` /
  ``run_points`` / ``run`` / ``config_for`` / ``close``; it knows
  nothing of curves, peaks, knees or replication.
* **Policy — above it.** :mod:`repro.experiments.knee` (the adaptive
  knee search) and :mod:`repro.experiments.replication` (mean +/-
  spread across seeds) decide *which* points to ask for and how to
  fold the answers; each is handed the executor or its results.
* **The door — :class:`repro.api.session.Session`.** Everything above
  the executors (exhibits, claims, the CLI, tools, examples) builds an
  :class:`~repro.api.spec.ExperimentSpec` and calls ``Session.run`` /
  ``curve`` / ``peaks`` / ``knee`` / ``adaptive`` / ``replicated``; the
  session owns the executor and is the only thing that drives it.

Seed derivation
---------------
Each expanded point carries an explicit ``seed``. In the default
``derive_seeds=True`` mode the seed for a point is::

    derive_seed(base_seed, arch, bw_set_index, pattern)

i.e. a SHA-256 hash of the base seed joined with the *curve*
coordinates, reduced to 63 bits. Two properties follow:

1. **Order independence** — a point's seed depends only on its own
   coordinates, never on expansion order or worker scheduling, so the
   serial and parallel paths are bitwise identical.
2. **Scenario pinning** — all load fractions of one curve share the
   curve seed, holding the random placement/traffic scenario fixed
   while load varies (the thesis's methodology for locating the
   saturation knee); distinct curves and distinct base seeds get
   decorrelated streams.

With ``derive_seeds=False`` every point uses its base seed verbatim
(what :meth:`Session.curve <repro.api.session.Session.curve>`, the
figures and the golden data use).

Result identity / hashing
-------------------------
The store key for a point is a SHA-256 content hash over the simulation
inputs only: (arch, bw_set_index, pattern, offered_gbps, seed,
fidelity.total_cycles, fidelity.reset_cycles, SystemConfig fingerprint,
and — for scenario points — the scenario name plus its built schedule's
content fingerprint). Fidelity *names* and the surrounding load grid
are excluded — see :mod:`repro.experiments.store`.

Scenario axis
-------------
``ExperimentSpec.scenarios`` adds named workload scripts from
:mod:`repro.scenarios.library` as a grid axis (``None`` is the
stationary legacy run). Points carry only the scenario *name*; the
work item ships the built script beside it, and :func:`execute_item`
verifies the local build against it — or registers it, where the name
is unknown (a scenario registered after a pool forked, or only on the
submitting client) — so every lane simulates the schedule the store
key hashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, RunResult, _run_once
from repro.experiments.store import ResultStore, config_fingerprint, result_key
from repro.traffic.bandwidth_sets import BandwidthSet, bandwidth_set_by_index

if TYPE_CHECKING:  # imported by the pool builder, on the first parallel batch
    import multiprocessing.pool


def derive_seed(
    base_seed: int,
    arch: str,
    bw_set_index: int,
    pattern: str,
    scenario: Optional[str] = None,
) -> int:
    """Stable 63-bit per-curve seed (see module docstring).

    The scenario name joins the curve coordinates only when set, so
    scenario-less curves keep their historic seeds (golden data stays
    valid) while distinct scenarios get decorrelated streams.
    """
    text = f"{base_seed}|{arch}|{bw_set_index}|{pattern}"
    if scenario is not None:
        text += f"|{scenario}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class RunPoint:
    """One fully-specified simulation: a single cell of the sweep grid."""

    arch: str
    bw_set_index: int
    pattern: str
    load_fraction: float
    offered_gbps: float
    seed: int
    base_seed: int
    #: The actual bandwidth set to simulate. ``None`` means "the
    #: canonical table 3-1 set for ``bw_set_index``";
    #: :meth:`Session.curve <repro.api.session.Session.curve>` pins a
    #: customised set here so it is never rehydrated from the index.
    bw_set: Optional[BandwidthSet] = None
    #: Named scenario script to replay (``None`` = stationary run).
    #: Ships to workers as a name and is rebuilt from the library there.
    scenario: Optional[str] = None

    @property
    def curve(self) -> Tuple[str, int, str, Optional[str], int]:
        """Coordinates of the load curve this point belongs to."""
        return (
            self.arch, self.bw_set_index, self.pattern,
            self.scenario, self.base_seed,
        )


def curve_points(
    curve: Tuple[str, int, str, Optional[str], int],
    fractions: Sequence[float],
    derive_seeds: bool,
) -> List[RunPoint]:
    """The points of one load curve at *fractions* of its capacity.

    *curve* is ``(arch, bw_set_index, pattern, scenario, base_seed)``
    (the shape of :attr:`RunPoint.curve`). The one place a curve's seed
    is derived and a load fraction becomes an offered load — grid
    expansion and the knee search's probes both come through here, so
    a probe that lands on a grid fraction is the grid's point.
    """
    arch, bw_index, pattern, scenario, base_seed = curve
    capacity = bandwidth_set_by_index(bw_index).aggregate_gbps
    seed = (
        derive_seed(base_seed, arch, bw_index, pattern, scenario)
        if derive_seeds
        else base_seed
    )
    return [
        RunPoint(
            arch=arch,
            bw_set_index=bw_index,
            pattern=pattern,
            load_fraction=fraction,
            offered_gbps=fraction * capacity,
            seed=seed,
            base_seed=base_seed,
            scenario=scenario,
        )
        for fraction in fractions
    ]


class PointExecutor:
    """Store-aware executor base shared by local and distributed sweeps.

    Subclasses differ **only** in how cache-missing points get
    simulated (:meth:`_execute`): :class:`SweepExecutor` fans them out
    to a local ``multiprocessing`` pool, :class:`FabricExecutor`
    submits them to a fabric coordinator. Everything that defines
    *which* simulations a sweep performs — content-hash keys, config
    fingerprints, scenario digests, in-batch dedup, store
    consultation, ordered reassembly — lives here, once, which is what
    makes serial == parallel == distributed hold bitwise: every
    executor computes identical keys for identical points and only the
    transport of the miss set differs.

    Results come back in point order regardless of scheduling. The
    store is consulted and written only from the coordinating process,
    so a single JSONL file stays consistent under any worker count.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.config = config
        #: Number of points actually simulated by the last ``run*`` call
        #: (misses; cache hits are free).
        self.executed_count = 0
        # Config construction + fingerprinting is identical for every
        # point of a bandwidth set; memoize it rather than re-hashing
        # per point. Keyed by set index, or by the set itself for
        # points that pin one.
        self._config_cache: Dict[object, Tuple[SystemConfig, str]] = {}
        # A scenario's fingerprint (a store-key input) and built script
        # (shipped with work items) are a schedule build + hash; memoize
        # the pair per (name, total_cycles) since every point of a grid
        # repeats them.
        self._scenarios: Dict[Tuple[str, int], Tuple[str, dict]] = {}
        # The wire-form {fidelity, config} every work item of one job
        # shares, serialised once per (config, fidelity), not per point.
        self._job_fields: Dict[Tuple[str, Fidelity], dict] = {}

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release transport resources (idempotent; base has none)."""

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # May run during interpreter shutdown, when module globals the
        # cleanup path needs are already torn down — never let that
        # escape as a spurious error or warning.
        try:
            self.close()
        except BaseException:
            pass

    def config_for(self, point: RunPoint) -> SystemConfig:
        """The configuration *point* simulates under: the executor-wide
        override when there is one, else the default for the point's
        (pinned or canonical) bandwidth set."""
        return self._config_entry(point)[0]

    def _config_entry(self, point: RunPoint) -> Tuple[SystemConfig, str]:
        cache_key = point.bw_set or point.bw_set_index
        entry = self._config_cache.get(cache_key)
        if entry is None:
            config = (
                self.config
                if self.config is not None
                else SystemConfig(
                    bw_set=point.bw_set
                    or bandwidth_set_by_index(point.bw_set_index)
                )
            )
            entry = (config, config_fingerprint(config))
            self._config_cache[cache_key] = entry
        return entry

    def _scenario(self, scenario: str, fidelity: Fidelity) -> Tuple[str, dict]:
        """``(fingerprint, script)`` of the named scenario at *fidelity*."""
        cache_key = (scenario, fidelity.total_cycles)
        entry = self._scenarios.get(cache_key)
        if entry is None:
            from repro.scenarios.library import build_scenario

            schedule = build_scenario(scenario, fidelity.total_cycles)
            entry = (schedule.fingerprint(), schedule.to_dict())
            self._scenarios[cache_key] = entry
        return entry

    def _key(self, point: RunPoint, fidelity: Fidelity) -> str:
        _config, digest = self._config_entry(point)
        return result_key(
            point.arch,
            point.bw_set_index,
            point.pattern,
            point.offered_gbps,
            point.seed,
            fidelity,
            config_digest=digest,
            bw_set=point.bw_set,
            scenario=point.scenario,
            scenario_digest=(
                self._scenario(point.scenario, fidelity)[0]
                if point.scenario is not None
                else None
            ),
        )

    def plan(
        self, points: Sequence[RunPoint], fidelity: Fidelity
    ) -> Tuple[List[str], List[Tuple[int, RunPoint]]]:
        """What executing *points* would cost, without simulating.

        Returns every point's store key, in point order, and the
        ``(index, point)`` pairs a run would simulate: the first
        occurrence of each unique key the store does not hold.
        """
        keys, missing, _found = self._lookup(points, fidelity)
        return keys, missing

    def _lookup(self, points: Sequence[RunPoint], fidelity: Fidelity) -> Tuple[
        List[str], List[Tuple[int, RunPoint]], List[Optional[RunResult]]
    ]:
        """:meth:`plan`, plus the record the store holds for each point
        (``None`` for a miss): one ``store.get`` per point, none for a
        point whose key this batch already missed. :meth:`run_points`
        hands those records back instead of asking again."""
        keys = [self._key(p, fidelity) for p in points]
        # Lookups pass the point's (arch, bw set) coordinates so a
        # sharded store loads only the shards this batch can hit.
        batch_missed = set()
        missing = []
        found: List[Optional[RunResult]] = [None] * len(keys)
        for i, (p, k) in enumerate(zip(points, keys)):
            if k not in batch_missed:
                result = found[i] = self.store.get(k, (p.arch, p.bw_set_index))
                if result is None:
                    batch_missed.add(k)
                    missing.append((i, p))
        return keys, missing, found

    def work_item(self, point: RunPoint, key: str, fidelity: Fidelity) -> dict:
        """The work item *point* is simulated from: the one form a
        store miss takes on its way to :func:`execute_item`, in this
        process, in a pool child or on a fabric worker."""
        from repro.fabric import protocol  # imports this module

        config, digest = self._config_entry(point)
        shared = self._job_fields.get((digest, fidelity))
        if shared is None:
            shared = self._job_fields[digest, fidelity] = {
                "fidelity": fidelity.to_dict(),
                "config": protocol.config_to_dict(config),
            }
        return {
            "key": key,
            "point": protocol.point_to_dict(point),
            **shared,
            "script": None if point.scenario is None else
            self._scenario(point.scenario, fidelity)[1],
        }

    def run_points(
        self, points: Sequence[RunPoint], fidelity: Fidelity
    ) -> List[RunResult]:
        """Execute *points*, returning results in the same order."""
        keys, missing, found = self._lookup(points, fidelity)
        self.executed_count = 0
        if missing:
            fresh = {}
            for i, result in self._execute(missing, keys, fidelity).items():
                self.store.put(keys[i], result)
                fresh[keys[i]] = result
            # A point repeating a missed key gets its twin's result.
            found = [
                fresh.get(k) if stored is None else stored
                for k, stored in zip(keys, found)
            ]
        return found

    def _execute(
        self,
        missing: List[Tuple[int, RunPoint]],
        keys: List[str],
        fidelity: Fidelity,
    ) -> Dict[int, RunResult]:
        """Simulate the cache-missing ``(index, point)`` pairs.

        Returns ``{index: result}`` for every miss and updates
        :attr:`executed_count` with the number of points actually
        simulated (a fabric coordinator may answer some misses from
        *its* store, so the two can differ).
        """
        raise NotImplementedError

    def run(self, spec) -> List[RunResult]:
        """Expand and execute a whole grid
        :class:`~repro.api.spec.ExperimentSpec`."""
        return self.run_points(spec.expand(), spec.fidelity)


def ensure_scenario(
    name: str, script: Optional[dict], total_cycles: int
) -> None:
    """Make the shipped scenario buildable — and *identical* — here.

    Names this process knows must rebuild to the fingerprint the
    submitter hashed into the store key; unknown names (registered on
    the submitter only: after this pool child forked, or on a fabric
    client) are registered from the shipped schedule.
    """
    from repro.fabric.errors import FabricError
    from repro.scenarios.library import (
        build_scenario,
        register_schedule,
        scenarios,
    )
    from repro.scenarios.schedule import ScenarioSchedule

    shipped = (
        ScenarioSchedule.from_dict(script) if script is not None else None
    )
    if name in scenarios.names():
        if shipped is not None:
            local = build_scenario(name, total_cycles)
            if local.fingerprint() != shipped.fingerprint():
                raise FabricError(
                    f"scenario {name!r} differs between client and "
                    f"worker (fingerprint mismatch); refusing to "
                    f"simulate a schedule the store key does not hash"
                )
        return
    if shipped is None:
        raise FabricError(
            f"scenario {name!r} is unknown to this worker and the "
            f"work item shipped no script for it"
        )
    register_schedule(shipped)


def execute_item(item: dict) -> RunResult:
    """Simulate one work item (see :meth:`PointExecutor.work_item`).

    The single execution entry of every lane — :class:`SweepExecutor`
    in-process and in its pool, the daemon's local lanes, a
    remote fabric worker (top-level, so a process pool can pickle it):
    decode the payload, make the scenario identical to the submitter's,
    simulate. The simulated bandwidth set is, in order of precedence:
    the point's pinned ``bw_set``, the shipped config's set, the
    canonical set for the point's index — ``_run_once``'s ``bw_set``
    argument and ``config`` are independent.
    """
    from repro.fabric import protocol  # imports this module

    point = protocol.point_from_dict(item["point"])
    fidelity = Fidelity.from_dict(item["fidelity"])
    config = protocol.config_from_dict(item.get("config"))
    if point.scenario is not None:
        ensure_scenario(
            point.scenario, item.get("script"), fidelity.total_cycles
        )
    if point.bw_set is not None:
        bw_set = point.bw_set
    elif config is not None:
        bw_set = config.bw_set
    else:
        bw_set = bandwidth_set_by_index(point.bw_set_index)
    return _run_once(
        point.arch,
        bw_set,
        point.pattern,
        offered_gbps=point.offered_gbps,
        fidelity=fidelity,
        seed=point.seed,
        config=config,
        scenario=point.scenario,
    )


class SweepExecutor(PointExecutor):
    """Run sweep points locally, fanning misses out to a process pool.

    The worker pool is created lazily on the first parallel batch and
    **kept alive across batches**: many-small-batch callers (the figure
    functions fetch one curve at a time) no longer pay process startup
    per batch. Call :meth:`close` — or use the executor as a context
    manager — to release the pool deterministically; a dropped executor
    closes it on garbage collection.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[ResultStore] = None,
        config: Optional[SystemConfig] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(store=store, config=config)
        self.workers = workers
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # -- worker-pool lifecycle ---------------------------------------------
    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(self.workers)
        return self._pool

    def close(self) -> None:
        """Release the persistent worker pool (safe to call repeatedly).

        The executor stays usable: the next parallel batch lazily
        spawns a fresh pool. Also safe from ``__del__`` during
        interpreter shutdown, where pool teardown can raise as its
        machinery is dismantled under us — a leaked-pool warning is
        the one thing this must never produce.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.terminate()
            pool.join()
        except BaseException:  # pragma: no cover - shutdown-order timing
            pass

    def _execute(
        self,
        missing: List[Tuple[int, RunPoint]],
        keys: List[str],
        fidelity: Fidelity,
    ) -> Dict[int, RunResult]:
        items = [self.work_item(p, keys[i], fidelity) for i, p in missing]
        if self.workers > 1 and len(missing) > 1:
            outcomes = self._ensure_pool().map(
                execute_item, items, chunksize=1
            )
        else:
            outcomes = [execute_item(item) for item in items]
        self.executed_count = len(missing)
        return {i: result for (i, _p), result in zip(missing, outcomes)}


class FabricExecutor(PointExecutor):
    """Run sweep points through a distributed fabric coordinator.

    A drop-in :class:`PointExecutor` sibling of :class:`SweepExecutor`:
    cache-missing points are submitted, as a planned-batch job on the
    ``jobs`` role, to a coordinator (``dhetpnoc-repro serve``) that
    simulates them on its local lanes or leases them to remote workers,
    and answers from its own store when another client already paid
    for the simulation. Keys, configs
    and scenario digests come from the shared base class, so the
    results — and the store they resume from — are bitwise-identical
    to a local run.

    The connection is opened lazily on the first batch and kept for
    the executor's lifetime (adaptive sweeps submit many small jobs).
    A point the coordinator gives up on after bounded retries fails
    its job, which surfaces as
    :class:`~repro.fabric.errors.PointFailedError` — never a hang.

    Args:
        connect: Coordinator address (``"host:port"`` or tuple).
        store: Local store consulted *before* the fabric; fabric
            results are written back to it, so it doubles as a local
            cache of the shared store.
        config: Explicit :class:`SystemConfig` (as for the local
            executor); shipped with every batch so remote workers
            simulate exactly this configuration.
        connect_timeout: Seconds to wait for the coordinator.
    """

    def __init__(
        self,
        connect,
        store: Optional[ResultStore] = None,
        config: Optional[SystemConfig] = None,
        *,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(store=store, config=config)
        self.address = connect
        self._connect_timeout = connect_timeout
        self._client = None

    def _ensure_client(self):
        if self._client is None:
            from repro.service.client import ServiceClient

            self._client = ServiceClient(
                self.address, connect_timeout=self._connect_timeout,
            )
        return self._client

    def close(self) -> None:
        """Drop the coordinator connection (safe to call repeatedly)."""
        client, self._client = self._client, None
        if client is None:
            return
        try:
            client.close()
        except BaseException:  # pragma: no cover - shutdown-order timing
            pass

    def _execute(
        self,
        missing: List[Tuple[int, RunPoint]],
        keys: List[str],
        fidelity: Fidelity,
    ) -> Dict[int, RunResult]:
        from repro.fabric.protocol import point_label

        client = self._ensure_client()
        # One submitted job per effective config: a batch can span
        # bandwidth sets, whose default configs differ, and the wire
        # format ships one config per job so workers reproduce
        # execute_item's inputs exactly.
        groups: Dict[str, List[dict]] = {}
        for i, p in missing:
            _config, digest = self._config_entry(p)
            groups.setdefault(digest, []).append(
                self.work_item(p, keys[i], fidelity)
            )
        results: Dict[str, RunResult] = {}
        for items in groups.values():
            # The frame carries the group's fidelity and config once.
            handle = client.submit_batch(
                [
                    {
                        field: item[field]
                        for field in ("key", "point", "script")
                        if item[field] is not None
                    }
                    for item in items
                ],
                items[0]["fidelity"],
                items[0]["config"],
                watch=True,
            )
            run = client.stream(handle.job_id, labels={
                item["key"]: point_label(item["point"]) for item in items
            })
            # A batch that attached to an admitted job was paid for by
            # the submission that admitted it.
            if not handle.deduped:
                self.executed_count += run.executed
            results.update(zip(run.keys, run.results))
        return {i: results[keys[i]] for i, _p in missing}
