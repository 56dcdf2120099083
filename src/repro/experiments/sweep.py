"""Parallel, resumable sweep orchestration over the experiment grid.

The thesis's headline exhibits are all offered-load sweeps over an
(architecture x bandwidth set x traffic pattern x scenario x seed x
load) grid. This module turns that grid into first-class objects:

* :class:`SweepSpec` — a declarative description of the grid, expandable
  to a flat list of :class:`RunPoint`\\ s;
* :class:`SweepExecutor` — fans points out over a ``multiprocessing``
  worker pool, consults a :class:`~repro.experiments.store.ResultStore`
  first, and only simulates points the store has never seen, making
  sweeps resumable and cache hits instant across processes;
* :func:`replication_summary` — multi-seed replication (mean +/- spread
  across seeds) for the scenario-diversity axis.

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
(what :meth:`PointExecutor.sweep_curve`, the figures and the golden
data use).

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
``SweepSpec.scenarios`` adds named workload scripts from
:mod:`repro.scenarios.library` as a grid axis (``None`` is the
stationary legacy run). Points carry only the scenario *name*; worker
processes rebuild the schedule from the library, keeping points
trivially picklable while the key hashes the script's content.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field, replace
from statistics import mean, pstdev
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.config import SystemConfig
from repro.arch.registry import architectures
from repro.experiments.runner import (
    Fidelity,
    QUICK_FIDELITY,
    RunResult,
    _run_once,
    peak_of,
)
from repro.experiments.store import ResultStore, config_fingerprint, result_key
from repro.traffic.bandwidth_sets import (
    BANDWIDTH_SETS,
    BandwidthSet,
    bandwidth_set_by_index,
)


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
    #: :meth:`PointExecutor.sweep_curve` pins a customised set here so
    #: it is never rehydrated from the index.
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


@dataclass(frozen=True)
class SweepSpec:
    """Declarative (arch x bw set x pattern x seed x load) grid."""

    archs: Tuple[str, ...] = tuple(architectures.names())
    bw_set_indices: Tuple[int, ...] = tuple(s.index for s in BANDWIDTH_SETS)
    patterns: Tuple[str, ...] = ("uniform",)
    seeds: Tuple[int, ...] = (1,)
    fidelity: Fidelity = QUICK_FIDELITY
    #: Override the fidelity's load grid; ``None`` uses it unchanged.
    load_fractions: Optional[Tuple[float, ...]] = None
    derive_seeds: bool = True
    #: Scenario axis: named scripts from :mod:`repro.scenarios.library`;
    #: the ``None`` entry is the stationary legacy run.
    scenarios: Tuple[Optional[str], ...] = (None,)

    def __post_init__(self) -> None:
        if not (self.archs and self.bw_set_indices and self.patterns and self.seeds):
            raise ValueError("every sweep axis needs at least one value")
        if not self.scenarios:
            raise ValueError("every sweep axis needs at least one value")
        if self.load_fractions is not None and not self.load_fractions:
            raise ValueError("load_fractions override must be non-empty")
        for axis, values in (
            ("archs", self.archs),
            ("bw_set_indices", self.bw_set_indices),
            ("patterns", self.patterns),
            ("seeds", self.seeds),
            ("scenarios", self.scenarios),
            ("load_fractions", self.load_fractions or ()),
        ):
            if len(set(values)) != len(values):
                raise ValueError(
                    f"duplicate values in {axis}: {values} (a repeated axis "
                    "value would double-count the same simulation)"
                )

    @property
    def fractions(self) -> Tuple[float, ...]:
        return self.load_fractions or self.fidelity.load_fractions

    def expand(self) -> List[RunPoint]:
        """Flatten the grid to points, in deterministic axis order."""
        points = []
        for arch in self.archs:
            for bw_index in self.bw_set_indices:
                capacity = bandwidth_set_by_index(bw_index).aggregate_gbps
                for pattern in self.patterns:
                    for scenario in self.scenarios:
                        for base_seed in self.seeds:
                            seed = (
                                derive_seed(
                                    base_seed, arch, bw_index, pattern, scenario
                                )
                                if self.derive_seeds
                                else base_seed
                            )
                            for fraction in self.fractions:
                                points.append(
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
                                )
        return points

    def n_points(self) -> int:
        """Size of the expanded grid (product of the axis lengths)."""
        return (
            len(self.archs)
            * len(self.bw_set_indices)
            * len(self.patterns)
            * len(self.scenarios)
            * len(self.seeds)
            * len(self.fractions)
        )


def _execute_point(payload: Tuple[RunPoint, Fidelity, Optional[SystemConfig]]) -> RunResult:
    """Worker entry: simulate one point (top-level for pickling).

    The simulated bandwidth set is, in order of precedence: the point's
    pinned ``bw_set``, the explicit config's set, the canonical set for
    the point's index — ``_run_once``'s ``bw_set`` argument and
    ``config`` are independent.
    """
    point, fidelity, config = payload
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

    def __enter__(self) -> "PointExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # May run during interpreter shutdown, when module globals the
        # cleanup path needs are already torn down — never let that
        # escape as a spurious error or warning.
        try:
            self.close()
        except BaseException:
            pass

    def _config_for(self, point: RunPoint) -> SystemConfig:
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
        keys = [self._key(p, fidelity) for p in points]
        # Membership checks pass the point's (arch, bw set) coordinates
        # so a sharded store loads only the shards this batch can hit.
        batch_seen = set()
        missing = []
        for i, (p, k) in enumerate(zip(points, keys)):
            if k in batch_seen or self.store.contains(
                k, (p.arch, p.bw_set_index)
            ):
                continue
            batch_seen.add(k)
            missing.append((i, p))
        return keys, missing

    def work_item(self, point: RunPoint, key: str, fidelity: Fidelity) -> dict:
        """The wire-form work item a fabric worker simulates *point* from."""
        from repro.fabric import protocol  # imports this module

        config, digest = self._config_entry(point)
        shared = self._job_fields.get((digest, fidelity))
        if shared is None:
            shared = self._job_fields[digest, fidelity] = {
                "fidelity": protocol.fidelity_to_dict(fidelity),
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
        keys, missing = self.plan(points, fidelity)
        self.executed_count = 0
        fresh: Dict[int, RunResult] = {}
        if missing:
            fresh = self._execute(missing, keys, fidelity)
            for i, result in fresh.items():
                self.store.put(keys[i], result)
        return [
            fresh[i]
            if i in fresh
            else self.store.get(keys[i], (p.arch, p.bw_set_index))
            for i, p in enumerate(points)
        ]

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

    def run(self, spec: SweepSpec) -> List[RunResult]:
        """Expand and execute a whole :class:`SweepSpec`."""
        return self.run_points(spec.expand(), spec.fidelity)

    # -- curve-level helpers ------------------------------------------------
    def sweep_curve(
        self,
        arch: str,
        bw_set: Union[BandwidthSet, int],
        pattern: str,
        fidelity: Fidelity,
        seed: int = 1,
        derive_seeds: bool = False,
        scenario: Optional[str] = None,
    ) -> List[RunResult]:
        """One load curve (the seed is used verbatim by default).

        *bw_set* is a table 3-1 index or a :class:`BandwidthSet`. A set
        object is simulated exactly as passed: when it is not what its
        index would simulate here (a customised set, or any set beside
        an explicit config carrying another), it is pinned on the
        points and its own capacity scales the offered-load grid.
        """
        index = bw_set if isinstance(bw_set, int) else bw_set.index
        points = SweepSpec(
            archs=(arch,),
            bw_set_indices=(index,),
            patterns=(pattern,),
            seeds=(seed,),
            fidelity=fidelity,
            derive_seeds=derive_seeds,
            scenarios=(scenario,),
        ).expand()
        if (
            not isinstance(bw_set, int)
            and bw_set != self._config_for(points[0]).bw_set
        ):
            points = [
                replace(
                    p,
                    bw_set=bw_set,
                    offered_gbps=p.load_fraction * bw_set.aggregate_gbps,
                )
                for p in points
            ]
        return self.run_points(points, fidelity)

    def peaks(
        self, spec: SweepSpec
    ) -> Dict[Tuple[str, int, str, Optional[str], int], RunResult]:
        """Per-curve saturation peaks, keyed by ``RunPoint.curve``."""
        points = spec.expand()
        results = self.run_points(points, spec.fidelity)
        curves: Dict[Tuple[str, int, str, Optional[str], int], List[RunResult]] = {}
        for point, result in zip(points, results):
            curves.setdefault(point.curve, []).append(result)
        return {curve: peak_of(rs) for curve, rs in curves.items()}


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
        payloads = [
            (p, fidelity, self._config_for(p)) for _i, p in missing
        ]
        if self.workers > 1 and len(missing) > 1:
            outcomes = self._ensure_pool().map(
                _execute_point, payloads, chunksize=1
            )
        else:
            outcomes = [_execute_point(p) for p in payloads]
        self.executed_count = len(missing)
        return {i: result for (i, _p), result in zip(missing, outcomes)}


class FabricExecutor(PointExecutor):
    """Run sweep points through a distributed fabric coordinator.

    A drop-in :class:`PointExecutor` sibling of :class:`SweepExecutor`:
    cache-missing points are submitted to a coordinator
    (``dhetpnoc-repro fabric serve``) that leases them to remote
    workers and answers from its own store when another client already
    paid for the simulation. Keys, configs and scenario digests come
    from the shared base class, so the results — and the store they
    resume from — are bitwise-identical to a local run.

    The connection is opened lazily on the first batch and kept for
    the executor's lifetime (adaptive sweeps submit many small jobs).
    Points the coordinator gives up on after bounded retries surface
    as :class:`~repro.fabric.errors.PointFailedError` — never a hang.

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
            from repro.fabric.client import FabricClient

            self._client = FabricClient(
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
        from repro.fabric.errors import PointFailedError

        client = self._ensure_client()
        # One submitted job per effective config: a batch can span
        # bandwidth sets, whose default configs differ, and the wire
        # format ships one config per job so workers reproduce
        # _execute_point's inputs exactly.
        groups: Dict[str, List[dict]] = {}
        for i, p in missing:
            _config, digest = self._config_entry(p)
            groups.setdefault(digest, []).append(
                self.work_item(p, keys[i], fidelity)
            )
        results: Dict[str, RunResult] = {}
        failures = []
        for items in groups.values():
            # The frame carries the group's fidelity and config once.
            outcome = client.submit(
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
            )
            self.executed_count += outcome.executed
            failures.extend(outcome.failures)
            results.update(outcome.results)
        if failures:
            raise PointFailedError(failures)
        return {i: results[keys[i]] for i, _p in missing}


# ---------------------------------------------------------------------------
# Adaptive knee-seeking sweeps
# ---------------------------------------------------------------------------
#
# A fixed load grid spends most of its simulations far from the
# saturation knee — the paper's central Figure-3 quantity. The adaptive
# mode seeds the search from the closed-form fluid model
# (:mod:`repro.analysis.saturation`), then bisects the *observed*
# delivery shortfall down to a target load resolution. All candidate
# loads live on a fixed fraction grid (multiples of ``resolution``), so
# two adaptive sweeps of the same curve evaluate byte-identical points,
# share store keys with each other and with fixed-grid sweeps that
# happen to visit the same loads, and are bitwise identical whether the
# executor runs serially or through a worker pool.


def analytic_knee_gbps(
    arch: str,
    bw_set_index: int,
    pattern: str,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
) -> Optional[float]:
    """Closed-form saturation-knee estimate for one curve, in Gb/s.

    Binds *pattern* with the same placement stream a run would
    use for *seed* and asks the fluid model
    (:class:`repro.analysis.saturation.SaturationModel`) where the first
    write channel saturates. Returns ``None`` when the pattern is
    outside the model's assumptions (the adaptive sweep then starts
    from the middle of the load range instead).
    """
    from repro.analysis.saturation import AnalysisError, SaturationModel
    from repro.sim.rng import RandomStreams
    from repro.traffic.patterns import PatternError, pattern_by_name

    bw_set = bandwidth_set_by_index(bw_set_index)
    config = config or SystemConfig(bw_set=bw_set)
    try:
        bound = pattern_by_name(pattern).bind(
            bw_set,
            config.n_clusters,
            config.cores_per_cluster,
            RandomStreams(seed).get("placement"),
        )
        return SaturationModel(arch, bound, config).knee_gbps()
    except (AnalysisError, PatternError, ValueError):
        return None


@dataclass(frozen=True)
class KneeEstimate:
    """Outcome of one :func:`adaptive_knee_sweep` curve localisation."""

    arch: str
    bw_set_index: int
    pattern: str
    scenario: Optional[str]
    base_seed: int
    #: Load-fraction grid step the knee was localised to.
    resolution: float
    #: Upper end of the searched fraction range.
    max_fraction: float
    #: Fluid-model seed estimate (``None``: model not applicable).
    analytic_knee_gbps: Optional[float]
    #: Localised knee: the smallest evaluated fraction whose delivered
    #: bandwidth reaches the saturation plateau (within
    #: ``plateau_margin``). ``saturated`` is ``False`` when delivery was
    #: still climbing at ``max_fraction`` (no knee inside the range).
    knee_fraction: float
    knee_gbps: float
    saturated: bool
    #: Best evaluated point by delivered bandwidth (the "peak").
    peak: RunResult
    #: Every evaluated point, sorted by offered load.
    results: Tuple[RunResult, ...]
    #: Distinct load points evaluated (store hits included).
    n_evaluated: int
    #: Points actually simulated (store misses) by this call.
    n_simulated: int
    #: Learned-model seed estimate in Gb/s (``None``: no model supplied,
    #: or the curve is outside the model's training vocabulary).
    model_knee_gbps: Optional[float] = None


def knee_search(n: int, start: int, check_below: bool, at_plateau) -> int:
    """The knee-search probe policy, over grid indices ``1..n``.

    ``at_plateau(i)`` says whether grid point *i* reaches the plateau --
    a monotone predicate, trivially true at *n* and false at 0. Returns
    the smallest index found to satisfy it, probing as few points as it
    can: the seed estimate's point *start* (clamped inside the grid)
    first; when that is already on the plateau, a descent -- *start*
    halved repeatedly, preceded by the point just below *start* when
    *check_below* (a model seed claims to *be* the knee, so when the
    claim is exact that one probe closes the bracket to a single step
    instead of halving far below it) -- until a point falls short; then
    bisection of the bracket down to one step. This is the one copy of
    the policy: :func:`adaptive_knee_sweep` passes "simulate and
    compare", :func:`repro.experiments.costing.adaptive_probe_count` a
    hypothetical knee and counts the calls, so a dry run prices exactly
    the search that would run.
    """
    if n <= 1:
        return n
    start = min(max(start, 1), n - 1)
    descent = []
    if check_below and start - 1 >= 1:
        descent.append(start - 1)
    cand = start // 2
    while cand >= 1:
        if not descent or cand < descent[-1]:
            descent.append(cand)
        cand //= 2
    # Bracket: lo = largest index known below the plateau (0 = trivially
    # so: zero offered load delivers nothing), hi = smallest index known
    # to reach it (n is trivially at the plateau).
    lo, hi = 0, n
    if at_plateau(start):
        hi = start
        for cand in descent:
            if at_plateau(cand):
                hi = cand
            else:
                lo = cand
                break
    else:
        lo = start
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_plateau(mid):
            hi = mid
        else:
            lo = mid
    return hi


def adaptive_knee_sweep(
    arch: str,
    bw_set_index: int,
    pattern: str,
    fidelity: Fidelity,
    executor: Optional[SweepExecutor] = None,
    seed: int = 1,
    scenario: Optional[str] = None,
    resolution: float = 0.05,
    max_fraction: Optional[float] = None,
    plateau_margin: float = 0.10,
    derive_seeds: bool = False,
    model=None,
) -> KneeEstimate:
    """Localise one curve's saturation knee with few simulations.

    Args:
        arch: Architecture name (``firefly`` / ``dhetpnoc``).
        bw_set_index: Canonical table 3-1 bandwidth-set index.
        pattern: Traffic-pattern name.
        fidelity: Simulation schedule; its ``load_fractions`` only cap
            the default search range (``max_fraction``), the grid itself
            is *not* swept.
        executor: Sweep executor to run points through (defaults to a
            fresh serial executor over an in-memory store). Reuse one
            executor across curves to share its store and worker pool.
        seed: Base seed; used verbatim unless ``derive_seeds``.
        scenario: Optional named scenario (see :mod:`repro.scenarios`).
        resolution: Target load-fraction resolution; all evaluated
            fractions are multiples of it, and the returned knee is
            localised to one step.
        max_fraction: Upper end of the searched range (default: the
            fidelity grid's maximum).
        plateau_margin: Relative closeness to the plateau delivery that
            counts as "saturated": a point is at/past the knee when its
            delivered bandwidth reaches
            ``(1 - plateau_margin) * delivered(max_fraction)``.
        derive_seeds: Derive the per-curve seed as ``SweepSpec`` does
            instead of using ``seed`` verbatim.
        model: Optional fitted :class:`repro.ml.model.QoSModel`. When
            given, its :meth:`~repro.ml.model.QoSModel.predict_knee`
            estimate replaces the analytic fluid-model seed for the
            search's starting probe (falling back to the analytic seed
            for curves outside the model's training vocabulary). The
            seed only positions the first probe — the bisection still
            verifies against real simulations, so the *final*
            :class:`KneeEstimate` is identical whichever seed was used;
            a better seed just reaches it in fewer simulations.

    Returns:
        A :class:`KneeEstimate`. ``results`` holds every evaluated
        point, so the caller still gets a (sparse, knee-centred) curve.

    The search: one probe pins the plateau delivery at ``max_fraction``,
    one probes the seed estimate's grid point (the model's when one is
    supplied, the analytic model's otherwise), the bracket expands
    by halving, and bisection closes it to one grid step. Every probe is
    one point through :meth:`SweepExecutor.run_points`, so results are
    store-cached and deterministic regardless of worker count; a re-run
    against the same store simulates nothing.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not 0 < plateau_margin < 1:
        raise ValueError("plateau_margin must be in (0, 1)")
    executor = executor or SweepExecutor()
    capacity = bandwidth_set_by_index(bw_set_index).aggregate_gbps
    if max_fraction is None:
        max_fraction = max(fidelity.load_fractions)
    # Floor (with an epsilon for float division) so no probe exceeds
    # the caller's load cap; at least one grid point always exists.
    n = max(1, int(max_fraction / resolution + 1e-9))
    point_seed = (
        derive_seed(seed, arch, bw_set_index, pattern, scenario)
        if derive_seeds
        else seed
    )

    evaluated: Dict[int, RunResult] = {}
    simulated = 0

    def fraction(i: int) -> float:
        return round(i * resolution, 9)

    def evaluate(i: int) -> RunResult:
        nonlocal simulated
        if i not in evaluated:
            point = RunPoint(
                arch=arch,
                bw_set_index=bw_set_index,
                pattern=pattern,
                load_fraction=fraction(i),
                offered_gbps=fraction(i) * capacity,
                seed=point_seed,
                base_seed=seed,
                scenario=scenario,
            )
            (evaluated[i],) = executor.run_points([point], fidelity)
            simulated += executor.executed_count
        return evaluated[i]

    # The plateau reference: delivery at the top of the range. Below the
    # knee delivery climbs steeply with offered load; at/past the knee
    # it sits on the plateau (within noise), so "reaches the plateau" is
    # a monotone predicate that bisection can localise.
    plateau = evaluate(n).delivered_gbps
    threshold = (1.0 - plateau_margin) * plateau

    def at_plateau(i: int) -> bool:
        return evaluate(i).delivered_gbps >= threshold

    analytic = analytic_knee_gbps(arch, bw_set_index, pattern, seed=point_seed)
    model_knee = None
    if model is not None:
        model_knee = model.predict_knee(
            arch,
            bw_set_index,
            pattern,
            scenario=scenario,
            resolution=resolution,
            max_fraction=max_fraction,
            total_cycles=fidelity.total_cycles,
            plateau_margin=plateau_margin,
        )
    seed_gbps = model_knee if model_knee is not None else analytic
    if seed_gbps is not None and capacity > 0:
        start = round(seed_gbps / capacity / resolution)
    else:
        start = n // 2
    # The analytic path's probe sequence -- and hence its store keys and
    # simulation counts -- does not depend on whether a model exists.
    hi = n
    if plateau > 0:
        hi = knee_search(n, start, model_knee is not None, at_plateau)

    knee_fraction = fraction(hi)
    ordered = tuple(evaluated[i] for i in sorted(evaluated))
    peak = max(ordered, key=lambda r: r.delivered_gbps)
    return KneeEstimate(
        arch=arch,
        bw_set_index=bw_set_index,
        pattern=pattern,
        scenario=scenario,
        base_seed=seed,
        resolution=resolution,
        max_fraction=max_fraction,
        analytic_knee_gbps=analytic,
        knee_fraction=knee_fraction,
        knee_gbps=knee_fraction * capacity,
        saturated=hi < n,
        peak=peak,
        results=ordered,
        n_evaluated=len(evaluated),
        n_simulated=simulated,
        model_knee_gbps=model_knee,
    )


# ---------------------------------------------------------------------------
# Multi-seed replication (mean +/- spread across seeds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSummary:
    """Mean/spread of one scalar metric across replicated seeds."""

    mean: float
    std: float
    lo: float
    hi: float
    n: int

    @property
    def spread(self) -> float:
        return self.hi - self.lo


def summarize_metric(values: Sequence[float]) -> MetricSummary:
    """Fold per-seed metric *values* into a :class:`MetricSummary`.

    Uses the population standard deviation (0.0 for a single value);
    raises :class:`ValueError` on an empty sequence.
    """
    if not values:
        raise ValueError("cannot summarize zero values")
    return MetricSummary(
        mean=mean(values),
        std=pstdev(values) if len(values) > 1 else 0.0,
        lo=min(values),
        hi=max(values),
        n=len(values),
    )


@dataclass(frozen=True)
class ReplicatedPeak:
    """Saturation-peak statistics for one curve family across seeds."""

    arch: str
    bw_set_index: int
    pattern: str
    delivered_gbps: MetricSummary
    energy_per_message_pj: MetricSummary
    mean_latency_cycles: MetricSummary
    seeds: Tuple[int, ...] = field(default_factory=tuple)
    scenario: Optional[str] = None


def replication_summary(
    spec: SweepSpec, executor: Optional[SweepExecutor] = None
) -> List[ReplicatedPeak]:
    """Run *spec* and fold per-seed peaks into mean +/- spread rows.

    The grouping collapses the seed axis only: one row per
    (arch, bw set, pattern, scenario), ordered like the spec's axes.
    """
    executor = executor or SweepExecutor()
    peaks = executor.peaks(spec)
    grouped: Dict[
        Tuple[str, int, str, Optional[str]], List[Tuple[int, RunResult]]
    ] = {}
    for (arch, bw_index, pattern, scenario, base_seed), peak in peaks.items():
        grouped.setdefault((arch, bw_index, pattern, scenario), []).append(
            (base_seed, peak)
        )
    out = []
    for arch in spec.archs:
        for bw_index in spec.bw_set_indices:
            for pattern in spec.patterns:
                for scenario in spec.scenarios:
                    entries = grouped[(arch, bw_index, pattern, scenario)]
                    seeds = tuple(s for s, _r in entries)
                    rs = [r for _s, r in entries]
                    out.append(
                        ReplicatedPeak(
                            arch=arch,
                            bw_set_index=bw_index,
                            pattern=pattern,
                            delivered_gbps=summarize_metric(
                                [r.delivered_gbps for r in rs]
                            ),
                            energy_per_message_pj=summarize_metric(
                                [r.energy_per_message_pj for r in rs]
                            ),
                            mean_latency_cycles=summarize_metric(
                                [r.mean_latency_cycles for r in rs]
                            ),
                            seeds=seeds,
                            scenario=scenario,
                        )
                    )
    return out
