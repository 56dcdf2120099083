"""``Session``: the one door between experiment code and the executors.

A session owns the three stateful pieces the experiment layer needs —
an executor from :mod:`repro.experiments.sweep` (worker pool or fabric
connection + config/fingerprint caches), the
:class:`~repro.experiments.store.ResultStore` backend, and the system
configuration — behind a context-manager lifecycle::

    from repro.api import ExperimentSpec, Session

    spec = ExperimentSpec(patterns=("skewed3",), bw_sets=(1,))
    with Session("results/store.jsonl", workers=4) as session:
        results = session.run(spec)              # every grid point
        peaks = session.peaks(spec)              # per-curve saturation peaks
        rows = session.replicated(spec)          # mean +/- spread over seeds
        knees = session.adaptive(spec)           # knee-bisection estimates
        curve = session.curve("dhetpnoc", 1, "skewed3", spec.fidelity)
        knee = session.knee("dhetpnoc", 1, "skewed3", spec.fidelity)

Every curve-shaped question — a load curve, its saturation peak, its
knee, its spread over seeds — is one of those calls. The exhibits, the
validation claims, the CLI, ``tools/`` and ``examples/`` build an
:class:`~repro.api.spec.ExperimentSpec` and ask the session; none of
them reaches the executor, so whatever a session is told to do to
every run (a config override today) happens in one place. Underneath
it is exactly the sweep layer: every surface computes the same
content-hash store key for the same point, so a store written by one
is a cache for all the others, and ``workers=1``, ``workers=N`` and
``fabric=`` return bitwise-equal results from every method.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.api.spec import ExperimentSpec
from repro.arch.config import SystemConfig
from repro.experiments.runner import (
    Fidelity,
    QUICK_FIDELITY,
    RunResult,
    _run_once,
    peak_of,
)
from repro.experiments.store import ResultStore, StoreBackend, open_store
from repro.experiments.sweep import FabricExecutor, SweepExecutor
from repro.traffic.bandwidth_sets import BandwidthSet, bandwidth_set_by_index

if TYPE_CHECKING:  # the policy level loads on the first knee or fold
    from repro.experiments.knee import KneeEstimate
    from repro.experiments.replication import ReplicatedPeak

__all__ = ["CurveCount", "DryRunReport", "Session"]

#: Anything a :class:`Session` accepts as its store argument.
StoreLike = Union[None, str, ResultStore, StoreBackend]


def _resolve_store(store: StoreLike, backend: str) -> ResultStore:
    """Coerce the ``Session(store=...)`` argument to a ResultStore."""
    if store is None:
        return ResultStore()
    if isinstance(store, ResultStore):
        return store
    if isinstance(store, StoreBackend):
        return ResultStore(backend=store)
    return open_store(str(store), backend)


@dataclass(frozen=True)
class CurveCount:
    """One curve's row in a :class:`DryRunReport`."""

    arch: str
    bw_set: int
    pattern: str
    scenario: Optional[str]
    seed: int
    #: Grid points this curve expands to (estimate in adaptive mode).
    points: int
    #: Points the store does not already hold (``None`` when unknown —
    #: adaptive searches pick their points as they go).
    to_simulate: Optional[int]

    @property
    def label(self) -> str:
        text = f"{self.arch}/set{self.bw_set}/{self.pattern}"
        if self.scenario:
            text += f"/{self.scenario}"
        return f"{text} seed {self.seed}"


@dataclass(frozen=True)
class DryRunReport:
    """What a spec *would* execute — counted without simulating.

    Grid mode counts are exact: every point's content-hash store key is
    computed (exactly as execution would) and checked against the
    session store, so ``to_simulate`` is the real miss count after
    in-batch dedup. Adaptive mode reports the knee-search estimate
    from :meth:`ExperimentSpec.points_per_curve` instead.
    """

    mode: str
    curves: Tuple[CurveCount, ...]
    #: Expanded grid points (grid) / estimated probes (adaptive).
    total_points: int
    #: Exact store-miss count (``None`` for adaptive mode).
    to_simulate: Optional[int]

    def describe(self) -> str:
        """Printable multi-line summary (what ``--dry-run`` shows)."""
        lines = []
        if self.mode == "grid":
            cached = self.total_points - (self.to_simulate or 0)
            lines.append(
                f"dry run: {len(self.curves)} curve(s), "
                f"{self.total_points} grid point(s), "
                f"{self.to_simulate} to simulate ({cached} cached)"
            )
        else:
            lines.append(
                f"dry run (adaptive): {len(self.curves)} curve(s), "
                f"~{self.total_points} simulation(s) estimated "
                "(store hits resolve during the search)"
            )
        for curve in self.curves:
            if curve.to_simulate is None:
                lines.append(f"  {curve.label}: ~{curve.points} point(s)")
            else:
                lines.append(
                    f"  {curve.label}: {curve.points} point(s), "
                    f"{curve.to_simulate} to simulate"
                )
        return "\n".join(lines)


class Session:
    """Owns executor + store + config for a family of experiments.

    Args:
        store: ``None`` for a fresh in-memory store, a path (JSONL file
            or shard directory), or an existing
            :class:`~repro.experiments.store.ResultStore` /
            :class:`~repro.experiments.store.StoreBackend`.
        workers: Simulation worker processes (1 = serial). The pool is
            created lazily and survives across calls; ``close()`` — or
            leaving a ``with`` block — releases it.
        backend: Store-backend name for path stores (an
            ``repro.api.registry.store_backends`` name or ``"auto"``).
        config: Optional :class:`~repro.arch.config.SystemConfig`
            override applied to every run of this session.
        fabric: Coordinator address (``"host:port"``); when set, cache
            misses are submitted to the distributed fabric through a
            :class:`~repro.experiments.sweep.FabricExecutor` instead of
            a local worker pool (``workers`` is then ignored). Results
            are bitwise-identical either way.
    """

    def __init__(
        self,
        store: StoreLike = None,
        *,
        workers: int = 1,
        backend: str = "auto",
        config: Optional[SystemConfig] = None,
        fabric: Optional[str] = None,
    ) -> None:
        self.store = _resolve_store(store, backend)
        self._fabric = fabric
        if fabric is not None:
            self.executor: "SweepExecutor | FabricExecutor" = FabricExecutor(
                fabric, store=self.store, config=config
            )
        else:
            self.executor = SweepExecutor(
                workers=workers, store=self.store, config=config
            )

    # -- lifecycle ----------------------------------------------------------
    @property
    def fabric(self) -> Optional[str]:
        """The coordinator address misses are submitted to (``None`` for
        a session that simulates them locally)."""
        return self._fabric

    @property
    def config(self) -> Optional[SystemConfig]:
        """The session-wide config override (``None`` = per-set default)."""
        return self.executor.config

    @property
    def executed_count(self) -> int:
        """Points actually simulated by the last execution call."""
        return self.executor.executed_count

    def close(self) -> None:
        """Release the worker pool and flush the store."""
        self.executor.close()
        self.store.flush()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- planning -----------------------------------------------------------
    def dry_run(
        self, spec: ExperimentSpec, model=None
    ) -> DryRunReport:
        """Count what executing *spec* would cost, without simulating.

        Grid mode asks the executor for its plan
        (:meth:`PointExecutor.plan
        <repro.experiments.sweep.PointExecutor.plan>`, the step
        execution itself starts with), so the count is exactly what a
        run would simulate; adaptive mode reports the per-curve search
        estimate — sharpened by a fitted
        :class:`repro.ml.model.QoSModel` when *model* is given (the
        search is replayed against the model's predicted knee; see
        :func:`repro.experiments.costing.
        adaptive_curve_estimates`). The CLI's ``run --spec --dry-run``
        prints :meth:`DryRunReport.describe`, and fabric sweeps use the
        same report to say how much work they are about to scatter.
        """
        if spec.mode == "grid":
            points = spec.expand()
            _keys, missing = self.executor.plan(points, spec.fidelity)
            misses = Counter(point.curve for _index, point in missing)
            curves = tuple(
                CurveCount(*curve, points=n, to_simulate=misses[curve])
                for curve, n in Counter(p.curve for p in points).items()
            )
            return DryRunReport(
                mode=spec.mode,
                curves=curves,
                total_points=len(points),
                to_simulate=sum(c.to_simulate for c in curves),
            )
        from repro.experiments.costing import adaptive_curve_estimates

        per_curve = adaptive_curve_estimates(spec, model)
        curves = tuple(
            CurveCount(*curve, points=estimate, to_simulate=None)
            for curve, estimate in zip(spec.curves(), per_curve)
        )
        return DryRunReport(
            mode=spec.mode,
            curves=curves,
            total_points=sum(per_curve),
            to_simulate=None,
        )

    # -- execution ----------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> List[RunResult]:
        """Execute every grid point of *spec*; results in grid order.

        Store hits are free; misses fan out over the worker pool.
        Requires ``mode="grid"`` (use :meth:`adaptive` for knee specs).
        """
        if spec.mode != "grid":
            raise ValueError(
                f"Session.run() executes grid specs; this spec has "
                f"mode={spec.mode!r} (use Session.adaptive())"
            )
        return self.executor.run(spec)

    def peaks(
        self, spec: ExperimentSpec
    ) -> Dict[Tuple[str, int, str, Optional[str], int], RunResult]:
        """Per-curve saturation peaks of *spec*, keyed by curve
        coordinates ``(arch, bw_set, pattern, scenario, base_seed)``."""
        if spec.mode == "adaptive":
            return {
                (e.arch, e.bw_set_index, e.pattern, e.scenario, e.base_seed):
                    e.peak
                for e in self.adaptive(spec)
            }
        points = spec.expand()
        curves: Dict[
            Tuple[str, int, str, Optional[str], int], List[RunResult]
        ] = {}
        for point, result in zip(
            points, self.executor.run_points(points, spec.fidelity)
        ):
            curves.setdefault(point.curve, []).append(result)
        return {curve: peak_of(rs) for curve, rs in curves.items()}

    def curve(
        self,
        arch: str,
        bw_set: Union[BandwidthSet, int],
        pattern: str,
        fidelity: Fidelity,
        seed: int = 1,
        scenario: Optional[str] = None,
    ) -> List[RunResult]:
        """One load curve over *fidelity*'s grid, *seed* used verbatim.

        *bw_set* is a table 3-1 index or a :class:`BandwidthSet`. A set
        object is simulated exactly as passed: when it is not what its
        index would simulate here (a customised set, or any set beside
        a session config carrying another), it is pinned on the points
        and its own capacity scales the offered-load grid.
        """
        index = bw_set if isinstance(bw_set, int) else bw_set.index
        points = ExperimentSpec(
            archs=(arch,),
            bw_sets=(index,),
            patterns=(pattern,),
            scenarios=(scenario,),
            seeds=(seed,),
            fidelity=fidelity,
            derive_seeds=False,
        ).expand()
        if (
            not isinstance(bw_set, int)
            and bw_set != self.executor.config_for(points[0]).bw_set
        ):
            points = [
                replace(
                    p,
                    bw_set=bw_set,
                    offered_gbps=p.load_fraction * bw_set.aggregate_gbps,
                )
                for p in points
            ]
        return self.executor.run_points(points, fidelity)

    def knee(
        self,
        arch: str,
        bw_set: int,
        pattern: str,
        fidelity: Fidelity,
        seed: int = 1,
        scenario: Optional[str] = None,
        *,
        resolution: float = 0.05,
        max_fraction: Optional[float] = None,
        derive_seeds: bool = False,
        model=None,
    ) -> KneeEstimate:
        """Localise one curve's saturation knee by bisection (see
        :func:`repro.experiments.knee.adaptive_knee_sweep`); *bw_set*
        is a table 3-1 index. Probes run through this session's store,
        so loads that coincide with a grid run's are shared with it."""
        from repro.experiments.knee import adaptive_knee_sweep

        return adaptive_knee_sweep(
            arch,
            bw_set,
            pattern,
            fidelity,
            self.executor,
            seed=seed,
            scenario=scenario,
            resolution=resolution,
            max_fraction=max_fraction,
            derive_seeds=derive_seeds,
            model=model,
        )

    def adaptive(
        self, spec: ExperimentSpec, model=None
    ) -> List[KneeEstimate]:
        """Knee-bisection search for every curve of *spec*.

        Curves iterate in spec axis order (arch, bw set, pattern,
        scenario, seed). A ``load_fractions`` override caps the search
        range (its maximum plays the role the fidelity grid's maximum
        plays by default). Each estimate's points run through this
        session's store, so coinciding loads are shared with grid runs.
        A fitted :class:`repro.ml.model.QoSModel` passed as *model*
        seeds each curve's search from its prediction instead of the
        stationary analytic estimate (the converged knee is identical
        either way — only the simulation count changes).
        """
        max_fraction = (
            max(spec.load_fractions) if spec.load_fractions else None
        )
        return [
            self.knee(
                arch,
                bw_index,
                pattern,
                spec.fidelity,
                seed,
                scenario,
                resolution=spec.resolution,
                max_fraction=max_fraction,
                derive_seeds=spec.derive_seeds,
                model=model,
            )
            for arch, bw_index, pattern, scenario, seed in spec.curves()
        ]

    def replicated(self, spec: ExperimentSpec) -> List[ReplicatedPeak]:
        """The seed axis of :meth:`peaks` folded into mean +/- spread
        rows, one per curve family (for an adaptive spec, the peaks its
        knee searches found)."""
        from repro.experiments.replication import replication_summary

        return replication_summary(self.peaks(spec))

    def run_one(
        self,
        arch: str,
        bw_set: Union[BandwidthSet, int],
        pattern: str,
        offered_gbps: float,
        *,
        fidelity: Fidelity = QUICK_FIDELITY,
        seed: int = 1,
        scenario: Optional[str] = None,
        config: Optional[SystemConfig] = None,
    ) -> RunResult:
        """Simulate a single fully-specified point, bypassing the store.

        ``bw_set`` is a :class:`BandwidthSet` or a registry index.
        Uses the session config unless *config* overrides it.
        """
        if isinstance(bw_set, int):
            bw_set = bandwidth_set_by_index(bw_set)
        return _run_once(
            arch,
            bw_set,
            pattern,
            offered_gbps,
            fidelity=fidelity,
            seed=seed,
            config=config if config is not None else self.config,
            scenario=scenario,
        )

