"""Adaptive knee-seeking sweeps: the search policy above the executors.

A fixed load grid spends most of its simulations far from the
saturation knee — the paper's central Figure-3 quantity. The adaptive
mode seeds the search from the closed-form fluid model
(:mod:`repro.analysis.saturation`), then bisects the *observed*
delivery shortfall down to a target load resolution. All candidate
loads live on a fixed fraction grid (multiples of ``resolution``), so
two adaptive sweeps of the same curve evaluate byte-identical points,
share store keys with each other and with fixed-grid sweeps that
happen to visit the same loads, and are bitwise identical whether the
executor runs serially, through a worker pool or over the fabric.

This module is policy only: every probe is one
:class:`~repro.experiments.sweep.RunPoint` handed to the executor the
caller passes in (:meth:`repro.api.session.Session.knee` passes the
session's), so the search never decides *how* a point runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity, RunResult
from repro.experiments.sweep import PointExecutor, RunPoint, curve_points
from repro.traffic.bandwidth_sets import bandwidth_set_by_index


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
    executor: PointExecutor,
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
        executor: The executor every probe runs through; its store,
            worker pool (or fabric connection) and config are shared by
            all the curves searched with it.
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
        derive_seeds: Derive the per-curve seed as grid expansion does
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
    one point through :meth:`PointExecutor.run_points
    <repro.experiments.sweep.PointExecutor.run_points>`, so results are
    store-cached and deterministic regardless of worker count; a re-run
    against the same store simulates nothing.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not 0 < plateau_margin < 1:
        raise ValueError("plateau_margin must be in (0, 1)")
    capacity = bandwidth_set_by_index(bw_set_index).aggregate_gbps
    if max_fraction is None:
        max_fraction = max(fidelity.load_fractions)
    # Floor (with an epsilon for float division) so no probe exceeds
    # the caller's load cap; at least one grid point always exists.
    n = max(1, int(max_fraction / resolution + 1e-9))

    evaluated: Dict[int, RunResult] = {}
    simulated = 0

    def fraction(i: int) -> float:
        return round(i * resolution, 9)

    def point(i: int) -> RunPoint:
        (probe,) = curve_points(
            (arch, bw_set_index, pattern, scenario, seed),
            (fraction(i),),
            derive_seeds,
        )
        return probe

    def evaluate(i: int) -> RunResult:
        nonlocal simulated
        if i not in evaluated:
            (evaluated[i],) = executor.run_points([point(i)], fidelity)
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

    analytic = analytic_knee_gbps(
        arch, bw_set_index, pattern, seed=point(n).seed, config=executor.config
    )
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
