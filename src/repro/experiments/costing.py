"""Wall-clock cost estimates for ``run --spec --dry-run``.

A dry run already counts exactly how many points a spec would simulate
(:meth:`Session.dry_run <repro.api.session.Session.dry_run>`); this
module prices that count in estimated wall-seconds using the newest
committed perf-ledger record
(``benchmarks/ledger/records/BENCH_*.json``). The anchor is the
``photonic_busy`` workload's ``sim_cycles_per_s`` — simulated cycles per
second with the whole photonic data path busy — divided into the spec
fidelity's ``total_cycles`` and spread across the worker pool.
Linear-in-cycles is deliberately simple: the per-cycle hot path
dominates a run, and a dry-run estimate only needs to answer "seconds,
minutes or hours?" before someone commits a pool to a grid. The record
is as old as its commit: the estimate reads high by whatever the
simulator has sped up since, and corrects itself when a newer record is
committed.

Everything degrades gracefully: when no record is readable (no
checkout around the package, an empty ``records/``) the estimate is
``None`` and the CLI simply prints nothing extra.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Optional

from repro.experiments.runner import Fidelity
from repro.experiments.knee import knee_search

__all__ = [
    "adaptive_curve_estimates",
    "adaptive_probe_count",
    "default_baseline_path",
    "describe_cost",
    "estimate_adaptive_sims",
    "format_duration",
    "load_baseline",
    "per_point_seconds",
]

#: Environment override for the record's location (tests, exotic CI).
BASELINE_ENV = "REPRO_BENCH_BASELINE"


def default_baseline_path() -> Optional[str]:
    """The newest committed ledger record (``BENCH_<n>.json``, highest
    *n*), or the ``REPRO_BENCH_BASELINE`` override; ``None`` when the
    records directory holds none."""
    override = os.environ.get(BASELINE_ENV)
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    records = os.path.normpath(os.path.join(
        here, os.pardir, os.pardir, os.pardir,
        "benchmarks", "ledger", "records",
    ))
    found = glob.glob(os.path.join(records, "BENCH_*.json"))
    # Shorter names first, so BENCH_9 sorts below BENCH_11.
    return max(found, key=lambda path: (len(path), path), default=None)


def load_baseline(path: Optional[str] = None) -> Optional[dict]:
    """Load a perf-ledger record; ``None`` when unavailable."""
    path = path if path is not None else default_baseline_path()
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def per_point_seconds(
    fidelity: Fidelity, baseline: dict
) -> Optional[float]:
    """Estimated seconds one simulation of *fidelity* costs.

    The fidelity's cycle count over the record's ``photonic_busy``
    simulation rate; ``None`` when the record lacks a usable one.

    >>> rate = {"sim_cycles_per_s": {"value": 14000.0}}
    >>> baseline = {"workloads": {"photonic_busy": {"metrics": rate}}}
    >>> per_point_seconds(Fidelity("x", 1400, 100, (0.5,)), baseline)
    0.1
    """
    try:
        metrics = baseline["workloads"]["photonic_busy"]["metrics"]
        rate = float(metrics["sim_cycles_per_s"]["value"])
    except (KeyError, TypeError, ValueError):
        return None
    if not rate > 0:
        return None
    return fidelity.total_cycles / rate


def format_duration(seconds: float) -> str:
    """Render seconds at dry-run precision (estimate-grade, not exact).

    >>> format_duration(0.4), format_duration(75), format_duration(4000)
    ('~0.4s', '~1m15s', '~1h06m')
    """
    if seconds < 1:
        return f"~{seconds:.1f}s"
    total = round(seconds)
    if total < 60:
        return f"~{total}s"
    if total < 3600:
        return f"~{total // 60}m{total % 60:02d}s"
    return f"~{total // 3600}h{total % 3600 // 60:02d}m"


def adaptive_probe_count(
    n: int, start: int, knee: int, model_seeded: bool = False
) -> int:
    """Distinct load points a knee search evaluates, replayed exactly.

    Runs :func:`repro.experiments.knee.knee_search` -- the policy
    :func:`~repro.experiments.knee.adaptive_knee_sweep` itself runs --
    on an *n*-point grid, assuming the true knee sits at grid index
    *knee* (the "reaches the plateau" predicate becomes ``i >= knee``),
    and counts the probes: the plateau probe at ``n`` plus every
    distinct point the search asks about. Deterministic, so dry runs
    can price an adaptive curve without simulating anything.

    >>> adaptive_probe_count(20, 16, 16)                     # analytic
    6
    >>> adaptive_probe_count(20, 16, 16, model_seeded=True)  # exact seed
    3
    """
    probed = {n}
    knee = min(max(knee, 1), n)

    def at_plateau(i: int) -> bool:
        probed.add(i)
        return i >= knee

    knee_search(n, start, model_seeded, at_plateau)
    return len(probed)


def adaptive_curve_estimates(spec, model=None) -> list:
    """Per-curve simulation estimates for an adaptive spec.

    One entry per :meth:`ExperimentSpec.curves` row, in curve order.
    Without a model every curve gets the spec's generic worst-case-ish
    estimate (:meth:`ExperimentSpec.points_per_curve`). With a fitted
    :class:`repro.ml.model.QoSModel`, curves inside the model's
    vocabulary are priced by replaying the model-seeded search under
    the assumption the prediction is right — the same policy the real
    sweep runs, so a trustworthy model makes the dry-run number sharp.
    """
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index

    max_fraction = (
        max(spec.load_fractions)
        if spec.load_fractions
        else max(spec.fidelity.load_fractions)
    )
    n = max(1, int(max_fraction / spec.resolution + 1e-9))
    fallback = spec.points_per_curve()
    estimates = []
    for arch, bw_index, pattern, scenario, _seed in spec.curves():
        count = fallback
        if model is not None:
            capacity = bandwidth_set_by_index(bw_index).aggregate_gbps
            predicted = model.predict_knee(
                arch,
                bw_index,
                pattern,
                scenario=scenario,
                resolution=spec.resolution,
                max_fraction=max_fraction,
                total_cycles=spec.fidelity.total_cycles,
            )
            if predicted is not None and capacity > 0:
                start = round(predicted / capacity / spec.resolution)
                start = min(max(start, 1), n - 1) if n > 1 else 1
                count = adaptive_probe_count(
                    n, start, start, model_seeded=True
                )
        estimates.append(count)
    return estimates


def estimate_adaptive_sims(spec, model=None) -> int:
    """Total estimated simulations for an adaptive spec (the sum of
    :func:`adaptive_curve_estimates`)."""
    return sum(adaptive_curve_estimates(spec, model))


def describe_cost(
    n_sims: int,
    fidelity: Fidelity,
    workers: int = 1,
    baseline: Optional[dict] = None,
) -> Optional[str]:
    """One printable cost line for a dry run; ``None`` when no
    baseline is available (the CLI then prints nothing extra). The
    serial cost is divided across *workers*: a sweep grid is
    embarrassingly parallel.

    >>> rate = {"sim_cycles_per_s": {"value": 14000.0}}
    >>> baseline = {"workloads": {"photonic_busy": {"metrics": rate}}}
    >>> describe_cost(8, Fidelity("x", 1400, 100, (0.5,)), workers=4,
    ...               baseline=baseline)
    'estimated cost: ~0.2s wall (8 sims x ~0.10s each across 4 workers)'
    """
    if baseline is None:
        baseline = load_baseline()
    if baseline is None:
        return None
    per_point = per_point_seconds(fidelity, baseline)
    if per_point is None:
        return None
    wall = n_sims * per_point / max(1, workers)
    return (
        f"estimated cost: {format_duration(wall)} wall "
        f"({n_sims} sims x ~{per_point:.2f}s each "
        f"across {max(1, workers)} workers)"
    )
