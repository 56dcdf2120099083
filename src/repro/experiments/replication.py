"""Multi-seed replication: mean +/- spread of saturation peaks across seeds.

Policy above the executors, like :mod:`repro.experiments.knee`: nothing
here runs a simulation. :func:`replication_summary` folds the per-curve
peaks :meth:`repro.api.session.Session.peaks` returns — whichever
executor, grid or adaptive search produced them — into one row per
curve family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from statistics import mean, pstdev
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import RunResult


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
    peaks: Dict[Tuple[str, int, str, Optional[str], int], RunResult],
) -> List[ReplicatedPeak]:
    """Fold per-seed *peaks* into mean +/- spread rows.

    *peaks* maps curve coordinates ``(arch, bw set, pattern, scenario,
    base seed)`` to that curve's peak, in spec axis order — the seed
    axis innermost, so each family's replicates are adjacent. The fold
    collapses the seed axis only: one row per (arch, bw set, pattern,
    scenario), in the order the families first appear.
    """
    out = []
    for (arch, bw_index, pattern, scenario), family in groupby(
        peaks.items(), key=lambda item: item[0][:4]
    ):
        entries = list(family)
        rs = [peak for _curve, peak in entries]
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
                seeds=tuple(curve[4] for curve, _peak in entries),
                scenario=scenario,
            )
        )
    return out
