"""Dimension scores of a scenario schedule.

This module scores one
:class:`~repro.scenarios.schedule.ScenarioSchedule` along the four
dimensions of scenario space the ROADMAP names; :mod:`repro.ml.dataset`
turns the scores of a run's scenario into feature columns:

``burstiness``
    The largest load-waveform swing any phase carries: 0 for bare
    ``step`` scripts, the ramp span / MMPP on-off gap / sinusoid
    amplitude otherwise (composites sum their parts).
``hotspot_mobility``
    How often the script rebinds demand geometry: the count of explicit
    pattern bindings or hotspot-core moves after the first.
``fault_density``
    Scripted faults per 1000 cycles of the schedule's span.
``rule_activity``
    Closed-loop feedback rules attached across all phases.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.scenarios.schedule import (
    BurstLoad,
    LoadModulator,
    OffsetLoad,
    ProductLoad,
    RampLoad,
    ScenarioSchedule,
    SinusoidLoad,
)

#: The four scenario dimensions :func:`schedule_dimensions` scores.
DIMENSIONS: Tuple[str, ...] = (
    "burstiness",
    "hotspot_mobility",
    "fault_density",
    "rule_activity",
)


def modulator_swing(modulator: Optional[LoadModulator]) -> float:
    """Peak-to-trough amplitude of a modulator's load waveform.

    ``None``/``step`` score 0 (no time variation); composites
    (``product``/``offset``) aggregate their parts. The exact scale is
    not load-calibrated — it only needs to order scripts from flat to
    violently bursty, which is all a feature column needs.
    """
    if modulator is None:
        return 0.0
    if isinstance(modulator, RampLoad):
        return abs(modulator.end_scale - modulator.start_scale)
    if isinstance(modulator, BurstLoad):
        return abs(modulator.on_scale - modulator.off_scale)
    if isinstance(modulator, SinusoidLoad):
        return modulator.amplitude
    if isinstance(modulator, ProductLoad):
        return sum(modulator_swing(f) for f in modulator.factors)
    if isinstance(modulator, OffsetLoad):
        return modulator_swing(modulator.inner)
    return 0.0  # StepLoad and any swing-free future kind


def burstiness(schedule: ScenarioSchedule) -> float:
    """The schedule's largest per-phase waveform swing."""
    return max(modulator_swing(p.modulator) for p in schedule.phases)


def hotspot_mobility(schedule: ScenarioSchedule) -> float:
    """Count of demand-geometry moves after the first binding.

    A phase counts as a move when it explicitly rebinds a pattern or
    repositions the hotspot core; ``pattern=None`` continuation phases
    (including the slices :func:`~repro.scenarios.compose.overlay`
    emits) do not, matching the player's no-rebind semantics.
    """
    bindings: List[Tuple[str, Optional[int]]] = []
    for phase in schedule.phases:
        if phase.pattern is None:
            continue
        binding = (phase.pattern, phase.hotspot_core)
        if not bindings or bindings[-1] != binding:
            bindings.append(binding)
    return float(max(0, len(bindings) - 1))


def fault_density(schedule: ScenarioSchedule, total_cycles: int) -> float:
    """Scripted faults per 1000 cycles of the run."""
    if total_cycles <= 0:
        raise ValueError("total_cycles must be positive")
    n_faults = sum(len(p.faults) for p in schedule.phases)
    return 1000.0 * n_faults / total_cycles


def rule_activity(schedule: ScenarioSchedule) -> float:
    """Total feedback rules attached across the schedule's phases."""
    return float(sum(len(p.rules) for p in schedule.phases))


def schedule_dimensions(
    schedule: ScenarioSchedule, total_cycles: int
) -> Dict[str, float]:
    """All four dimension scores for one schedule."""
    return {
        "burstiness": burstiness(schedule),
        "hotspot_mobility": hotspot_mobility(schedule),
        "fault_density": fault_density(schedule, total_cycles),
        "rule_activity": rule_activity(schedule),
    }
