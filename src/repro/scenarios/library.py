"""The built-in scenario library.

Each entry is a *builder*: ``build(total_cycles) -> ScenarioSchedule``.
Builders are parameterised by the run length so one named scenario keeps
its shape across fidelities (phase boundaries scale with the schedule;
a ``quick`` 1 500-cycle run and a ``paper`` 10 000-cycle run both see
four drift phases, bursts of proportionate width, and so on). The sweep
layer ships only the *name* to worker processes and rebuilds the
schedule there, so a scenario is exactly as picklable as a string and
its identity is the rebuilt schedule's content fingerprint.

The library mirrors the idiom of the v2x exemplar (named scenario types
mixing bursts, diffusion and low-load phases over a fixed substrate),
instantiated for this reproduction's substrate:

========================  ==================================================
``steady``                today's behaviour, bit-for-bit (regression anchor)
``bursty_uniform``        uniform pattern under an MMPP on/off burst process
``diurnal``               sinusoidal load swing (day/night demand)
``hotspot_drift``         a hotspot that migrates across clusters mid-run
``app_phases``            the GPU app mix cycles through execution phases
``load_spike``            quiet -> overload spike -> ramped recovery
``fault_storm``           wavelength deaths, a token freeze/thaw, blackouts
``closed_loop_shedding``  feedback rules shed load when latency blows up
``storm_over_diurnal``    the fault storm overlaid on the diurnal swing
========================  ==================================================

Beyond the decorator there are two more ways in: concrete schedules —
combinator outputs, JSON files — register through
:func:`register_schedule` / :func:`load_scenario_file` and then behave
exactly like built-ins (sweepable, spec-validatable, store-keyed by
content fingerprint).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.api.base import Registry
from repro.scenarios.schedule import (
    BurstLoad,
    FaultEvent,
    FeedbackRule,
    Phase,
    RampLoad,
    ScenarioError,
    ScenarioSchedule,
    SinusoidLoad,
    StepLoad,
)

#: Registry of ``name -> (description, builder)`` (also exposed through
#: :mod:`repro.api.registry`). Unknown and duplicate names raise
#: :class:`~repro.scenarios.schedule.ScenarioError`.
scenarios = Registry("scenario", error=ScenarioError)


def register_scenario(
    name: str, description: str
) -> Callable[[Callable[[int], ScenarioSchedule]], Callable[[int], ScenarioSchedule]]:
    """Decorator adding a builder to the library registry."""

    def wrap(builder: Callable[[int], ScenarioSchedule]):
        scenarios.register(name, (description, builder))
        return builder

    return wrap


def scenario_names() -> Tuple[str, ...]:
    """Names of every registered scenario, sorted."""
    return tuple(sorted(scenarios.names()))


def describe_scenario(name: str) -> str:
    """One-line description of the named scenario.

    Raises :class:`ScenarioError` for unknown names.
    """
    return scenarios.get(name)[0]


def build_scenario(name: str, total_cycles: int) -> ScenarioSchedule:
    """Build the named scenario for a run of ``total_cycles`` cycles."""
    if total_cycles <= 0:
        raise ScenarioError("total_cycles must be positive")
    return scenarios.get(name)[1](total_cycles)


def register_schedule(
    schedule: ScenarioSchedule,
    description: Optional[str] = None,
    override: bool = False,
) -> ScenarioSchedule:
    """Register a *concrete* schedule under its own name.

    Combinator outputs and JSON-loaded scripts have fixed phase
    boundaries instead of a run-length parameter; the registered builder
    returns the schedule unchanged for any ``total_cycles`` (a run too
    short for the last phase still fails loudly in ``phase_bounds``).
    Once registered the scenario is a first-class citizen: usable on
    sweep axes, validated by ``ExperimentSpec``, content-fingerprinted
    into store keys.

    Name collisions resolve by *content*: re-registering a schedule
    whose fingerprint matches the existing registration is an idempotent
    no-op, while a different script under a taken name raises a
    :class:`ScenarioError` naming both fingerprints (pass
    ``override=True`` to replace deliberately). A schedule can therefore
    never silently shadow — or silently lose to — a same-named script
    with different content.

    Registration order does not matter to parallel sweeps: a scenario
    point's work item ships the built script, and
    ``sweep.execute_item`` registers it wherever the name is unknown —
    a pool child forked before this call, a remote fabric worker.
    """
    if not override and schedule.name in scenarios:
        probe_cycles = schedule.phases[-1].start_cycle + 1
        try:
            existing = scenarios.get(schedule.name)[1](probe_cycles)
        except Exception:
            existing = None
        existing_fp = (
            existing.fingerprint()
            if isinstance(existing, ScenarioSchedule)
            else None
        )
        if existing_fp == schedule.fingerprint():
            return schedule  # identical content: idempotent
        raise ScenarioError(
            f"scenario {schedule.name!r} is already registered with "
            f"different content (existing fingerprint {existing_fp}, "
            f"new {schedule.fingerprint()}); pass override=True to "
            "replace it"
        )
    scenarios.register(
        schedule.name,
        (description if description is not None else schedule.description,
         lambda _total_cycles: schedule),
        override=override,
    )
    return schedule


def load_scenario_file(
    path: str, register: bool = True, override: bool = False
) -> ScenarioSchedule:
    """Load a scenario script from a JSON file (optionally registering).

    The file holds one serialised :class:`ScenarioSchedule`
    (``schedule.save(path)`` writes the format; see docs/scenarios.md
    for the schema). Unknown fields, modulator kinds, fault actions and
    rule fields are rejected at load time. Re-loading a file whose
    schedule is already registered with an identical content fingerprint
    is a no-op, so specs and scripts can share scenario files freely; a
    *different* script under a taken name is still rejected — both
    behaviours are :func:`register_schedule`'s content-aware collision
    semantics.
    """
    schedule = ScenarioSchedule.load(path)
    if register:
        register_schedule(schedule, override=override)
    return schedule


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

@register_scenario(
    "steady",
    "Stationary baseline: the run's own (pattern, load), held constant. "
    "Reproduces a scenario-less run bit-for-bit.",
)
def _steady(total_cycles: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        "steady",
        (Phase(start_cycle=0),),
        description=describe_scenario("steady"),
    )


@register_scenario(
    "bursty_uniform",
    "Uniform-random traffic whose offered load follows a two-state MMPP: "
    "long quiet stretches (35% load) broken by bursts at 150%.",
)
def _bursty_uniform(total_cycles: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        "bursty_uniform",
        (
            Phase(
                start_cycle=0,
                pattern="uniform",
                modulator=BurstLoad(
                    on_scale=1.5,
                    off_scale=0.35,
                    mean_on_cycles=max(20.0, total_cycles / 12),
                    mean_off_cycles=max(40.0, total_cycles / 8),
                ),
            ),
        ),
        description=describe_scenario("bursty_uniform"),
    )


@register_scenario(
    "diurnal",
    "Sinusoidal demand swing around the offered load (two full periods "
    "per run) — the day/night cycle of a shared interconnect.",
)
def _diurnal(total_cycles: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        "diurnal",
        (
            Phase(
                start_cycle=0,
                modulator=SinusoidLoad(
                    base_scale=0.9,
                    amplitude=0.45,
                    period_cycles=max(50.0, total_cycles / 2),
                ),
            ),
        ),
        description=describe_scenario("diurnal"),
    )


@register_scenario(
    "hotspot_drift",
    "A 10% hotspot (over skewed-2 background) that migrates to a new "
    "cluster each quarter of the run while the heterogeneous placement "
    "stays fixed — the regime where DBA must chase demand.",
)
def _hotspot_drift(total_cycles: int) -> ScenarioSchedule:
    quarter = max(1, total_cycles // 4)
    # One hotspot core per quarter, each in a different cluster
    # (cores_per_cluster=4: cores 2, 18, 34, 50 live in clusters 0, 4,
    # 8, 12), diagonally across the chip.
    hotspot_cores = (2, 18, 34, 50)
    phases = tuple(
        Phase(
            start_cycle=i * quarter,
            pattern="skewed_hotspot1",
            hotspot_core=core,
            placement_key="drift",
        )
        for i, core in enumerate(hotspot_cores)
    )
    return ScenarioSchedule(
        "hotspot_drift", phases, description=describe_scenario("hotspot_drift")
    )


@register_scenario(
    "app_phases",
    "The real-application GPU mix moves through execution phases: "
    "balanced profile, then a memory-bound burst (MUM/BFS dominate), "
    "then a compute phase where the light apps pick up.",
)
def _app_phases(total_cycles: int) -> ScenarioSchedule:
    third = max(1, total_cycles // 3)
    return ScenarioSchedule(
        "app_phases",
        (
            Phase(start_cycle=0, pattern="real_app", placement_key="apps"),
            Phase(
                start_cycle=third,
                pattern="real_app",
                placement_key="apps",
                app_mix={"MUM": 1.6, "BFS": 1.5, "LPS": 0.5, "CP": 0.5, "RAY": 0.5},
            ),
            Phase(
                start_cycle=2 * third,
                pattern="real_app",
                placement_key="apps",
                app_mix={"MUM": 0.5, "BFS": 0.6, "LPS": 1.8, "CP": 1.6, "RAY": 1.6},
            ),
        ),
        description=describe_scenario("app_phases"),
    )


@register_scenario(
    "load_spike",
    "Quiet start (55% load), a sudden overload spike (160%), then a "
    "linear recovery ramp back to 80% — saturation entry and exit in "
    "one run.",
)
def _load_spike(total_cycles: int) -> ScenarioSchedule:
    third = max(1, total_cycles // 3)
    return ScenarioSchedule(
        "load_spike",
        (
            Phase(start_cycle=0, modulator=StepLoad(0.55)),
            Phase(start_cycle=third, modulator=StepLoad(1.6)),
            Phase(start_cycle=2 * third, modulator=RampLoad(1.6, 0.8)),
        ),
        description=describe_scenario("load_spike"),
    )


@register_scenario(
    "fault_storm",
    "Skewed-3 traffic through an escalating fault script: wavelength "
    "deaths on the two hottest-class clusters, a control-token freeze "
    "and thaw, and a receiver blackout — the robustness story end to "
    "end.",
)
def _fault_storm(total_cycles: int) -> ScenarioSchedule:
    half = max(1, total_cycles // 2)
    window = total_cycles - half
    return ScenarioSchedule(
        "fault_storm",
        (
            Phase(start_cycle=0, pattern="skewed3", placement_key="storm"),
            Phase(
                start_cycle=half,
                pattern=None,  # keep the phase-0 pattern and placement
                faults=(
                    FaultEvent(at_cycle=0, action="kill_wavelengths",
                               cluster=0, count=2),
                    FaultEvent(at_cycle=max(1, window // 8),
                               action="kill_wavelengths", cluster=1, count=2),
                    FaultEvent(at_cycle=max(2, window // 4),
                               action="freeze_token"),
                    FaultEvent(at_cycle=max(3, window // 2),
                               action="thaw_token"),
                    FaultEvent(at_cycle=max(4, (5 * window) // 8),
                               action="blackout_receiver", cluster=2,
                               duration_cycles=max(1, window // 8)),
                ),
            ),
        ),
        description=describe_scenario("fault_storm"),
    )


@register_scenario(
    "closed_loop_shedding",
    "Closed-loop congestion control: a calm phase, then an overload "
    "phase whose feedback rules watch windowed mean latency and shed "
    "offered load when it blows past threshold (restoring it once the "
    "network drains) — load shedding driven by observed state, not the "
    "script.",
)
def _closed_loop_shedding(total_cycles: int) -> ScenarioSchedule:
    third = max(1, total_cycles // 3)
    window = max(30, total_cycles // 10)
    check = max(10, total_cycles // 30)
    return ScenarioSchedule(
        "closed_loop_shedding",
        (
            Phase(start_cycle=0, load_scale=0.7),
            Phase(
                start_cycle=third,
                load_scale=1.7,
                rules=(
                    FeedbackRule(
                        metric="mean_latency_cycles",
                        threshold=260.0,
                        action="shed_load",
                        factor=0.55,
                        window_cycles=window,
                        check_every=check,
                        cooldown_cycles=2 * window,
                    ),
                    FeedbackRule(
                        metric="mean_latency_cycles",
                        threshold=190.0,
                        direction="below",
                        action="restore_load",
                        window_cycles=window,
                        check_every=check,
                        cooldown_cycles=2 * window,
                    ),
                ),
            ),
        ),
        description=describe_scenario("closed_loop_shedding"),
    )


@register_scenario(
    "storm_over_diurnal",
    "The fault-storm script overlaid on the diurnal load swing via the "
    "overlay combinator: wavelength deaths, a token freeze/thaw and a "
    "blackout strike while demand is swinging sinusoidally.",
)
def _storm_over_diurnal(total_cycles: int) -> ScenarioSchedule:
    from repro.scenarios.compose import overlay

    schedule = overlay(
        build_scenario("diurnal", total_cycles),
        build_scenario("fault_storm", total_cycles),
        name="storm_over_diurnal",
    )
    return ScenarioSchedule(
        schedule.name,
        schedule.phases,
        description=describe_scenario("storm_over_diurnal"),
    )


def scenario_catalog() -> List[Tuple[str, str]]:
    """``(name, description)`` rows for CLI/report listings."""
    return [(name, describe_scenario(name)) for name in scenario_names()]
