"""Property-based generation of valid :class:`ScenarioSchedule`\\ s.

Nine hand-written library scenarios pin what we *thought* to test; this
module turns the scenario space itself into a generator so the player,
store and engine invariants can be fuzzed across it. Two entry points
share one generation core:

* :func:`sample_schedule` — a plain, seed-deterministic sampler
  (``random.Random`` underneath, no hypothesis dependency), used by the
  ``scenarios fuzz`` CLI command and the differential runner. The
  same ``(seed, total_cycles, max_phases)`` always yields a schedule
  with the same content fingerprint, so every fuzz finding names the
  exact seed that reproduces it.
* :func:`schedules` (plus the component strategies :func:`modulators`,
  :func:`fault_events`, :func:`feedback_rules`) — hypothesis strategies
  over the same core, driven through ``st.randoms()`` so hypothesis
  owns the choice sequence: examples shrink, replay from the printed
  blob under the derandomized ``ci`` profile, and stay
  fingerprint-stable for a given choice sequence.

Every emitted schedule is *valid by construction*: it passes the
dataclasses' ``__post_init__`` validation and
``ScenarioSchedule.phase_bounds(total_cycles)`` for the ``total_cycles``
it was generated for — phase starts are strictly increasing from 0 and
every scripted fault lands strictly before its phase ends. Generated
schedules may also be composition stacks: with some probability the
sampler routes through the :func:`~repro.scenarios.compose.sequence` or
:func:`~repro.scenarios.compose.overlay` combinators, so the composed
phase-slicing machinery (offset-wrapped modulators, fault re-anchoring,
rule concatenation) is inside the fuzzed space too.

Determinism contract (doctest-checked)::

    >>> from repro.scenarios.generate import sample_schedule
    >>> a = sample_schedule(7, total_cycles=900)
    >>> b = sample_schedule(7, total_cycles=900)
    >>> a.fingerprint() == b.fingerprint()
    True
    >>> a.phase_bounds(900)[-1][1]
    900
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.api.base import check_int
from repro.scenarios.compose import overlay, sequence
from repro.scenarios.schedule import (
    FAULT_ACTIONS,
    FEEDBACK_ACTIONS,
    FEEDBACK_DIRECTIONS,
    FEEDBACK_METRICS,
    BurstLoad,
    FaultEvent,
    FeedbackRule,
    LoadModulator,
    OffsetLoad,
    Phase,
    ProductLoad,
    RampLoad,
    ScenarioError,
    ScenarioSchedule,
    SinusoidLoad,
    StepLoad,
)

#: Pattern names a generated phase may rebind to. Mirrors table 3-2's
#: families (uniform/permutation/skewed) plus the hotspot case studies
#: and the real-application mix; ``None`` (keep the run's base pattern)
#: is drawn separately and more often.
PATTERN_PALETTE: Tuple[str, ...] = (
    "uniform",
    "transpose",
    "bit_complement",
    "real_app",
    "skewed1",
    "skewed2",
    "skewed3",
    "skewed_hotspot1",
    "skewed_hotspot2",
)

#: GPU application names of the ``real_app`` profile (table 3-2), the
#: keys a generated ``app_mix`` rescales.
APP_NAMES: Tuple[str, ...] = ("MUM", "BFS", "LPS", "CP", "RAY")

#: Default chip geometry the generator assumes (``SystemConfig``
#: defaults: 16 clusters x 4 cores).
N_CLUSTERS = 16
N_CORES = 64

#: Smallest run the generator will script. Shorter runs leave no room
#: for a composition cut plus a measurable second half.
MIN_TOTAL_CYCLES = 8


def _st():
    """The ``hypothesis.strategies`` module, imported lazily.

    Hypothesis is a dev-only dependency: the CLI/differential paths use
    :func:`sample_schedule` and never touch it. Strategy entry points
    raise a :class:`ScenarioError` with install guidance when it is
    missing instead of breaking ``import repro.scenarios.generate``.
    """
    try:
        from hypothesis import strategies as st
    except ImportError:  # pragma: no cover - exercised only without dev deps
        raise ScenarioError(
            "hypothesis is required for the strategy entry points of "
            "repro.scenarios.generate (pip install hypothesis); the "
            "seed-based sample_schedule() works without it"
        ) from None
    return st


# ---------------------------------------------------------------------------
# Generation core (everything draws from one random.Random-compatible rng)
# ---------------------------------------------------------------------------

def sample_modulator(rng: random.Random, depth: int = 0) -> LoadModulator:
    """One random load modulator; composite kinds only at ``depth`` 0.

    Scalars are rounded to a few decimals so generated scripts stay
    readable; floats round-trip JSON exactly either way, so rounding is
    cosmetic, not a fingerprint-stability requirement.
    """
    kinds = ["step", "ramp", "burst", "sinusoid"]
    if depth == 0:
        kinds += ["product", "offset"]
    kind = rng.choice(kinds)
    if kind == "step":
        return StepLoad(round(rng.uniform(0.0, 2.0), 3))
    if kind == "ramp":
        return RampLoad(
            round(rng.uniform(0.0, 2.0), 3), round(rng.uniform(0.0, 2.0), 3)
        )
    if kind == "burst":
        return BurstLoad(
            on_scale=round(rng.uniform(1.0, 2.0), 3),
            off_scale=round(rng.uniform(0.0, 0.8), 3),
            mean_on_cycles=round(rng.uniform(20.0, 400.0), 1),
            mean_off_cycles=round(rng.uniform(20.0, 600.0), 1),
        )
    if kind == "sinusoid":
        return SinusoidLoad(
            base_scale=round(rng.uniform(0.4, 1.4), 3),
            amplitude=round(rng.uniform(0.0, 0.8), 3),
            period_cycles=round(rng.uniform(50.0, 1200.0), 1),
            phase_frac=round(rng.random(), 3),
        )
    if kind == "product":
        return ProductLoad(
            tuple(
                sample_modulator(rng, depth + 1)
                for _ in range(rng.randint(2, 3))
            )
        )
    # offset: a shifted view into an inner waveform, the shape the
    # compose combinators emit at sliced boundaries.
    span = rng.randrange(1, 1000) if rng.random() < 0.5 else None
    return OffsetLoad(
        sample_modulator(rng, depth + 1),
        offset_cycles=rng.randrange(0, 500),
        span_cycles=span,
    )


def sample_fault(rng: random.Random, span_cycles: int) -> FaultEvent:
    """One random fault landing strictly inside a phase of *span_cycles*."""
    if span_cycles < 1:
        raise ScenarioError("fault needs a phase span of at least 1 cycle")
    action = rng.choice(FAULT_ACTIONS)
    return FaultEvent(
        at_cycle=rng.randrange(span_cycles),
        action=action,
        cluster=rng.randrange(N_CLUSTERS),
        count=rng.randint(1, 3),
        duration_cycles=(
            rng.randint(1, max(1, min(span_cycles, 200)))
            if action == "blackout_receiver"
            else 0
        ),
    )


def sample_rule(rng: random.Random) -> FeedbackRule:
    """One random feedback rule with a plausible per-metric threshold."""
    metric = rng.choice(FEEDBACK_METRICS)
    thresholds = {
        "mean_latency_cycles": (50.0, 400.0),
        "delivered_gbps": (50.0, 600.0),
        "acceptance_ratio": (0.3, 1.0),
        "energy_per_message_pj": (500.0, 50_000.0),
    }
    lo, hi = thresholds[metric]
    return FeedbackRule(
        metric=metric,
        threshold=round(rng.uniform(lo, hi), 3),
        action=rng.choice(FEEDBACK_ACTIONS),
        direction=rng.choice(FEEDBACK_DIRECTIONS),
        factor=round(rng.uniform(0.3, 0.9), 2),
        window_cycles=rng.randrange(20, 200),
        check_every=rng.randrange(10, 100),
        cooldown_cycles=rng.randrange(0, 400),
        once=rng.random() < 0.3,
    )


def sample_phase(rng: random.Random, start_cycle: int, span_cycles: int) -> Phase:
    """One random phase covering ``[start_cycle, start_cycle + span)``."""
    pattern: Optional[str] = None
    if rng.random() < 0.55:
        pattern = rng.choice(PATTERN_PALETTE)
    hotspot_core = None
    if pattern in ("skewed_hotspot1", "skewed_hotspot2") and rng.random() < 0.7:
        hotspot_core = rng.randrange(N_CORES)
    app_mix = None
    if pattern == "real_app" and rng.random() < 0.5:
        apps = rng.sample(APP_NAMES, rng.randint(1, 3))
        app_mix = {app: round(rng.uniform(0.3, 1.8), 2) for app in apps}
    load_scale = 1.0
    if rng.random() < 0.4:
        load_scale = round(rng.uniform(0.3, 1.7), 3)
    modulator = sample_modulator(rng) if rng.random() < 0.6 else None
    n_faults = rng.choice((0, 0, 0, 1, 1, 2))
    faults = tuple(sample_fault(rng, span_cycles) for _ in range(n_faults))
    n_rules = rng.choice((0, 0, 0, 1, 1, 2))
    rules = tuple(sample_rule(rng) for _ in range(n_rules))
    return Phase(
        start_cycle=start_cycle,
        pattern=pattern,
        load_scale=load_scale,
        modulator=modulator,
        app_mix=app_mix,
        faults=faults,
        hotspot_core=hotspot_core,
        placement_key=("fuzz-fixed" if rng.random() < 0.3 else None),
        rules=rules,
    )


def _drawn_name(rng: random.Random) -> str:
    """A collision-resistant schedule name drawn from the rng itself, so
    it is deterministic per choice sequence."""
    return f"fuzz_{rng.getrandbits(48):012x}"


def _sample_flat(
    rng: random.Random,
    total_cycles: int,
    max_phases: int,
    name: Optional[str] = None,
) -> ScenarioSchedule:
    """A composition-free schedule with 1..max_phases random phases."""
    if name is None:
        name = _drawn_name(rng)
    n = rng.randint(1, max(1, max_phases))
    n = min(n, total_cycles)  # need n distinct starts in [0, total)
    cuts = sorted(rng.sample(range(1, total_cycles), n - 1)) if n > 1 else []
    starts = [0] + cuts
    ends = cuts + [total_cycles]
    phases = tuple(
        sample_phase(rng, s, e - s) for s, e in zip(starts, ends)
    )
    return ScenarioSchedule(
        name, phases, description="generated by repro.scenarios.generate"
    )


def sample_schedule_with_rng(
    rng: random.Random,
    total_cycles: int = 1500,
    max_phases: int = 4,
    name: Optional[str] = None,
    allow_composition: bool = True,
) -> ScenarioSchedule:
    """Generation core: one valid schedule drawn entirely from *rng*.

    *rng* only needs the ``random.Random`` surface (``random``,
    ``randint``, ``randrange``, ``choice``, ``sample``, ``uniform``,
    ``getrandbits``), which is exactly what hypothesis's
    ``st.randoms(use_true_random=False)`` provides — the bridge that
    lets the seed sampler and the hypothesis strategies share this one
    implementation.

    With ``allow_composition`` (~30% of draws) the schedule is built by
    the :func:`~repro.scenarios.compose.sequence` or
    :func:`~repro.scenarios.compose.overlay` combinators over two
    simpler generated schedules, sized so the result still validates
    for *total_cycles*.
    """
    check_int("total_cycles", total_cycles, MIN_TOTAL_CYCLES, error=ScenarioError)
    if name is None:
        name = _drawn_name(rng)
    if allow_composition and rng.random() < 0.30:
        if rng.random() < 0.5:
            cut = rng.randrange(total_cycles // 4, (3 * total_cycles) // 4)
            first = _sample_flat(rng, total_cycles, max_phases)
            second = _sample_flat(rng, total_cycles - cut, max_phases)
            return sequence(first, second, cut, name=name)
        base = _sample_flat(rng, total_cycles, max_phases)
        modulation = _sample_flat(rng, total_cycles, max_phases)
        return overlay(base, modulation, name=name)
    return _sample_flat(rng, total_cycles, max_phases, name=name)


def sample_schedule(
    seed: int,
    total_cycles: int = 1500,
    max_phases: int = 4,
    allow_composition: bool = True,
) -> ScenarioSchedule:
    """A valid random schedule, a pure function of its arguments.

    The schedule's name embeds *seed* and *total_cycles*
    (``fuzz_s<seed>_c<total_cycles>``), so re-sampling the same point
    re-registers idempotently (same name, same fingerprint) while
    different points never collide in the scenario registry.
    """
    return sample_schedule_with_rng(
        random.Random(seed),
        total_cycles=total_cycles,
        max_phases=max_phases,
        name=f"fuzz_s{seed}_c{total_cycles}",
        allow_composition=allow_composition,
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies (thin bridges over the same core)
# ---------------------------------------------------------------------------

def modulators(max_depth: int = 1):
    """Strategy over all modulator kinds (nested composites included)."""
    st = _st()
    depth = 0 if max_depth > 0 else 1
    return st.randoms(use_true_random=False).map(
        lambda rng: sample_modulator(rng, depth=depth)
    )


def fault_events(span_cycles: int = 500):
    """Strategy over fault events landing inside *span_cycles*."""
    st = _st()
    return st.randoms(use_true_random=False).map(
        lambda rng: sample_fault(rng, span_cycles)
    )


def feedback_rules():
    """Strategy over closed-loop feedback rules."""
    st = _st()
    return st.randoms(use_true_random=False).map(sample_rule)


def phases(total_cycles: int = 1500):
    """Strategy over single phases starting at cycle 0."""
    st = _st()
    return st.randoms(use_true_random=False).map(
        lambda rng: sample_phase(rng, 0, total_cycles)
    )


def schedules(
    total_cycles: int = 1500,
    max_phases: int = 4,
    allow_composition: bool = True,
):
    """Strategy over whole valid schedules (composition stacks included).

    Examples are fingerprint-stable per drawn choice sequence: the
    schedule (name included) is a pure function of the hypothesis-owned
    ``Random``, so a failure replayed from the printed blob rebuilds the
    identical script.
    """
    st = _st()
    return st.randoms(use_true_random=False).map(
        lambda rng: sample_schedule_with_rng(
            rng,
            total_cycles=total_cycles,
            max_phases=max_phases,
            allow_composition=allow_composition,
        )
    )
