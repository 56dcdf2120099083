"""Declarative, time-varying workload scripts.

A :class:`ScenarioSchedule` turns a simulation run from "(pattern, load)
held constant" into a scripted timeline of demand: an ordered list of
:class:`Phase`\\ s, each of which may rebind the traffic pattern, rescale
the offered load (optionally through a cycle-varying
:class:`LoadModulator`), shift the GPU application mix, and fire scripted
:class:`FaultEvent`\\ s. The schedule itself is pure data — no simulator
state, no randomness — so it can be

* hashed (:meth:`ScenarioSchedule.fingerprint`) into the result store's
  content key, making scenario identity part of a run's identity, and
* pickled by name across the sweep worker pool and rebuilt identically
  on the far side (see :mod:`repro.scenarios.library`).

All runtime behaviour (RNG draws for bursty modulators, pattern
rebinding, fault injection) lives in :class:`repro.scenarios.player.
ScenarioPlayer`; the only stateful objects here are the per-run
modulator *runtimes* returned by :meth:`LoadModulator.runtime`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.base import FieldTable, canonical_json
# Re-exported: it lives with the other metrics so that a run and the
# store can name it without loading the scenario engine.
from repro.sim.stats import PhaseStats as PhaseStats


class ScenarioError(ValueError):
    """Raised for invalid scenario scripts."""


# ---------------------------------------------------------------------------
# Load modulators
# ---------------------------------------------------------------------------

class LoadModulator:
    """Base class: a declarative description of a load-scale waveform.

    Subclasses are frozen dataclasses. :meth:`runtime` returns a fresh,
    possibly stateful ``(cycle_in_phase, phase_cycles) -> scale``
    callable for one run; stochastic modulators draw exclusively from
    the ``rng`` handed in (the player's dedicated ``scenario`` stream),
    never from the traffic stream, so adding a modulator can never
    perturb destination or injection draws.
    """

    kind = "base"

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Build the per-run ``(cycle_in_phase, phase_cycles) -> scale``
        callable; stochastic subclasses draw only from *rng*."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-able description (``kind`` + the dataclass fields)."""
        data = {"kind": self.kind}
        data.update(_MODULATOR_FIELDS[type(self)].to_dict(self))
        return data


@dataclass(frozen=True)
class StepLoad(LoadModulator):
    """Constant scale for the whole phase (the trivial modulator)."""

    scale: float = 1.0
    kind = "step"

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ScenarioError("step scale must be >= 0")

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Constant ``scale`` regardless of cycle."""
        scale = self.scale
        return lambda _t, _n: scale


@dataclass(frozen=True)
class RampLoad(LoadModulator):
    """Linear ramp from ``start_scale`` to ``end_scale`` over the phase."""

    start_scale: float
    end_scale: float
    kind = "ramp"

    def __post_init__(self) -> None:
        if self.start_scale < 0 or self.end_scale < 0:
            raise ScenarioError("ramp scales must be >= 0")

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Linear interpolation across the phase's cycle span."""
        lo, hi = self.start_scale, self.end_scale

        def scale(t: int, n: int) -> float:
            if n <= 1:
                return hi
            return lo + (hi - lo) * (t / (n - 1))

        return scale


@dataclass(frozen=True)
class BurstLoad(LoadModulator):
    """Two-state MMPP on/off burst process.

    The phase alternates between an *on* state (scale ``on_scale``) and
    an *off* state (scale ``off_scale``); dwell times are exponential
    with the given means, drawn from the scenario RNG stream. The first
    state is *off*, so a burst never lands on cycle 0 deterministically.
    """

    on_scale: float = 1.5
    off_scale: float = 0.3
    mean_on_cycles: float = 200.0
    mean_off_cycles: float = 400.0
    kind = "burst"

    def __post_init__(self) -> None:
        if min(self.on_scale, self.off_scale) < 0:
            raise ScenarioError("burst scales must be >= 0")
        if min(self.mean_on_cycles, self.mean_off_cycles) <= 0:
            raise ScenarioError("burst dwell means must be positive")

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Stateful on/off alternation with exponential dwell times."""
        state = {"on": False, "until": rng.expovariate(1.0 / self.mean_off_cycles)}

        def scale(t: int, _n: int) -> float:
            while t >= state["until"]:
                state["on"] = not state["on"]
                mean = self.mean_on_cycles if state["on"] else self.mean_off_cycles
                state["until"] += max(1.0, rng.expovariate(1.0 / mean))
            return self.on_scale if state["on"] else self.off_scale

        return scale


@dataclass(frozen=True)
class SinusoidLoad(LoadModulator):
    """Sinusoidal (diurnal-style) swing around a base scale."""

    base_scale: float = 1.0
    amplitude: float = 0.5
    period_cycles: float = 1000.0
    phase_frac: float = 0.0
    kind = "sinusoid"

    def __post_init__(self) -> None:
        if self.period_cycles <= 0:
            raise ScenarioError("sinusoid period must be positive")
        if self.amplitude < 0 or self.base_scale < 0:
            raise ScenarioError("sinusoid base/amplitude must be >= 0")

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Sinusoid around ``base_scale``, clamped at zero."""
        def scale(t: int, _n: int) -> float:
            angle = 2.0 * math.pi * (t / self.period_cycles + self.phase_frac)
            return max(0.0, self.base_scale + self.amplitude * math.sin(angle))

        return scale


@dataclass(frozen=True)
class ProductLoad(LoadModulator):
    """Product of several modulators (the ``overlay`` combinator's glue).

    Factor runtimes are instantiated in order, so a stochastic factor's
    scenario-RNG draws are deterministic given the factor order.
    """

    factors: Tuple[LoadModulator, ...] = ()
    kind = "product"

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ScenarioError("product needs at least one factor")
        for factor in self.factors:
            if not isinstance(factor, LoadModulator):
                raise ScenarioError(
                    f"product factors must be modulators, got {factor!r}"
                )

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Pointwise product of the factor runtimes."""
        runtimes = [factor.runtime(rng) for factor in self.factors]

        def scale(t: int, n: int) -> float:
            value = 1.0
            for rt in runtimes:
                value *= rt(t, n)
            return value

        return scale

    def to_dict(self) -> dict:
        """Nested JSON form (factors serialise recursively)."""
        return {
            "kind": self.kind,
            "factors": [factor.to_dict() for factor in self.factors],
        }


@dataclass(frozen=True)
class OffsetLoad(LoadModulator):
    """A modulator evaluated ``offset_cycles`` into its original phase.

    Combinators that split a phase at a foreign boundary wrap the
    phase's modulator in an offset so the waveform continues instead of
    restarting: the slice at in-phase cycle ``t`` evaluates the inner
    modulator at ``t + offset_cycles``. ``span_cycles`` pins the
    original phase's length for span-dependent modulators
    (:class:`RampLoad`); ``None`` passes the runtime span plus the
    offset, which is exact whenever the slice runs to the original
    phase's end.
    """

    inner: LoadModulator = field(default_factory=StepLoad)
    offset_cycles: int = 0
    span_cycles: Optional[int] = None
    kind = "offset"

    def __post_init__(self) -> None:
        if not isinstance(self.inner, LoadModulator):
            raise ScenarioError(
                f"offset inner must be a modulator, got {self.inner!r}"
            )
        if self.offset_cycles < 0:
            raise ScenarioError("offset_cycles must be >= 0")
        if self.span_cycles is not None and self.span_cycles <= 0:
            raise ScenarioError("span_cycles must be positive (or None)")

    def runtime(self, rng: random.Random) -> Callable[[int, int], float]:
        """Shifted view into the inner modulator's waveform."""
        inner_rt = self.inner.runtime(rng)
        offset, span = self.offset_cycles, self.span_cycles

        def scale(t: int, n: int) -> float:
            return inner_rt(t + offset, span if span is not None else n + offset)

        return scale

    def to_dict(self) -> dict:
        """Nested JSON form (the inner modulator serialises recursively)."""
        return {
            "kind": self.kind,
            "inner": self.inner.to_dict(),
            "offset_cycles": self.offset_cycles,
            "span_cycles": self.span_cycles,
        }


_MODULATOR_KINDS = {
    cls.kind: cls
    for cls in (StepLoad, RampLoad, BurstLoad, SinusoidLoad, ProductLoad,
                OffsetLoad)
}

#: Field tables of the flat modulators (fields are scalars), read by
#: :meth:`LoadModulator.to_dict`; the nested kinds serialise themselves.
_MODULATOR_FIELDS = {
    cls: FieldTable(cls) for cls in (StepLoad, RampLoad, BurstLoad, SinusoidLoad)
}


def modulator_from_dict(data: dict) -> LoadModulator:
    """Inverse of :meth:`LoadModulator.to_dict` (recursive for the
    composite kinds)."""
    if not isinstance(data, dict):
        raise ScenarioError(f"modulator must be a JSON object, not {data!r}")
    kind = data.get("kind")
    if kind not in _MODULATOR_KINDS:
        raise ScenarioError(f"unknown modulator kind {kind!r}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    try:
        if kind == "product":
            kwargs["factors"] = tuple(
                modulator_from_dict(f) for f in kwargs.get("factors", ())
            )
        elif kind == "offset":
            kwargs["inner"] = modulator_from_dict(kwargs.get("inner"))
        return _MODULATOR_KINDS[kind](**kwargs)
    except TypeError as exc:  # unknown/missing dataclass fields
        raise ScenarioError(f"bad {kind!r} modulator fields: {exc}") from None


# ---------------------------------------------------------------------------
# Fault events
# ---------------------------------------------------------------------------

#: Scripted actions the player can drive through the fault injector.
FAULT_ACTIONS = (
    "kill_wavelengths",
    "freeze_token",
    "thaw_token",
    "blackout_receiver",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault, fired ``at_cycle`` cycles into its phase.

    ``cluster``/``count``/``duration_cycles`` are interpreted per action
    (kill: cluster+count; blackout: cluster+duration; token freeze/thaw
    ignore all three).
    """

    at_cycle: int
    action: str
    cluster: int = 0
    count: int = 1
    duration_cycles: int = 0

    def __post_init__(self) -> None:
        if self.at_cycle < 0:
            raise ScenarioError("fault at_cycle must be >= 0")
        if self.action not in FAULT_ACTIONS:
            raise ScenarioError(
                f"unknown fault action {self.action!r}; use one of {FAULT_ACTIONS}"
            )
        if self.action == "blackout_receiver" and self.duration_cycles <= 0:
            raise ScenarioError("blackout needs a positive duration")
        if self.action == "kill_wavelengths" and self.count <= 0:
            raise ScenarioError("kill needs a positive count")

    def to_dict(self) -> dict:
        """JSON-able description of the fault event."""
        return {
            "at_cycle": self.at_cycle,
            "action": self.action,
            "cluster": self.cluster,
            "count": self.count,
            "duration_cycles": self.duration_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        return cls(**_known_fields(cls, data, "fault"))


def _known_fields(cls, data: dict, what: str) -> dict:
    """Validate *data*'s keys against *cls*'s dataclass fields."""
    import dataclasses

    if not isinstance(data, dict):
        raise ScenarioError(f"{what} must be a JSON object, not {data!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(
            f"unknown {what} fields {sorted(unknown)}; expected a subset of "
            f"{sorted(known)}"
        )
    return dict(data)


# ---------------------------------------------------------------------------
# Feedback rules (closed-loop phases)
# ---------------------------------------------------------------------------

#: Metrics a feedback rule can watch, computed over a rolling window of
#: the observed run state (see ``ScenarioPlayer`` for the exact window
#: accounting).
FEEDBACK_METRICS = (
    "mean_latency_cycles",
    "delivered_gbps",
    "acceptance_ratio",
    "energy_per_message_pj",
)

#: What a fired rule does: halve-style load shedding (multiply the
#: phase's feedback scale by ``factor``), undo all shedding, or jump to
#: the next scripted phase ahead of its ``start_cycle``.
FEEDBACK_ACTIONS = ("shed_load", "restore_load", "advance_phase")

#: Which side of the threshold trips the rule.
FEEDBACK_DIRECTIONS = ("above", "below")


@dataclass(frozen=True)
class FeedbackRule:
    """A closed-loop trigger: observed *metric* crosses *threshold* →
    *action*.

    Rules make a phase react to the run instead of the script: the
    player evaluates every rule on fixed in-phase cycle boundaries
    (multiples of ``check_every``) against a rolling window of
    ``window_cycles`` cycles of observed state, so triggering is a pure
    function of the simulated history — deterministic in the seed, and
    identical under serial and parallel sweep execution. A rule only
    fires once the phase has a full window behind it, and then at most
    once per ``cooldown_cycles`` (or once ever, with ``once``).
    """

    metric: str
    threshold: float
    action: str
    direction: str = "above"
    #: Feedback-scale multiplier applied by ``shed_load``.
    factor: float = 0.5
    #: Rolling-window length the metric is measured over.
    window_cycles: int = 100
    #: Evaluation cadence: in-phase cycle boundaries, multiples of this.
    check_every: int = 50
    #: Minimum cycles between two firings of the same rule.
    cooldown_cycles: int = 200
    #: Fire at most once per phase entry.
    once: bool = False

    def __post_init__(self) -> None:
        if self.metric not in FEEDBACK_METRICS:
            raise ScenarioError(
                f"unknown feedback metric {self.metric!r}; use one of "
                f"{FEEDBACK_METRICS}"
            )
        if self.action not in FEEDBACK_ACTIONS:
            raise ScenarioError(
                f"unknown feedback action {self.action!r}; use one of "
                f"{FEEDBACK_ACTIONS}"
            )
        if self.direction not in FEEDBACK_DIRECTIONS:
            raise ScenarioError(
                f"unknown feedback direction {self.direction!r}; use one of "
                f"{FEEDBACK_DIRECTIONS}"
            )
        if self.factor < 0:
            raise ScenarioError("feedback factor must be >= 0")
        if self.window_cycles <= 0 or self.check_every <= 0:
            raise ScenarioError("window_cycles/check_every must be positive")
        if self.cooldown_cycles < 0:
            raise ScenarioError("cooldown_cycles must be >= 0")

    def triggered(self, value: float) -> bool:
        """Whether an observed *value* trips this rule's threshold."""
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> dict:
        """JSON-able description of the rule."""
        return {
            "metric": self.metric,
            "threshold": self.threshold,
            "action": self.action,
            "direction": self.direction,
            "factor": self.factor,
            "window_cycles": self.window_cycles,
            "check_every": self.check_every,
            "cooldown_cycles": self.cooldown_cycles,
            "once": self.once,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeedbackRule":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        return cls(**_known_fields(cls, data, "feedback rule"))


# ---------------------------------------------------------------------------
# Phases and schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    """One segment of the scripted timeline.

    ``pattern=None`` keeps the run's base pattern (and, in phase 0, the
    base placement stream — the property that makes the ``steady``
    scenario bit-identical to a scenario-less run); ``hotspot_core`` and
    ``app_mix`` still apply in place to the kept pattern.
    ``placement_key`` pins the placement RNG of a rebound pattern:
    phases sharing a key shuffle clusters identically, so e.g. a
    drifting hotspot moves over a *fixed* heterogeneous placement
    instead of reshuffling the chip. Placement only happens when a
    pattern is (re)bound, so a key on a ``pattern=None`` phase after
    phase 0 has no effect.

    ``rules`` make the phase closed-loop: each :class:`FeedbackRule` is
    evaluated by the player against observed run state and can shed
    load or advance the schedule early (see the rule's docstring).
    """

    start_cycle: int
    pattern: Optional[str] = None
    load_scale: float = 1.0
    modulator: Optional[LoadModulator] = None
    app_mix: Optional[Dict[str, float]] = None
    faults: Tuple[FaultEvent, ...] = ()
    hotspot_core: Optional[int] = None
    placement_key: Optional[str] = None
    rules: Tuple[FeedbackRule, ...] = ()

    def __post_init__(self) -> None:
        if self.start_cycle < 0:
            raise ScenarioError("phase start_cycle must be >= 0")
        if self.load_scale < 0:
            raise ScenarioError("phase load_scale must be >= 0")
        if self.app_mix is not None:
            for app, factor in self.app_mix.items():
                if factor < 0:
                    raise ScenarioError(f"app_mix[{app!r}] must be >= 0")
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> dict:
        """JSON-able description of the phase (script + faults + rules).

        The ``rules`` key appears only when the phase has rules, so the
        content fingerprints (and store keys) of every pre-existing
        open-loop scenario are unchanged by the closed-loop extension.
        """
        data = {
            "start_cycle": self.start_cycle,
            "pattern": self.pattern,
            "load_scale": self.load_scale,
            "modulator": self.modulator.to_dict() if self.modulator else None,
            "app_mix": dict(sorted(self.app_mix.items())) if self.app_mix else None,
            "faults": [f.to_dict() for f in self.faults],
            "hotspot_core": self.hotspot_core,
            "placement_key": self.placement_key,
        }
        if self.rules:
            data["rules"] = [r.to_dict() for r in self.rules]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Phase":
        """Inverse of :meth:`to_dict`; unknown fields/kinds are rejected."""
        kwargs = _known_fields(cls, data, "phase")
        if kwargs.get("modulator") is not None:
            kwargs["modulator"] = modulator_from_dict(kwargs["modulator"])
        kwargs["faults"] = tuple(
            FaultEvent.from_dict(f) for f in kwargs.get("faults") or ()
        )
        kwargs["rules"] = tuple(
            FeedbackRule.from_dict(r) for r in kwargs.get("rules") or ()
        )
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSchedule:
    """An ordered, validated list of phases plus an identity."""

    name: str
    phases: Tuple[Phase, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.name:
            raise ScenarioError("schedule needs a name")
        if not self.phases:
            raise ScenarioError("schedule needs at least one phase")
        if self.phases[0].start_cycle != 0:
            raise ScenarioError("first phase must start at cycle 0")
        starts = [p.start_cycle for p in self.phases]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ScenarioError(
                f"phase start cycles must be strictly increasing, got {starts}"
            )

    def __len__(self) -> int:
        return len(self.phases)

    def phase_bounds(self, total_cycles: int) -> List[Tuple[int, int, Phase]]:
        """``(start, end, phase)`` triples clipped to ``total_cycles``."""
        if total_cycles <= self.phases[-1].start_cycle:
            raise ScenarioError(
                f"run of {total_cycles} cycles never reaches phase starting "
                f"at {self.phases[-1].start_cycle}"
            )
        bounds = []
        for i, phase in enumerate(self.phases):
            end = (
                self.phases[i + 1].start_cycle
                if i + 1 < len(self.phases)
                else total_cycles
            )
            for fault in phase.faults:
                if phase.start_cycle + fault.at_cycle >= end:
                    raise ScenarioError(
                        f"phase {i} fault {fault.action!r} at offset "
                        f"{fault.at_cycle} lands at/after the phase ends "
                        f"(cycle {end}); it would be silently dropped"
                    )
            bounds.append((phase.start_cycle, end, phase))
        return bounds

    def to_dict(self) -> dict:
        """JSON-able description of the whole schedule (hashed for the
        content fingerprint)."""
        return {
            "name": self.name,
            "description": self.description,
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSchedule":
        """Build a schedule from :meth:`to_dict` output (or a
        hand-written script). Unknown top-level or phase fields, unknown
        modulator kinds and unknown rule/fault kinds are all rejected —
        a typo fails at load time, not as a silently ignored key.
        """
        if not isinstance(data, dict):
            raise ScenarioError(
                f"schedule must be a JSON object, not {type(data).__name__}"
            )
        payload = dict(data)
        unknown = set(payload) - {"name", "description", "phases"}
        if unknown:
            raise ScenarioError(
                f"unknown schedule fields {sorted(unknown)}; expected "
                "name/description/phases"
            )
        phases = payload.get("phases")
        if not isinstance(phases, (list, tuple)):
            raise ScenarioError("schedule needs a 'phases' array")
        return cls(
            name=str(payload.get("name", "")),
            phases=tuple(Phase.from_dict(p) for p in phases),
            description=str(payload.get("description", "")),
        )

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON document (sorted keys, stable layout)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSchedule":
        """Parse a schedule from a JSON document (see :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from None
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the schedule to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ScenarioSchedule":
        """Read a schedule from a JSON file at *path*."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def fingerprint(self) -> str:
        """Stable content digest of the full script (store-key input)."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode()
        ).hexdigest()[:16]
