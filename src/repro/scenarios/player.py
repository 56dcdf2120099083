"""Runtime execution of a :class:`ScenarioSchedule` against a NoC.

The :class:`ScenarioPlayer` stands in for a plain
:class:`~repro.traffic.generator.TrafficGenerator` (same duck-typed
interface: ``tick`` / ``reset_stats`` / ``acceptance_ratio`` /
``is_idle``), so ``NoCArchitecture.attach_generator`` accepts it
unchanged. It drives one generator for the whole run — a phase that
changes the pattern rebinds it — so the generator's counters are the
run's totals. Each cycle it

1. crosses any due phase boundary — rebinding the traffic pattern,
   re-applying DBA demand, shifting the app mix,
2. evaluates the phase's closed-loop :class:`~repro.scenarios.schedule.
   FeedbackRule`\\ s on their cycle boundaries (shedding load or
   advancing the schedule from *observed* state — see
   :meth:`ScenarioPlayer._evaluate_feedback`),
3. fires scripted faults whose cycle has come,
4. applies the phase's load scale x feedback scale / modulator to the
   live generator,
5. delegates injection to the generator.

Determinism contract
--------------------
Every random draw goes through named :class:`~repro.sim.rng.RandomStreams`
streams derived from the run's master seed:

* ``traffic`` — injection coin flips and destination picks, shared with
  the legacy path and *never* consumed by scenario machinery;
* ``scenario`` — modulator state (MMPP dwell times) only;
* per-phase placement streams — fresh ``random.Random`` instances seeded
  from ``(master, "scenario-placement:<key>")``, so a phase's placement
  depends only on its key, never on execution history, and phases
  sharing a key place clusters identically.

Consequently a schedule whose first phase changes nothing (the
``steady`` scenario) drives the simulation bit-identically to a
scenario-less run, and serial/parallel sweep execution agree bitwise.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, List, Optional, Tuple

from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.stats import window_mean
from repro.scenarios.schedule import (
    FaultEvent,
    FeedbackRule,
    Phase,
    PhaseStats,
    ScenarioError,
    ScenarioSchedule,
)
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import TrafficPattern, pattern_by_name


@dataclasses.dataclass(frozen=True)
class RuleFiring:
    """One feedback-rule trigger observed during a run (audit trail)."""

    cycle: int
    phase_index: int
    rule_index: int
    metric: str
    value: float
    action: str


def _placement_rng(
    streams: RandomStreams, phase: Phase, phase_index: int
) -> random.Random:
    """The placement stream for one phase's pattern rebind.

    Phase 0 without an explicit key uses the run's shared ``placement``
    stream — the legacy path, preserving bit-identity for schedules that
    never rebind. Keyed (or later) phases get a fresh stream derived
    from the key alone, so placements are reproducible and key-sharing
    phases shuffle identically.
    """
    if phase_index == 0 and phase.placement_key is None:
        return streams.get("placement")
    key = phase.placement_key if phase.placement_key is not None else str(phase_index)
    return random.Random(derive_seed(streams.master_seed, f"scenario-placement:{key}"))


def build_phase_pattern(
    phase: Phase,
    phase_index: int,
    default_pattern: str,
    bw_set,
    n_clusters: int,
    cores_per_cluster: int,
    streams: RandomStreams,
) -> TrafficPattern:
    """Instantiate, specialise and bind the pattern a phase calls for."""
    name = phase.pattern if phase.pattern is not None else default_pattern
    pattern = pattern_by_name(name).bind(
        bw_set, n_clusters, cores_per_cluster, _placement_rng(streams, phase, phase_index)
    )
    _apply_in_place(pattern, phase, phase_index)
    return pattern


def _apply_in_place(pattern: TrafficPattern, phase: Phase, phase_index: int) -> None:
    """The phase's hotspot move and app-mix shift, made on *pattern*
    itself; a pattern without the knob is an authoring error."""
    if phase.hotspot_core is not None:
        if not hasattr(pattern, "hotspot_core"):
            raise ScenarioError(
                f"phase {phase_index}: pattern {pattern.name!r} has no hotspot to move"
            )
        pattern.hotspot_core = phase.hotspot_core
    if phase.app_mix is not None:
        if not hasattr(pattern, "scale_intensities"):
            raise ScenarioError(
                f"phase {phase_index}: pattern {pattern.name!r} has no app mix to shift"
            )
        pattern.scale_intensities(dict(phase.app_mix))


def initial_pattern(
    schedule: ScenarioSchedule,
    default_pattern: str,
    bw_set,
    n_clusters: int,
    cores_per_cluster: int,
    streams: RandomStreams,
) -> TrafficPattern:
    """Phase-0 pattern, built before the architecture (demand init)."""
    return build_phase_pattern(
        schedule.phases[0], 0, default_pattern, bw_set,
        n_clusters, cores_per_cluster, streams,
    )


class ScenarioPlayer:
    """Replays a :class:`ScenarioSchedule` as the run's traffic source.

    Parameters
    ----------
    schedule:
        The validated scenario script.
    noc:
        The :class:`~repro.arch.base.NoCArchitecture` under test;
        provides ``submit``, ``metrics``, ``energy`` and (for d-HetPNoC)
        ``apply_pattern_demand``/``controllers``.
    pattern:
        The already-bound phase-0 pattern (from :func:`initial_pattern`)
        — the same object the architecture's demand tables were
        initialised from.
    offered_gbps:
        Base aggregate offered bandwidth; phase scales multiply it.
    streams:
        The run's random streams (see module docstring).
    total_cycles:
        Length of the run; fixes the final phase's window end.
    """

    def __init__(
        self,
        schedule: ScenarioSchedule,
        noc,
        pattern: TrafficPattern,
        offered_gbps: float,
        streams: RandomStreams,
        total_cycles: int,
        clock_hz: float = 2.5e9,
    ) -> None:
        self.schedule = schedule
        self.noc = noc
        self.streams = streams
        self.clock_hz = clock_hz
        self.offered_gbps = offered_gbps
        self.default_pattern_name = pattern.name
        self._bounds = schedule.phase_bounds(total_cycles)
        self._scenario_rng = streams.get("scenario")
        self.pattern = pattern
        self.generator = TrafficGenerator.for_offered_gbps(
            pattern, offered_gbps, streams.get("traffic"), noc.submit, clock_hz
        )
        self.faults_fired = 0
        self.faults_skipped = 0
        self._injector = None
        self._phase_idx = 0
        self._current_cycle = 0
        self._ticked = False
        self._closed: List[PhaseStats] = []
        self._finished = False
        #: Audit trail of every feedback-rule trigger, in firing order.
        self.rule_events: List[RuleFiring] = []
        self._arm_phase(0, enter_cycle=0, rebind=False)

    # ------------------------------------------------------------------
    # Phase machinery
    # ------------------------------------------------------------------
    def _arm_phase(self, index: int, enter_cycle: int, rebind: bool) -> None:
        _start, end, phase = self._bounds[index]
        self._phase_idx = index
        # The phase is measured (and its modulator/fault offsets count)
        # from the cycle it is actually entered: the scheduled start on
        # a normal crossing, earlier when a feedback rule advanced it.
        self._phase_start = enter_cycle
        self._phase_end = end
        self._phase_faults: Tuple[FaultEvent, ...] = tuple(
            sorted(phase.faults, key=lambda f: f.at_cycle)
        )
        self._fault_cursor = 0
        self._phase_faults_fired = 0
        self._modulator_runtime: Optional[Callable[[int, int], float]] = (
            phase.modulator.runtime(self._scenario_rng) if phase.modulator else None
        )
        self._base_scale = phase.load_scale
        if rebind and (
            phase.pattern is not None
            or phase.app_mix is not None
            or phase.hotspot_core is not None
        ):
            self._rebind(phase, index)
        self._window = self._snapshot(enter_cycle)
        # Closed-loop state: a fresh feedback scale, per-rule firing
        # history and a rolling window of counter snapshots per phase.
        self._phase_rules: Tuple[FeedbackRule, ...] = phase.rules
        self._feedback_scale = 1.0
        self._phase_rules_fired = 0
        self._rule_last_fired: List[Optional[int]] = [None] * len(phase.rules)
        self._rule_fired_count: List[int] = [0] * len(phase.rules)
        if phase.rules:
            # Snapshot cadence must divide every rule's check_every —
            # gcd, not min: with rules at 30 and 50 a min cadence of 30
            # would gate the 50-cycle rule onto multiples of 150.
            self._rule_cadence = math.gcd(*(r.check_every for r in phase.rules))
            self._max_window = max(r.window_cycles for r in phase.rules)
            self._feedback_history: List[dict] = [self._window]

    def _rebind(self, phase: Phase, index: int) -> None:
        """Swap in the phase's pattern (and demand tables) mid-run."""
        if phase.pattern is not None:
            pattern = build_phase_pattern(
                phase, index, self.default_pattern_name,
                self.pattern.bw_set, self.pattern.n_clusters,
                self.pattern.cores_per_cluster, self.streams,
            )
        else:
            # Same pattern object; apply the phase's in-place tweaks.
            pattern = self.pattern
            _apply_in_place(pattern, phase, index)
        if hasattr(self.noc, "apply_pattern_demand"):
            # New demand tables take effect at upcoming token visits —
            # the thesis's task-remapping rule (section 3.2.1).
            self.noc.apply_pattern_demand(pattern)
        self.pattern = pattern
        self.generator.rebind(pattern)

    def _snapshot(self, cycle: int) -> dict:
        metrics = self.noc.metrics
        energy = self.noc.energy
        return {
            "cycle": cycle,
            "bits": metrics.bits_delivered,
            "packets": metrics.packets_delivered,
            "lat_count": metrics.latency.count,
            "lat_mean": metrics.latency.mean,
            "offered": self.generator.packets_offered,
            "refused": self.generator.packets_refused,
            "energy_pj": energy.breakdown.total_pj,
            "messages": energy.messages_delivered,
        }

    def _close_window(self, at_cycle: int) -> None:
        base = self._window
        metrics = self.noc.metrics
        measured = max(0, at_cycle - base["cycle"])
        bits = metrics.bits_delivered - base["bits"]
        gbps = (
            bits * self.clock_hz / measured / 1e9 if measured > 0 else 0.0
        )
        current = self._snapshot(at_cycle)
        energy_pj = current["energy_pj"] - base["energy_pj"]
        messages = current["messages"] - base["messages"]
        self._closed.append(
            PhaseStats(
                index=self._phase_idx,
                pattern=self.pattern.name,
                start_cycle=self._phase_start,
                end_cycle=at_cycle,
                measured_cycles=measured,
                packets_offered=current["offered"] - base["offered"],
                packets_refused=current["refused"] - base["refused"],
                packets_delivered=metrics.packets_delivered - base["packets"],
                bits_delivered=bits,
                delivered_gbps=gbps,
                mean_latency_cycles=window_mean(
                    base["lat_count"], base["lat_mean"],
                    metrics.latency.count, metrics.latency.mean,
                ),
                faults_fired=self._phase_faults_fired,
                energy_pj=energy_pj,
                energy_per_message_pj=(
                    energy_pj / messages if messages > 0 else 0.0
                ),
                rules_fired=self._phase_rules_fired,
            )
        )

    # ------------------------------------------------------------------
    # Closed-loop feedback
    # ------------------------------------------------------------------
    def _window_base(self, target_cycle: int) -> Optional[dict]:
        """Latest history snapshot taken at/before *target_cycle*."""
        base = None
        for snap in self._feedback_history:
            if snap["cycle"] <= target_cycle:
                base = snap
            else:
                break
        return base

    def _windowed_metric(
        self, metric: str, base: dict, current: dict
    ) -> Optional[float]:
        """The rule metric over ``[base, current)``; ``None`` when the
        window has no defining samples (no latency, nothing offered,
        nothing delivered) — an undefined metric never trips a rule."""
        cycles = current["cycle"] - base["cycle"]
        if cycles <= 0:
            return None
        if metric == "mean_latency_cycles":
            if current["lat_count"] <= base["lat_count"]:
                return None
            return window_mean(
                base["lat_count"], base["lat_mean"],
                current["lat_count"], current["lat_mean"],
            )
        if metric == "delivered_gbps":
            bits = current["bits"] - base["bits"]
            return bits * self.clock_hz / cycles / 1e9
        if metric == "acceptance_ratio":
            offered = current["offered"] - base["offered"]
            if offered <= 0:
                return None
            return (offered - (current["refused"] - base["refused"])) / offered
        # FEEDBACK_METRICS is closed; the rule validated its name.
        messages = current["messages"] - base["messages"]
        if messages <= 0:
            return None
        return (current["energy_pj"] - base["energy_pj"]) / messages

    def _evaluate_feedback(self, cycle: int) -> None:
        """Run the phase's rules on a fixed-cadence cycle boundary.

        Evaluation is a pure function of deterministic simulator
        counters on deterministic cycles — no RNG — so trigger cycles
        are reproducible per seed and identical under serial/parallel
        sweep execution. ``advance_phase`` closes the current window and
        arms the next phase at this cycle; remaining rules of the left
        phase are not evaluated.
        """
        offset = cycle - self._phase_start
        if offset <= 0 or offset % self._rule_cadence != 0:
            return
        current = self._snapshot(cycle)
        for index, rule in enumerate(self._phase_rules):
            if offset % rule.check_every != 0:
                continue
            if rule.once and self._rule_fired_count[index]:
                continue
            last = self._rule_last_fired[index]
            if last is not None and cycle - last < rule.cooldown_cycles:
                continue
            base = self._window_base(cycle - rule.window_cycles)
            if base is None:
                continue  # the phase is younger than the rule's window
            if rule.action == "restore_load" and self._feedback_scale == 1.0:
                continue  # nothing shed: firing would be a silent no-op
            value = self._windowed_metric(rule.metric, base, current)
            if value is None or not rule.triggered(value):
                continue
            self._rule_last_fired[index] = cycle
            self._rule_fired_count[index] += 1
            self._phase_rules_fired += 1
            self.rule_events.append(
                RuleFiring(cycle, self._phase_idx, index,
                           rule.metric, value, rule.action)
            )
            if rule.action == "shed_load":
                self._feedback_scale *= rule.factor
            elif rule.action == "restore_load":
                self._feedback_scale = 1.0
            else:  # advance_phase
                if self._phase_idx + 1 < len(self._bounds):
                    self._close_window(cycle)
                    self._arm_phase(
                        self._phase_idx + 1, enter_cycle=cycle, rebind=True
                    )
                return
        self._feedback_history.append(current)
        horizon = cycle - self._max_window
        while (
            len(self._feedback_history) > 1
            and self._feedback_history[1]["cycle"] <= horizon
        ):
            self._feedback_history.pop(0)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _apply_fault(self, event: FaultEvent) -> None:
        from repro.arch.faults import FaultError, FaultInjector

        needs_dba = event.action in ("kill_wavelengths", "freeze_token", "thaw_token")
        if needs_dba and not hasattr(self.noc, "controllers"):
            # Firefly has no DBA plane to break; the blackout still applies.
            self.faults_skipped += 1
            return
        if event.action == "blackout_receiver" and not hasattr(
            self.noc, "gateways"
        ):
            # No photonic receive plane either (the electrical mesh):
            # every scripted fault degrades to a counted skip.
            self.faults_skipped += 1
            return
        if self._injector is None:
            self._injector = FaultInjector(self.noc)
        try:
            if event.action == "kill_wavelengths":
                self._injector.kill_wavelengths(
                    event.cluster, event.count, clamp=True
                )
            elif event.action == "freeze_token":
                self._injector.freeze_token()
            elif event.action == "thaw_token":
                self._injector.thaw_token()
            elif event.action == "blackout_receiver":
                self._injector.blackout_receiver(
                    event.cluster, event.duration_cycles
                )
        except FaultError:
            self.faults_skipped += 1
            return
        self.faults_fired += 1
        self._phase_faults_fired += 1

    # ------------------------------------------------------------------
    # Generator interface (duck-typed against TrafficGenerator)
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance the scenario to *cycle*: cross phase boundaries
        (closing metric windows, rebinding patterns), evaluate feedback
        rules on their cycle boundaries, fire due faults, then tick the
        underlying generator at the phase's scaled load."""
        self._current_cycle = cycle
        self._ticked = True
        while (
            self._phase_idx + 1 < len(self._bounds)
            and cycle >= self._bounds[self._phase_idx + 1][0]
        ):
            self._close_window(cycle)
            self._arm_phase(self._phase_idx + 1, enter_cycle=cycle, rebind=True)
        if self._phase_rules:
            self._evaluate_feedback(cycle)
        offset = cycle - self._phase_start
        while (
            self._fault_cursor < len(self._phase_faults)
            and self._phase_faults[self._fault_cursor].at_cycle <= offset
        ):
            self._apply_fault(self._phase_faults[self._fault_cursor])
            self._fault_cursor += 1
        scale = self._base_scale * self._feedback_scale
        if self._modulator_runtime is not None:
            scale *= self._modulator_runtime(
                offset, self._phase_end - self._phase_start
            )
        self.generator.set_scale(scale)
        self.generator.tick(cycle)

    def is_idle(self) -> bool:
        """Always active: the player advances phase/feedback/fault state
        on every cycle boundary, and FeedbackRule evaluation cycles are
        part of the determinism contract — skipping even a provably
        injection-free cycle could shift a rule's trigger cycle."""
        return False

    def reset_stats(self) -> None:
        """Warm-up reset: drop counters and re-base the open window.

        Phase windows that already closed lie entirely inside the
        discarded warm-up, so their measurements are zeroed too (the
        phase boundaries and fault history are kept): per-phase stats
        always tile the run's *measured* totals.
        """
        self.generator.reset_stats()
        self._closed = [
            dataclasses.replace(
                stats,
                measured_cycles=0,
                packets_offered=0,
                packets_refused=0,
                packets_delivered=0,
                bits_delivered=0,
                delivered_gbps=0.0,
                mean_latency_cycles=0.0,
                energy_pj=0.0,
                energy_per_message_pj=0.0,
            )
            for stats in self._closed
        ]
        # The reset fires after the last warm-up cycle's tick — or, for
        # a zero-cycle warm-up, before the first tick ever runs.
        self._window = self._snapshot(
            self._current_cycle + 1 if self._ticked else 0
        )
        # The reset cleared the counters the feedback snapshots were cut
        # from; stale snapshots would read as negative windows, so the
        # rolling history re-bases alongside the metric window.
        if self._phase_rules:
            self._feedback_history = [self._window]

    def finish(self, end_cycle: Optional[int] = None) -> None:
        """Close the final phase window (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._close_window(
            end_cycle if end_cycle is not None else self._phase_end
        )

    def phase_stats(self) -> Tuple[PhaseStats, ...]:
        """Per-phase metric windows; only valid after :meth:`finish`."""
        if not self._finished:
            raise ScenarioError("call finish() before reading phase stats")
        return tuple(self._closed)

    @property
    def acceptance_ratio(self) -> float:
        return self.generator.acceptance_ratio
