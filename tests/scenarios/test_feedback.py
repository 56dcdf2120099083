"""Closed-loop feedback rules: validation, determinism, actions, energy.

The acceptance criteria covered here:

* a closed-loop scenario demonstrably triggers from *observed* latency,
  at trigger cycles that are a deterministic function of the seed;
* serial and parallel sweep execution of a closed-loop scenario are
  bitwise identical;
* per-phase energy windows tile the run's total dissipation.
"""

import pytest

from repro.arch.config import SystemConfig
from repro.api.session import Session
from repro.experiments.runner import Fidelity, build_arch
from repro.scenarios.player import ScenarioPlayer, initial_pattern
from repro.scenarios.schedule import (
    FeedbackRule,
    Phase,
    ScenarioError,
    ScenarioSchedule,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1

TINY = Fidelity("tiny-feedback", 700, 100, (0.3, 0.8))
run_one = Session().run_one

#: Latency threshold that a 1.8x-overloaded skewed3 run reliably
#: crosses inside a 700-cycle window (calibrated; see test bodies).
SHED = FeedbackRule(
    metric="mean_latency_cycles", threshold=150.0, action="shed_load",
    factor=0.5, window_cycles=100, check_every=50, cooldown_cycles=200,
)


def play(schedule, seed=5, offered=480.0, arch="dhetpnoc",
         pattern="skewed3", total=700, reset=100):
    """Drive *schedule* through a fresh simulation; returns the player."""
    config = SystemConfig(bw_set=BW_SET_1)
    streams = RandomStreams(seed)
    bound = initial_pattern(schedule, pattern, BW_SET_1, 16, 4, streams)
    sim = Simulator(seed=seed)
    noc = build_arch(arch, sim, config, bound)
    player = ScenarioPlayer(schedule, noc, bound, offered, streams,
                            total_cycles=total, clock_hz=config.clock_hz)
    noc.attach_generator(player)
    sim.run_with_reset(total, reset)
    noc.finalize()
    player.finish(total)
    return player


def overload_schedule(rules):
    return ScenarioSchedule(
        "overload-feedback", (Phase(start_cycle=0, load_scale=1.8,
                                    rules=tuple(rules)),)
    )


class TestRuleValidation:
    def test_unknown_metric_action_direction_rejected(self):
        with pytest.raises(ScenarioError, match="metric"):
            FeedbackRule(metric="p99_vibes", threshold=1.0, action="shed_load")
        with pytest.raises(ScenarioError, match="action"):
            FeedbackRule(metric="delivered_gbps", threshold=1.0,
                         action="panic")
        with pytest.raises(ScenarioError, match="direction"):
            FeedbackRule(metric="delivered_gbps", threshold=1.0,
                         action="shed_load", direction="sideways")

    def test_bounds_rejected(self):
        with pytest.raises(ScenarioError):
            FeedbackRule(metric="delivered_gbps", threshold=1.0,
                         action="shed_load", factor=-0.1)
        with pytest.raises(ScenarioError):
            FeedbackRule(metric="delivered_gbps", threshold=1.0,
                         action="shed_load", window_cycles=0)
        with pytest.raises(ScenarioError):
            FeedbackRule(metric="delivered_gbps", threshold=1.0,
                         action="shed_load", check_every=0)
        with pytest.raises(ScenarioError):
            FeedbackRule(metric="delivered_gbps", threshold=1.0,
                         action="shed_load", cooldown_cycles=-1)

    def test_triggered_direction(self):
        above = FeedbackRule(metric="delivered_gbps", threshold=10.0,
                             action="shed_load")
        below = FeedbackRule(metric="delivered_gbps", threshold=10.0,
                             action="shed_load", direction="below")
        assert above.triggered(11.0) and not above.triggered(9.0)
        assert below.triggered(9.0) and not below.triggered(11.0)

    def test_roundtrip_via_dict(self):
        assert FeedbackRule.from_dict(SHED.to_dict()) == SHED
        with pytest.raises(ScenarioError, match="unknown feedback rule"):
            FeedbackRule.from_dict({**SHED.to_dict(), "bogus": 1})


class TestClosedLoopTriggers:
    def test_latency_rule_fires_from_observed_state(self):
        """The headline behaviour: overload pushes windowed mean latency
        past threshold and the controller sheds load — no scripted cycle
        count anywhere."""
        player = play(overload_schedule([SHED]))
        assert player.rule_events, "overload never tripped the rule"
        event = player.rule_events[0]
        assert event.metric == "mean_latency_cycles"
        assert event.action == "shed_load"
        assert event.value > SHED.threshold
        # Evaluation happens on fixed cycle boundaries only.
        assert all(
            e.cycle % SHED.check_every == 0 for e in player.rule_events
        )
        (stats,) = player.phase_stats()
        assert stats.rules_fired == len(player.rule_events)

    def test_trigger_cycles_deterministic_per_seed(self):
        a = play(overload_schedule([SHED]), seed=7)
        b = play(overload_schedule([SHED]), seed=7)
        assert a.rule_events == b.rule_events
        assert a.phase_stats() == b.phase_stats()

    def test_shedding_reduces_offered_load(self):
        """After the controller fires, the generator injects at the shed
        scale: total offered packets drop versus the open-loop run."""
        closed = play(overload_schedule([SHED]))
        open_loop = play(overload_schedule([]))
        assert closed.rule_events
        assert closed.generator.packets_offered < open_loop.generator.packets_offered

    def test_advance_phase_jumps_early(self):
        """A rule can end a phase ahead of its scripted boundary; the
        next phase starts at the trigger cycle, not its start_cycle."""
        schedule = ScenarioSchedule(
            "advance-on-latency",
            (
                Phase(start_cycle=0, load_scale=1.8,
                      rules=(FeedbackRule(
                          metric="mean_latency_cycles",
                          threshold=SHED.threshold,
                          action="advance_phase", once=True,
                          window_cycles=100, check_every=50,
                      ),)),
                Phase(start_cycle=600, load_scale=0.4),
            ),
        )
        player = play(schedule)
        first, second = player.phase_stats()
        (event,) = player.rule_events
        assert event.action == "advance_phase"
        assert first.end_cycle == event.cycle < 600
        assert second.start_cycle == event.cycle
        assert second.end_cycle == 700

    def test_restore_load_resets_the_feedback_scale(self):
        # Restore re-fires at every boundary (cooldown 0), so whatever
        # the once-only shed multiplied in, the last evaluation undoes.
        restore = FeedbackRule(
            metric="delivered_gbps", threshold=-1.0, direction="above",
            action="restore_load", window_cycles=100, check_every=50,
            cooldown_cycles=0,
        )
        shed_once = FeedbackRule(
            metric="mean_latency_cycles", threshold=SHED.threshold,
            action="shed_load", factor=0.25, window_cycles=100,
            check_every=50, once=True,
        )
        player = play(overload_schedule([shed_once, restore]))
        actions = {e.action for e in player.rule_events}
        assert actions == {"shed_load", "restore_load"}
        assert player._feedback_scale == 1.0

    def test_coprime_check_cadences_both_respected(self):
        """Two rules with non-dividing cadences (30, 50): each must be
        evaluated on its own multiples, not only on their common ones
        (regression: a min-based snapshot cadence gated the 50-cycle
        rule onto multiples of 150)."""
        always = FeedbackRule(
            metric="delivered_gbps", threshold=-1.0, action="shed_load",
            factor=1.0, window_cycles=30, check_every=50,
            cooldown_cycles=0,
        )
        inert = FeedbackRule(
            metric="mean_latency_cycles", threshold=1e9,
            action="shed_load", window_cycles=30, check_every=30,
        )
        player = play(overload_schedule([always, inert]))
        cycles = [e.cycle for e in player.rule_events]
        assert cycles, "the always-true rule never fired"
        assert cycles[0] == 50
        assert all(c % 50 == 0 for c in cycles)

    def test_rules_consume_no_randomness(self):
        """A rule that never fires must not perturb the run: bitwise
        identical to the rule-less schedule (same seed)."""
        inert = FeedbackRule(
            metric="mean_latency_cycles", threshold=1e9,
            action="shed_load", window_cycles=100, check_every=50,
        )
        with_rule = play(overload_schedule([inert]))
        without = play(overload_schedule([]))
        assert not with_rule.rule_events
        assert [
            s.delivered_gbps for s in with_rule.phase_stats()
        ] == [s.delivered_gbps for s in without.phase_stats()]
        assert with_rule.generator.packets_offered == without.generator.packets_offered

    def test_serial_parallel_bitwise_identity(self):
        from repro.api.spec import ExperimentSpec
        from repro.experiments.sweep import SweepExecutor

        spec = ExperimentSpec(
            archs=("dhetpnoc",),
            bw_sets=(1,),
            patterns=("skewed3",),
            seeds=(1,),
            fidelity=Fidelity("tiny-closed", 1500, 200, (0.45, 0.62)),
            scenarios=("closed_loop_shedding",),
        )
        serial = SweepExecutor(workers=1).run(spec)
        with SweepExecutor(workers=2) as executor:
            parallel = executor.run(spec)
        assert serial == parallel
        # The closed-loop scenario actually closes the loop at this
        # fidelity (otherwise the identity above proves too little).
        assert any(
            p.rules_fired for r in serial for p in r.phases
        )


class TestEnergyWindows:
    @pytest.mark.parametrize("name", ["steady", "fault_storm",
                                      "closed_loop_shedding"])
    def test_phase_energy_tiles_the_run_total(self, name):
        """Per-phase pJ windows sum to the run's measured dissipation
        (EPM x delivered messages), final-phase settlement included."""
        result = run_one("dhetpnoc", BW_SET_1, "skewed3", 480.0, fidelity=TINY,
                         seed=5, scenario=name)
        total_pj = result.energy_per_message_pj * result.packets_delivered
        assert sum(p.energy_pj for p in result.phases) == pytest.approx(
            total_pj, rel=1e-9
        )

    def test_steady_phase_epm_matches_run_epm(self):
        result = run_one("dhetpnoc", BW_SET_1, "skewed3", 400.0, fidelity=TINY,
                         seed=5, scenario="steady")
        (phase,) = result.phases
        assert phase.energy_per_message_pj == pytest.approx(
            result.energy_per_message_pj, rel=1e-9
        )
        assert phase.energy_pj > 0

    def test_energy_rule_can_trigger(self):
        """Closed-loop rules can watch the energy axis too (the ROADMAP
        item): an EPM threshold below the observed EPM always fires once
        the window fills."""
        rule = FeedbackRule(
            metric="energy_per_message_pj", threshold=1.0,
            action="shed_load", window_cycles=100, check_every=50,
            once=True,
        )
        player = play(overload_schedule([rule]))
        assert player.rule_events
        assert player.rule_events[0].metric == "energy_per_message_pj"
        assert player.rule_events[0].value > 1.0
