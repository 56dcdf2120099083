"""Runtime behaviour of the scenario player.

The critical contracts:

* ``steady`` reproduces a scenario-less run **bit for bit** (acceptance
  criterion), so the scenario layer provably adds zero perturbation to
  the legacy path;
* every scenario run is deterministic in its seed;
* per-phase metric windows tile the measurement: phase packet counts sum
  to the run's totals.
"""

import dataclasses

import pytest

from repro.api.session import Session
from repro.experiments.runner import Fidelity
from repro.scenarios.library import build_scenario, scenario_names
from repro.scenarios.schedule import ScenarioError
from repro.traffic.bandwidth_sets import BW_SET_1

TINY = Fidelity("tiny-scenario", 700, 100, (0.3, 0.8))
run_one = Session().run_one


def _strip(result):
    """Drop the scenario-only fields for metric comparison."""
    return dataclasses.replace(result, scenario=None, phases=())


class TestSteadyBitIdentity:
    @pytest.mark.parametrize("arch", ["firefly", "dhetpnoc"])
    @pytest.mark.parametrize("pattern", ["uniform", "skewed3"])
    def test_steady_equals_scenarioless_run(self, arch, pattern):
        base = run_one(arch, BW_SET_1, pattern, 320.0, fidelity=TINY, seed=11)
        steady = run_one(
            arch, BW_SET_1, pattern, 320.0, fidelity=TINY, seed=11, scenario="steady"
        )
        assert steady.scenario == "steady"
        assert len(steady.phases) == 1
        assert _strip(steady) == base

    def test_steady_peak_metrics_match(self):
        """The acceptance criterion verbatim: same peak metrics as a
        scenario-less sweep with the same seed."""
        from repro.experiments.runner import peak_of
        from repro.api.spec import ExperimentSpec
        from repro.experiments.sweep import SweepExecutor

        def peak(scenario):
            # derive_seeds=False: derived seeds fold the scenario name
            # into the curve seed (decorrelated replicates by design),
            # so "same seed" here means the verbatim-seed mode.
            spec = ExperimentSpec(
                archs=("dhetpnoc",), bw_sets=(1,),
                patterns=("skewed3",), seeds=(7,), fidelity=TINY,
                scenarios=(scenario,), derive_seeds=False,
            )
            return peak_of(SweepExecutor().run(spec))

        assert _strip(peak("steady")) == peak(None)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_same_seed_same_result(self, name):
        kwargs = dict(fidelity=TINY, seed=5, scenario=name)
        a = run_one("dhetpnoc", BW_SET_1, "skewed2", 300.0, **kwargs)
        b = run_one("dhetpnoc", BW_SET_1, "skewed2", 300.0, **kwargs)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_one("dhetpnoc", BW_SET_1, "uniform", 300.0, fidelity=TINY, seed=1,
                    scenario="bursty_uniform")
        b = run_one("dhetpnoc", BW_SET_1, "uniform", 300.0, fidelity=TINY, seed=2,
                    scenario="bursty_uniform")
        assert a != b


class TestPhaseWindows:
    @pytest.mark.parametrize(
        "name", ["hotspot_drift", "load_spike", "app_phases", "fault_storm"]
    )
    def test_phase_packets_tile_the_run(self, name):
        result = run_one("dhetpnoc", BW_SET_1, "skewed3", 320.0, fidelity=TINY,
                         seed=5, scenario=name)
        schedule = build_scenario(name, TINY.total_cycles)
        assert len(result.phases) == len(schedule)
        assert (
            sum(p.packets_delivered for p in result.phases)
            == result.packets_delivered
        )
        assert all(p.measured_cycles >= 0 for p in result.phases)
        assert result.phases[-1].end_cycle == TINY.total_cycles

    def test_windows_exclude_warmup(self):
        """The phase spanning the reset reports only its post-reset
        window, consistent with the run-level metrics."""
        result = run_one("dhetpnoc", BW_SET_1, "skewed3", 320.0, fidelity=TINY,
                         seed=5, scenario="steady")
        (phase,) = result.phases
        assert phase.measured_cycles == TINY.total_cycles - TINY.reset_cycles
        assert phase.delivered_gbps == pytest.approx(result.delivered_gbps)
        assert phase.mean_latency_cycles == pytest.approx(
            result.mean_latency_cycles
        )

    def test_phases_inside_warmup_report_zeroed_windows(self):
        """A phase that closes before the warm-up reset measured only
        discarded traffic; its window must read zero so phase stats
        still tile the run's measured totals."""
        from repro.arch.config import SystemConfig
        from repro.arch.firefly import FireflyNoC
        from repro.scenarios.player import ScenarioPlayer, initial_pattern
        from repro.scenarios.schedule import Phase, ScenarioSchedule
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        total, reset = 700, 200
        schedule = ScenarioSchedule(
            "warmup-phase",
            (Phase(start_cycle=0), Phase(start_cycle=100),
             Phase(start_cycle=400)),
        )
        config = SystemConfig(bw_set=BW_SET_1)
        streams = RandomStreams(4)
        pattern = initial_pattern(schedule, "uniform", BW_SET_1, 16, 4, streams)
        sim = Simulator(seed=4)
        noc = FireflyNoC(sim, config)
        player = ScenarioPlayer(schedule, noc, pattern, 300.0, streams,
                                total_cycles=total, clock_hz=config.clock_hz)
        noc.attach_generator(player)
        sim.run_with_reset(total, reset)
        player.finish(total)
        first, second, third = player.phase_stats()
        # Phase 0 ([0, 100)) lies wholly inside the warm-up: zeroed.
        assert first.packets_delivered == first.bits_delivered == 0
        assert first.measured_cycles == 0
        assert (first.start_cycle, first.end_cycle) == (0, 100)
        # Phase 1 spans the reset: only its post-reset part counts.
        assert second.measured_cycles == 400 - reset
        assert (
            sum(p.packets_delivered for p in player.phase_stats())
            == noc.metrics.packets_delivered
        )
        assert (
            sum(p.bits_delivered for p in player.phase_stats())
            == noc.metrics.bits_delivered
        )

    def test_zero_cycle_warmup_windows_cover_the_whole_run(self):
        """reset_cycles=0 fires the reset before the first tick; the
        window must re-base at cycle 0, not 1 (regression)."""
        no_reset = Fidelity("tiny-noreset", 700, 0, (0.5,))
        result = run_one("dhetpnoc", BW_SET_1, "skewed3", 300.0, fidelity=no_reset,
                         seed=5, scenario="steady")
        (phase,) = result.phases
        assert phase.measured_cycles == 700
        assert phase.delivered_gbps == pytest.approx(result.delivered_gbps)
        assert phase.packets_delivered == result.packets_delivered

    def test_app_mix_on_mixless_pattern_rejected(self):
        """Like a hotspot move on a hotspot-less pattern, an app_mix on
        a pattern without per-app intensities is an authoring error and
        must raise instead of silently doing nothing."""
        from repro.scenarios.player import build_phase_pattern
        from repro.scenarios.schedule import Phase
        from repro.sim.rng import RandomStreams

        phase = Phase(start_cycle=0, pattern="uniform", app_mix={"MUM": 2.0})
        with pytest.raises(ScenarioError, match="app mix"):
            build_phase_pattern(phase, 0, "uniform", BW_SET_1, 16, 4,
                                RandomStreams(1))

    def test_app_mix_is_absolute_not_cumulative(self):
        """Two successive pattern=None phases with the same app_mix must
        give the same mix, not its square (regression)."""
        import random

        from repro.traffic.patterns import RealApplicationTraffic

        def mixed_total(mixes):
            pattern = RealApplicationTraffic().bind(BW_SET_1, 16, 4,
                                                    random.Random(1))
            for mix in mixes:
                pattern.scale_intensities(mix)
            return pattern._total_intensity

        once = mixed_total([{"MUM": 2.0}])
        twice = mixed_total([{"MUM": 2.0}, {"MUM": 2.0}])
        assert once == pytest.approx(twice)
        # And a later mix replaces, not compounds, an earlier one.
        replaced = mixed_total([{"MUM": 2.0}, {"BFS": 3.0}])
        fresh = mixed_total([{"BFS": 3.0}])
        assert replaced == pytest.approx(fresh)

    def test_load_spike_shape_shows_in_phases(self):
        """Offered traffic must follow the script: quiet, spike, ramp."""
        result = run_one("dhetpnoc", BW_SET_1, "uniform", 400.0, fidelity=TINY,
                         seed=5, scenario="load_spike")
        quiet, spike, ramp = result.phases
        # Per-cycle offered rate, to normalise unequal window lengths.
        def rate(p):
            return p.packets_offered / max(1, p.end_cycle - p.start_cycle)

        assert rate(spike) > 1.5 * rate(quiet)
        assert rate(spike) > rate(ramp) > rate(quiet)

    def test_phase_stats_refuse_unfinished_read(self):
        from repro.arch.config import SystemConfig
        from repro.arch.firefly import FireflyNoC
        from repro.scenarios.player import ScenarioPlayer, initial_pattern
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        config = SystemConfig(bw_set=BW_SET_1)
        streams = RandomStreams(1)
        schedule = build_scenario("steady", 700)
        pattern = initial_pattern(schedule, "uniform", BW_SET_1, 16, 4, streams)
        sim = Simulator(seed=1)
        noc = FireflyNoC(sim, config)
        player = ScenarioPlayer(schedule, noc, pattern, 200.0, streams,
                                total_cycles=700)
        with pytest.raises(ScenarioError):
            player.phase_stats()


class TestHotspotDrift:
    def test_drift_differs_from_static_hotspot(self):
        drifting = run_one("dhetpnoc", BW_SET_1, "skewed_hotspot1", 320.0,
                           fidelity=TINY, seed=5, scenario="hotspot_drift")
        static = run_one("dhetpnoc", BW_SET_1, "skewed_hotspot1", 320.0,
                         fidelity=TINY, seed=5, scenario="steady")
        assert _strip(drifting) != _strip(static)

    def test_every_phase_reports_the_hotspot_pattern(self):
        result = run_one("dhetpnoc", BW_SET_1, "uniform", 320.0, fidelity=TINY,
                         seed=5, scenario="hotspot_drift")
        assert all(p.pattern == "skewed_hotspot1" for p in result.phases)

    def test_hotspot_only_phase_takes_effect(self):
        """A mid-run phase that sets hotspot_core without rebinding the
        pattern must still move the hotspot (regression: it was silently
        ignored when phase.pattern was None)."""
        from repro.arch.config import SystemConfig
        from repro.arch.firefly import FireflyNoC
        from repro.scenarios.player import ScenarioPlayer, initial_pattern
        from repro.scenarios.schedule import Phase, ScenarioSchedule
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        schedule = ScenarioSchedule(
            "hotspot-jump",
            (Phase(start_cycle=0, pattern="skewed_hotspot1", hotspot_core=2),
             Phase(start_cycle=350, hotspot_core=50)),
        )
        config = SystemConfig(bw_set=BW_SET_1)
        streams = RandomStreams(3)
        pattern = initial_pattern(schedule, "uniform", BW_SET_1, 16, 4, streams)
        sim = Simulator(seed=3)
        noc = FireflyNoC(sim, config)
        player = ScenarioPlayer(schedule, noc, pattern, 300.0, streams,
                                total_cycles=700, clock_hz=config.clock_hz)
        noc.attach_generator(player)
        assert player.pattern.hotspot_core == 2
        sim.run(700)
        assert player.pattern.hotspot_core == 50
        assert player.pattern is pattern  # moved in place, no rebind


class TestFirefly:
    def test_scenarios_run_on_the_static_architecture(self):
        """Firefly has no DBA plane: control-plane faults are skipped,
        everything else (blackouts, bursts, drifting patterns) applies."""
        for name in ("hotspot_drift", "fault_storm", "bursty_uniform"):
            result = run_one("firefly", BW_SET_1, "skewed3", 300.0, fidelity=TINY,
                             seed=5, scenario=name)
            assert result.packets_delivered > 0
