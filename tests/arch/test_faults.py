"""Failure-injection tests: the system degrades gracefully, never wedges."""

import pytest

from repro.arch.config import SystemConfig
from repro.arch.dhetpnoc import DHetPNoC
from repro.arch.faults import FaultError, FaultInjector
from repro.experiments.runner import QUICK_FIDELITY, attach_traffic, wire_run
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1


def build(seed=5, offered=350.0):
    run = wire_run("dhetpnoc", BW_SET_1, "skewed3", QUICK_FIDELITY, seed)
    attach_traffic(run, offered, QUICK_FIDELITY)
    return run.sim, run.arch, run.pattern


class TestWavelengthDeath:
    def test_kill_reduces_holdings(self):
        sim, noc, pattern = build()
        injector = FaultInjector(noc)
        hot = max(range(16), key=lambda c: noc.controllers[c].held_count)
        before = noc.controllers[hot].held_count
        dead = injector.kill_wavelengths(hot, 2)
        assert len(dead) == 2
        assert noc.controllers[hot].held_count == before - 2

    def test_dead_wavelengths_never_reallocated(self):
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        hot = max(range(16), key=lambda c: noc.controllers[c].held_count)
        dead = set(injector.kill_wavelengths(hot, 2))
        sim.run(500)  # many token rounds
        for controller in noc.controllers:
            held = set(controller.current_table.held_ids)
            assert not held & dead
        noc.audit()  # retired in the token, so no cluster's holdings

    def test_traffic_still_flows_after_death(self):
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        hot = max(range(16), key=lambda c: noc.controllers[c].held_count)
        injector.kill_wavelengths(hot, 3)
        sim.run(2000)
        assert noc.metrics.packets_delivered > 0

    def test_dba_self_heals_with_spare_capacity(self):
        """Killing a few wavelengths triggers re-acquisition from the
        pool's slack on the next token rounds: DBA heals the failure."""
        sim, noc, _ = build(seed=9, offered=480.0)
        injector = FaultInjector(noc)
        hot = max(range(16), key=lambda c: noc.controllers[c].held_count)
        before = noc.controllers[hot].held_count
        injector.kill_wavelengths(hot, 2)
        sim.run(8 * noc.token_ring.worst_case_repossession_cycles())
        assert noc.controllers[hot].held_count == before

    def test_token_pass_after_a_kill_lifts_the_clamped_entries(self):
        """The kill clamps the current table from outside the token
        pass; the pass that re-acquires brings held count and requests
        back to what the allocator last folded in, and must still
        restore ``min(request, held)`` and the transmission plan."""
        sim, noc, _ = build()
        hot = max(range(16), key=lambda c: noc.controllers[c].held_count)
        controller = noc.controllers[hot]
        table, dst = controller.current_table, (hot + 1) % 16
        held = controller.held_count
        assert table.allocation(dst) == noc.tx_plan(hot, dst).n_wavelengths == held
        dead = FaultInjector(noc).kill_wavelengths(hot, 2)
        assert table.allocation(dst) == noc.tx_plan(hot, dst).n_wavelengths == held - 2
        noc.token_ring.run_round_immediately()
        assert controller.held_count == held
        assert all(
            table.allocation(d) == min(controller.request_table.request(d), held)
            for d in range(16) if d != hot
        )
        plan = noc.tx_plan(hot, dst)
        assert plan.wavelength_ids == tuple(table.held_ids[:held])
        assert not set(plan.wavelength_ids) & set(dead)

    def test_degradation_when_pool_exhausted(self):
        """Killing more wavelengths than the pool's slack genuinely costs
        delivered bandwidth."""
        delivered = {}
        for kill_all in (False, True):
            sim, noc, _ = build(seed=9, offered=480.0)
            if kill_all:
                injector = FaultInjector(noc)
                # Kill most dynamic wavelengths of every high-class cluster.
                for c in range(16):
                    dynamic = len(noc.controllers[c].current_table.dynamic_ids)
                    if dynamic >= 5:
                        injector.kill_wavelengths(c, dynamic - 1)
            sim.run(2500)
            delivered[kill_all] = noc.metrics.bits_delivered
        assert delivered[True] < delivered[False]

    def test_cannot_kill_more_than_dynamic(self):
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        cold = min(range(16), key=lambda c: noc.controllers[c].held_count)
        dynamic = len(noc.controllers[cold].current_table.dynamic_ids)
        with pytest.raises(FaultError):
            injector.kill_wavelengths(cold, dynamic + 1)

    def test_reserved_floor_survives(self):
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        hot = max(range(16), key=lambda c: noc.controllers[c].held_count)
        dynamic = len(noc.controllers[hot].current_table.dynamic_ids)
        injector.kill_wavelengths(hot, dynamic)
        assert noc.controllers[hot].held_count >= 1
        sim.run(1500)
        assert noc.metrics.packets_delivered > 0


class TestTokenFreeze:
    def test_data_plane_survives_freeze(self):
        """DBA is off the data path: freezing the control waveguide must
        not stop packet delivery (thesis 3.2.1)."""
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        injector.freeze_token()
        rounds = noc.token_ring.rounds_completed
        sim.run(2000)
        assert noc.token_ring.rounds_completed == rounds
        assert noc.metrics.packets_delivered > 0

    def test_thaw_resumes_circulation(self):
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        injector.freeze_token()
        sim.run(100)
        injector.thaw_token()
        rounds = noc.token_ring.rounds_completed
        sim.run(300)
        assert noc.token_ring.rounds_completed > rounds


class TestReceiverBlackout:
    def test_blackout_causes_nacks_then_recovers(self):
        sim, noc, _ = build(offered=480.0)
        injector = FaultInjector(noc)
        sim.run(300)
        injector.blackout_receiver(0, duration_cycles=400)
        sim.run(500)
        assert noc.metrics.reservations_nacked > 0
        delivered_mid = noc.metrics.packets_delivered
        sim.run(3000)
        assert noc.metrics.packets_delivered > delivered_mid

    def test_invalid_duration(self):
        sim, noc, _ = build()
        with pytest.raises(FaultError):
            FaultInjector(noc).blackout_receiver(0, 0)


class TestClampedKill:
    def test_clamp_limits_to_holdings(self):
        sim, noc, _ = build()
        injector = FaultInjector(noc)
        cold = min(range(16), key=lambda c: noc.controllers[c].held_count)
        dynamic = len(noc.controllers[cold].current_table.dynamic_ids)
        dead = injector.kill_wavelengths(cold, dynamic + 5, clamp=True)
        assert len(dead) == dynamic
        assert injector.kill_wavelengths(cold, 3, clamp=True) == []


class TestFaultStormScenario:
    """End-to-end: scripted fault storms drive all three fault modes
    through a full simulated run (the scenarios subsystem's fault path)."""

    def test_library_storm_fires_every_event(self):
        from repro.api.session import Session
        from repro.experiments.runner import Fidelity
        from repro.traffic.bandwidth_sets import BW_SET_1

        tiny = Fidelity("tiny-storm", 700, 100, (0.5,))
        storm = Session().run_one("dhetpnoc", BW_SET_1, "skewed3", 480.0,
                                  fidelity=tiny, seed=9, scenario="fault_storm")
        # All five scripted events land in the storm phase; none early.
        assert storm.phases[0].faults_fired == 0
        assert sum(p.faults_fired for p in storm.phases) == 5
        # The system degrades gracefully: traffic keeps flowing.
        assert storm.packets_delivered > 0

    def test_scripted_storm_costs_delivered_bandwidth(self):
        """Same schedule with and without the fault script — placement
        and every RNG stream identical, faults the only difference — so
        a harsh storm must strictly reduce delivery."""
        from repro.scenarios.player import ScenarioPlayer, initial_pattern
        from repro.scenarios.schedule import FaultEvent, Phase, ScenarioSchedule

        total, reset = 2500, 200
        storm_faults = tuple(
            FaultEvent(at_cycle=0, action="kill_wavelengths",
                       cluster=c, count=8)
            for c in range(8)
        ) + (
            FaultEvent(at_cycle=50, action="freeze_token"),
            FaultEvent(at_cycle=100, action="blackout_receiver",
                       cluster=8, duration_cycles=900),
            FaultEvent(at_cycle=100, action="blackout_receiver",
                       cluster=9, duration_cycles=900),
        )

        def run(faults):
            schedule = ScenarioSchedule(
                "test-storm",
                (Phase(start_cycle=0),
                 Phase(start_cycle=total // 2, faults=faults)),
            )
            # wire_run plays registered scenarios only; this one is hand-made.
            streams = RandomStreams(9)
            config = SystemConfig(bw_set=BW_SET_1)
            sim = Simulator(seed=9)
            pattern = initial_pattern(schedule, "skewed3", BW_SET_1, 16, 4,
                                      streams)
            noc = DHetPNoC(sim, config, pattern=pattern)
            player = ScenarioPlayer(schedule, noc, pattern, 480.0, streams,
                                    total_cycles=total,
                                    clock_hz=config.clock_hz)
            noc.attach_generator(player)
            sim.run_with_reset(total, reset)
            player.finish(total)
            return noc, player

        calm_noc, _ = run(())
        storm_noc, storm_player = run(storm_faults)
        assert storm_player.faults_fired == len(storm_faults)
        assert storm_noc.metrics.packets_delivered > 0
        assert (
            storm_noc.metrics.bits_delivered
            < calm_noc.metrics.bits_delivered
        )
        # The per-phase windows localise the damage to the storm phase.
        storm_phases = storm_player.phase_stats()
        assert storm_phases[1].faults_fired == len(storm_faults)
