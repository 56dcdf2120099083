"""Tests for DBA controllers and the token ring."""

import pytest

from repro.dba.controller import DBAController, TokenRing
from repro.dba.token import WavelengthToken
from repro.photonic.wavelength import WavelengthId
from repro.sim.engine import Simulator


def make_controllers(n=4, pool_size=24, max_channel=8):
    controllers = [
        DBAController(
            cluster=c,
            n_clusters=16,
            cores_per_cluster=4,
            reserved=[WavelengthId.from_flat(c)],
            max_channel_wavelengths=max_channel,
        )
        for c in range(n)
    ]
    pool = [WavelengthId.from_flat(100 + i) for i in range(pool_size)]
    return controllers, WavelengthToken(pool)


class TestDBAController:
    def test_six_tables(self):
        """4 demand tables + request + current (thesis 3.2.1)."""
        controller = make_controllers(1)[0][0]
        assert len(controller.demand_tables) == 4

    def test_demand_update_recomputes_request(self):
        controller = make_controllers(1)[0][0]
        controller.update_core_demand(0, {1: 8, 2: 2})
        controller.update_core_demand(1, {1: 4})
        assert controller.request_table.request(1) == 8
        assert controller.request_table.request(2) == 2

    def test_on_token_allocates(self):
        controllers, token = make_controllers(1)
        controller = controllers[0]
        controller.update_core_demand_uniform(0, 8)
        result = controller.on_token(token)
        assert result.held_after == 8
        assert controller.held_count == 8

    def test_wavelengths_for_after_allocation(self):
        controllers, token = make_controllers(1)
        controller = controllers[0]
        controller.update_core_demand(0, {1: 4, 2: 1})
        controller.on_token(token)
        assert len(controller.wavelengths_for(1)) == 4
        assert len(controller.wavelengths_for(2)) == 1

    def test_allocation_floor_of_one(self):
        controller = make_controllers(1)[0][0]
        assert controller.allocation_for(5) == 1
        assert len(controller.wavelengths_for(5)) == 1

    def test_token_visits_counted(self):
        controllers, token = make_controllers(1)
        controller = controllers[0]
        controller.on_token(token)
        controller.on_token(token)
        assert controller.token_visits == 2


class TestTokenRing:
    def test_hop_latency_includes_link_and_hold(self):
        sim = Simulator()
        controllers, token = make_controllers(4)
        ring = TokenRing(sim, controllers, token, hold_cycles=1)
        assert ring.hop_latency_cycles == ring.link_cycles + 1

    def test_worst_case_repossession(self):
        """T_L * N_PR (thesis 3.2.1)."""
        sim = Simulator()
        controllers, token = make_controllers(4)
        ring = TokenRing(sim, controllers, token)
        assert ring.worst_case_repossession_cycles() == 4 * ring.hop_latency_cycles

    def test_circulation_visits_all(self):
        sim = Simulator()
        controllers, token = make_controllers(4)
        ring = TokenRing(sim, controllers, token)
        ring.start()
        sim.run(ring.hop_latency_cycles * 8 + 1)
        assert all(c.token_visits >= 2 for c in controllers)
        assert ring.rounds_completed >= 2

    def test_stop_halts_circulation(self):
        sim = Simulator()
        controllers, token = make_controllers(4)
        ring = TokenRing(sim, controllers, token)
        ring.start()
        sim.run(ring.hop_latency_cycles * 2)
        ring.stop()
        visits = [c.token_visits for c in controllers]
        sim.run(50)
        assert [c.token_visits for c in controllers] == visits

    def test_double_start_rejected(self):
        sim = Simulator()
        controllers, token = make_controllers(2)
        ring = TokenRing(sim, controllers, token)
        ring.start()
        with pytest.raises(RuntimeError):
            ring.start()

    def test_run_round_immediately(self):
        sim = Simulator()
        controllers, token = make_controllers(4)
        for c in controllers:
            c.update_core_demand_uniform(0, 4)
        ring = TokenRing(sim, controllers, token)
        ring.run_round_immediately()
        assert all(c.held_count == 4 for c in controllers)
        assert ring.rounds_completed == 1

    def test_asynchronous_demand_update_applies_next_visit(self):
        """'the request table can be updated even when the token is not
        present in the photonic router.'"""
        sim = Simulator()
        controllers, token = make_controllers(2)
        ring = TokenRing(sim, controllers, token, hold_cycles=1)
        ring.start()
        sim.run(1)
        controllers[1].update_core_demand_uniform(0, 6)
        sim.run(ring.hop_latency_cycles * 4)
        assert controllers[1].held_count == 6

    def test_remap_releases_and_reacquires(self):
        sim = Simulator()
        controllers, token = make_controllers(2, pool_size=8)
        controllers[0].update_core_demand_uniform(0, 8)
        ring = TokenRing(sim, controllers, token)
        ring.run_round_immediately()
        assert controllers[0].held_count == 8
        # Task ends on cluster 0; cluster 1 wants the pool.
        controllers[0].update_core_demand_uniform(0, 1)
        controllers[1].update_core_demand_uniform(0, 8)
        ring.run_round_immediately()
        assert controllers[0].held_count == 1
        assert controllers[1].held_count == 8

    def test_empty_ring_rejected(self):
        sim = Simulator()
        _, token = make_controllers(1)
        with pytest.raises(ValueError):
            TokenRing(sim, [], token)
