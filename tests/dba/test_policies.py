"""Tests for allocation policies: the thesis mechanism vs the
proportional-share extension (future work, thesis chapter 4)."""

import pytest

from repro.dba.allocator import ALLOCATION_POLICIES, WavelengthAllocator
from repro.dba.controller import DBAController, TokenRing
from repro.dba.token import WavelengthToken
from repro.photonic.wavelength import WavelengthId
from repro.sim.engine import Simulator


def make_ring(policy: str, demand: int = 8, n_clusters: int = 16,
              pool_size: int = 48, cap: int = 8):
    """All clusters demanding *demand* wavelengths from a shared pool."""
    sim = Simulator()
    controllers = [
        DBAController(
            cluster=c,
            n_clusters=n_clusters,
            cores_per_cluster=4,
            reserved=[WavelengthId.from_flat(c)],
            max_channel_wavelengths=cap,
            policy=policy,
        )
        for c in range(n_clusters)
    ]
    for controller in controllers:
        controller.update_core_demand_uniform(0, demand)
    token = WavelengthToken(
        [WavelengthId.from_flat(100 + i) for i in range(pool_size)]
    )
    return sim, controllers, TokenRing(sim, controllers, token)


class TestPolicyValidation:
    def test_known_policies(self):
        assert set(ALLOCATION_POLICIES) == {"max_request", "proportional"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            WavelengthAllocator(0, policy="lottery")


class TestOversubscription:
    """Chip-wide demand 16 * 8 = 128 against a 64-wavelength pool."""

    def test_max_request_hoards(self):
        """The thesis policy: early token holders grab their full target,
        late clusters starve at the reserved floor."""
        _sim, controllers, ring = make_ring("max_request")
        ring.run_round_immediately()
        holdings = [c.held_count for c in controllers]
        assert max(holdings) == 8
        assert min(holdings) == 1
        assert holdings.count(1) >= 8  # over half starve

    def test_proportional_is_fair(self):
        """The extension: every cluster converges to its fair share
        (64 * 8 / 128 = 4 wavelengths)."""
        _sim, controllers, ring = make_ring("proportional")
        ring.run_round_immediately()
        holdings = [c.held_count for c in controllers]
        assert max(holdings) - min(holdings) <= 1
        assert min(holdings) >= 3

    def test_proportional_total_bounded(self):
        _sim, controllers, ring = make_ring("proportional")
        ring.run_round_immediately()
        assert sum(c.held_count for c in controllers) <= 64

    def test_proportional_weighted_by_demand(self):
        """Heterogeneous oversubscribed demand: shares track demand."""
        sim = Simulator()
        demands = [16, 16, 8, 8, 4, 4, 2, 2]
        controllers = []
        for c, demand in enumerate(demands):
            controller = DBAController(
                cluster=c, n_clusters=16, cores_per_cluster=4,
                reserved=[WavelengthId.from_flat(c)],
                max_channel_wavelengths=16, policy="proportional",
            )
            controller.update_core_demand_uniform(0, demand)
            controllers.append(controller)
        token = WavelengthToken(
            [WavelengthId.from_flat(100 + i) for i in range(22)]
        )
        ring = TokenRing(sim, controllers, token)
        ring.run_round_immediately()
        holdings = {demands[c]: controllers[c].held_count for c in range(8)}
        assert holdings[16] > holdings[8] > holdings[2]


class TestPolicySwitch:
    def test_switch_to_proportional_sees_fresh_pool_accounting(self):
        """Pool accounting is computed only for the policy that reads it;
        a ring switched to it mid-run, and demand changed afterwards,
        must reach the allocator on the very next passes."""
        _sim, controllers, ring = make_ring("max_request")
        ring.run_round_immediately()
        assert min(c.held_count for c in controllers) == 1  # hoarded
        for controller in controllers:
            controller.allocator.policy = "proportional"
        for _ in range(2):  # one round to release, one to pick up
            ring.run_round_immediately()
        assert [c.held_count for c in controllers] == [4] * 16
        # Half the chip drops to a demand of 1: 8*8 + 8*1 = 72 over a
        # pool of 64 leaves the rest a fair share of floor(64*8/72) = 7.
        for controller in controllers[8:]:
            controller.update_core_demand_uniform(0, 1)
        for _ in range(2):
            ring.run_round_immediately()
        assert [c.held_count for c in controllers] == [7] * 8 + [1] * 8


class TestUndersubscription:
    """When demand fits the pool, both policies behave identically --
    the proportional cap must not distort the thesis's base case."""

    @pytest.mark.parametrize("policy", ALLOCATION_POLICIES)
    def test_everyone_satisfied(self, policy):
        _sim, controllers, ring = make_ring(policy, demand=3)
        ring.run_round_immediately()
        assert all(c.held_count == 3 for c in controllers)

    def test_policies_agree_when_pool_suffices(self):
        results = {}
        for policy in ALLOCATION_POLICIES:
            _sim, controllers, ring = make_ring(policy, demand=4)
            ring.run_round_immediately()
            results[policy] = [c.held_count for c in controllers]
        assert results["max_request"] == results["proportional"]


class TestArchitectureIntegration:
    def test_dhetpnoc_accepts_policy(self):
        import random

        from repro.arch.config import SystemConfig
        from repro.arch.dhetpnoc import DHetPNoC
        from repro.traffic.bandwidth_sets import BW_SET_1
        from repro.traffic.patterns import SkewedTraffic

        config = SystemConfig(bw_set=BW_SET_1)
        sim = Simulator(seed=3)
        pattern = SkewedTraffic(3).bind(BW_SET_1, 16, 4, random.Random(3))
        noc = DHetPNoC(sim, config, pattern=pattern,
                       allocation_policy="proportional")
        # Demand fits the pool, so holdings match the thesis policy.
        for cluster, controller in enumerate(noc.controllers):
            expected = BW_SET_1.class_wavelengths(
                pattern.class_of_cluster(cluster)
            )
            assert controller.held_count == expected
