"""Integration coverage for bandwidth sets 2 and 3 (figs. 3-3b/c).

Set 1 is covered extensively elsewhere; these tests pin the same shape
claims at the larger wavelength budgets, plus the set-3-specific
reservation-overhead behaviour (two-cycle reservation flits).
"""

import functools

import pytest

from repro.api.session import Session
from repro.experiments.runner import Fidelity
from repro.traffic.bandwidth_sets import BW_SET_2, BW_SET_3

FAST = Fidelity("test23", 1000, 150, (0.6,))
SEED = 13
run_one = functools.partial(Session().run_one)


class TestBwSet2:
    def test_uniform_tie(self):
        offered = 0.6 * BW_SET_2.aggregate_gbps
        firefly = run_one("firefly", BW_SET_2, "uniform", offered)
        dhet = run_one("dhetpnoc", BW_SET_2, "uniform", offered)
        assert dhet.delivered_gbps == pytest.approx(
            firefly.delivered_gbps, rel=0.02
        )

    def test_skew_win(self):
        offered = 0.6 * BW_SET_2.aggregate_gbps
        firefly = run_one("firefly", BW_SET_2, "skewed3", offered)
        dhet = run_one("dhetpnoc", BW_SET_2, "skewed3", offered)
        assert dhet.delivered_gbps > firefly.delivered_gbps * 1.1

    def test_energy_direction(self):
        offered = 0.6 * BW_SET_2.aggregate_gbps
        firefly = run_one("firefly", BW_SET_2, "skewed3", offered)
        dhet = run_one("dhetpnoc", BW_SET_2, "skewed3", offered)
        assert dhet.energy_per_message_pj < firefly.energy_per_message_pj


class TestBwSet3:
    def test_uniform_tie(self):
        offered = 0.6 * BW_SET_3.aggregate_gbps
        firefly = run_one("firefly", BW_SET_3, "uniform", offered)
        dhet = run_one("dhetpnoc", BW_SET_3, "uniform", offered)
        # Set 3's two-cycle reservation costs d-HetPNoC slightly more here
        # ("slightly additional timing overhead", thesis 3.4.1.1).
        assert dhet.delivered_gbps == pytest.approx(
            firefly.delivered_gbps, rel=0.05
        )

    def test_skew_win(self):
        offered = 0.6 * BW_SET_3.aggregate_gbps
        firefly = run_one("firefly", BW_SET_3, "skewed3", offered)
        dhet = run_one("dhetpnoc", BW_SET_3, "skewed3", offered)
        assert dhet.delivered_gbps > firefly.delivered_gbps * 1.1

    def test_cross_set_scaling(self):
        """Peak delivery grows strongly from set 2 to set 3 (fig. 3-7)."""
        d2 = run_one("dhetpnoc", BW_SET_2, "skewed3",
                     0.6 * BW_SET_2.aggregate_gbps)
        d3 = run_one("dhetpnoc", BW_SET_3, "skewed3",
                     0.6 * BW_SET_3.aggregate_gbps)
        assert d3.delivered_gbps > 1.4 * d2.delivered_gbps

    def test_set3_reservation_two_cycles_live(self):
        """A set-3 hot cluster plans 64 identifiers -> 2-cycle flits."""
        import random

        from repro.arch.config import SystemConfig
        from repro.arch.dhetpnoc import DHetPNoC
        from repro.sim.engine import Simulator
        from repro.traffic.patterns import SkewedTraffic

        config = SystemConfig(bw_set=BW_SET_3)
        sim = Simulator(seed=SEED)
        pattern = SkewedTraffic(3).bind(BW_SET_3, 16, 4, random.Random(SEED))
        noc = DHetPNoC(sim, config, pattern=pattern)
        hot = next(
            c for c in range(16) if pattern.class_of_cluster(c) == 3
        )
        plan = noc.tx_plan(hot, (hot + 1) % 16)
        assert plan.reservation_cycles == 2
