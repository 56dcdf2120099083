"""Tests for the d-HetPNoC architecture and its DBA wiring."""

import random

from repro.arch.config import SystemConfig
from repro.arch.dhetpnoc import DHetPNoC
from repro.sim.engine import Simulator
from repro.traffic.bandwidth_sets import BW_SET_1, BW_SET_3
from repro.traffic.patterns import SkewedTraffic, UniformRandomTraffic


def make(pattern=None, bw_set=BW_SET_1, seed=7, **kwargs):
    config = SystemConfig(bw_set=bw_set)
    sim = Simulator(seed=seed)
    if pattern is not None:
        pattern = pattern.bind(
            bw_set, config.n_clusters, config.cores_per_cluster,
            random.Random(seed),
        )
    noc = DHetPNoC(sim, config, pattern=pattern, **kwargs)
    return sim, noc, pattern


class TestAllocationFromPattern:
    def test_skewed_allocation_matches_classes(self):
        """Each cluster holds exactly its class's wavelength demand
        (4 classes x 4 clusters fits the 64-wavelength pool)."""
        _sim, noc, pattern = make(SkewedTraffic(3))
        for cluster, controller in enumerate(noc.controllers):
            expected = BW_SET_1.class_wavelengths(pattern.class_of_cluster(cluster))
            assert controller.held_count == expected

    def test_uniform_allocation_equals_firefly_split(self):
        """Uniform demand -> every cluster at 4 wavelengths, identical to
        the Firefly static configuration (thesis 3.4.1.1 equality)."""
        _sim, noc, _ = make(UniformRandomTraffic())
        assert all(c.held_count == 4 for c in noc.controllers)

    def test_total_holdings_within_pool(self):
        _sim, noc, _ = make(SkewedTraffic(3))
        assert sum(noc.allocation_snapshot().values()) <= 64

    def test_reserved_floor_always_held(self):
        _sim, noc, _ = make(SkewedTraffic(3))
        for controller in noc.controllers:
            assert controller.held_count >= 1

    def test_cap_at_dhet_max(self):
        _sim, noc, _ = make(SkewedTraffic(3), bw_set=BW_SET_3)
        assert max(c.held_count for c in noc.controllers) <= 64

    def test_no_pattern_means_reserved_only(self):
        _sim, noc, _ = make(None)
        assert all(c.held_count == 1 for c in noc.controllers)


class TestTxPlan:
    def test_plan_uses_allocated_wavelengths(self):
        _sim, noc, pattern = make(SkewedTraffic(3))
        hot = next(
            c for c in range(16) if pattern.class_of_cluster(c) == 3
        )
        plan = noc.tx_plan(hot, (hot + 1) % 16)
        assert plan.n_wavelengths == 8
        assert len(plan.wavelength_ids) == 8

    def test_identifiers_are_unique_chip_wide(self):
        """No two clusters' plans may share a wavelength -- the token's
        guarantee surfacing at the data plane."""
        _sim, noc, _ = make(SkewedTraffic(2))
        seen = set()
        for src in range(16):
            for wid in noc.tx_plan(src, (src + 1) % 16).wavelength_ids:
                assert wid not in seen
                seen.add(wid)

    def test_reservation_cycles_set1(self):
        _sim, noc, _ = make(SkewedTraffic(3))
        assert noc.tx_plan(0, 1).reservation_cycles == 1

    def test_reservation_cycles_set3_worst_case(self):
        """64 identifiers at BW set 3 -> 2 cycles (thesis 3.4.1.1)."""
        _sim, noc, pattern = make(SkewedTraffic(3), bw_set=BW_SET_3)
        hot = next(c for c in range(16) if pattern.class_of_cluster(c) == 3)
        plan = noc.tx_plan(hot, (hot + 1) % 16)
        assert plan.n_wavelengths == 64
        assert plan.reservation_cycles == 2

    def test_rx_demodulators_match_reservation(self):
        from repro.photonic.reservation import ReservationFlit
        from repro.photonic.wavelength import WavelengthId

        _sim, noc, _ = make(SkewedTraffic(1))
        ids = (WavelengthId(0, 20), WavelengthId(0, 21))
        reservation = ReservationFlit(0, 1, 1, 64, wavelength_ids=ids)
        assert noc.rx_demodulators_on(reservation) == 2


class TestLaserProportionality:
    def test_only_held_wavelengths_lit(self):
        _sim, noc, _ = make(SkewedTraffic(3))
        assert noc.lit_wavelengths() == sum(noc.allocation_snapshot().values())

    def test_dhet_laser_leq_firefly(self):
        _sim, noc, _ = make(SkewedTraffic(3))
        assert noc.lit_wavelengths() <= 64


class TestRemap:
    def test_remap_shifts_allocation(self):
        sim, noc, _ = make(SkewedTraffic(3))
        before = noc.allocation_snapshot()
        hot = max(before, key=before.get)
        cold = min(before, key=before.get)
        for slot in range(4):
            noc.remap_demand(hot, slot, {d: 1 for d in range(16) if d != hot})
            noc.remap_demand(cold, slot, {d: 8 for d in range(16) if d != cold})
        sim.run(8 * noc.token_ring.worst_case_repossession_cycles())
        after = noc.allocation_snapshot()
        assert after[hot] == 1
        assert after[cold] == 8

    def test_remap_reaches_entries_and_plan_at_the_next_token_pass(self):
        _sim, noc, _ = make(SkewedTraffic(3), circulate_token=False)
        holdings = noc.allocation_snapshot()
        cold = min(holdings, key=holdings.get)
        hot = max(holdings, key=holdings.get)
        table, dst = noc.controllers[cold].current_table, (cold + 1) % 16
        plan = noc.tx_plan(cold, dst)
        assert plan.n_wavelengths == 1
        # A quiescent pass writes nothing, so the plan is still the one.
        version = table.version
        noc.token_ring.run_round_immediately()
        assert table.version == version
        assert noc.tx_plan(cold, dst) is plan
        # More demand toward one destination: holdings grow with it.
        for slot in range(4):
            noc.remap_demand(cold, slot, {dst: 3})
        assert noc.tx_plan(cold, dst) is plan  # not before the token visits
        noc.token_ring.run_round_immediately()
        assert table.allocation(dst) == 3
        assert table.allocation((cold + 2) % 16) == 1
        grown = noc.tx_plan(cold, dst)
        assert grown.wavelength_ids == tuple(table.held_ids[:3])
        # Less demand toward one destination of a cluster whose other
        # requests keep its holdings where they were.
        hot_table, hot_dst = noc.controllers[hot].current_table, (hot + 1) % 16
        assert noc.tx_plan(hot, hot_dst).n_wavelengths == holdings[hot]
        for slot in range(4):
            noc.remap_demand(hot, slot, {hot_dst: 2})
        noc.token_ring.run_round_immediately()
        assert noc.controllers[hot].held_count == holdings[hot]
        assert hot_table.allocation(hot_dst) == 2
        assert noc.tx_plan(hot, hot_dst).n_wavelengths == 2

    def test_token_keeps_circulating_during_run(self):
        sim, noc, _ = make(SkewedTraffic(1))
        sim.run(200)
        assert noc.token_ring.rounds_completed > 2

    def test_circulation_can_be_disabled(self):
        sim, noc, _ = make(SkewedTraffic(1), circulate_token=False)
        rounds = noc.token_ring.rounds_completed
        sim.run(200)
        assert noc.token_ring.rounds_completed == rounds
