"""Tests for the thesis's allocation rule (acquire up to the request
table's largest entry, first come first served) over a shared pool."""

import pytest

from repro.dba.controller import DBAController, TokenRing
from repro.dba.token import WavelengthToken
from repro.photonic.wavelength import WavelengthId
from repro.sim.engine import Simulator


def make_ring(demand: int = 8, n_clusters: int = 16, pool_size: int = 48,
              cap: int = 8):
    """All clusters demanding *demand* wavelengths from a shared pool."""
    sim = Simulator()
    controllers = [
        DBAController(
            cluster=c,
            n_clusters=n_clusters,
            cores_per_cluster=4,
            reserved=[WavelengthId.from_flat(c)],
            max_channel_wavelengths=cap,
        )
        for c in range(n_clusters)
    ]
    for controller in controllers:
        controller.update_core_demand_uniform(0, demand)
    token = WavelengthToken(
        [WavelengthId.from_flat(100 + i) for i in range(pool_size)]
    )
    return sim, controllers, TokenRing(sim, controllers, token)


class TestOversubscription:
    """Chip-wide demand 16 * 8 = 128 against a 64-wavelength pool."""

    def test_max_request_hoards(self):
        """Early token holders grab their full target, late clusters
        starve at the reserved floor."""
        _sim, controllers, ring = make_ring()
        ring.run_round_immediately()
        holdings = [c.held_count for c in controllers]
        assert max(holdings) == 8
        assert min(holdings) == 1
        assert holdings.count(1) >= 8  # over half starve


class TestUndersubscription:
    """When demand fits the pool, every cluster gets what it asks for."""

    @pytest.mark.parametrize("demand", [3], ids=["max_request"])
    def test_everyone_satisfied(self, demand):
        _sim, controllers, ring = make_ring(demand=demand)
        ring.run_round_immediately()
        assert all(c.held_count == demand for c in controllers)
