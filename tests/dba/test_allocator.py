"""Tests for the token-holding capture/relinquish pass."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dba.allocator import WavelengthAllocator
from repro.dba.tables import CurrentTable, DemandTable, RequestTable
from repro.dba.token import WavelengthToken
from repro.photonic.wavelength import WavelengthId


def setup_cluster(cluster=0, n_clusters=16, max_channel=8, pool_size=48):
    reserved = [WavelengthId.from_flat(cluster)]
    pool = [WavelengthId.from_flat(16 + i) for i in range(pool_size)]
    token = WavelengthToken(pool)
    demands = [DemandTable(i, n_clusters, cluster) for i in range(4)]
    request = RequestTable(n_clusters, cluster)
    current = CurrentTable(n_clusters, cluster, reserved)
    allocator = WavelengthAllocator(cluster, max_channel_wavelengths=max_channel)
    return token, demands, request, current, allocator


def set_uniform_demand(demands, request, wavelengths):
    for table in demands:
        table.set_all(wavelengths)
    request.recompute(demands)


class TestAcquisition:
    def test_acquires_to_max_request(self):
        token, demands, request, current, allocator = setup_cluster()
        set_uniform_demand(demands, request, 8)
        result = allocator.run_pass(token, request, current)
        assert result.held_after == 8
        assert len(result.acquired) == 7  # 1 reserved + 7 dynamic
        assert result.satisfied

    def test_cap_enforced(self):
        """Table 3-3: 'maximum channel bandwidth of 8 channels' (set 1)."""
        token, demands, request, current, allocator = setup_cluster(max_channel=8)
        set_uniform_demand(demands, request, 20)
        result = allocator.run_pass(token, request, current)
        assert result.held_after == 8

    def test_partial_when_pool_short(self):
        token, demands, request, current, allocator = setup_cluster(pool_size=3)
        set_uniform_demand(demands, request, 8)
        result = allocator.run_pass(token, request, current)
        assert result.held_after == 4  # 1 reserved + 3 available
        assert not result.satisfied
        assert allocator.unsatisfied_passes == 1

    def test_retry_next_round_picks_up_freed(self):
        """'the request table is not modified ... the router [can] try to
        acquire additional wavelengths ... the next time the token
        returns.'"""
        token, demands, request, current, allocator = setup_cluster(pool_size=3)
        set_uniform_demand(demands, request, 8)
        allocator.run_pass(token, request, current)
        # Another cluster frees wavelengths into the pool.
        extra = [WavelengthId.from_flat(100 + i) for i in range(10)]
        held = current.dynamic_ids
        token2 = WavelengthToken(held + token.free_wavelengths() + extra)
        # Rebuild shadow ownership for held dynamic ids (first in order).
        assert token2.acquire_up_to(len(held), allocator.cluster) == held
        result = allocator.run_pass(token2, request, current)
        assert result.held_after == 8

    def test_zero_demand_keeps_reserved_only(self):
        token, demands, request, current, allocator = setup_cluster()
        result = allocator.run_pass(token, request, current)
        assert result.held_after == 1
        assert result.acquired == []


class TestRelinquish:
    def test_releases_on_demand_drop(self):
        token, demands, request, current, allocator = setup_cluster()
        set_uniform_demand(demands, request, 8)
        allocator.run_pass(token, request, current)
        set_uniform_demand(demands, request, 2)
        result = allocator.run_pass(token, request, current)
        assert result.held_after == 2
        assert len(result.released) == 6
        assert len(token.free_wavelengths()) == 48 - 1

    def test_released_wavelengths_return_to_token(self):
        token, demands, request, current, allocator = setup_cluster()
        set_uniform_demand(demands, request, 8)
        allocator.run_pass(token, request, current)
        set_uniform_demand(demands, request, 1)
        result = allocator.run_pass(token, request, current)
        assert set(result.released) <= set(token.free_wavelengths())

    def test_never_releases_reserved(self):
        token, demands, request, current, allocator = setup_cluster()
        set_uniform_demand(demands, request, 8)
        allocator.run_pass(token, request, current)
        set_uniform_demand(demands, request, 0)
        result = allocator.run_pass(token, request, current)
        assert result.held_after == 1  # reserved floor survives
        assert current.reserved[0] in current.held_ids


class TestPerDestinationAllocation:
    def test_allocation_min_of_request_and_held(self):
        token, demands, request, current, allocator = setup_cluster()
        demands[0].set_demand(1, 8)
        demands[0].set_demand(2, 2)
        request.recompute(demands)
        allocator.run_pass(token, request, current)
        assert current.allocation(1) == 8
        assert current.allocation(2) == 2

    def test_allocation_capped_by_holdings(self):
        token, demands, request, current, allocator = setup_cluster(pool_size=2)
        demands[0].set_demand(1, 8)
        request.recompute(demands)
        allocator.run_pass(token, request, current)
        assert current.allocation(1) == 3  # 1 reserved + 2 pool


class TestMultiClusterContention:
    def test_pool_shared_without_double_allocation(self):
        """Several clusters allocating from one token: exclusivity holds
        and totals never exceed the pool."""
        n_clusters = 4
        pool = [WavelengthId.from_flat(10 + i) for i in range(10)]
        token = WavelengthToken(pool)
        clusters = []
        for c in range(n_clusters):
            reserved = [WavelengthId.from_flat(c)]
            demands = [DemandTable(i, 16, c) for i in range(4)]
            request = RequestTable(16, c)
            current = CurrentTable(16, c, reserved)
            for t in demands:
                t.set_all(4)
            request.recompute(demands)
            clusters.append((WavelengthAllocator(c, 8), request, current))
        for allocator, request, current in clusters:
            allocator.run_pass(token, request, current)
        dynamic_total = sum(len(c.dynamic_ids) for _a, _r, c in clusters)
        assert dynamic_total == 10  # pool exhausted, never oversubscribed
        assert len(token.free_wavelengths()) == 0
        for allocator, _request, current in clusters:
            assert set(token.held_by(allocator.cluster)) == set(current.dynamic_ids)

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4))
    def test_random_demands_never_oversubscribe(self, wants):
        pool = [WavelengthId.from_flat(20 + i) for i in range(16)]
        token = WavelengthToken(pool)
        total_dynamic = 0
        for c, want in enumerate(wants):
            reserved = [WavelengthId.from_flat(c)]
            demands = [DemandTable(i, 16, c) for i in range(4)]
            request = RequestTable(16, c)
            current = CurrentTable(16, c, reserved)
            for t in demands:
                t.set_all(want)
            request.recompute(demands)
            WavelengthAllocator(c, 8).run_pass(token, request, current)
            total_dynamic += len(current.dynamic_ids)
        assert total_dynamic <= 16
        assert len(token.free_wavelengths()) == 16 - total_dynamic


class TestValidation:
    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            WavelengthAllocator(0, max_channel_wavelengths=0)
