"""Tests for the round-robin arbiter."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.arbiter import RoundRobinArbiter


class TestRoundRobin:
    def test_empty_requests(self):
        assert RoundRobinArbiter(4).grant([]) is None

    def test_single_requester(self):
        assert RoundRobinArbiter(4).grant([2]) == 2

    def test_rotation(self):
        arb = RoundRobinArbiter(4)
        grants = [arb.grant([0, 1, 2, 3]) for _ in range(8)]
        assert grants == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_strong_fairness(self):
        """Every persistent requester is served within n grants."""
        arb = RoundRobinArbiter(4)
        requesters = [0, 2, 3]
        served = [arb.grant(requesters) for _ in range(len(requesters))]
        assert sorted(served) == requesters

    def test_skips_non_requesters(self):
        arb = RoundRobinArbiter(4)
        arb.grant([0])  # priority now 1
        assert arb.grant([3]) == 3

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=8))
    def test_grant_is_a_requester(self, reqs):
        arb = RoundRobinArbiter(8)
        assert arb.grant(reqs) in set(reqs)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)
