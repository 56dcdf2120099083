"""Tests for the wavelength token (thesis eqs. 1-2) with property-based
mutual-exclusion checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dba.token import (
    WavelengthToken,
    token_link_cycles,
    token_link_time_seconds,
    token_size_bits,
)
from repro.photonic.wavelength import WavelengthId


class TestTokenSize:
    def test_eq_1_bw_set_1(self):
        """N_TW = 1*64 - 16 = 48 for BW set 1."""
        assert token_size_bits(1, 16) == 48

    def test_eq_1_bw_set_2(self):
        assert token_size_bits(4, 16) == 240

    def test_eq_1_bw_set_3(self):
        assert token_size_bits(8, 16) == 496

    def test_reserved_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            token_size_bits(1, 65)


class TestTokenTiming:
    def test_eq_2_set1_is_60ps(self):
        """T_L = 48 / (64 * 12.5 Gb/s) = 60 ps (thesis 3.2.1 figures)."""
        assert token_link_time_seconds(48) == pytest.approx(60e-12)

    def test_eq_2_set3_is_620ps(self):
        assert token_link_time_seconds(496) == pytest.approx(620e-12)

    def test_cycles_set1(self):
        assert token_link_cycles(48) == 1

    def test_cycles_set3(self):
        assert token_link_cycles(496) == 2

    def test_minimum_one_cycle(self):
        assert token_link_cycles(0) == 1


def pool(n=16):
    return [WavelengthId(0, i) for i in range(n)]


class TestWavelengthToken:
    def test_all_free_initially(self):
        token = WavelengthToken(pool())
        assert token.free_wavelengths() == pool()

    def test_acquire_marks_owner(self):
        token = WavelengthToken(pool())
        wid = WavelengthId(0, 0)
        assert token.acquire_up_to(1, cluster=5) == [wid]
        assert token.held_by(5) == [wid]
        assert wid not in token.free_wavelengths()

    def test_double_acquire_rejected(self):
        """The exact hazard the token prevents: 'reusing already allocated
        wavelengths within a single waveguide'."""
        token = WavelengthToken(pool())
        token.acquire_up_to(16, cluster=5)
        assert token.acquire_up_to(1, cluster=6) == []
        assert token.held_by(6) == []

    def test_release_requires_owner(self):
        token = WavelengthToken(pool())
        wid = WavelengthId(0, 3)
        token.acquire_up_to(4, cluster=5)
        with pytest.raises(ValueError):
            token.release(wid, cluster=6)
        token.release(wid, cluster=5)
        assert wid in token.free_wavelengths()

    def test_acquire_up_to_takes_lowest_first(self):
        token = WavelengthToken(pool())
        taken = token.acquire_up_to(3, cluster=1)
        assert taken == [WavelengthId(0, 0), WavelengthId(0, 1), WavelengthId(0, 2)]

    def test_acquire_up_to_exhausts_gracefully(self):
        token = WavelengthToken(pool(4))
        token.acquire_up_to(3, cluster=1)
        taken = token.acquire_up_to(5, cluster=2)
        assert len(taken) == 1

    def test_held_by(self):
        token = WavelengthToken(pool())
        token.acquire_up_to(2, cluster=3)
        assert len(token.held_by(3)) == 2
        assert token.held_by(4) == []

    def test_retired_wavelength_is_held_by_nobody_and_never_freed(self):
        token = WavelengthToken(pool(4))
        first, *rest = pool(4)
        token.acquire_up_to(1, cluster=2)
        token.retire(first, 2)
        assert token.held_by(2) == [] and first not in token.free_wavelengths()
        assert token.acquire_up_to(4, cluster=3) == rest
        with pytest.raises(ValueError):
            token.release(first, 2)

    def test_retiring_a_wavelength_the_cluster_does_not_hold_is_refused(self):
        token = WavelengthToken(pool(4))
        first, *rest = pool(4)
        token.acquire_up_to(1, cluster=2)
        with pytest.raises(ValueError, match="cluster 3 cannot release"):
            token.retire(first, 3)
        # Refused, so nothing changed hands: cluster 2 still holds it.
        assert token.held_by(2) == [first]
        assert token.free_wavelengths() == rest

    def test_duplicate_pool_rejected(self):
        with pytest.raises(ValueError):
            WavelengthToken([WavelengthId(0, 0), WavelengthId(0, 0)])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            WavelengthToken([])


@st.composite
def token_operations(draw):
    """Random sequences of (cluster, want) allocation rounds."""
    return draw(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 20)),
            min_size=1,
            max_size=40,
        )
    )


class TestTokenProperties:
    @settings(max_examples=60)
    @given(token_operations())
    def test_mutual_exclusion_invariant(self, operations):
        """No wavelength ever has two owners, regardless of the request
        sequence -- the correctness core of DBA."""
        token = WavelengthToken(pool(32))
        held = {c: [] for c in range(8)}
        for cluster, want in operations:
            current = len(held[cluster])
            if want > current:
                taken = token.acquire_up_to(want - current, cluster)
                held[cluster].extend(taken)
            elif want < current:
                for _ in range(current - want):
                    token.release(held[cluster].pop(), cluster)
            # Each cluster holds exactly what the token names it owner of.
            for c, ids in held.items():
                assert set(token.held_by(c)) == set(ids)

    @settings(max_examples=60)
    @given(token_operations())
    def test_conservation(self, operations):
        """free + held-by-anyone == pool size at every step."""
        token = WavelengthToken(pool(32))
        held = {c: 0 for c in range(8)}
        for cluster, want in operations:
            if want > held[cluster]:
                held[cluster] += len(token.acquire_up_to(want - held[cluster], cluster))
            elif want < held[cluster]:
                released = token.held_by(cluster)[: held[cluster] - want]
                for wid in released:
                    token.release(wid, cluster)
                held[cluster] -= len(released)
            assert len(token.free_wavelengths()) + sum(held.values()) == 32
