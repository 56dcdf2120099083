"""Tests for wavelength identity, identifier size and WDM spectra."""

import pytest
from hypothesis import given, strategies as st

from repro.photonic.wavelength import (
    LAMBDA_PER_WAVEGUIDE,
    WavelengthId,
    bits_per_cycle,
    identifier_bits,
    waveguide_number_bits,
    wavelengths_for_bandwidth,
)


class TestWavelengthId:
    def test_flat_roundtrip(self):
        wid = WavelengthId(3, 17)
        assert WavelengthId.from_flat(wid.flat) == wid

    def test_flat_arithmetic(self):
        assert WavelengthId(2, 5).flat == 2 * 64 + 5

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            WavelengthId(0, 64)
        with pytest.raises(ValueError):
            WavelengthId(0, -1)

    def test_ordering(self):
        assert WavelengthId(0, 5) < WavelengthId(1, 0)

    @given(st.integers(0, 1000))
    def test_from_flat_total(self, flat):
        wid = WavelengthId.from_flat(flat)
        assert wid.flat == flat


class TestIdentifierBits:
    def test_single_waveguide_needs_6_bits(self):
        """BW set 1: 'a waveguide number is not needed' (thesis 3.4.1.1)."""
        assert identifier_bits(1) == 6

    def test_eight_waveguides_need_9_bits(self):
        """BW set 3: '3 bits (log2 8) would be required' -> 6 + 3."""
        assert identifier_bits(8) == 9

    def test_waveguide_number_bits(self):
        assert waveguide_number_bits(1) == 0
        assert waveguide_number_bits(2) == 1
        assert waveguide_number_bits(8) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            waveguide_number_bits(0)


class TestBandwidthMath:
    def test_class_wavelengths(self):
        """Thesis 3.4.1: wavelengths = bandwidth / 12.5 Gb/s."""
        assert wavelengths_for_bandwidth(12.5) == 1
        assert wavelengths_for_bandwidth(100) == 8
        assert wavelengths_for_bandwidth(800) == 64

    def test_rounds_up(self):
        assert wavelengths_for_bandwidth(13) == 2

    def test_bits_per_cycle_at_2_5ghz(self):
        """12.5 Gb/s / 2.5 GHz = exactly 5 bits/cycle/wavelength."""
        assert bits_per_cycle(1) == pytest.approx(5.0)
        assert bits_per_cycle(8) == pytest.approx(40.0)

    def test_waveguide_aggregate(self):
        """64 wavelengths x 12.5 Gb/s = 800 Gb/s (thesis 3.4.1.1)."""
        assert bits_per_cycle(LAMBDA_PER_WAVEGUIDE) * 2.5e9 / 1e9 == pytest.approx(800.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            wavelengths_for_bandwidth(0)
