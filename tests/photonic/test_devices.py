"""Tests for photonic device models (thesis 2.1 parameters)."""

import math

import pytest

from repro.photonic.devices import (
    LaserSource,
    MicroRingResonator,
    Modulator,
    PhotoDetector,
    PhotonicSwitchingElement,
)


class TestMicroRingResonator:
    def test_default_radius_from_ref_28(self):
        assert MicroRingResonator().radius_um == 5.0

    def test_footprint_is_area_model_unit(self):
        ring = MicroRingResonator(radius_um=5.0)
        assert ring.footprint_um2 == pytest.approx(math.pi * 25.0)

    def test_tuning_power(self):
        ring = MicroRingResonator()
        assert ring.tuning_power_mw(1.0) == pytest.approx(2.4)
        assert ring.tuning_power_mw(0.5) == pytest.approx(1.2)

    def test_negative_detune_rejected(self):
        with pytest.raises(ValueError):
            MicroRingResonator().tuning_power_mw(-1)

    def test_circumference_of_the_5um_ring(self):
        assert MicroRingResonator().circumference_um == pytest.approx(10 * math.pi)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            MicroRingResonator(radius_um=0)


class TestModulator:
    def test_rate_from_ref_28(self):
        assert Modulator().rate_gbps == 12.5

    def test_energy_40fj_per_bit(self):
        assert Modulator().modulation_energy_pj(1000) == pytest.approx(40.0)

    def test_serialization_time(self):
        mod = Modulator()
        assert mod.serialization_seconds(125) == pytest.approx(10e-9)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Modulator().modulation_energy_pj(-1)


class TestPhotoDetector:
    def test_responsivity_from_ref_14(self):
        assert PhotoDetector().responsivity_a_per_w == pytest.approx(1.08)

    def test_photocurrent(self):
        det = PhotoDetector()
        assert det.photocurrent_ma(1.0) == pytest.approx(1.08)

    def test_detection_threshold(self):
        det = PhotoDetector(sensitivity_dbm=-17.0)
        assert det.detects(-10.0)
        assert not det.detects(-20.0)

    def test_demodulation_energy_40fj_per_bit(self):
        det = PhotoDetector()
        assert det.demodulation_energy_pj(1000) == pytest.approx(40.0)
        with pytest.raises(ValueError):
            det.demodulation_energy_pj(-1)

    def test_dimensions_from_ref_13(self):
        det = PhotoDetector()
        assert det.length_um == 20.0
        assert det.width_um == pytest.approx(0.7)


class TestPhotonicSwitchingElement:
    def test_drop_vs_through_loss(self):
        pse = PhotonicSwitchingElement()
        assert pse.path_loss_db(turned=True) > pse.path_loss_db(turned=False)

    def test_through_loss_small(self):
        assert PhotonicSwitchingElement().path_loss_db(False) < 0.1


class TestLaserSource:
    def test_power_per_wavelength_from_ref_30(self):
        laser = LaserSource(n_wavelengths=64)
        assert laser.total_power_mw() == pytest.approx(96.0)

    def test_energy_proportionality(self):
        """On-chip sources are energy proportional (thesis 2.1.4): unlit
        wavelengths cost nothing -- d-HetPNoC's laser saving."""
        laser = LaserSource(n_wavelengths=64)
        assert laser.total_power_mw(60) == pytest.approx(90.0)
        assert laser.total_power_mw(0) == 0.0

    def test_lit_bounds(self):
        with pytest.raises(ValueError):
            LaserSource(n_wavelengths=4).total_power_mw(5)

    def test_launch_energy(self):
        assert LaserSource().launch_energy_pj(100) == pytest.approx(15.0)

    def test_per_wavelength_dbm(self):
        # 1.5 mW = ~1.76 dBm
        assert LaserSource().per_wavelength_power_dbm() == pytest.approx(1.76, abs=0.01)
