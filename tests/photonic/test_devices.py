"""Tests for photonic device models (thesis 2.1 parameters)."""

import pytest

from repro.photonic.devices import LaserSource, PhotonicSwitchingElement


class TestPhotonicSwitchingElement:
    def test_drop_vs_through_loss(self):
        pse = PhotonicSwitchingElement()
        assert pse.drop_loss_db > pse.through_loss_db

    def test_through_loss_small(self):
        assert PhotonicSwitchingElement().through_loss_db < 0.1


class TestLaserSource:
    def test_power_per_wavelength_from_ref_30(self):
        assert LaserSource().power_mw_per_wavelength == pytest.approx(1.5)

    def test_per_wavelength_dbm(self):
        # 1.5 mW = ~1.76 dBm
        assert LaserSource().per_wavelength_power_dbm() == pytest.approx(1.76, abs=0.01)
