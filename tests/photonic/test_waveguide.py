"""Tests for waveguides and the data-waveguide count N_WD."""

import pytest

from repro.photonic.waveguide import Waveguide
from repro.photonic.wavelength import n_data_waveguides


class TestWaveguide:
    def test_propagation_delay_under_one_cycle(self):
        """20 mm at group index 4 is ~267 ps < 400 ps -> 1 cycle at 2.5 GHz."""
        wg = Waveguide(0, length_mm=20.0)
        assert wg.propagation_delay_s() == pytest.approx(266.9e-12, rel=0.01)
        assert wg.propagation_delay_cycles(2.5e9) == 1

    def test_longer_path_more_cycles(self):
        wg = Waveguide(0, length_mm=40.0)
        assert wg.propagation_delay_cycles(2.5e9) == 2

    def test_propagation_loss(self):
        wg = Waveguide(0, length_mm=20.0, loss_db_per_cm=1.0)
        assert wg.propagation_loss_db() == pytest.approx(2.0)


class TestWaveguideBundle:
    """The data-waveguide group of a PNoC: N_WD waveguides (sec. 3.4.3)."""

    def test_sizing_matches_n_wd(self):
        """N_WD = ceil(N_lambda / 64): 1, 4, 8 for the three BW sets."""
        assert n_data_waveguides(64) == 1
        assert n_data_waveguides(256) == 4
        assert n_data_waveguides(512) == 8

    def test_partial_waveguide_rounds_up(self):
        assert n_data_waveguides(65) == 2

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            n_data_waveguides(0)
