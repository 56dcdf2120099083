"""Tests for the energy model (thesis eqs. 3-4, tables 3-4/3-5)."""

import pytest

from repro.energy.model import EnergyAccount
from repro.energy.params import (
    E_BUFFER_PJ_PER_BIT,
    E_LAUNCH_PJ_PER_BIT,
    E_MODULATION_PJ_PER_BIT,
    E_ROUTER_PJ_PER_BIT,
    E_TUNING_PJ_PER_BIT,
    PhotonicEnergyParams,
)


class TestTable35Constants:
    def test_values(self):
        assert E_MODULATION_PJ_PER_BIT == 0.04
        assert E_TUNING_PJ_PER_BIT == 0.24
        assert E_LAUNCH_PJ_PER_BIT == 0.15
        assert E_BUFFER_PJ_PER_BIT == 0.0781250
        assert E_ROUTER_PJ_PER_BIT == 0.625

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PhotonicEnergyParams(modulation_pj_per_bit=-1)
        with pytest.raises(ValueError):
            PhotonicEnergyParams(retention_divisor=0)


class TestEnergyAccount:
    def test_photonic_transmit_charges_three_components(self):
        account = EnergyAccount()
        account.charge_photonic_transmit(1000)
        b = account.breakdown
        assert b.launch_pj == pytest.approx(150.0)
        assert b.modulation_pj == pytest.approx(40.0)
        assert b.tuning_pj == pytest.approx(240.0)

    def test_eq4_composition(self):
        """E_photonic = E_launch + E_mod + E_tuning + E_buffer (+demod/resv)."""
        account = EnergyAccount()
        account.charge_photonic_transmit(100)
        account.charge_buffer_write(100)
        b = account.breakdown
        assert b.photonic_pj == pytest.approx(
            b.launch_pj + b.modulation_pj + b.tuning_pj + b.buffer_pj
        )

    def test_eq3_total(self):
        account = EnergyAccount()
        account.charge_photonic_transmit(100)
        account.charge_router_traversal(100)
        b = account.breakdown
        assert b.total_pj == pytest.approx(b.photonic_pj + b.electrical_pj)

    def test_demodulator_window_energy(self):
        """Demod-on energy counts receivable bits: n_lambda * 5 bits/cycle."""
        account = EnergyAccount(clock_hz=2.5e9)
        account.charge_demodulators_on(n_wavelengths=4, cycles=100)
        # 4 * 5 * 100 = 2000 receivable bits * 0.04 pJ.
        assert account.breakdown.demodulation_pj == pytest.approx(80.0)

    def test_firefly_penalty_vs_dhet(self):
        """Same data, wider demod window -> more energy: the section 3.3.1
        saving."""
        firefly = EnergyAccount()
        dhet = EnergyAccount()
        # d-HetPNoC listens on 1 wavelength, Firefly on 4, same duration.
        firefly.charge_demodulators_on(4, 400)
        dhet.charge_demodulators_on(1, 400)
        assert firefly.breakdown.demodulation_pj == pytest.approx(
            4 * dhet.breakdown.demodulation_pj
        )

    def test_buffer_write_read(self):
        account = EnergyAccount()
        account.charge_buffer_write(64)
        account.charge_buffer_read(64)
        assert account.breakdown.buffer_pj == pytest.approx(2 * 64 * 0.078125)

    def test_buffer_retention_scales_with_residence(self):
        short = EnergyAccount()
        long = EnergyAccount()
        short.charge_buffer_retention(32, flit_cycles=10)
        long.charge_buffer_retention(32, flit_cycles=1000)
        assert long.breakdown.buffer_pj == pytest.approx(
            100 * short.breakdown.buffer_pj
        )

    def test_retention_divisor_calibration(self):
        """64 flit-cycles of residence costs one buffer access."""
        account = EnergyAccount()
        account.charge_buffer_retention(32, flit_cycles=64)
        assert account.breakdown.buffer_pj == pytest.approx(32 * E_BUFFER_PJ_PER_BIT)

    def test_reservation_broadcast(self):
        account = EnergyAccount()
        account.charge_reservation(flit_bits=16, n_listeners=15)
        expected = (0.15 + 0.04) * 16 + 0.04 * 16 * 15
        assert account.breakdown.reservation_pj == pytest.approx(expected)

    def test_energy_per_message(self):
        account = EnergyAccount()
        account.charge_photonic_transmit(2048)
        account.note_message_delivered()
        account.note_message_delivered()
        assert account.energy_per_message_pj == pytest.approx(
            account.breakdown.total_pj / 2
        )

    def test_epm_zero_when_no_messages(self):
        assert EnergyAccount().energy_per_message_pj == 0.0

    def test_laser_static_power(self):
        account = EnergyAccount()
        assert account.laser_static_power_mw(64) == pytest.approx(96.0)
        assert account.laser_static_power_mw(60) == pytest.approx(90.0)

    def test_reset(self):
        account = EnergyAccount()
        account.charge_photonic_transmit(100)
        account.note_message_delivered()
        account.reset()
        assert account.breakdown.total_pj == 0.0
        assert account.messages_delivered == 0

    @pytest.mark.parametrize("charge, args", [
        ("charge_photonic_transmit", (-1,)),
        ("charge_reservation", (-1, 15)),
        ("charge_buffer_write", (-1,)),
        ("charge_buffer_read", (-1,)),
        ("charge_buffer_retention", (-1, 4.0)),
        ("charge_router_traversal", (-1,)),
    ])
    def test_every_charge_rejects_negative_bits(self, charge, args):
        account = EnergyAccount()
        with pytest.raises(ValueError, match="bits must be >= 0, got -1"):
            getattr(account, charge)(*args)
        assert account.breakdown.total_pj == 0.0

    def test_negative_bits_rejected(self):
        account = EnergyAccount()
        with pytest.raises(ValueError):
            account.charge_photonic_transmit(-1)
        with pytest.raises(ValueError):
            account.charge_demodulators_on(-1, 5)
        with pytest.raises(ValueError):
            account.charge_buffer_retention(32, -1)
