"""Packet-energy accounting (thesis eqs. 3-4, section 3.4.1.2).

The architectures charge the account as events happen:

* photonic transmit: launch + modulation + tuning per transmitted bit
  (retransmissions pay again -- wasted energy under congestion);
* demodulator-on: the receiver pays demodulation for every bit its
  switched-on wavelengths *could* carry during the reception window. For
  d-HetPNoC that equals the data bits (only the reserved subset is on);
  Firefly turns on the full channel width "irrespective of the required
  data rate" (thesis 3.3.1) and pays proportionally more;
* buffer writes/reads per flit, plus retention per flit-cycle of
  residence;
* electronic router traversals at E_router per bit;
* reservation broadcasts: all other clusters' reservation demodulators
  observe every reservation flit (R-SWMR keeps them listening).

"Packet energy is the energy dissipated in transferring one packet
completely from source to destination at network saturation."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.params import PhotonicEnergyParams
from repro.photonic.wavelength import bits_per_cycle


@dataclass
class EnergyBreakdown:
    """Picojoule totals per component."""

    launch_pj: float = 0.0
    modulation_pj: float = 0.0
    demodulation_pj: float = 0.0
    tuning_pj: float = 0.0
    buffer_pj: float = 0.0
    router_pj: float = 0.0
    reservation_pj: float = 0.0

    @property
    def photonic_pj(self) -> float:
        """E_photonic of eq. (4) (+ reservation overhead)."""
        return (
            self.launch_pj
            + self.modulation_pj
            + self.demodulation_pj
            + self.tuning_pj
            + self.buffer_pj
            + self.reservation_pj
        )

    @property
    def electrical_pj(self) -> float:
        return self.router_pj

    @property
    def total_pj(self) -> float:
        """E_packet of eq. (3), summed over all traffic."""
        return self.photonic_pj + self.electrical_pj


def _negative_bits(bits: float) -> ValueError:
    return ValueError(f"bits must be >= 0, got {bits}")


class EnergyAccount:
    """Mutable energy ledger charged by the architecture models (once
    per flit per stage: arguments are tested inline, not by a call)."""

    def __init__(self, params: PhotonicEnergyParams | None = None, clock_hz: float = 2.5e9):
        self.params = params or PhotonicEnergyParams()
        self.clock_hz = clock_hz
        self.breakdown = EnergyBreakdown()
        self.messages_delivered = 0

    # -- photonic data path -----------------------------------------------
    def charge_photonic_transmit(self, bits: int) -> None:
        """Launch + modulate + tune *bits* onto the data channel."""
        if bits < 0:
            raise _negative_bits(bits)
        p = self.params
        self.breakdown.launch_pj += p.launch_pj_per_bit * bits
        self.breakdown.modulation_pj += p.modulation_pj_per_bit * bits
        self.breakdown.tuning_pj += p.tuning_pj_per_bit * bits

    def charge_demodulators_on(self, n_wavelengths: int, cycles: int) -> None:
        """Receiver demodulators on for *cycles* across *n_wavelengths*."""
        if n_wavelengths < 0 or cycles < 0:
            raise ValueError("n_wavelengths and cycles must be >= 0")
        receivable_bits = bits_per_cycle(n_wavelengths, self.clock_hz) * cycles
        self.breakdown.demodulation_pj += (
            self.params.modulation_pj_per_bit * receivable_bits
        )

    # -- reservation channel -------------------------------------------------
    def charge_reservation(self, flit_bits: int, n_listeners: int) -> None:
        """One reservation broadcast: modulate once, demodulate everywhere."""
        if flit_bits < 0:
            raise _negative_bits(flit_bits)
        if n_listeners < 0:
            raise ValueError("n_listeners must be >= 0")
        p = self.params
        tx = (p.launch_pj_per_bit + p.modulation_pj_per_bit) * flit_bits
        rx = p.modulation_pj_per_bit * flit_bits * n_listeners
        self.breakdown.reservation_pj += tx + rx

    # -- buffers ---------------------------------------------------------
    def charge_buffer_write(self, bits: int) -> None:
        if bits < 0:
            raise _negative_bits(bits)
        self.breakdown.buffer_pj += self.params.buffer_pj_per_bit * bits

    def charge_buffer_read(self, bits: int) -> None:
        if bits < 0:
            raise _negative_bits(bits)
        self.breakdown.buffer_pj += self.params.buffer_pj_per_bit * bits

    def charge_buffer_retention(self, flit_bits: int, flit_cycles: float) -> None:
        """Leakage for *flit_cycles* of residence of flits of *flit_bits*."""
        if flit_cycles < 0:
            raise ValueError("flit_cycles must be >= 0")
        if flit_bits < 0:
            raise _negative_bits(flit_bits)
        self.breakdown.buffer_pj += (
            self.params.buffer_pj_per_bit
            * flit_bits
            * flit_cycles
            / self.params.retention_divisor
        )

    # -- electronic routers -------------------------------------------------
    def charge_router_traversal(self, bits: int) -> None:
        if bits < 0:
            raise _negative_bits(bits)
        self.breakdown.router_pj += self.params.router_pj_per_bit * bits

    # -- reporting ---------------------------------------------------------
    def note_message_delivered(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.messages_delivered += count

    @property
    def energy_per_message_pj(self) -> float:
        """EPM: total dissipation / delivered messages (thesis fig. 3-4)."""
        if self.messages_delivered == 0:
            return 0.0
        return self.breakdown.total_pj / self.messages_delivered

    def laser_static_power_mw(self, lit_wavelengths: int) -> float:
        """Static laser power (reported separately; launch energy already
        covers the per-bit optical cost in eq. 4)."""
        if lit_wavelengths < 0:
            raise ValueError("lit_wavelengths must be >= 0")
        return self.params.laser_mw_per_wavelength * lit_wavelengths

    def reset(self) -> None:
        self.breakdown = EnergyBreakdown()
        self.messages_delivered = 0
