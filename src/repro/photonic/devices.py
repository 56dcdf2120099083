"""Photonic device models (thesis sections 2.1.1-2.1.5).

Parameters default to the values the thesis cites:

* MRR radius 5 um (ref [28], used for the area model of section 3.4.3).
* Modulation/demodulation energy 40 fJ/bit at 12.5 Gb/s (ref [28],
  tables 3-4/3-5).
* Thermal tuning 2.4 mW/nm (ref [28], table 3-4).
* Ge p-i-n photodetector responsivity up to 1.08 A/W (ref [14]),
  0.7 um x 20 um at 40 Gb/s (ref [13]).
* Laser source 1.5 mW per wavelength (ref [30], table 3-4).

The physical parameters feed the loss budget in
:mod:`repro.photonic.loss`. The energies, powers and ring radius are the
constants :mod:`repro.energy.params` and :mod:`repro.area.model` name,
imported from there; neither model reads these classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.area.model import MRR_RADIUS_UM
from repro.energy.params import (
    E_LAUNCH_PJ_PER_BIT,
    E_MODULATION_PJ_PER_BIT,
    LASER_MW_PER_WAVELENGTH,
    TUNING_MW_PER_NM,
)
from repro.photonic.wavelength import WAVELENGTH_RATE_GBPS


@dataclass(frozen=True)
class MicroRingResonator:
    """A silicon micro-ring resonator (thesis 2.1.1).

    MRRs are "optical filters [that] can be made into electro-optical
    modulators, lasers and detectors"; power is "directly proportional to
    the circumference and inversely proportional to quality factor Q".
    """

    radius_um: float = MRR_RADIUS_UM
    quality_factor: float = 9_000.0
    tuning_mw_per_nm: float = TUNING_MW_PER_NM
    #: Resonance index on the WDM grid this ring is tuned to.
    resonance_index: int = 0

    def __post_init__(self) -> None:
        if self.radius_um <= 0:
            raise ValueError(f"radius must be positive, got {self.radius_um}")
        if self.quality_factor <= 0:
            raise ValueError("quality factor must be positive")

    @property
    def circumference_um(self) -> float:
        return 2 * math.pi * self.radius_um

    @property
    def footprint_um2(self) -> float:
        """Ring footprint pi*r^2, the area unit of thesis eqs. (23)-(24)."""
        return math.pi * self.radius_um**2

    def tuning_power_mw(self, detune_nm: float) -> float:
        """Heater power to shift resonance by *detune_nm* (>= 0)."""
        if detune_nm < 0:
            raise ValueError(f"detune must be >= 0, got {detune_nm}")
        return self.tuning_mw_per_nm * detune_nm


@dataclass(frozen=True)
class Modulator:
    """An MRR-based electro-optic modulator (thesis 2.1.1, ref [28]).

    "Electro-optic modulators and demodulators operating at 12.5 Gbps on a
    single wavelength carrier channel have been demonstrated" (3.4.1).
    """

    ring: MicroRingResonator = field(default_factory=MicroRingResonator)
    rate_gbps: float = WAVELENGTH_RATE_GBPS
    energy_pj_per_bit: float = E_MODULATION_PJ_PER_BIT
    insertion_loss_db: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ValueError("rate must be positive")
        if self.energy_pj_per_bit < 0:
            raise ValueError("energy must be >= 0")

    def modulation_energy_pj(self, bits: int) -> float:
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        return self.energy_pj_per_bit * bits

    def serialization_seconds(self, bits: int) -> float:
        """Time to push *bits* through this single-wavelength modulator."""
        return bits / (self.rate_gbps * 1e9)


@dataclass(frozen=True)
class PhotoDetector:
    """Ge p-i-n photodetector + threshold receiver (thesis 2.1.2).

    The filtered MRR output goes to a germanium detector; the photocurrent
    is compared against a threshold to decide 1/0.
    """

    responsivity_a_per_w: float = 1.08
    rate_gbps: float = WAVELENGTH_RATE_GBPS
    energy_pj_per_bit: float = E_MODULATION_PJ_PER_BIT
    sensitivity_dbm: float = -17.0
    length_um: float = 20.0
    width_um: float = 0.7

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0:
            raise ValueError("responsivity must be positive")

    def photocurrent_ma(self, optical_power_mw: float) -> float:
        if optical_power_mw < 0:
            raise ValueError("optical power must be >= 0")
        return self.responsivity_a_per_w * optical_power_mw

    def detects(self, optical_power_dbm: float) -> bool:
        """True when the received power clears the sensitivity floor."""
        return optical_power_dbm >= self.sensitivity_dbm

    def demodulation_energy_pj(self, bits: int) -> float:
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        return self.energy_pj_per_bit * bits


@dataclass(frozen=True)
class PhotonicSwitchingElement:
    """A 90-degree MRR turn switch (thesis 2.1.3, fig. 2-1).

    "When the PSE is in on state, the wavelength of light which matches the
    resonant wavelength of MRR gets turned by 90 degrees." The d-HetPNoC
    crossbar does not need PSEs (no turns), but tile-based PNoCs like the
    2DFT [15] do; we model them for the loss analysis and tests.
    """

    ring: MicroRingResonator = field(default_factory=MicroRingResonator)
    drop_loss_db: float = 0.5
    through_loss_db: float = 0.005
    crosstalk_db: float = -20.0

    def path_loss_db(self, turned: bool) -> float:
        """Loss imposed on the signal: drop (turn) vs through (pass-by)."""
        return self.drop_loss_db if turned else self.through_loss_db


@dataclass(frozen=True)
class LaserSource:
    """Multi-wavelength laser source (thesis 2.1.4).

    On-chip DFB arrays are preferred "as they are energy efficient and
    energy proportional" [16]; power is 1.5 mW/wavelength [30]
    (table 3-4). Energy proportionality means unlit wavelengths cost
    nothing -- the property d-HetPNoC exploits when it lights only the
    allocated wavelengths.
    """

    n_wavelengths: int = 64
    power_mw_per_wavelength: float = LASER_MW_PER_WAVELENGTH
    on_chip: bool = True
    launch_energy_pj_per_bit: float = E_LAUNCH_PJ_PER_BIT

    def __post_init__(self) -> None:
        if self.n_wavelengths <= 0:
            raise ValueError("n_wavelengths must be positive")
        if self.power_mw_per_wavelength <= 0:
            raise ValueError("power must be positive")

    def total_power_mw(self, lit_wavelengths: int | None = None) -> float:
        """Static optical power for *lit_wavelengths* (default: all)."""
        lit = self.n_wavelengths if lit_wavelengths is None else lit_wavelengths
        if not 0 <= lit <= self.n_wavelengths:
            raise ValueError(
                f"lit_wavelengths must be in [0, {self.n_wavelengths}], got {lit}"
            )
        return lit * self.power_mw_per_wavelength

    def launch_energy_pj(self, bits: int) -> float:
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        return self.launch_energy_pj_per_bit * bits

    def per_wavelength_power_dbm(self) -> float:
        return 10 * math.log10(self.power_mw_per_wavelength)
