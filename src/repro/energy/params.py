"""Energy/power constants (thesis tables 3-4 and 3-5).

Table 3-4 (power or energy of photonic components):

* Modulator/Demodulator: 40 fJ/bit [28]
* Tuning: 2.4 mW/nm [28]
* Laser source: 1.5 mW/wavelength [30]

Table 3-5 (per-bit energies used in eq. 4):

* E_modulation = 0.04 pJ/bit
* E_tuning     = 0.24 pJ/bit
* E_launch     = 0.15 pJ/bit
* E_buffer     = 0.0781250 pJ/bit
* E_router     = 0.625 pJ/bit
"""

from __future__ import annotations

from dataclasses import dataclass

E_MODULATION_PJ_PER_BIT = 0.04
E_TUNING_PJ_PER_BIT = 0.24
E_LAUNCH_PJ_PER_BIT = 0.15
E_BUFFER_PJ_PER_BIT = 0.0781250
E_ROUTER_PJ_PER_BIT = 0.625

LASER_MW_PER_WAVELENGTH = 1.5
TUNING_MW_PER_NM = 2.4

#: Electrical wire energy for the chapter-1 electrical-baseline study,
#: pJ/bit/mm at 65 nm (consistent with the link-energy extraction the
#: thesis performed "through Cadence simulations taking into account the
#: specific lengths of each link", section 3.4.1). Typical published
#: 65 nm global-wire figures are 0.1-0.2 pJ/bit/mm.
ELECTRICAL_WIRE_PJ_PER_BIT_MM = 0.15

#: Retention divisor: a buffered flit leaks E_buffer/RETENTION_DIVISOR per
#: bit per cycle of residence. This is the model choice (docs/engine.md,
#: "The photonic gateway", charging rules) that makes congestion raise
#: packet energy, per thesis 3.4.1.2 ("flits occupy the buffers ... the
#: photonic buffer energy is lesser in case of d-HetPNoC"). 64 cycles of
#: residence costs one extra buffer access.
RETENTION_DIVISOR = 64.0


@dataclass(frozen=True)
class PhotonicEnergyParams:
    """Bundled per-bit energy constants; override for sensitivity studies."""

    modulation_pj_per_bit: float = E_MODULATION_PJ_PER_BIT
    tuning_pj_per_bit: float = E_TUNING_PJ_PER_BIT
    launch_pj_per_bit: float = E_LAUNCH_PJ_PER_BIT
    buffer_pj_per_bit: float = E_BUFFER_PJ_PER_BIT
    router_pj_per_bit: float = E_ROUTER_PJ_PER_BIT
    laser_mw_per_wavelength: float = LASER_MW_PER_WAVELENGTH
    retention_divisor: float = RETENTION_DIVISOR

    def __post_init__(self) -> None:
        for field_name in (
            "modulation_pj_per_bit",
            "tuning_pj_per_bit",
            "launch_pj_per_bit",
            "buffer_pj_per_bit",
            "router_pj_per_bit",
            "laser_mw_per_wavelength",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if self.retention_divisor <= 0:
            raise ValueError("retention_divisor must be positive")
