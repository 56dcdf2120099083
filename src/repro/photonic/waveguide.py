"""On-chip optical waveguides (thesis 2.1.5).

"Nanophotonic waveguides in silicon on insulator (SOI) fabricated with
deep ultraviolet lithography is used as the medium for carrying the
optical packets" [17]. A waveguide carries up to 64 DWDM wavelengths
(section 3.4.1); propagation delay follows from the group index, and loss
per cm feeds the power budget. Which cluster holds a wavelength is the
DBA token's record (:mod:`repro.dba.token`), not the waveguide's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.photonic.wavelength import SPEED_OF_LIGHT_M_S


@dataclass
class Waveguide:
    """One physical waveguide: propagation delay and loss."""

    waveguide_id: int
    length_mm: float = 20.0
    group_index: float = 4.0
    loss_db_per_cm: float = 1.0
    coupler_loss_db: float = 1.0

    def __post_init__(self) -> None:
        if self.length_mm <= 0:
            raise ValueError("length must be positive")

    def propagation_delay_s(self, distance_mm: Optional[float] = None) -> float:
        distance = self.length_mm if distance_mm is None else distance_mm
        return distance * 1e-3 * self.group_index / SPEED_OF_LIGHT_M_S

    def propagation_delay_cycles(self, clock_hz: float, distance_mm: Optional[float] = None) -> int:
        """Whole-cycle propagation delay (>= 1)."""
        return max(1, math.ceil(self.propagation_delay_s(distance_mm) * clock_hz))

    def propagation_loss_db(self, distance_mm: Optional[float] = None) -> float:
        distance = self.length_mm if distance_mm is None else distance_mm
        return self.loss_db_per_cm * distance / 10.0
