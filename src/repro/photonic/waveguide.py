"""On-chip optical waveguides (thesis 2.1.5).

"Nanophotonic waveguides in silicon on insulator (SOI) fabricated with
deep ultraviolet lithography is used as the medium for carrying the
optical packets" [17]. A waveguide carries up to 64 DWDM wavelengths
(section 3.4.1); its loss per cm feeds the power budget. Which cluster
holds a wavelength is the DBA token's record (:mod:`repro.dba.token`),
not the waveguide's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Waveguide:
    """One physical waveguide: its length and loss."""

    waveguide_id: int
    length_mm: float = 20.0
    loss_db_per_cm: float = 1.0
    coupler_loss_db: float = 1.0

    def __post_init__(self) -> None:
        if self.length_mm <= 0:
            raise ValueError("length must be positive")

    def propagation_loss_db(self, distance_mm: Optional[float] = None) -> float:
        distance = self.length_mm if distance_mm is None else distance_mm
        return self.loss_db_per_cm * distance / 10.0
