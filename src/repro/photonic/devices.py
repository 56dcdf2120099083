"""Photonic device parameters the loss budget reads (thesis 2.1.1-2.1.4).

The laser's 1.5 mW per wavelength is the value the thesis cites (ref
[30], table 3-4); the insertion losses and the detector's sensitivity
floor are this model's defaults. These classes feed the insertion-loss
budget in :mod:`repro.photonic.loss` and nothing else. The energies,
powers and ring radius the simulator charges are the constants
:mod:`repro.energy.params` and :mod:`repro.area.model` name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.params import LASER_MW_PER_WAVELENGTH


@dataclass(frozen=True)
class Modulator:
    """An MRR-based electro-optic modulator (thesis 2.1.1, ref [28])."""

    insertion_loss_db: float = 1.0


@dataclass(frozen=True)
class PhotoDetector:
    """Ge p-i-n photodetector + threshold receiver (thesis 2.1.2).

    The filtered MRR output goes to a germanium detector; the photocurrent
    is compared against a threshold to decide 1/0.
    """

    sensitivity_dbm: float = -17.0


@dataclass(frozen=True)
class PhotonicSwitchingElement:
    """A 90-degree MRR turn switch (thesis 2.1.3, fig. 2-1).

    "When the PSE is in on state, the wavelength of light which matches the
    resonant wavelength of MRR gets turned by 90 degrees." A signal
    dropped into its detector ring pays the drop loss; every
    off-resonance ring it passes costs the through loss.
    """

    drop_loss_db: float = 0.5
    through_loss_db: float = 0.005


@dataclass(frozen=True)
class LaserSource:
    """Multi-wavelength laser source (thesis 2.1.4).

    On-chip DFB arrays are preferred "as they are energy efficient and
    energy proportional" [16]; power is 1.5 mW/wavelength [30]
    (table 3-4).
    """

    power_mw_per_wavelength: float = LASER_MW_PER_WAVELENGTH

    def __post_init__(self) -> None:
        if self.power_mw_per_wavelength <= 0:
            raise ValueError("power must be positive")

    def per_wavelength_power_dbm(self) -> float:
        return 10 * math.log10(self.power_mw_per_wavelength)
