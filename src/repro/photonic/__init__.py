"""Photonic substrate: devices, waveguides, wavelengths, R-SWMR channels.

Thesis chapter 2 describes the photonic elements every PNoC is built from:
micro-ring resonators (MRRs, section 2.1.1), germanium photo-detectors
(2.1.2), photonic switching elements (2.1.3), laser sources (2.1.4) and
SOI waveguides (2.1.5). :mod:`repro.photonic.devices` keeps the device
parameters the loss budget reads, plus:

* :mod:`repro.photonic.wavelength` -- DWDM wavelength identity, spectrum
  allocation (64 wavelengths per waveguide as in Firefly [20]) and the
  size of the 6-bit + waveguide-number identifier of section 3.4.1.1,
  which sizes the reservation flit (the simulator never packs the word).
* :mod:`repro.photonic.waveguide` -- waveguides: length and loss.
* :mod:`repro.photonic.channel` -- SWMR data channels and broadcast
  reservation channels (the R-SWMR fabric of Firefly, section 2.2.1).
* :mod:`repro.photonic.reservation` -- reservation-flit geometry/timing.
* :mod:`repro.photonic.loss` -- insertion-loss / laser power budget
  analysis (an extension grounded in the device survey).
"""

from repro.api.base import lazy_exports

#: Every export: name -> (module, attribute), imported on first use
#: (PEP 562).
_LAZY = {
    "DataChannel": ("repro.photonic.channel", "DataChannel"),
    "InsertionLossBudget": ("repro.photonic.loss", "InsertionLossBudget"),
    "LAMBDA_PER_WAVEGUIDE": ("repro.photonic.wavelength", "LAMBDA_PER_WAVEGUIDE"),
    "LaserSource": ("repro.photonic.devices", "LaserSource"),
    "Modulator": ("repro.photonic.devices", "Modulator"),
    "PathLoss": ("repro.photonic.loss", "PathLoss"),
    "PhotoDetector": ("repro.photonic.devices", "PhotoDetector"),
    "PhotonicSwitchingElement": ("repro.photonic.devices", "PhotonicSwitchingElement"),
    "ReservationBroadcastChannel": ("repro.photonic.channel", "ReservationBroadcastChannel"),
    "ReservationFlit": ("repro.photonic.reservation", "ReservationFlit"),
    "Waveguide": ("repro.photonic.waveguide", "Waveguide"),
    "WavelengthId": ("repro.photonic.wavelength", "WavelengthId"),
    "identifier_bits": ("repro.photonic.wavelength", "identifier_bits"),
    "reservation_flit_bits": ("repro.photonic.reservation", "reservation_flit_bits"),
    "reservation_serialization_cycles": ("repro.photonic.reservation", "reservation_serialization_cycles"),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
