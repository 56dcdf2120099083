"""Photonic substrate: devices, waveguides, wavelengths, R-SWMR channels.

Thesis chapter 2 describes the photonic elements every PNoC is built from:
micro-ring resonators (MRRs, section 2.1.1), germanium photo-detectors
(2.1.2), photonic switching elements (2.1.3), laser sources (2.1.4) and
SOI waveguides (2.1.5). This package models all of them with the cited
device parameters, plus:

* :mod:`repro.photonic.wavelength` -- DWDM wavelength identity, spectrum
  allocation (64 wavelengths per waveguide as in Firefly [20]) and the
  6-bit + waveguide-number identifier encoding of section 3.4.1.1.
* :mod:`repro.photonic.waveguide` -- waveguides: propagation delay and
  loss.
* :mod:`repro.photonic.channel` -- SWMR data channels and broadcast
  reservation channels (the R-SWMR fabric of Firefly, section 2.2.1).
* :mod:`repro.photonic.reservation` -- reservation-flit geometry/timing.
* :mod:`repro.photonic.loss` -- insertion-loss / laser power budget
  analysis (an extension grounded in the device survey).
"""

from repro.photonic.devices import (
    LaserSource,
    MicroRingResonator,
    Modulator,
    PhotoDetector,
    PhotonicSwitchingElement,
)
from repro.photonic.channel import DataChannel, ReservationBroadcastChannel
from repro.photonic.loss import InsertionLossBudget, PathLoss
from repro.photonic.reservation import (
    ReservationFlit,
    reservation_flit_bits,
    reservation_serialization_cycles,
)
from repro.photonic.waveguide import Waveguide
from repro.photonic.wavelength import (
    LAMBDA_PER_WAVEGUIDE,
    WavelengthId,
    decode_identifiers,
    encode_identifiers,
    identifier_bits,
)

__all__ = [
    "DataChannel",
    "InsertionLossBudget",
    "LAMBDA_PER_WAVEGUIDE",
    "LaserSource",
    "MicroRingResonator",
    "Modulator",
    "PathLoss",
    "PhotoDetector",
    "PhotonicSwitchingElement",
    "ReservationBroadcastChannel",
    "ReservationFlit",
    "Waveguide",
    "WavelengthId",
    "decode_identifiers",
    "encode_identifiers",
    "identifier_bits",
    "reservation_flit_bits",
    "reservation_serialization_cycles",
]
