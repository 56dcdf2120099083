"""DWDM wavelength identity and identifier encoding.

"The maximum number of wavelengths that can be accommodated in a single
waveguide is considered to be 64 as in [20]" (thesis 3.4.1). Wavelength
identifiers piggybacked on reservation flits are "6 bits, which denote the
binary encoded wavelength number (out of 64 per waveguide)" plus, when more
than one data waveguide exists, a binary waveguide number (3 bits for the
8-waveguide BW set 3 case) -- section 3.4.1.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

#: DWDM channels per waveguide (Firefly [20], thesis 3.4.1).
LAMBDA_PER_WAVEGUIDE = 64

#: Per-wavelength modulation rate demonstrated in [28] (thesis 3.4.1).
WAVELENGTH_RATE_GBPS = 12.5

SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True, order=True)
class WavelengthId:
    """Identity of one DWDM wavelength: (waveguide number, index within)."""

    waveguide: int
    index: int

    def __post_init__(self) -> None:
        if self.waveguide < 0:
            raise ValueError(f"waveguide must be >= 0, got {self.waveguide}")
        if not 0 <= self.index < LAMBDA_PER_WAVEGUIDE:
            raise ValueError(
                f"wavelength index must be in [0, {LAMBDA_PER_WAVEGUIDE}), got {self.index}"
            )

    @property
    def flat(self) -> int:
        """Flat index across waveguides (waveguide * 64 + index)."""
        return self.waveguide * LAMBDA_PER_WAVEGUIDE + self.index

    @classmethod
    def from_flat(cls, flat: int) -> "WavelengthId":
        if flat < 0:
            raise ValueError(f"flat index must be >= 0, got {flat}")
        return cls(flat // LAMBDA_PER_WAVEGUIDE, flat % LAMBDA_PER_WAVEGUIDE)


def waveguide_number_bits(n_waveguides: int) -> int:
    """Bits to binary-encode the waveguide number; 0 when one waveguide.

    "For BW set 1 ... a waveguide number is not needed, as a single
    waveguide is sufficient"; "for BW set 3 ... 3 bits (log2 8) would be
    required" (thesis 3.4.1.1).
    """
    if n_waveguides <= 0:
        raise ValueError(f"n_waveguides must be positive, got {n_waveguides}")
    if n_waveguides == 1:
        return 0
    return math.ceil(math.log2(n_waveguides))


def identifier_bits(n_waveguides: int) -> int:
    """Size of one wavelength identifier in bits (6 + waveguide bits)."""
    return 6 + waveguide_number_bits(n_waveguides)


def encode_identifiers(ids: Sequence[WavelengthId], n_waveguides: int) -> int:
    """Pack identifiers into one integer (MSB-first), as on the reservation flit.

    >>> ids = [WavelengthId(0, 3), WavelengthId(0, 5)]
    >>> encode_identifiers(ids, 1) == (3 << 6) | 5
    True
    """
    bits_per_id = identifier_bits(n_waveguides)
    wg_bits = waveguide_number_bits(n_waveguides)
    word = 0
    for wid in ids:
        if wid.waveguide >= n_waveguides:
            raise ValueError(
                f"waveguide {wid.waveguide} out of range for {n_waveguides} waveguides"
            )
        encoded = (wid.waveguide << 6) | wid.index if wg_bits else wid.index
        word = (word << bits_per_id) | encoded
    return word


def decode_identifiers(word: int, count: int, n_waveguides: int) -> List[WavelengthId]:
    """Inverse of :func:`encode_identifiers`."""
    bits_per_id = identifier_bits(n_waveguides)
    mask = (1 << bits_per_id) - 1
    out: List[WavelengthId] = []
    for pos in range(count):
        shift = (count - 1 - pos) * bits_per_id
        encoded = (word >> shift) & mask
        out.append(WavelengthId(encoded >> 6, encoded & 0x3F))
    return out


def wavelengths_for_bandwidth(bandwidth_gbps: float) -> int:
    """Wavelengths needed for *bandwidth_gbps* at 12.5 Gb/s per wavelength.

    "The number of wavelengths required by an application running on a core
    is given by dividing the required bandwidth by minimum channel
    bandwidth" (thesis 3.4.1).

    >>> wavelengths_for_bandwidth(100)
    8
    """
    if bandwidth_gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_gbps}")
    return math.ceil(bandwidth_gbps / WAVELENGTH_RATE_GBPS)


def bits_per_cycle(n_wavelengths: int, clock_hz: float = 2.5e9) -> float:
    """Payload bits per clock cycle carried by *n_wavelengths*.

    At the thesis's 2.5 GHz clock this is exactly 5 bits/cycle/wavelength.
    """
    if n_wavelengths < 0:
        raise ValueError(f"n_wavelengths must be >= 0, got {n_wavelengths}")
    return n_wavelengths * WAVELENGTH_RATE_GBPS * 1e9 / clock_hz
