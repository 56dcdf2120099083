"""The circulating wavelength-status token (thesis section 3.2.1).

"The token consists of several bits where, each bit in the token denotes
the status of a specific wavelength in a specific data waveguide i.e.,
whether it is currently allocated to any router or not. The size of the
token in bits, N_TW is equal to the total number of wavelengths, which can
be dynamically allocated":

    N_TW = (N_W * lambda_W) - N_lambdaR                          (eq. 1)

and the token's per-hop link time on the control waveguide is

    T_L = N_TW / (lambda_W * B)                                  (eq. 2)

with B the per-wavelength bandwidth (12.5 Gb/s).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.photonic.wavelength import (
    LAMBDA_PER_WAVEGUIDE,
    WAVELENGTH_RATE_GBPS,
    WavelengthId,
)


def token_size_bits(
    n_waveguides: int,
    reserved_wavelengths: int,
    lambda_per_waveguide: int = LAMBDA_PER_WAVEGUIDE,
) -> int:
    """Token size N_TW per eq. (1).

    >>> token_size_bits(n_waveguides=1, reserved_wavelengths=16)
    48
    >>> token_size_bits(n_waveguides=8, reserved_wavelengths=16)
    496
    """
    if n_waveguides <= 0:
        raise ValueError(f"n_waveguides must be positive, got {n_waveguides}")
    if reserved_wavelengths < 0:
        raise ValueError("reserved_wavelengths must be >= 0")
    total = n_waveguides * lambda_per_waveguide
    if reserved_wavelengths > total:
        raise ValueError(
            f"reserved ({reserved_wavelengths}) exceeds total wavelengths ({total})"
        )
    return total - reserved_wavelengths


def token_link_time_seconds(
    token_bits: int,
    lambda_per_waveguide: int = LAMBDA_PER_WAVEGUIDE,
    rate_gbps: float = WAVELENGTH_RATE_GBPS,
) -> float:
    """Token link traversal time T_L per eq. (2)."""
    if token_bits < 0:
        raise ValueError("token_bits must be >= 0")
    return token_bits / (lambda_per_waveguide * rate_gbps * 1e9)


def token_link_cycles(
    token_bits: int,
    clock_hz: float = 2.5e9,
    lambda_per_waveguide: int = LAMBDA_PER_WAVEGUIDE,
    rate_gbps: float = WAVELENGTH_RATE_GBPS,
) -> int:
    """T_L rounded up to whole clock cycles (>= 1).

    BW set 1 (48 allocatable wavelengths): 60 ps -> 1 cycle.
    BW set 3 (496): 620 ps -> 2 cycles at 2.5 GHz.
    """
    seconds = token_link_time_seconds(token_bits, lambda_per_waveguide, rate_gbps)
    return max(1, math.ceil(seconds * clock_hz))


#: The owner of a wavelength taken out of service (no cluster id).
RETIRED = -1


class WavelengthToken:
    """The token bitmap plus an owner map for invariant checking.

    The physical token only carries free/allocated bits; owners are a
    shadow of them. One owner per wavelength makes mutual exclusion hold
    by construction (a wavelength is never held by two routers -- the
    very hazard the token mechanism exists to prevent: "to avoid reusing
    already allocated wavelengths within a single waveguide"), so what
    is checked is that each router's tables agree with it
    (``DHetPNoC.audit_fabric``).
    """

    def __init__(self, wavelengths: List[WavelengthId]):
        if len(set(wavelengths)) != len(wavelengths):
            raise ValueError("duplicate wavelengths in token")
        if not wavelengths:
            raise ValueError("token must cover at least one wavelength")
        self._order: List[WavelengthId] = list(wavelengths)
        self._owner: Dict[WavelengthId, Optional[int]] = {w: None for w in wavelengths}

    # ------------------------------------------------------------------
    @property
    def size_bits(self) -> int:
        return len(self._order)

    def free_wavelengths(self) -> List[WavelengthId]:
        return [w for w in self._order if self._owner[w] is None]

    def held_by(self, cluster: int) -> List[WavelengthId]:
        return [w for w in self._order if self._owner[w] == cluster]

    def release(self, wid: WavelengthId, cluster: int) -> None:
        self._check(wid)
        if self._owner[wid] != cluster:
            raise ValueError(
                f"cluster {cluster} cannot release {wid} owned by {self._owner[wid]}"
            )
        self._owner[wid] = None

    def acquire_up_to(self, count: int, cluster: int) -> List[WavelengthId]:
        """Take up to *count* free wavelengths (lowest ids first)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        taken: List[WavelengthId] = []
        for wid in self._order:
            if len(taken) >= count:
                break
            if self._owner[wid] is None:
                self._owner[wid] = cluster
                taken.append(wid)
        return taken

    def retire(self, wid: WavelengthId, cluster: int) -> None:
        """Take *cluster*'s *wid* out of service for good: its bit stays
        allocated, owned by :data:`RETIRED`, so no cluster acquires it
        again and none holds it."""
        self.release(wid, cluster)
        self._owner[wid] = RETIRED

    def _check(self, wid: WavelengthId) -> None:
        if wid not in self._owner:
            raise KeyError(f"{wid} is not in this token's pool")

    def __repr__(self) -> str:
        return (
            f"WavelengthToken(bits={self.size_bits}, "
            f"free={len(self.free_wavelengths())})"
        )
