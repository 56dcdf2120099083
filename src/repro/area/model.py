"""Modulator/detector counts and MRR area, thesis eqs. (5)-(24).

Validated reference points from section 3.4.3 (64 data wavelengths,
16 photonic routers, 64 wavelengths/waveguide):

* d-HetPNoC total modulator+demodulator area = **1.608 mm^2**
* Firefly  total modulator+demodulator area = **1.367 mm^2**
* d-HetPNoC 64 -> 512 wavelengths: area grows **+70%** (fig. 3-8/3-9)

The conclusion's mitigation ("restricting the cluster to use wavelengths
from certain waveguides", e.g. router PR_x limited to Waveguide(x) and
Waveguide(x+1)) is implemented by :func:`restricted_dhetpnoc_counts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.photonic.wavelength import LAMBDA_PER_WAVEGUIDE, n_data_waveguides

#: MRR radius, um ("We consider MRR's having radius of 5 um [28]").
MRR_RADIUS_UM = 5.0

#: Control-waveguide DWDM width used by eq. (17)'s literal 64.
CONTROL_WAVEGUIDE_LAMBDA = 64


@dataclass(frozen=True)
class DeviceCounts:
    """Electro-optic device census for one architecture."""

    data_modulators: int
    reservation_modulators: int
    control_modulators: int
    data_detectors: int
    reservation_detectors: int
    control_detectors: int

    @property
    def total_modulators(self) -> int:
        """T_MD (eq. 5/9) or T_MF (eq. 10/13)."""
        return (
            self.data_modulators
            + self.reservation_modulators
            + self.control_modulators
        )

    @property
    def total_detectors(self) -> int:
        """T_DMD (eq. 14/18) or T_DMF (eq. 19/22)."""
        return (
            self.data_detectors
            + self.reservation_detectors
            + self.control_detectors
        )

    @property
    def total_devices(self) -> int:
        return self.total_modulators + self.total_detectors


def dhetpnoc_counts(
    total_wavelengths: int,
    n_photonic_routers: int = 16,
    lambda_w: int = LAMBDA_PER_WAVEGUIDE,
) -> DeviceCounts:
    """d-HetPNoC device counts, eqs. (6)-(9) and (15)-(18).

    Modulators: every router can modulate any wavelength of any data
    waveguide (N_PR * lambda_W * N_WD), writes its dedicated reservation
    waveguide (N_PR * lambda_W) and, when holding the token, the control
    waveguide (N_PR * lambda_W).

    Detectors: any wavelength of any data waveguide (N_PR * lambda_W *
    N_WD); reservation reads from every other router's reservation
    waveguide (N_PR * lambda_W * (N_PR - 1)); control reads all 64
    channels (N_PR * 64, eq. 17).
    """
    if n_photonic_routers < 2:
        raise ValueError("need at least 2 photonic routers")
    n_wd = n_data_waveguides(total_wavelengths, lambda_w)
    return DeviceCounts(
        data_modulators=n_photonic_routers * lambda_w * n_wd,           # eq. (6)
        reservation_modulators=n_photonic_routers * lambda_w,           # eq. (7)
        control_modulators=n_photonic_routers * lambda_w,               # eq. (8)
        data_detectors=n_photonic_routers * lambda_w * n_wd,            # eq. (15)
        reservation_detectors=n_photonic_routers
        * lambda_w
        * (n_photonic_routers - 1),                                     # eq. (16)
        control_detectors=n_photonic_routers * CONTROL_WAVEGUIDE_LAMBDA,  # eq. (17)
    )


def firefly_counts(
    total_wavelengths: int,
    n_photonic_routers: int = 16,
    lambda_w: int = LAMBDA_PER_WAVEGUIDE,
) -> DeviceCounts:
    """Firefly device counts, eqs. (11)-(13) and (20)-(22).

    Each router writes a dedicated data waveguide on lambda_NF =
    ceil(N_lambda / N_WF) channels (N_WF = N_PR waveguides) and reads the
    other routers' data and reservation waveguides.
    """
    if n_photonic_routers < 2:
        raise ValueError("need at least 2 photonic routers")
    lambda_nf = math.ceil(total_wavelengths / n_photonic_routers)
    return DeviceCounts(
        data_modulators=n_photonic_routers * lambda_nf,                 # eq. (11)
        reservation_modulators=n_photonic_routers * lambda_w,           # eq. (12)
        control_modulators=0,
        data_detectors=n_photonic_routers
        * lambda_nf
        * (n_photonic_routers - 1),                                     # eq. (20)
        reservation_detectors=n_photonic_routers
        * lambda_w
        * (n_photonic_routers - 1),                                     # eq. (21)
        control_detectors=0,
    )


def restricted_dhetpnoc_counts(
    total_wavelengths: int,
    waveguides_per_router: int = 2,
    n_photonic_routers: int = 16,
    lambda_w: int = LAMBDA_PER_WAVEGUIDE,
) -> DeviceCounts:
    """The conclusion's area mitigation: router PR_x may only use
    wavelengths of ``waveguides_per_router`` waveguides (e.g. Waveguide(x)
    and Waveguide(x+1)), shrinking data modulators/detectors from
    ``N_PR * lambda_W * N_WD`` to ``N_PR * lambda_W * min(N_WD, k)``."""
    if waveguides_per_router < 1:
        raise ValueError("waveguides_per_router must be >= 1")
    base = dhetpnoc_counts(total_wavelengths, n_photonic_routers, lambda_w)
    n_wd = n_data_waveguides(total_wavelengths, lambda_w)
    k = min(n_wd, waveguides_per_router)
    return DeviceCounts(
        data_modulators=n_photonic_routers * lambda_w * k,
        reservation_modulators=base.reservation_modulators,
        control_modulators=base.control_modulators,
        data_detectors=n_photonic_routers * lambda_w * k,
        reservation_detectors=base.reservation_detectors,
        control_detectors=base.control_detectors,
    )


def mrr_area_mm2(device_count: int, radius_um: float = MRR_RADIUS_UM) -> float:
    """Total ring area: count * pi * r^2 (eqs. 23-24), in mm^2."""
    if device_count < 0:
        raise ValueError("device_count must be >= 0")
    if radius_um <= 0:
        raise ValueError("radius must be positive")
    return device_count * math.pi * radius_um**2 * 1e-6


def dhetpnoc_area_mm2(
    total_wavelengths: int,
    n_photonic_routers: int = 16,
    lambda_w: int = LAMBDA_PER_WAVEGUIDE,
    radius_um: float = MRR_RADIUS_UM,
) -> float:
    """A_D of eq. (23). 1.608 mm^2 at the 64-wavelength reference point."""
    counts = dhetpnoc_counts(total_wavelengths, n_photonic_routers, lambda_w)
    return mrr_area_mm2(counts.total_devices, radius_um)


def firefly_area_mm2(
    total_wavelengths: int,
    n_photonic_routers: int = 16,
    lambda_w: int = LAMBDA_PER_WAVEGUIDE,
    radius_um: float = MRR_RADIUS_UM,
) -> float:
    """A_F of eq. (24). 1.367 mm^2 at the 64-wavelength reference point."""
    counts = firefly_counts(total_wavelengths, n_photonic_routers, lambda_w)
    return mrr_area_mm2(counts.total_devices, radius_um)
