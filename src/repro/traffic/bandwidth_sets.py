"""The three bandwidth sets of thesis table 3-1 and table 3-3 geometry.

========================== ========================== =========================
Set (total wavelengths)    Class bandwidths (Gb/s)    Packet geometry
========================== ========================== =========================
BW set 1 (64)              12.5 / 25 / 50 / 100       64 flits x 32 bits
BW set 2 (256)             50 / 100 / 200 / 400       16 flits x 128 bits
BW set 3 (512)             100 / 200 / 400 / 800      8 flits x 256 bits
========================== ========================== =========================

Every packet is 2048 bits. Per set, Firefly statically gives each of the
16 cluster channels ``total/16`` wavelengths; d-HetPNoC may concentrate up
to the per-channel maximum (8 / 32 / 64 wavelengths -- table 3-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.api.base import Registry
from repro.photonic.wavelength import (
    WAVELENGTH_RATE_GBPS,
    n_data_waveguides,
    wavelengths_for_bandwidth,
)


@dataclass(frozen=True)
class BandwidthSet:
    """One row of table 3-1 joined with its table 3-3 packet geometry."""

    index: int
    name: str
    class_gbps: Tuple[float, float, float, float]
    total_wavelengths: int
    flit_bits: int
    packet_flits: int
    dhet_max_channel_wavelengths: int

    def __post_init__(self) -> None:
        if sorted(self.class_gbps) != list(self.class_gbps):
            raise ValueError("class_gbps must be ascending")
        if self.total_wavelengths % 16:
            raise ValueError("total_wavelengths must divide into 16 channels")

    # -- derived quantities -------------------------------------------------
    @property
    def n_classes(self) -> int:
        return len(self.class_gbps)

    @property
    def packet_bits(self) -> int:
        return self.packet_flits * self.flit_bits

    @property
    def n_waveguides(self) -> int:
        """N_WD, thesis section 3.4.3."""
        return n_data_waveguides(self.total_wavelengths)

    @property
    def firefly_lambda_per_channel(self) -> int:
        """lambda_NF = N_lambda / N_PR: the static uniform split."""
        return self.total_wavelengths // 16

    @property
    def aggregate_gbps(self) -> float:
        return self.total_wavelengths * WAVELENGTH_RATE_GBPS

    def class_wavelengths(self, class_index: int) -> int:
        """Wavelengths demanded by class *class_index* (bandwidth / 12.5)."""
        return wavelengths_for_bandwidth(self.class_gbps[class_index])

    def wavelengths_per_class(self) -> List[int]:
        return [self.class_wavelengths(i) for i in range(self.n_classes)]

    @property
    def uniform_class_gbps(self) -> float:
        """Per-channel bandwidth under a uniform split (for uniform traffic)."""
        return self.firefly_lambda_per_channel * WAVELENGTH_RATE_GBPS

    def __str__(self) -> str:
        rates = "/".join(f"{g:g}" for g in self.class_gbps)
        return f"{self.name} ({self.total_wavelengths} wavelengths, {rates} Gb/s)"


BW_SET_1 = BandwidthSet(
    index=1,
    name="BW Set 1",
    class_gbps=(12.5, 25.0, 50.0, 100.0),
    total_wavelengths=64,
    flit_bits=32,
    packet_flits=64,
    dhet_max_channel_wavelengths=8,
)

BW_SET_2 = BandwidthSet(
    index=2,
    name="BW Set 2",
    class_gbps=(50.0, 100.0, 200.0, 400.0),
    total_wavelengths=256,
    flit_bits=128,
    packet_flits=16,
    dhet_max_channel_wavelengths=32,
)

BW_SET_3 = BandwidthSet(
    index=3,
    name="BW Set 3",
    class_gbps=(100.0, 200.0, 400.0, 800.0),
    total_wavelengths=512,
    flit_bits=256,
    packet_flits=8,
    dhet_max_channel_wavelengths=64,
)

BANDWIDTH_SETS: Tuple[BandwidthSet, ...] = (BW_SET_1, BW_SET_2, BW_SET_3)

#: Registry of ``index -> BandwidthSet`` (also exposed through
#: :mod:`repro.api.registry`). Registering a new set makes it
#: addressable by every index-keyed surface (sweep grids, specs, the
#: CLI ``--bw-set`` choices) at once.
bandwidth_sets = Registry("bandwidth set")
for _set in BANDWIDTH_SETS:
    bandwidth_sets.register(_set.index, _set)


def bandwidth_set_by_index(index: int) -> BandwidthSet:
    """The registered :class:`BandwidthSet` for *index* (KeyError if none)."""
    return bandwidth_sets.get(index)


def is_canonical_set(bw_set: BandwidthSet) -> bool:
    """Whether *bw_set* is exactly the registered set with its index.

    A customised set (``dataclasses.replace(BW_SET_1, ...)``) shares an
    index with a table 3-1 set but must never be treated as it.
    """
    try:
        return bandwidth_sets.get(bw_set.index) == bw_set
    except KeyError:
        return False
