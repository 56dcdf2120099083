"""Architectures: the Firefly baseline and the proposed d-HetPNoC.

Both are assembled from the shared crossbar base
(:class:`~repro.arch.base.PhotonicCrossbarNoC`): 16 clusters of 4 cores,
all-to-all copper intra-cluster, R-SWMR photonic crossbar inter-cluster
(thesis section 3.1, fig. 3-1), hybrid photonic routers per fig. 3-2.
That base and the chapter-1 electrical mesh are the two fabrics under
one shell, :class:`~repro.arch.base.NoCArchitecture`.
"""

from repro.arch.base import ArchMetrics, NoCArchitecture, PhotonicCrossbarNoC
from repro.arch.config import PAPER_RESET_CYCLES, PAPER_TOTAL_CYCLES, SystemConfig
from repro.arch.dhetpnoc import DHetPNoC
from repro.arch.electrical_baseline import ElectricalMeshNoC
from repro.arch.faults import FaultInjector
from repro.arch.firefly import FireflyNoC
from repro.arch.photonic_router import ClusterGateway, TxPlan

__all__ = [
    "ArchMetrics",
    "ClusterGateway",
    "DHetPNoC",
    "ElectricalMeshNoC",
    "FaultInjector",
    "FireflyNoC",
    "NoCArchitecture",
    "PAPER_RESET_CYCLES",
    "PAPER_TOTAL_CYCLES",
    "PhotonicCrossbarNoC",
    "SystemConfig",
    "TxPlan",
]
