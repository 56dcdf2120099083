"""Architectures: the Firefly baseline and the proposed d-HetPNoC.

Both are assembled from the shared crossbar base
(:class:`~repro.arch.base.PhotonicCrossbarNoC`): 16 clusters of 4 cores,
all-to-all copper intra-cluster, R-SWMR photonic crossbar inter-cluster
(thesis section 3.1, fig. 3-1), hybrid photonic routers per fig. 3-2.
That base and the chapter-1 electrical mesh are the two fabrics under
one shell, :class:`~repro.arch.base.NoCArchitecture`.
"""

from repro.api.base import lazy_exports

#: Every export: name -> (module, attribute), imported on first use
#: (PEP 562).
_LAZY = {
    "ArchMetrics": ("repro.arch.base", "ArchMetrics"),
    "ClusterGateway": ("repro.arch.photonic_router", "ClusterGateway"),
    "DHetPNoC": ("repro.arch.dhetpnoc", "DHetPNoC"),
    "ElectricalMeshNoC": ("repro.arch.electrical_baseline", "ElectricalMeshNoC"),
    "FaultInjector": ("repro.arch.faults", "FaultInjector"),
    "FireflyNoC": ("repro.arch.firefly", "FireflyNoC"),
    "NoCArchitecture": ("repro.arch.base", "NoCArchitecture"),
    "PAPER_RESET_CYCLES": ("repro.arch.config", "PAPER_RESET_CYCLES"),
    "PAPER_TOTAL_CYCLES": ("repro.arch.config", "PAPER_TOTAL_CYCLES"),
    "PhotonicCrossbarNoC": ("repro.arch.base", "PhotonicCrossbarNoC"),
    "SystemConfig": ("repro.arch.config", "SystemConfig"),
    "TxPlan": ("repro.arch.photonic_router", "TxPlan"),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
