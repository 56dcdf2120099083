"""Electrical NoC substrate.

Thesis chapter 1 surveys the NoC paradigm this work builds on: wormhole
switching with virtual channels (fig. 1-3) and 3-stage switches (input
arbitration, routing/crossbar, output arbitration, adopted from Pande et
al. [24]). Its electrical baseline is a CLICHE mesh (fig. 1-2) of such
switches with XY routing and one-cycle links (section 1.5).

This package implements that substrate, and only that, from scratch:

* :mod:`repro.noc.flit` -- packets, flits, packetisation.
* :mod:`repro.noc.buffer` -- virtual-channel FIFO buffers with occupancy
  accounting (needed for buffer-energy, thesis 3.4.1.2).
* :mod:`repro.noc.arbiter` -- the round-robin arbiter.
* :mod:`repro.noc.link` -- one-cycle links and their credit return.
* :mod:`repro.noc.topology` -- the mesh and its port numbering.
* :mod:`repro.noc.routing` -- XY (dimension-order) routing.
* :mod:`repro.noc.router` -- the full 3-stage wormhole VC router, its
  conflict-checked crossbar included.
* :mod:`repro.noc.network` -- assembles routers+links into a network with
  traffic endpoints: the 64-core electrical mesh baseline of
  :mod:`repro.arch.electrical_baseline`. The photonic architectures do
  not use it: a cluster gateway models its copper links as a fixed delay
  and keeps per-VC flit counts of its own.
"""

from repro.api.base import lazy_exports

#: Every export: name -> (module, attribute), imported on first use
#: (PEP 562).
_LAZY = {
    "DimensionOrderRouting": ("repro.noc.routing", "DimensionOrderRouting"),
    "ElectricalNetwork": ("repro.noc.network", "ElectricalNetwork"),
    "Flit": ("repro.noc.flit", "Flit"),
    "FlitType": ("repro.noc.flit", "FlitType"),
    "Link": ("repro.noc.link", "Link"),
    "NetworkMetrics": ("repro.noc.network", "NetworkMetrics"),
    "Packet": ("repro.noc.flit", "Packet"),
    "RoundRobinArbiter": ("repro.noc.arbiter", "RoundRobinArbiter"),
    "Router": ("repro.noc.router", "Router"),
    "RouterConfig": ("repro.noc.router", "RouterConfig"),
    "Topology": ("repro.noc.topology", "Topology"),
    "TopologyError": ("repro.noc.topology", "TopologyError"),
    "VirtualChannelBuffer": ("repro.noc.buffer", "VirtualChannelBuffer"),
    "packetize": ("repro.noc.flit", "packetize"),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
