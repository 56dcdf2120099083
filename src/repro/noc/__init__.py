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

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.buffer import VirtualChannelBuffer
from repro.noc.flit import Flit, FlitType, Packet, packetize
from repro.noc.link import Link
from repro.noc.network import ElectricalNetwork, NetworkMetrics
from repro.noc.router import Router, RouterConfig
from repro.noc.routing import DimensionOrderRouting
from repro.noc.topology import Topology, TopologyError

__all__ = [
    "DimensionOrderRouting",
    "ElectricalNetwork",
    "Flit",
    "FlitType",
    "Link",
    "NetworkMetrics",
    "Packet",
    "RoundRobinArbiter",
    "Router",
    "RouterConfig",
    "Topology",
    "TopologyError",
    "VirtualChannelBuffer",
    "packetize",
]
