"""Electrical NoC substrate.

Thesis chapter 1 surveys the NoC paradigm this work builds on: wormhole
switching with virtual channels (fig. 1-3), 3-stage switches (input
arbitration, routing/crossbar, output arbitration, adopted from Pande et
al. [24]), and the standard topology zoo (SPIN, CLICHE/mesh, torus, folded
torus, octagon, butterfly fat tree -- section 1.4).

This package implements that substrate from scratch:

* :mod:`repro.noc.flit` -- packets, flits, packetisation.
* :mod:`repro.noc.buffer` -- virtual-channel FIFO buffers with occupancy
  accounting (needed for buffer-energy, thesis 3.4.1.2).
* :mod:`repro.noc.arbiter` -- round-robin and matrix arbiters.
* :mod:`repro.noc.crossbar` -- a conflict-checked crossbar model.
* :mod:`repro.noc.link` -- fixed-latency links and credit channels.
* :mod:`repro.noc.topology` -- topology generators and adjacency.
* :mod:`repro.noc.routing` -- dimension-order and table-based routing.
* :mod:`repro.noc.router` -- the full 3-stage wormhole VC router.
* :mod:`repro.noc.network` -- assembles routers+links into a network with
  traffic endpoints (used standalone and inside each d-HetPNoC cluster).
"""

from repro.noc.arbiter import MatrixArbiter, RoundRobinArbiter
from repro.noc.buffer import VirtualChannelBuffer
from repro.noc.crossbar import Crossbar
from repro.noc.flit import Flit, FlitType, Packet, packetize
from repro.noc.link import CreditChannel, Link
from repro.noc.network import ElectricalNetwork, NetworkMetrics
from repro.noc.router import Router, RouterConfig
from repro.noc.routing import DimensionOrderRouting, TableRouting
from repro.noc.topology import Topology, TopologyError

__all__ = [
    "CreditChannel",
    "Crossbar",
    "DimensionOrderRouting",
    "ElectricalNetwork",
    "Flit",
    "FlitType",
    "Link",
    "MatrixArbiter",
    "NetworkMetrics",
    "Packet",
    "RoundRobinArbiter",
    "Router",
    "RouterConfig",
    "TableRouting",
    "Topology",
    "TopologyError",
    "VirtualChannelBuffer",
    "packetize",
]
