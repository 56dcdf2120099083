"""Routing algorithms for the electrical substrate.

Two families are provided:

* :class:`TableRouting` -- next-hop tables from shortest paths, valid for
  every topology in :mod:`repro.noc.topology`. It is what an
  :class:`~repro.noc.network.ElectricalNetwork` falls back to when no
  routing is passed; no architecture in :mod:`repro.arch` builds a
  network that way (the electrical baseline passes XY routing, and the
  photonic gateways model the all-to-all intra-cluster fabric without a
  routed network), so today its callers are the topology tests.
* :class:`DimensionOrderRouting` -- deterministic XY routing for
  mesh/torus, the scheme the 2DFT photonic NoC of thesis section 2.1.3
  uses for its electronic control network.
"""

from __future__ import annotations

from typing import Dict

from repro.noc.topology import Topology, TopologyError


class RoutingError(RuntimeError):
    """Raised when no route exists or routing inputs are inconsistent."""


class RoutingAlgorithm:
    """Interface: map (current node, destination node) -> next-hop node."""

    def next_hop(self, node: int, dst: int) -> int:
        raise NotImplementedError

    def output_port(self, topology: Topology, node: int, dst: int) -> int:
        """Convenience: the port index on *node* toward the next hop."""
        return topology.port_of(node, self.next_hop(node, dst))


class TableRouting(RoutingAlgorithm):
    """Shortest-path next-hop tables with deterministic tie-breaking."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self._tables: Dict[int, Dict[int, int]] = topology.shortest_path_tables()

    def next_hop(self, node: int, dst: int) -> int:
        if node == dst:
            raise RoutingError(f"next_hop called with node == dst == {node}")
        try:
            return self._tables[node][dst]
        except KeyError:
            raise RoutingError(f"no route from {node} to {dst}") from None

    def path(self, src: int, dst: int) -> list:
        """Full node path src..dst (for tests and diagnostics)."""
        path = [src]
        node = src
        guard = self.topology.n_nodes + 1
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            guard -= 1
            if guard < 0:
                raise RoutingError(f"routing loop detected from {src} to {dst}")
        return path


class DimensionOrderRouting(RoutingAlgorithm):
    """XY dimension-order routing on a mesh or torus with coordinates.

    Routes fully in X first, then in Y; deadlock-free on meshes. On tori
    the shorter wrap direction is chosen (ties go to the positive
    direction).
    """

    def __init__(self, topology: Topology):
        if not topology.coords:
            raise TopologyError("DimensionOrderRouting requires node coordinates")
        self.topology = topology
        self._by_coord: Dict[tuple, int] = {xy: n for n, xy in topology.coords.items()}
        xs = [x for x, _ in topology.coords.values()]
        ys = [y for _, y in topology.coords.values()]
        self.width = max(xs) + 1
        self.height = max(ys) + 1
        self.wraps = topology.name in ("torus", "folded_torus")

    def next_hop(self, node: int, dst: int) -> int:
        if node == dst:
            raise RoutingError(f"next_hop called with node == dst == {node}")
        x, y = self.topology.coords[node]
        dx, dy = self.topology.coords[dst]
        if x != dx:
            step = self._step(x, dx, self.width)
            return self._by_coord[((x + step) % self.width, y)]
        step = self._step(y, dy, self.height)
        return self._by_coord[(x, (y + step) % self.height)]

    def _step(self, here: int, there: int, size: int) -> int:
        if not self.wraps:
            return 1 if there > here else -1
        forward = (there - here) % size
        backward = (here - there) % size
        return 1 if forward <= backward else -1
