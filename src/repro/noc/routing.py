"""XY routing for the electrical mesh.

:class:`DimensionOrderRouting` is deterministic dimension-order routing,
the scheme the 2DFT photonic NoC of thesis section 2.1.3 uses for its
electronic control network and the one the chapter-1 mesh baseline runs.
"""

from __future__ import annotations

from typing import Dict

from repro.noc.topology import Topology, TopologyError


class RoutingError(RuntimeError):
    """Raised when routing inputs are inconsistent."""


class DimensionOrderRouting:
    """XY dimension-order routing on a mesh with coordinates.

    Routes fully in X first, then in Y; deadlock-free on meshes.
    """

    def __init__(self, topology: Topology):
        if not topology.coords:
            raise TopologyError("DimensionOrderRouting requires node coordinates")
        self.topology = topology
        self._by_coord: Dict[tuple, int] = {xy: n for n, xy in topology.coords.items()}

    def next_hop(self, node: int, dst: int) -> int:
        """The neighbor of *node* one XY step closer to *dst*."""
        if node == dst:
            raise RoutingError(f"next_hop called with node == dst == {node}")
        x, y = self.topology.coords[node]
        dx, dy = self.topology.coords[dst]
        if x != dx:
            return self._by_coord[(x + (1 if dx > x else -1), y)]
        return self._by_coord[(x, y + (1 if dy > y else -1))]
