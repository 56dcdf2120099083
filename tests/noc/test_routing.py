"""Tests for routing algorithms."""

import pytest

from repro.noc.routing import DimensionOrderRouting, RoutingError
from repro.noc.topology import Topology, TopologyError, mesh


class TestDimensionOrderRouting:
    def test_x_before_y(self):
        topo = mesh(4, 4)
        routing = DimensionOrderRouting(topo)
        # From (0,0) to (2,2): first hop must move in X.
        nxt = routing.next_hop(0, 10)
        assert topo.coords[nxt] == (1, 0)

    def test_y_when_x_aligned(self):
        topo = mesh(4, 4)
        routing = DimensionOrderRouting(topo)
        nxt = routing.next_hop(2, 10)  # (2,0) -> (2,2)
        assert topo.coords[nxt] == (2, 1)

    def test_full_path_reaches(self):
        topo = mesh(5, 5)
        routing = DimensionOrderRouting(topo)
        node = 0
        for _ in range(20):
            if node == 24:
                break
            node = routing.next_hop(node, 24)
        assert node == 24

    def test_mesh_never_wraps(self):
        topo = mesh(4, 4)
        routing = DimensionOrderRouting(topo)
        nxt = routing.next_hop(0, 3)
        assert topo.coords[nxt] == (1, 0)

    def test_requires_coords(self):
        with pytest.raises(TopologyError):
            DimensionOrderRouting(Topology("path", [(0, 1), (1, 2)]))

    def test_self_route_rejected(self):
        with pytest.raises(RoutingError):
            DimensionOrderRouting(mesh(3, 3)).next_hop(4, 4)

    def test_xy_path_lengths_are_manhattan(self):
        topo = mesh(4, 4)
        routing = DimensionOrderRouting(topo)
        for src in topo.nodes():
            for dst in topo.nodes():
                if src == dst:
                    continue
                hops, node = 0, src
                while node != dst:
                    node = routing.next_hop(node, dst)
                    hops += 1
                sx, sy = topo.coords[src]
                dx, dy = topo.coords[dst]
                assert hops == abs(sx - dx) + abs(sy - dy)
