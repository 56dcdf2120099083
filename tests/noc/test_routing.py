"""Tests for routing algorithms."""

import pytest

from repro.noc.routing import (
    DimensionOrderRouting,
    RoutingError,
    TableRouting,
)
from repro.noc.topology import all_to_all, mesh, octagon, torus


class TestTableRouting:
    def test_all_to_all_is_direct(self):
        topo = all_to_all(5)
        routing = TableRouting(topo)
        for src in topo.nodes():
            for dst in topo.nodes():
                if src != dst:
                    assert routing.next_hop(src, dst) == dst

    def test_path_reaches_destination(self):
        topo = mesh(4, 4)
        routing = TableRouting(topo)
        path = routing.path(0, 15)
        assert path[0] == 0
        assert path[-1] == 15
        assert len(path) - 1 == 6  # manhattan distance

    def test_path_is_shortest(self):
        topo = octagon()
        routing = TableRouting(topo)
        for src in topo.nodes():
            for dst in topo.nodes():
                if src != dst:
                    assert len(routing.path(src, dst)) - 1 <= 2

    def test_self_route_rejected(self):
        routing = TableRouting(mesh(3, 3))
        with pytest.raises(RoutingError):
            routing.next_hop(4, 4)

    def test_output_port_matches_topology(self):
        topo = mesh(3, 3)
        routing = TableRouting(topo)
        port = routing.output_port(topo, 0, 8)
        assert topo.neighbor_at(0, port) == routing.next_hop(0, 8)


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

    def test_torus_wraps_short_way(self):
        topo = torus(4, 4)
        routing = DimensionOrderRouting(topo)
        # (0,0) -> (3,0): wrap backwards is 1 hop vs 3 forward.
        nxt = routing.next_hop(0, 3)
        assert topo.coords[nxt] == (3, 0)

    def test_mesh_never_wraps(self):
        topo = mesh(4, 4)
        routing = DimensionOrderRouting(topo)
        nxt = routing.next_hop(0, 3)
        assert topo.coords[nxt] == (1, 0)

    def test_requires_coords(self):
        from repro.noc.topology import TopologyError

        with pytest.raises(TopologyError):
            DimensionOrderRouting(octagon())

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
