"""Tests for the mesh topology (thesis fig. 1-2)."""

import networkx as nx
import pytest

from repro.noc.topology import Topology, TopologyError, mesh


class TestMesh:
    def test_cliche_4x4(self):
        topo = mesh(4, 4)
        assert topo.n_nodes == 16
        # Corner degree 2, edge 3, inner 4.
        degrees = sorted(topo.degree(n) for n in topo.nodes())
        assert degrees.count(2) == 4
        assert degrees.count(3) == 8
        assert degrees.count(4) == 4

    def test_coords_populated(self):
        topo = mesh(3, 2)
        assert topo.coords[0] == (0, 0)
        assert topo.coords[5] == (2, 1)

    def test_min_size(self):
        with pytest.raises(TopologyError):
            mesh(1, 4)


class TestTopologyApi:
    def test_port_numbering_consistent(self):
        topo = mesh(3, 3)
        for node in topo.nodes():
            for port, neighbor in enumerate(topo.neighbors(node)):
                assert topo.port_of(node, neighbor) == port

    def test_port_of_non_neighbor_raises(self):
        topo = mesh(3, 3)
        with pytest.raises(TopologyError):
            topo.port_of(0, 8)

    def test_average_hop_count(self):
        assert mesh(2, 2).average_hop_count() == pytest.approx(4 / 3)

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            Topology("broken", [(0, 1)], n_nodes=3)

    @pytest.mark.parametrize("topo", [mesh(8, 8)], ids=lambda topo: topo.name)
    def test_own_bfs_matches_networkx(self, topo):
        """networkx left ``src/``; it stays here as the reference."""
        graph = nx.Graph(topo.edges)
        assert sorted(graph.nodes) == topo.nodes()
        assert nx.is_connected(graph)
        assert topo.average_hop_count() == nx.average_shortest_path_length(graph)
