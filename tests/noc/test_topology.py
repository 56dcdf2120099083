"""Tests for the topology generators of thesis section 1.4."""

import networkx as nx
import pytest

from repro.noc.topology import (
    Topology,
    TopologyError,
    all_to_all,
    butterfly_fat_tree,
    folded_torus,
    mesh,
    octagon,
    ring,
    torus,
)


class TestAllToAll:
    def test_cluster_fabric_shape(self):
        """The intra-cluster fabric: 4 cores + gateway = K5 (thesis 3.1)."""
        topo = all_to_all(5)
        assert topo.n_nodes == 5
        assert all(topo.degree(n) == 4 for n in topo.nodes())

    def test_single_hop_everywhere(self):
        assert all_to_all(5).diameter() == 1

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            all_to_all(1)


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

    def test_diameter(self):
        assert mesh(4, 4).diameter() == 6

    def test_min_size(self):
        with pytest.raises(TopologyError):
            mesh(1, 4)


class TestTorus:
    def test_regular_degree_4(self):
        topo = torus(4, 4)
        assert all(topo.degree(n) == 4 for n in topo.nodes())

    def test_wraparound_shrinks_diameter(self):
        assert torus(4, 4).diameter() < mesh(4, 4).diameter()

    def test_folded_torus_same_adjacency(self):
        t, ft = torus(4, 4), folded_torus(4, 4)
        assert t.edges == ft.edges
        assert ft.name == "folded_torus"

    def test_min_size(self):
        with pytest.raises(TopologyError):
            torus(2, 4)


class TestOctagon:
    def test_eight_nodes_degree_3(self):
        topo = octagon()
        assert topo.n_nodes == 8
        assert all(topo.degree(n) == 3 for n in topo.nodes())

    def test_two_hop_diameter(self):
        """The ST octagon's defining property: any pair within 2 hops."""
        assert octagon().diameter() == 2

    def test_only_eight(self):
        with pytest.raises(TopologyError):
            octagon(10)


class TestButterflyFatTree:
    def test_64_leaves(self):
        topo = butterfly_fat_tree(64)
        assert topo.n_nodes > 64
        leaf_degrees = [topo.degree(n) for n in range(64)]
        assert all(d == 1 for d in leaf_degrees)

    def test_connected_and_routes_exist(self):
        topo = butterfly_fat_tree(16)
        tables = topo.shortest_path_tables()
        assert tables[0][15] in topo.neighbors(0)

    def test_power_of_two_required(self):
        with pytest.raises(TopologyError):
            butterfly_fat_tree(12)


class TestRing:
    def test_token_ring_shape(self):
        topo = ring(16)
        assert all(topo.degree(n) == 2 for n in topo.nodes())

    def test_min_size(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestTopologyApi:
    def test_port_numbering_consistent(self):
        topo = mesh(3, 3)
        for node in topo.nodes():
            for port, neighbor in enumerate(topo.neighbors(node)):
                assert topo.port_of(node, neighbor) == port
                assert topo.neighbor_at(node, port) == neighbor

    def test_port_of_non_neighbor_raises(self):
        topo = mesh(3, 3)
        with pytest.raises(TopologyError):
            topo.port_of(0, 8)

    def test_shortest_path_tables_reach_everything(self):
        topo = mesh(3, 3)
        tables = topo.shortest_path_tables()
        for src in topo.nodes():
            for dst in topo.nodes():
                if src != dst:
                    assert tables[src][dst] in topo.neighbors(src)

    def test_tables_are_progress(self):
        """Following the table strictly decreases distance to destination."""
        topo = torus(4, 4)
        tables = topo.shortest_path_tables()
        dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(topo.edges)))
        for src in topo.nodes():
            for dst in topo.nodes():
                if src == dst:
                    continue
                nxt = tables[src][dst]
                assert dist[nxt][dst] == dist[src][dst] - 1

    def test_average_hop_count(self):
        assert all_to_all(4).average_hop_count() == pytest.approx(1.0)

    def test_bisection_edges_positive(self):
        assert mesh(4, 4).bisection_edges() > 0

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            Topology("broken", [(0, 1)], n_nodes=3)

    @pytest.mark.parametrize("topo", [
        mesh(8, 8), torus(4, 5), folded_torus(4, 4), octagon(),
        butterfly_fat_tree(64), ring(7), all_to_all(5),
    ], ids=lambda topo: topo.name)
    def test_own_bfs_matches_networkx(self, topo):
        """networkx left ``src/``; it stays here as the reference."""
        graph = nx.Graph(topo.edges)
        assert sorted(graph.nodes) == topo.nodes()
        assert topo.diameter() == nx.diameter(graph)
        assert topo.average_hop_count() == nx.average_shortest_path_length(graph)
        dist = dict(nx.all_pairs_shortest_path_length(graph))
        for node, table in topo.shortest_path_tables().items():
            assert sorted(table) == [n for n in topo.nodes() if n != node]
            for dst, nxt in table.items():
                assert nxt == min(
                    nbr for nbr in graph.neighbors(node)
                    if dist[nbr][dst] == dist[node][dst] - 1
                )
