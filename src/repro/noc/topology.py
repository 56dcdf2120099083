"""Topology generators.

Thesis section 1.4: "SPIN, CLICHE or Mesh, Torus, Folded Torus, Octagon and
Butterfly Fat Tree (BFT) are some of the network architectures". The
d-HetPNoC cluster itself is an all-to-all graph of 4 cores plus the
photonic router (section 3.1).

A :class:`Topology` is an undirected graph with a deterministic port
numbering per node (ports are the sorted neighbor order), plus optional
2-D coordinates for dimension-order routing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


class TopologyError(ValueError):
    """Raised for invalid topology parameters."""


@dataclass
class Topology:
    """An undirected interconnection graph with port numbering.

    Attributes
    ----------
    name:
        Topology family name ("mesh", "all_to_all", ...).
    edges:
        The undirected links as ``(low, high)`` pairs of integer node
        ids, deduplicated and sorted on construction.
    coords:
        Optional node -> (x, y) map (set for mesh/torus families).
    n_nodes:
        Nodes are ``0..n_nodes-1``. The default takes the highest id an
        edge names; pass it to declare nodes no edge touches (which the
        connectivity check then rejects).
    """

    name: str
    edges: Iterable[Tuple[int, int]]
    coords: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    n_nodes: int = 0

    def __post_init__(self) -> None:
        self.edges = sorted({(min(u, v), max(u, v)) for u, v in self.edges})
        self.n_nodes = max(
            self.n_nodes, 1 + max((v for _u, v in self.edges), default=-1)
        )
        if self.n_nodes == 0:
            raise TopologyError("topology must have at least one node")
        self._ports: Dict[int, List[int]] = {n: [] for n in range(self.n_nodes)}
        for u, v in self.edges:
            self._ports[u].append(v)
            self._ports[v].append(u)
        for ports in self._ports.values():
            ports.sort()
        if len(self._distances(0)) != self.n_nodes:
            raise TopologyError(f"{self.name}: topology must be connected")

    def nodes(self) -> List[int]:
        return list(range(self.n_nodes))

    def neighbors(self, node: int) -> List[int]:
        """Neighbors of *node* in port order."""
        return list(self._ports[node])

    def degree(self, node: int) -> int:
        return len(self._ports[node])

    def port_of(self, node: int, neighbor: int) -> int:
        """The port index on *node* that faces *neighbor*."""
        try:
            return self._ports[node].index(neighbor)
        except ValueError:
            raise TopologyError(f"{neighbor} is not adjacent to {node}") from None

    def neighbor_at(self, node: int, port: int) -> int:
        return self._ports[node][port]

    def _distances(self, src: int) -> Dict[int, int]:
        """Hop counts from *src* to every node it reaches (BFS)."""
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nbr in self._ports[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    frontier.append(nbr)
        return dist

    def shortest_path_tables(self) -> Dict[int, Dict[int, int]]:
        """Next-hop tables: ``table[node][dst] -> neighbor node``.

        Ties broken towards the lowest-numbered next hop, so tables are
        deterministic.
        """
        # One BFS per node is O(V*E) in all; fine at NoC scale.
        nodes = self.nodes()
        dist = {node: self._distances(node) for node in nodes}
        return {
            node: {
                dst: min(
                    nbr for nbr in self._ports[node]
                    if dist[nbr][dst] == dist[node][dst] - 1
                )
                for dst in nodes if dst != node
            }
            for node in nodes
        }

    def diameter(self) -> int:
        return max(max(self._distances(n).values()) for n in self.nodes())

    def average_hop_count(self) -> float:
        """Mean shortest-path length over all ordered node pairs."""
        total = sum(sum(self._distances(n).values()) for n in self.nodes())
        return total / max(1, self.n_nodes * (self.n_nodes - 1))

    def bisection_edges(self) -> int:
        """Edges crossing the (node-id) median cut -- a bisection proxy."""
        half = self.n_nodes // 2
        return sum(1 for u, v in self.edges if (u < half) != (v < half))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def all_to_all(n: int, name: str = "all_to_all") -> Topology:
    """Complete graph K_n: the intra-cluster fabric of thesis section 3.1."""
    if n < 2:
        raise TopologyError(f"all_to_all needs >= 2 nodes, got {n}")
    return Topology(name, [(u, v) for u in range(n) for v in range(u + 1, n)])


def mesh(width: int, height: int) -> Topology:
    """The CLICHE 2-D mesh of thesis fig. 1-2."""
    if width < 2 or height < 2:
        raise TopologyError("mesh needs width, height >= 2")
    edges = []
    coords = {}
    for y in range(height):
        for x in range(width):
            node = y * width + x
            coords[node] = (x, y)
            if x + 1 < width:
                edges.append((node, node + 1))
            if y + 1 < height:
                edges.append((node, node + width))
    return Topology("mesh", edges, coords)


def torus(width: int, height: int) -> Topology:
    if width < 3 or height < 3:
        raise TopologyError("torus needs width, height >= 3")
    edges = []
    coords = {}
    for y in range(height):
        for x in range(width):
            node = y * width + x
            coords[node] = (x, y)
            edges.append((node, y * width + (x + 1) % width))
            edges.append((node, ((y + 1) % height) * width + x))
    return Topology("torus", edges, coords)


def folded_torus(width: int, height: int) -> Topology:
    """Folded torus: same connectivity as a torus, link lengths equalised.

    Electrically the fold changes wire lengths, not adjacency, so the graph
    matches :func:`torus`; kept separate so link-energy models can apply
    the 2x folded wire length factor.
    """
    topo = torus(width, height)
    return Topology("folded_torus", topo.edges, dict(topo.coords))


def octagon(n_nodes: int = 8) -> Topology:
    """ST Octagon: a ring of 8 with cross links between opposite nodes."""
    if n_nodes != 8:
        raise TopologyError("the octagon topology is defined for 8 nodes")
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(i, i + 4) for i in range(4)]
    return Topology("octagon", edges)


def butterfly_fat_tree(n_leaves: int = 64) -> Topology:
    """Butterfly fat tree over *n_leaves* cores (Pande et al. [24]).

    Level-1 switches each serve 4 leaves; every switch above has 4 children
    and 2 parents; the switch count halves per level. Leaves are nodes
    ``0..n_leaves-1``; switches are numbered above the leaves.
    """
    if n_leaves < 4 or n_leaves & (n_leaves - 1):
        raise TopologyError("butterfly_fat_tree needs a power-of-two leaf count >= 4")
    edges = []
    next_id = n_leaves
    # Level 1: one switch per 4 leaves.
    current_level = []
    for base in range(0, n_leaves, 4):
        switch = next_id
        next_id += 1
        current_level.append(switch)
        for leaf in range(base, base + 4):
            edges.append((switch, leaf))
    # Higher levels: #switches halves, each child connects to 2 parents.
    while len(current_level) > 2:
        n_parents = max(2, len(current_level) // 2)
        parents = list(range(next_id, next_id + n_parents))
        next_id += n_parents
        for idx, child in enumerate(current_level):
            p0 = parents[idx % n_parents]
            p1 = parents[(idx + 1) % n_parents]
            edges.append((child, p0))
            if p1 != p0:
                edges.append((child, p1))
        current_level = parents
    if len(current_level) == 2:
        edges.append((current_level[0], current_level[1]))
    return Topology("butterfly_fat_tree", edges)


def ring(n: int) -> Topology:
    """Simple ring; used by the DBA token-circulation waveguide model."""
    if n < 3:
        raise TopologyError(f"ring needs >= 3 nodes, got {n}")
    return Topology("ring", [(i, (i + 1) % n) for i in range(n)])
