"""The mesh topology.

Thesis section 1.4 surveys "SPIN, CLICHE or Mesh, Torus, Folded Torus,
Octagon and Butterfly Fat Tree (BFT)"; the electrical baseline the thesis
runs is the CLICHE mesh (fig. 1-2), so :func:`mesh` is the one builder.

A :class:`Topology` is a connected undirected graph with a deterministic
port numbering per node (ports are the sorted neighbor order), plus
optional 2-D coordinates for dimension-order routing.
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
        Topology family name ("mesh").
    edges:
        The undirected links as ``(low, high)`` pairs of integer node
        ids, deduplicated and sorted on construction.
    coords:
        Optional node -> (x, y) map (set by :func:`mesh`).
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
