"""Inter-cluster leader backbone tree (paper §7.2).

A spanning tree connecting the roots of all clusters, used to route
queries from any cluster root to every other cluster root.  We build the
minimum-hop spanning tree over the *cluster adjacency graph* (two clusters
are adjacent when a communication edge crosses their boundary), weighting
each adjacency by the leader-to-leader hop distance in the communication
graph, and we remember the concrete hop path for every backbone edge so
query routing can be charged exactly.

The paper accounts the backbone construction cost to ELink; the cost here
is one handshake (2 control values) per hop of every backbone edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import networkx as nx

from repro.core.delta import Clustering
from repro.sim.messages import Message
from repro.sim.stats import MessageStats


@dataclass
class BackboneTree:
    """Spanning tree over cluster roots with per-edge routing paths."""

    tree: nx.Graph  # nodes are cluster roots
    paths: dict[tuple[Hashable, Hashable], Sequence[Hashable]]
    build_messages: int = 0
    stats: MessageStats = field(default_factory=MessageStats)

    def path(self, a: Hashable, b: Hashable) -> Sequence[Hashable]:
        """Hop path of backbone edge (a, b)."""
        if (a, b) in self.paths:
            return self.paths[(a, b)]
        return list(reversed(self.paths[(b, a)]))

    def edge_hops(self, a: Hashable, b: Hashable) -> int:
        """Hop length of backbone edge (a, b)."""
        return len(self.path(a, b)) - 1

    def neighbors(self, root: Hashable):
        """Neighbours in the underlying structure."""
        return self.tree.neighbors(root)

    def side_roots(self, src: Hashable, dst: Hashable) -> set[Hashable]:
        """Backbone roots reachable from *dst* without crossing edge (src, dst).

        The far side of that edge direction: every root a query sent from
        *src* toward *dst* could reach, and so every root lost when *dst*
        is a dead relay.
        """
        seen = {dst}
        stack = [dst]
        while stack:
            current = stack.pop()
            for neighbor in self.tree.neighbors(current):
                if neighbor == src and current == dst:
                    continue
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen

    def reroute_around(
        self, graph: nx.Graph, dead_root: Hashable, replacement: Hashable
    ) -> int:
        """Repair the backbone after cluster root *dead_root* crashed.

        *replacement* (the re-elected representative of the dead root's
        cluster) takes the dead root's place in the tree; each incident
        backbone edge is re-routed over the *surviving* communication
        graph and re-charged as at build time (one 2-value handshake per
        hop, recorded in :attr:`stats` as repair traffic).  Backbone
        neighbours that are unreachable in the surviving graph have their
        edge dropped — the tree may split; callers detect that via the
        returned count and report partial coverage.  Returns the number
        of successfully re-routed edges.
        """
        if dead_root not in self.tree:
            raise KeyError(f"{dead_root!r} is not a backbone node")
        neighbours = list(self.tree.neighbors(dead_root))
        self.tree.remove_node(dead_root)
        for key in [k for k in self.paths if dead_root in k]:
            del self.paths[key]
        self.tree.add_node(replacement)
        rerouted = 0
        for neighbour in neighbours:
            if neighbour == replacement or neighbour not in graph:
                continue
            try:
                path = nx.shortest_path(graph, replacement, neighbour)
            except (nx.NodeNotFound, nx.NetworkXNoPath):
                continue  # unreachable survivor: this edge stays severed
            self.tree.add_edge(replacement, neighbour)
            self.paths[(replacement, neighbour)] = path
            self.stats.record(
                Message("probe", replacement, neighbour, values=2, category="repair"),
                hops=max(len(path) - 1, 1),
            )
            rerouted += 1
        return rerouted


def build_backbone(graph: nx.Graph, clustering: Clustering) -> BackboneTree:
    """Build the leader backbone tree (see module docstring)."""
    roots = clustering.roots
    stats = MessageStats()
    if len(roots) == 1:
        return BackboneTree(_single(roots[0]), {}, 0, stats)

    adjacency = nx.Graph()
    adjacency.add_nodes_from(roots)
    assignment = clustering.assignment
    for a, b in graph.edges:
        ra, rb = assignment[a], assignment[b]
        if ra != rb:
            adjacency.add_edge(ra, rb)
    if not nx.is_connected(adjacency):
        # The communication graph is connected, so cluster adjacency must
        # be too; a disconnect indicates a broken clustering.
        raise ValueError("cluster adjacency graph is disconnected")

    for ra, rb in adjacency.edges:
        adjacency[ra][rb]["weight"] = nx.shortest_path_length(graph, ra, rb)
    mst = nx.minimum_spanning_tree(adjacency, weight="weight")

    paths: dict[tuple[Hashable, Hashable], Sequence[Hashable]] = {}
    for ra, rb in mst.edges:
        path = nx.shortest_path(graph, ra, rb)
        paths[(ra, rb)] = path
        # Handshake: 2 control values per hop of the backbone edge.
        stats.record(Message("feature", ra, rb, values=2), hops=len(path) - 1)

    tree = nx.Graph()
    tree.add_nodes_from(roots)
    tree.add_edges_from(mst.edges)
    return BackboneTree(tree, paths, stats.total_values, stats)


def _single(root: Hashable) -> nx.Graph:
    tree = nx.Graph()
    tree.add_node(root)
    return tree
