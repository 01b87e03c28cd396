"""Path queries over the clustered network (paper §7.3).

During a hazard (pollutant leak, fire), a rescue path from *x* to *y* must
keep every node on the path at least γ away — in feature space — from the
danger feature ``F_D``:

    return a path x -> y such that d(F_j, F_D) >= γ for every node j on it.

Clustered algorithm:

1. Classify clusters with δ-compactness-style pruning on the root: with
   ``R_root`` the covering radius, a cluster is **safe** when
   ``d(F_root, F_D) - R_root >= γ`` (every member is), **unsafe** when
   ``d(F_root, F_D) + R_root < γ`` (no member is), and **boundary**
   otherwise, in which case the M-tree is drilled to label safe/unsafe
   *sub-clusters* (charged per visited tree edge).
2. Spatially contiguous safe regions are joined by safe backbone trees;
   the source's region is searched (BFS over region-level adjacency) for
   the destination, and the path is traced back.

If source and destination fall in different safe regions, no safe path
exists and the query is suppressed at the source's root — the paper's
early-exit.

The BFS-flooding baseline instead floods the query through the safe part
of the network from the source: every reached safe node rebroadcasts once,
so the cost is ~2 values per edge incident to the flooded region, plus the
path trace-back.

Degraded operation (dead roots and endpoints, coverage, drops) follows
:mod:`repro.queries.view`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_non_negative
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.queries.view import DROP_DEAD_ENDPOINT, DROP_DEAD_ROOT, TopologyView
from repro.sim.messages import Message
from repro.sim.stats import MessageStats


@dataclass
class PathQueryResult:
    """A safe path (or None) plus the communication spent."""

    path: list[Hashable] | None
    messages: int
    safe_nodes: int
    clusters_drilled: int
    #: Fraction of surviving nodes whose cluster the query could classify
    #: (1.0 unless crashes removed cluster representatives).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead roots/endpoints);
    #: per-reason detail is mirrored into the engine's metrics registry.
    drops: int = 0


class PathQueryEngine:
    """Safe-path search over a clustering + M-tree.

    ``dead`` / ``metrics`` build the engine's
    :class:`~repro.queries.view.TopologyView`: clusters whose
    representative died cannot be classified and count as uncovered, and
    dead nodes are never part of a returned path.
    """

    def __init__(
        self,
        graph: nx.Graph,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        *,
        dead: "set[Hashable] | frozenset[Hashable] | None" = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.view = TopologyView(clustering, features, metric, mtree, dead=dead, metrics=metrics)
        self.graph = graph
        self.clustering = clustering
        self.features = self.view.features
        self.metric = metric
        self.mtree = mtree

    # ------------------------------------------------------------------
    def query(
        self,
        source: Hashable,
        destination: Hashable,
        danger: np.ndarray,
        gamma: float,
    ) -> PathQueryResult:
        """Find a safe path from *source* to *destination* (or prove none)."""
        require_non_negative(gamma, "gamma")
        danger = np.asarray(danger, dtype=np.float64)
        stats = MessageStats()
        view = self.view

        # A dead endpoint can neither issue the query nor terminate the
        # path: answer "no path" with zero coverage instead of silently
        # classifying clusters for an unanswerable question.
        if source in view.dead or destination in view.dead:
            view.drop(stats, DROP_DEAD_ENDPOINT)
            return PathQueryResult(None, 0, 0, 0, 0.0, stats.total_drops)

        # Source routes the query to its cluster root.
        view.charge(stats, view.query_values, len(self.clustering.path_to_root(source)) - 1)
        safe_nodes, drilled, coverage = self._classify(danger, gamma, stats)
        return safe_route(
            self.graph, self.clustering, source, destination, safe_nodes, drilled, stats,
            coverage=coverage,
        )

    # ------------------------------------------------------------------
    def _classify(
        self, danger: np.ndarray, gamma: float, stats: MessageStats
    ) -> tuple[set[Hashable], int, float]:
        """Label every node safe/unsafe, drilling boundary clusters.

        Clusters with a dead representative cannot be classified: their
        surviving members are left out of the safe set and counted as
        uncovered in the returned coverage fraction.
        """
        view = self.view
        safe: set[Hashable] = set()
        drilled = 0
        lost: set[Hashable] = set()
        for root in self.clustering.roots:
            if root in view.dead:
                # The classification request to this root is undeliverable.
                view.drop(stats, DROP_DEAD_ROOT)
                lost.add(root)
                continue
            d = self.metric.distance(danger, self.mtree.routing_feature[root])
            radius = self.mtree.covering_radius[root]
            # Reaching each root costs one backbone traversal; approximate
            # with one charge per cluster (the backbone fan-out).
            view.charge(stats, view.query_values, 1)
            if d - radius >= gamma:
                safe.update(self.clustering.members(root))
                continue
            if d + radius < gamma:
                continue
            drilled += 1
            safe.update(self._drill(root, danger, gamma, stats))
        safe.difference_update(view.dead)
        return safe, drilled, view.coverage(lost)

    def _drill(
        self, root: Hashable, danger: np.ndarray, gamma: float, stats: MessageStats
    ) -> set[Hashable]:
        """M-tree drill-down labelling safe sub-clusters of one cluster."""
        safe: set[Hashable] = set()
        stack: list[Hashable] = [root]
        while stack:
            node = stack.pop()
            d_node = self.metric.distance(danger, self.mtree.routing_feature[node])
            if d_node >= gamma:
                safe.add(node)
            for child in self.mtree.children[node]:
                d_child_route = self.metric.distance(
                    danger, self.mtree.routing_feature[child]
                )
                r_child = self.mtree.covering_radius[child]
                # The label request travels down the edge in every case.
                self.view.charge(stats, self.view.query_values, 1)
                if d_child_route - r_child >= gamma:
                    safe.update(self.mtree.subtree(child))
                elif d_child_route + r_child >= gamma:
                    stack.append(child)
        return safe


def safe_route(
    graph: nx.Graph,
    clustering: Clustering,
    source: Hashable,
    destination: Hashable,
    safe: set[Hashable],
    drilled: int,
    stats: MessageStats,
    *,
    flooded: int | None = None,
    coverage: float = 1.0,
) -> PathQueryResult:
    """Shared tail of every path plan: the canonical route through *safe*.

    Safe regions are the connected components of the safe-induced
    subgraph.  When *source* and *destination* share one, the route is the
    BFS shortest path inside it, traced back at 1 value per hop; the
    region-level search over the component's safe cluster roots is charged
    2 values per root.  A flood plan has already paid per node instead:
    it passes the number of *flooded* nodes, reported as ``safe_nodes``.
    Every backend routes through this one function, so all of them return
    identical routes for the same safe set.
    """
    safe_count = len(safe) if flooded is None else flooded
    path = None
    if source in safe and destination in safe:
        safe_sub = graph.subgraph(safe)
        component = nx.node_connected_component(safe_sub, source)
        if destination in component:
            if flooded is None:
                region_roots = {clustering.root_of(node) for node in component}
                TopologyView.charge(stats, 2, len(region_roots))
            path = list(nx.shortest_path(safe_sub.subgraph(component), source, destination))
            TopologyView.charge(stats, 1, len(path) - 1)
    return PathQueryResult(
        path, stats.total_values, safe_count, drilled, coverage, stats.total_drops
    )


def maximin_safe_path(
    graph: nx.Graph,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    source: Hashable,
    destination: Hashable,
    danger: np.ndarray,
) -> PathQueryResult:
    """The *safest* path: maximize the minimum danger distance en route.

    §7.3 asks for any path clearing a fixed margin γ; rescue planning often
    wants the best achievable margin instead.  This is the classic maximin
    (bottleneck) path problem, solved with a Dijkstra variant that grows
    the widest bottleneck first.  Communication is charged like a safe
    flood over the visited region (each expanded node broadcasts once),
    making costs comparable with :func:`bfs_flood_path`.

    The returned :attr:`PathQueryResult.safe_nodes` is the number of nodes
    expanded; the achieved bottleneck is the minimum danger distance over
    the returned path.
    """
    danger = np.asarray(danger, dtype=np.float64)
    stats = MessageStats()
    safety = {node: metric.distance(features[node], danger) for node in graph.nodes}

    import heapq

    # Max-heap on the bottleneck value achieved when reaching a node.
    best_bottleneck = {source: safety[source]}
    parents: dict[Hashable, Hashable] = {source: source}
    heap = [(-safety[source], repr(source), source)]
    expanded: set[Hashable] = set()
    while heap:
        negative, _, node = heapq.heappop(heap)
        if node in expanded:
            continue
        expanded.add(node)
        degree = graph.degree(node)
        if degree:
            stats.record(Message("query", node, None, values=2), hops=degree)
        if node == destination:
            break
        bottleneck = -negative
        for neighbor in graph.neighbors(node):
            candidate = min(bottleneck, safety[neighbor])
            if candidate > best_bottleneck.get(neighbor, -1.0):
                best_bottleneck[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (-candidate, repr(neighbor), neighbor))

    if destination not in parents:
        return PathQueryResult(None, stats.total_values, len(expanded), 0)
    path = [destination]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    if len(path) > 1:
        stats.record(Message("query", destination, source, values=1), hops=len(path) - 1)
    return PathQueryResult(list(path), stats.total_values, len(expanded), 0)


def bfs_flood_path(
    graph: nx.Graph,
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    source: Hashable,
    destination: Hashable,
    danger: np.ndarray,
    gamma: float,
) -> PathQueryResult:
    """Baseline: flood the query through safe nodes from the source.

    Every reached safe node rebroadcasts the query once (2 values per copy,
    query id + hop pointer); unsafe nodes drop it.  The path is traced back
    along BFS parents (1 value per hop).
    """
    require_non_negative(gamma, "gamma")
    danger = np.asarray(danger, dtype=np.float64)
    stats = MessageStats()

    def is_safe(node: Hashable) -> bool:
        return metric.distance(features[node], danger) >= gamma

    if not is_safe(source):
        return PathQueryResult(None, 0, 0, 0)

    parents: dict[Hashable, Hashable] = {source: source}
    frontier = [source]
    reached = {source}
    while frontier:
        next_frontier: list[Hashable] = []
        for node in frontier:
            # Broadcast to every neighbour (the flood's per-node cost).
            degree = graph.degree(node)
            if degree:
                stats.record(Message("query", node, None, values=2), hops=degree)
            for neighbor in graph.neighbors(node):
                if neighbor in reached or not is_safe(neighbor):
                    continue
                reached.add(neighbor)
                parents[neighbor] = node
                next_frontier.append(neighbor)
        frontier = next_frontier
        if destination in reached:
            break

    if destination not in reached:
        return PathQueryResult(None, stats.total_values, len(reached), 0)
    path = [destination]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    if len(path) > 1:
        stats.record(Message("query", destination, source, values=1), hops=len(path) - 1)
    return PathQueryResult(path, stats.total_values, len(reached), 0)
