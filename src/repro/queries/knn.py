"""k-nearest-neighbour queries over the distributed index (extension).

"Which k sensors behave most like this model?" is the ranking twin of the
paper's range query, and the M-tree supports it with the classic
best-first search: visit clusters and subtrees in order of their
*optimistic* distance bound ``max(0, d(q, F^R) - R)`` and stop when the
k-th best confirmed distance beats every unvisited bound.  The same
triangle-inequality machinery as §7 does the pruning; communication is
charged per visited backbone edge and cluster-tree edge, exactly like the
range engine, so costs are comparable.

Degraded operation (dead relays, re-elected roots, coverage, drops)
follows :mod:`repro.queries.view`; backbone hops are read from the view's
per-start hop table, the same one the planner's k-NN cost model reads.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro._validation import require_int_at_least
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.queries.view import TopologyView
from repro.sim.stats import MessageStats


@dataclass
class KnnResult:
    """The k nearest nodes (sorted by distance) plus the cost."""

    neighbors: list[tuple[Hashable, float]]
    messages: int
    nodes_visited: int
    #: Fraction of surviving nodes whose cluster the query could consult
    #: (1.0 unless crashes severed parts of the backbone).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead relays/roots);
    #: per-reason detail is mirrored into the engine's metrics registry.
    drops: int = 0


class KnnQueryEngine:
    """Best-first k-NN search over clustering + M-tree + backbone.

    ``dead`` / ``root_replacements`` / ``metrics`` build the engine's
    :class:`~repro.queries.view.TopologyView`: degraded, the search ranks
    the reachable part of the network and reports a coverage fraction.
    """

    def __init__(
        self,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        mtree: MTreeIndex,
        backbone: BackboneTree,
        *,
        dead: "set[Hashable] | frozenset[Hashable] | None" = None,
        root_replacements: Mapping[Hashable, Hashable] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.view = TopologyView(
            clustering, features, metric, mtree, backbone,
            dead=dead, root_replacements=root_replacements, metrics=metrics,
        )
        self.clustering = clustering
        self.features = self.view.features
        self.metric = metric
        self.mtree = mtree
        self.backbone = backbone

    def query(self, q: np.ndarray, k: int, initiator: Hashable) -> KnnResult:
        """Return the *k* nodes with smallest feature distance to *q*."""
        require_int_at_least(k, 1, "k")
        q = np.asarray(q, dtype=np.float64)
        stats = MessageStats()
        view = self.view
        counter = itertools.count()  # deterministic heap tie-break

        # Route to the initiator's root first (as in §7.2).
        origin = self.clustering.root_of(initiator)
        if view.unreachable(origin):
            alive, coverage = view.local_only(stats, origin)
            ranked = sorted(
                ((m, self.metric.distance(q, self.features[m])) for m in alive),
                key=lambda kv: (kv[1], repr(kv[0])),
            )
            return KnnResult(
                ranked[:k], stats.total_values, len(alive), coverage, stats.total_drops
            )
        view.round_trip(stats, len(self.clustering.path_to_root(initiator)) - 1)

        # The roots reachable from the start without relaying through a
        # dead node, with their backbone hop distances; the far sides of
        # dead relays are uncovered.
        reach = view.reach(view.effective(origin))
        view.drop_severed(stats, reach)

        # Best-first frontier over (bound, kind, payload).  Cluster roots
        # enter with their optimistic bound; expanding a root enqueues its
        # M-tree children; expanding a node confirms its own distance.
        best: list[tuple[float, Hashable]] = []  # max-heap via negation

        def admit(node: Hashable, distance: float) -> None:
            if len(best) < k:
                heapq.heappush(best, (-distance, node))
            elif distance < -best[0][0]:
                heapq.heapreplace(best, (-distance, node))

        def kth_bound() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        frontier: list[tuple[float, int, Hashable]] = []
        for root in self.clustering.roots:
            effective = view.effective(root)
            if effective not in reach.hops:
                continue  # severed from the backbone: uncovered
            center, r_root = view.routing_ball(effective)
            d = self.metric.distance(q, center)
            bound = max(0.0, d - r_root)
            heapq.heappush(frontier, (bound, next(counter), root))

        visited = 0
        reached_roots = {origin}
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > kth_bound():
                break  # nothing unvisited can improve the answer
            root = self.clustering.root_of(node)
            if root not in reached_roots:
                reached_roots.add(root)
                view.round_trip(stats, reach.hops[view.effective(root)])
            if node != root:
                # Travelling one cluster-tree edge to this node.
                view.round_trip(stats, 1)
            visited += 1
            if node not in view.dead:
                admit(node, self.metric.distance(q, self.features[node]))
            for child, (d_pc, r_child) in self.mtree.child_info[node].items():
                # The parent holds its children's routing features (it
                # received them during the bottom-up build), so the tight
                # M-tree bound d(q, F_child^R) - R_child is local.
                d_child = self.metric.distance(q, self.mtree.routing_feature[child])
                child_bound = max(0.0, d_child - r_child)
                if child_bound <= kth_bound():
                    heapq.heappush(frontier, (child_bound, next(counter), child))

        neighbors = sorted(((node, -negative) for negative, node in best), key=lambda kv: (kv[1], repr(kv[0])))
        return KnnResult(
            neighbors, stats.total_values, visited, view.coverage(reach.lost), stats.total_drops
        )


def brute_force_knn(
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    q: np.ndarray,
    k: int,
) -> list[tuple[Hashable, float]]:
    """Ground-truth k-NN for correctness checks."""
    distances = [
        (node, metric.distance(q, feature)) for node, feature in features.items()
    ]
    distances.sort(key=lambda kv: (kv[1], repr(kv[0])))
    return distances[:k]
