"""Range queries over the clustered network (paper §7.2).

A range query ``(q, r)`` retrieves every node whose feature is within
distance *r* of the query feature *q*.  The clustered algorithm:

1. The initiator routes the query to its cluster root over the cluster
   tree.
2. The root fans the query out over the backbone tree.  The M-tree's top
   level extends over the backbone: at build time every backbone edge
   direction stores a covering ball ``(F, R)`` for *all members of all
   clusters* on its far side, so distribution itself prunes — an entire
   backbone subtree is skipped when ``d(q, F) > r + R`` (triangle
   inequality; the paper's index is "a distributed M-tree … physically
   embedded on the communication graph", and this is its root level).
3. Each visited root applies **δ-compactness pruning**: with ``R_root``
   the root's covering radius (≤ δ/2 for ELink clusterings, by the δ/2
   join rule), the whole cluster is *excluded* when ``d(q, F_root) > r +
   R_root`` and *included* when ``d(q, F_root) ≤ r - R_root`` — both pure
   triangle inequality, no further messages.
4. Only boundary clusters descend the M-tree: a parent forwards the query
   to child *j* unless ``|d(q, F_i^R) - d(F_i^R, F_j^R)| > r + R_j``
   (prune) and stops descending below *j* when
   ``d(q, F_i^R) + d(F_i^R, F_j^R) ≤ r - R_j`` (include whole subtree).
5. Results aggregate back along the traversed edges.

Cost accounting: every traversed cluster-tree edge and every backbone-path
hop is charged ``dim+1`` values for the query going down and 1 value for
the aggregate coming back — the same convention the TAG baseline is
charged under, so the comparison in Figs 14–15 is apples-to-apples.
Degraded operation (dead relays, re-elected roots, coverage, drops)
follows :mod:`repro.queries.view`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from repro._validation import require_non_negative
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.queries.view import TopologyView
from repro.sim.stats import MessageStats

#: Relative distance below a row maximum within which vectorized entries
#: are re-checked with the scalar metric at d ≥ 2.  Far wider than any
#: reduction-order rounding difference (a few ulps, ~1e-15 relative).
_ROW_RECHECK_RTOL = 1e-9


def _preorder(tree) -> tuple[
    list[Hashable],
    dict[Hashable, Hashable | None],
    dict[Hashable, int],
    dict[Hashable, int],
    dict[Hashable, tuple[int, int]],
]:
    """DFS preorder of a forest with subtree and component bounds.

    Returns ``(order, parent, tin, tout, span)``: the subtree of ``v`` is
    ``order[tin[v]:tout[v]]`` and its component is
    ``order[span[v][0]:span[v][1]]``.
    """
    order: list[Hashable] = []
    parent: dict[Hashable, Hashable | None] = {}
    tin: dict[Hashable, int] = {}
    span: dict[Hashable, tuple[int, int]] = {}
    for start in tree.nodes:
        if start in parent:
            continue
        lo = len(order)
        parent[start] = None
        stack = [start]
        while stack:
            node = stack.pop()
            tin[node] = len(order)
            order.append(node)
            for neighbor in tree.neighbors(node):
                if neighbor != parent[node]:
                    parent[neighbor] = node
                    stack.append(neighbor)
        bounds = (lo, len(order))
        for node in order[lo:]:
            span[node] = bounds
    size = dict.fromkeys(order, 1)
    for node in reversed(order):
        up = parent[node]
        if up is not None:
            size[up] += size[node]
    tout = {node: tin[node] + size[node] for node in order}
    return order, parent, tin, tout, span


@dataclass
class RangeQueryResult:
    """Result set plus the communication spent to obtain it."""

    matches: set[Hashable]
    messages: int
    clusters_pruned: int  # clusters answered by δ-compactness alone
    clusters_included: int  # clusters fully included without descent
    clusters_descended: int  # clusters that needed the M-tree
    #: Fraction of surviving nodes whose cluster the query could consult
    #: (1.0 unless crashes severed parts of the backbone).
    coverage: float = 1.0
    #: Query deliveries dropped on degraded paths (dead relays/roots);
    #: per-reason detail is mirrored into the engine's metrics registry.
    drops: int = 0


class RangeQueryEngine:
    """Executes range queries over a clustering + M-tree + backbone.

    ``dead`` / ``root_replacements`` / ``metrics`` build the engine's
    :class:`~repro.queries.view.TopologyView`: degraded, the query returns
    partial matches with a coverage fraction instead of raising.
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
        # Directional backbone summaries: (a, b) -> covering ball of every
        # cluster member on b's side of the edge.  Built once; the build
        # would cost one (dim+1) message per backbone edge direction, which
        # the clustering experiments account with the backbone build.
        self._subtree_ball = self._build_backbone_summaries()

    def _build_backbone_summaries(self) -> dict[tuple[Hashable, Hashable], tuple[np.ndarray, float]]:
        """Covering ball of the far side of every backbone edge direction.

        One preorder of the backbone forest makes every far side a slice:
        for a tree edge (parent, child) the roots on the child's side are
        ``order[tin[child]:tout[child]]`` and those on the parent's side
        are the rest of the component.  Each root with backbone edges
        gets one vectorized row of ``d(F_root, F_j) + R_j`` over its
        component, and each direction's radius is the row maximum over
        its slice (or the complement) — O(C) rows instead of a walk of
        the whole far side per direction.

        The balls equal the scalar per-root maximum bit for bit.  At
        d ≥ 2 a vectorized row may round an entry differently from
        :meth:`Metric.distance` by an ulp, so the entries within
        :data:`_ROW_RECHECK_RTOL` of the row maximum are recomputed with
        the scalar metric and the radius is their exact maximum.
        """
        tree = self.backbone.tree
        order, parent, tin, tout, span = _preorder(tree)
        routing = self.mtree.routing_feature
        centres = np.array([routing[root] for root in order], dtype=np.float64)
        radii = np.array([self.view.routing_ball(root)[1] for root in order], dtype=np.float64)
        exact = self.view.dim == 1
        reach: dict[tuple[Hashable, Hashable], float] = {}
        for dst in order:
            sources = list(tree.neighbors(dst))
            if not sources:
                continue
            lo, hi = span[dst]
            center = routing[dst]
            row = self.metric.distance_row(center, centres[lo:hi]) + radii[lo:hi]
            for src in sources:
                if parent[dst] == src:
                    ranges = ((tin[dst] - lo, tout[dst] - lo),)
                else:  # src is a child of dst: all but src's subtree
                    ranges = ((0, tin[src] - lo), (tout[src] - lo, hi - lo))
                top = max(row[a:b].max() for a, b in ranges if b > a)
                if exact:
                    reach[(src, dst)] = float(top)
                    continue
                cut = top - top * _ROW_RECHECK_RTOL
                radius = 0.0
                for a, b in ranges:
                    for j in np.flatnonzero(row[a:b] >= cut) + (lo + a):
                        d = self.metric.distance(center, routing[order[j]])
                        radius = max(radius, d + radii[j])
                reach[(src, dst)] = float(radius)
        balls: dict[tuple[Hashable, Hashable], tuple[np.ndarray, float]] = {}
        for a, b in tree.edges:
            for src, dst in ((a, b), (b, a)):
                balls[(src, dst)] = (routing[dst], reach[(src, dst)])
        return balls

    def fanout_preview(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> tuple[int, list[Hashable], int]:
        """Dry-run the backbone fan-out without charging messages.

        Returns ``(entry_hops, visited_roots, backbone_hops)`` — the
        cluster-tree hops from *initiator* to its root, the backbone roots
        the query would reach after directional-summary pruning, and the
        total backbone hops those traversals cost.  This is the exact
        fan-out term of the query's message cost; the planner
        (:mod:`repro.queries.planner`) uses it to estimate the M-tree
        plan's cost from the same statistics the engine itself prunes
        with, leaving only the per-cluster descent cost to be modeled.
        """
        q = np.asarray(q, dtype=np.float64)
        entry_hops = len(self.clustering.path_to_root(initiator)) - 1
        start = self.view.effective(self.clustering.root_of(initiator))
        walk = self.view.walk(start, self._summary_prune(q, radius))
        return entry_hops, list(walk.hops), walk.total_hops

    def query(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> RangeQueryResult:
        """Run a range query from *initiator*; returns matches and cost."""
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        stats = MessageStats()
        view = self.view

        # 1. Initiator -> its cluster root over the cluster tree.
        origin_root = self.clustering.root_of(initiator)
        if view.unreachable(origin_root):
            alive, coverage = view.local_only(stats, origin_root)
            matches = {
                m for m in alive if self.metric.distance(q, self.features[m]) <= radius
            }
            # A descent is counted only when surviving members answered.
            descended = 1 if alive else 0
            return RangeQueryResult(
                matches, stats.total_values, 0, 0, descended, coverage, stats.total_drops
            )
        view.round_trip(stats, len(self.clustering.path_to_root(initiator)) - 1)

        # 2. Fan out over the backbone tree, pruning whole backbone
        #    subtrees whose covering ball cannot intersect the query ball.
        #    Only traversed edges carry the query down and the aggregate
        #    back.
        walk = view.walk(view.effective(origin_root), self._summary_prune(q, radius))
        view.charge_walk(stats, walk, up=1)

        # 3 + 4. Per-cluster pruning and descent at the visited roots.
        matches: set[Hashable] = set()
        pruned = included = descended = 0
        for root in walk.hops:
            center, r_root = view.routing_ball(root)
            d_root = self.metric.distance(q, center)
            if d_root > radius + r_root:
                pruned += 1
                continue
            if d_root <= radius - r_root:
                included += 1
                matches.update(view.alive_members(root))
                continue
            descended += 1
            matches.update(self._descend(q, radius, view.original(root), stats))

        matches.difference_update(view.dead)
        return RangeQueryResult(
            matches,
            stats.total_values,
            pruned,
            included,
            descended,
            view.coverage(walk.lost),
            stats.total_drops,
        )

    def _summary_prune(
        self, q: np.ndarray, radius: float
    ) -> Callable[[Hashable, Hashable], bool]:
        """Walk predicate: True when the far side of backbone edge
        ``(src, dst)`` cannot intersect the query ball."""

        def out_of_range(src: Hashable, dst: Hashable) -> bool:
            center, ball_radius = self._ball_toward(src, dst)
            return self.metric.distance(q, center) > radius + ball_radius

        return out_of_range

    def _ball_toward(
        self, src: Hashable, dst: Hashable
    ) -> tuple[np.ndarray, float]:
        ball = self._subtree_ball.get((src, dst))
        if ball is not None:
            return ball
        # Edge created by backbone repair after this engine was built: no
        # precomputed summary, so never prune across it.
        return np.zeros(self.view.dim), float("inf")

    def _descend(
        self,
        q: np.ndarray,
        radius: float,
        root: Hashable,
        stats: MessageStats,
    ) -> set[Hashable]:
        """M-tree descent within one cluster; charges visited tree edges."""
        matches: set[Hashable] = set()
        stack: list[Hashable] = [root]
        while stack:
            node = stack.pop()
            d_node = self.metric.distance(q, self.mtree.routing_feature[node])
            if d_node <= radius:
                matches.add(node)
            for child, (d_parent_child, r_child) in self.mtree.child_info[node].items():
                # Parent-side exclusion (no message): triangle inequality on
                # the stored child table.
                if abs(d_node - d_parent_child) > radius + r_child:
                    continue
                # Either way one message flows down the edge and back: a
                # confirmation when the whole child subtree hits, the query
                # otherwise.
                self.view.round_trip(stats, 1)
                if d_node + d_parent_child <= radius - r_child:
                    matches.update(self.mtree.subtree(child))
                    continue
                stack.append(child)
        return matches


def brute_force_range(
    features: Mapping[Hashable, np.ndarray],
    metric: Metric,
    q: np.ndarray,
    radius: float,
) -> set[Hashable]:
    """Ground-truth answer set, for correctness checks in tests."""
    return {
        node
        for node, feature in features.items()
        if metric.distance(q, feature) <= radius
    }
