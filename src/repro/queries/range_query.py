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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro._validation import require_non_negative
from repro.core.delta import Clustering
from repro.features.metrics import Metric
from repro.index.backbone import BackboneTree
from repro.index.mtree import MTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.sim.messages import CATEGORY_QUERY
from repro.sim.stats import MessageStats

#: Drop reasons recorded by the degraded-mode query paths.
DROP_DEAD_RELAY = "dead_relay"
DROP_DEAD_ROOT = "dead_root"
DROP_NO_SURVIVORS = "no_survivors"


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

    Degraded operation after fail-stop crashes: pass ``dead`` (the crashed
    node set) and the engine returns **partial results with a coverage
    fraction** instead of crashing — dead backbone relays cut off their
    far-side clusters (counted as uncovered), dead nodes are filtered from
    match sets, and a query whose own representative died is answered from
    the surviving cluster members alone.  With ``root_replacements``
    (re-elected representatives, after
    :meth:`~repro.index.backbone.BackboneTree.reroute_around` repaired the
    backbone) the replacement stands in for the dead root, pruning with a
    conservative covering ball (replacement-to-old-root distance added to
    the old covering radius keeps the triangle-inequality exclusions
    sound).  Both parameters default to empty: the fault-free path is
    untouched.

    Every degraded-path loss is accounted twice over, consistently: the
    per-query ``MessageStats`` records it under ``drops_by_reason``
    (``dead_relay`` / ``dead_root`` / ``no_survivors``) and, when a
    *metrics* registry is supplied, the same reasons increment
    ``queries.drops.<reason>`` counters — so a service-level registry and
    the per-query stats always agree.
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
        self.clustering = clustering
        self.features = {k: np.asarray(v, dtype=np.float64) for k, v in features.items()}
        self.metric = metric
        self.mtree = mtree
        self.backbone = backbone
        self._metrics = metrics
        self._dead = frozenset(dead) if dead else frozenset()
        self._replacements = dict(root_replacements) if root_replacements else {}
        self._replaced_by = {repl: orig for orig, repl in self._replacements.items()}
        self._dim = int(next(iter(self.features.values())).shape[0])
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
        radii = np.array([self._routing_ball(root)[1] for root in order], dtype=np.float64)
        exact = self._dim == 1
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
        origin_root = self.clustering.root_of(initiator)
        entry_hops = len(self.clustering.path_to_root(initiator)) - 1
        start = self._replacements.get(origin_root, origin_root)
        visited: list[Hashable] = [start]
        backbone_hops = 0
        stack = [start]
        seen = {start}
        while stack:
            current = stack.pop()
            for neighbor in self.backbone.tree.neighbors(current):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if self._dead and neighbor in self._dead:
                    continue  # the walk drops at dead relays, as query() does
                center, ball_radius = self._ball_toward(current, neighbor)
                if self.metric.distance(q, center) > radius + ball_radius:
                    continue
                backbone_hops += self.backbone.edge_hops(current, neighbor)
                visited.append(neighbor)
                stack.append(neighbor)
        return entry_hops, visited, backbone_hops

    def query(
        self, q: np.ndarray, radius: float, initiator: Hashable
    ) -> RangeQueryResult:
        """Run a range query from *initiator*; returns matches and cost."""
        require_non_negative(radius, "radius")
        q = np.asarray(q, dtype=np.float64)
        stats = MessageStats()
        query_values = self._dim + 1
        dead = self._dead

        # 1. Initiator -> its cluster root over the cluster tree.
        origin_root = self.clustering.root_of(initiator)
        if dead and origin_root in dead and origin_root not in self._replacements:
            # Unrepaired dead representative: the initiator cannot enter
            # the backbone, so the query is answered by flooding the
            # surviving members of its own cluster.
            return self._local_only(q, radius, origin_root, stats, query_values)
        entry_hops = len(self.clustering.path_to_root(initiator)) - 1
        if entry_hops:
            self._charge(stats, query_values, entry_hops)
            self._charge(stats, 1, entry_hops)  # results back to initiator
        start = self._replacements.get(origin_root, origin_root)

        # 2. Fan out over the backbone tree, pruning whole backbone
        #    subtrees whose covering ball cannot intersect the query ball.
        #    Only traversed edges carry the query down and the aggregate
        #    back.  Dead backbone relays cut off their far side: those
        #    clusters go uncovered rather than raising.
        lost_roots: set[Hashable] = set()
        visited_roots: list[Hashable] = [start]
        stack: list[Hashable] = [start]
        seen = {start}
        while stack:
            current = stack.pop()
            for neighbor in self.backbone.tree.neighbors(current):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if dead and neighbor in dead:
                    # The query copy toward this relay is undeliverable.
                    self._drop(stats, DROP_DEAD_RELAY)
                    lost_roots.update(self.backbone.side_roots(current, neighbor))
                    continue
                center, ball_radius = self._ball_toward(current, neighbor)
                if self.metric.distance(q, center) > radius + ball_radius:
                    continue  # the entire far-side subtree is out of range
                hops = self.backbone.edge_hops(current, neighbor)
                self._charge(stats, query_values, hops)
                self._charge(stats, 1, hops)
                visited_roots.append(neighbor)
                stack.append(neighbor)

        # 3 + 4. Per-cluster pruning and descent at the visited roots.
        matches: set[Hashable] = set()
        pruned = included = descended = 0
        for root in visited_roots:
            center, r_root = self._routing_ball(root)
            d_root = self.metric.distance(q, center)
            if d_root > radius + r_root:
                pruned += 1
                continue
            if d_root <= radius - r_root:
                included += 1
                matches.update(self._members_of(root))
                continue
            descended += 1
            descend_root = self._replaced_by.get(root, root)
            matches.update(self._descend(q, radius, descend_root, stats, query_values))

        if dead:
            matches.difference_update(dead)
        coverage = self._coverage_after_losses(lost_roots)
        return RangeQueryResult(
            matches,
            stats.total_values,
            pruned,
            included,
            descended,
            coverage,
            stats.total_drops,
        )

    # ------------------------------------------------------------------
    # Degraded-operation helpers (all no-ops without dead/replacements).
    def _routing_ball(self, root: Hashable) -> tuple[np.ndarray, float]:
        """Pruning ball of *root*, conservative for re-elected roots.

        A replacement's own M-tree entry only covers its subtree, so its
        cluster ball is the dead root's ball enlarged by the feature
        distance between the two — sound by the triangle inequality.
        """
        center = self.mtree.routing_feature[root]
        orig = self._replaced_by.get(root)
        if orig is None:
            return center, self.mtree.covering_radius[root]
        slack = self.metric.distance(center, self.mtree.routing_feature[orig])
        return center, slack + self.mtree.covering_radius[orig]

    def _ball_toward(
        self, src: Hashable, dst: Hashable
    ) -> tuple[np.ndarray, float]:
        ball = self._subtree_ball.get((src, dst))
        if ball is not None:
            return ball
        # Edge created by backbone repair after this engine was built: no
        # precomputed summary, so never prune across it.
        return np.zeros(self._dim), float("inf")

    def _members_of(self, root: Hashable):
        members = self.clustering.members(self._replaced_by.get(root, root))
        if self._dead:
            return [m for m in members if m not in self._dead]
        return members

    def _alive_total(self) -> int:
        return sum(1 for n in self.clustering.assignment if n not in self._dead)

    def _coverage_after_losses(self, lost_roots: set[Hashable]) -> float:
        if not lost_roots:
            return 1.0
        alive_total = self._alive_total()
        if alive_total == 0:
            # No survivors at all: nothing was (or could be) covered.
            return 0.0
        uncovered = 0
        for root in lost_roots:
            orig = self._replaced_by.get(root, root)
            uncovered += sum(
                1 for m in self.clustering.members(orig) if m not in self._dead
            )
        return 1.0 - uncovered / alive_total

    def _local_only(
        self,
        q: np.ndarray,
        radius: float,
        origin_root: Hashable,
        stats: MessageStats,
        query_values: int,
    ) -> RangeQueryResult:
        """Answer from the initiator's own surviving cluster members."""
        self._drop(stats, DROP_DEAD_ROOT)
        alive = [
            m for m in self.clustering.members(origin_root) if m not in self._dead
        ]
        for _ in range(max(len(alive) - 1, 0)):
            self._charge(stats, query_values, 1)
            self._charge(stats, 1, 1)
        matches = {
            m for m in alive if self.metric.distance(q, self.features[m]) <= radius
        }
        alive_total = self._alive_total()
        # A fully-dead network covers nothing — 0.0, never 1.0 (a 0/0 here
        # used to claim full coverage for an unanswerable query).
        coverage = len(alive) / alive_total if alive_total else 0.0
        # Only count a descent when surviving members actually answered;
        # an empty cluster consulted nothing (this used to report 1).
        descended = 1 if alive else 0
        if not alive:
            self._drop(stats, DROP_NO_SURVIVORS)
        return RangeQueryResult(
            matches, stats.total_values, 0, 0, descended, coverage, stats.total_drops
        )

    # ------------------------------------------------------------------
    def _descend(
        self,
        q: np.ndarray,
        radius: float,
        root: Hashable,
        stats: MessageStats,
        query_values: int,
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
                # Parent-side full inclusion: the whole child subtree hits.
                if d_node + d_parent_child <= radius - r_child:
                    matches.update(self._subtree(child))
                    # One confirmation message still flows down and back.
                    self._charge(stats, query_values, 1)
                    self._charge(stats, 1, 1)
                    continue
                self._charge(stats, query_values, 1)  # query down one edge
                self._charge(stats, 1, 1)  # aggregate back up
                stack.append(child)
        return matches

    def _subtree(self, node: Hashable) -> set[Hashable]:
        out: set[Hashable] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            out.add(current)
            stack.extend(self.mtree.children[current])
        return out

    @staticmethod
    def _charge(stats: MessageStats, values: int, hops: int) -> None:
        if hops > 0:
            stats.charge("query", CATEGORY_QUERY, values, hops)

    def _drop(self, stats: MessageStats, reason: str) -> None:
        """Record one degraded-path drop in both accounting systems."""
        stats.drop("query", reason)
        if self._metrics is not None:
            self._metrics.counter(f"queries.drops.{reason}").inc()


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
