"""Tests for the clustered range-query engine and the TAG baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import run_spanning_forest
from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import random_geometric_topology
from repro.index import build_backbone, build_mtree
from repro.queries import (
    RangeQueryEngine,
    TagEngine,
    brute_force_range,
)


def _engine_for(topology, features, delta):
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    return RangeQueryEngine(clustering, features, metric, mtree, backbone), metric


def test_range_query_matches_brute_force(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    rng = np.random.default_rng(0)
    nodes = list(random_topology.graph.nodes)
    for _ in range(25):
        q = random_features[nodes[int(rng.integers(len(nodes)))]] + rng.normal(0, 0.3, 2)
        radius = float(rng.uniform(0.1, 1.5))
        initiator = nodes[int(rng.integers(len(nodes)))]
        out = engine.query(q, radius, initiator)
        assert out.matches == brute_force_range(random_features, metric, q, radius)
        assert out.messages >= 0


def test_zero_radius_query(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(random_features[node], 0.0, node)
    assert node in out.matches
    assert out.matches == brute_force_range(random_features, metric, random_features[node], 0.0)


def test_negative_radius_rejected(random_topology, random_features):
    engine, _ = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    with pytest.raises(ValueError):
        engine.query(random_features[node], -0.5, node)


def test_far_query_prunes_everything(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(np.array([100.0, 100.0]), 0.5, node)
    assert out.matches == set()
    assert out.clusters_descended == 0


def test_huge_radius_includes_everything(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(np.zeros(2), 1e6, node)
    assert out.matches == set(random_topology.graph.nodes)


def test_pruning_counters_partition_clusters(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    out = engine.query(random_features[node], 0.4, node)
    total_roots = engine.clustering.num_clusters
    # pruned + included + descended counts visited roots; backbone-subtree
    # pruning can skip some entirely.
    assert out.clusters_pruned + out.clusters_included + out.clusters_descended <= total_roots


def test_query_on_spanning_forest_clustering(random_topology, random_features):
    metric = EuclideanMetric()
    clustering = run_spanning_forest(
        random_topology, random_features, metric, 1.5
    ).clustering
    mtree = build_mtree(clustering, random_features, metric)
    backbone = build_backbone(random_topology.graph, clustering)
    engine = RangeQueryEngine(clustering, random_features, metric, mtree, backbone)
    rng = np.random.default_rng(1)
    nodes = list(random_topology.graph.nodes)
    for _ in range(10):
        q = random_features[nodes[int(rng.integers(len(nodes)))]]
        out = engine.query(q, 0.8, nodes[0])
        assert out.matches == brute_force_range(random_features, metric, q, 0.8)


@given(
    seed=st.integers(min_value=0, max_value=30),
    radius=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=20, deadline=None)
def test_correctness_property(seed, radius):
    topology = random_geometric_topology(50, seed=seed)
    rng = np.random.default_rng(seed + 100)
    features = {v: rng.normal(size=2) for v in topology.graph.nodes}
    engine, metric = _engine_for(topology, features, delta=1.0)
    q = rng.normal(size=2)
    out = engine.query(q, radius, 0)
    assert out.matches == brute_force_range(features, metric, q, radius)


# ----------------------------------------------------------------------
# TAG
# ----------------------------------------------------------------------
def test_tag_fixed_cost_and_correctness(random_topology, random_features):
    metric = EuclideanMetric()
    tag = TagEngine(random_topology.graph, random_features, metric)
    assert tag.tree_edges == random_topology.num_nodes - 1
    cost = tag.per_query_cost()
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.normal(size=2)
        out = tag.query(q, 0.7)
        assert out.messages == cost  # fixed regardless of selectivity
        assert out.matches == brute_force_range(random_features, metric, q, 0.7)


def test_tag_base_station_validation(random_topology, random_features):
    with pytest.raises(KeyError):
        TagEngine(random_topology.graph, random_features, EuclideanMetric(), base_station="nope")


def test_clustered_query_beats_tag_on_correlated_data():
    """On a smooth field most clusters prune, so the clustered engine must
    undercut TAG's fixed cost (the Fig 14 effect)."""
    from repro.geometry import grid_topology

    topology = grid_topology(10, 10)
    features = {
        v: np.array([0.15 * topology.positions[v][0]]) for v in topology.graph.nodes
    }
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=0.3)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(clustering, features, metric, mtree, backbone)
    tag = TagEngine(topology.graph, features, metric)
    rng = np.random.default_rng(3)
    nodes = list(topology.graph.nodes)
    clustered_costs = []
    for _ in range(30):
        q = features[nodes[int(rng.integers(len(nodes)))]]
        out = engine.query(q, 0.1, nodes[int(rng.integers(len(nodes)))])
        assert out.matches == brute_force_range(features, metric, q, 0.1)
        clustered_costs.append(out.messages)
    assert np.mean(clustered_costs) < tag.per_query_cost()


# ----------------------------------------------------------------------
# degraded operation: dead nodes, partial coverage, backbone repair
# ----------------------------------------------------------------------
from repro.features import EuclideanMetric as _Metric
from repro.index import build_backbone as _build_backbone
from repro.index import build_mtree as _build_mtree


def _fault_engine(topology, features, delta, dead=None, root_replacements=None):
    metric = _Metric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = _build_mtree(clustering, features, metric)
    backbone = _build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(
        clustering,
        features,
        metric,
        mtree,
        backbone,
        dead=dead,
        root_replacements=root_replacements,
    )
    return engine, clustering, backbone, metric


def test_fault_free_query_reports_full_coverage(random_topology, random_features):
    engine, metric = _engine_for(random_topology, random_features, delta=1.5)
    node = next(iter(random_topology.graph.nodes))
    assert engine.query(np.zeros(2), 1e6, node).coverage == 1.0


def test_dead_backbone_leaf_yields_partial_coverage(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    # A backbone leaf: killing it loses exactly its own cluster.
    dead = next(r for r in clustering.roots if backbone.tree.degree(r) == 1)
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5, dead={dead}
    )
    initiator = next(
        n for n in random_topology.graph.nodes if clustering.root_of(n) != dead
    )
    out = engine.query(np.zeros(2), 1e6, initiator)
    lost = set(clustering.members(dead))
    alive = set(random_topology.graph.nodes) - {dead}
    assert out.matches == alive - lost
    expected = 1.0 - (len(lost) - 1) / len(alive)
    assert out.coverage == pytest.approx(expected)


def test_dead_origin_root_answers_locally(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    dead = next(
        (r for r in clustering.roots if len(clustering.members(r)) >= 2), None
    )
    if dead is None:
        pytest.skip("needs a surviving cluster member")
    members = set(clustering.members(dead))
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5, dead={dead}
    )
    initiator = next(m for m in members if m != dead)
    out = engine.query(np.zeros(2), 1e6, initiator)
    assert out.matches == members - {dead}
    alive = len(random_topology.graph.nodes) - 1
    assert out.coverage == pytest.approx((len(members) - 1) / alive)


def test_replacement_root_restores_coverage(random_topology, random_features):
    engine, clustering, backbone, metric = _fault_engine(
        random_topology, random_features, delta=1.5
    )
    if clustering.num_clusters < 2:
        pytest.skip("single-cluster instance")
    dead = next(
        (
            r
            for r in clustering.roots
            if backbone.tree.degree(r) >= 1 and len(clustering.members(r)) >= 2
        ),
        None,
    )
    if dead is None:
        pytest.skip("needs a surviving cluster member")
    replacement = next(m for m in clustering.members(dead) if m != dead)
    surviving = random_topology.graph.copy()
    surviving.remove_node(dead)
    mtree = _build_mtree(clustering, random_features, metric)
    rerouted = backbone.reroute_around(surviving, dead, replacement)
    engine = RangeQueryEngine(
        clustering,
        random_features,
        metric,
        mtree,
        backbone,
        dead={dead},
        root_replacements={dead: replacement},
    )
    initiator = next(
        n for n in surviving.nodes if clustering.root_of(n) != dead
    )
    out = engine.query(np.zeros(2), 1e6, initiator)
    assert out.matches == set(surviving.nodes)
    assert out.coverage == 1.0


def test_zero_survivors_reports_zero_coverage():
    """With every node dead, coverage is 0.0 — nothing was coverable.

    Regression test: the all-dead edge case used to report coverage 1.0
    because the "fraction of survivors covered" ratio degenerated to a
    vacuous truth over an empty survivor set.
    """
    from repro.geometry.topology import grid_topology

    topology = grid_topology(4, 4)
    features = {n: np.array([float(x + y)]) for n, (x, y) in topology.positions.items()}
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=1.5)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(
        clustering, features, metric, mtree, backbone, dead=set(topology.graph.nodes)
    )
    out = engine.query(np.zeros(1), 1e6, next(iter(topology.graph.nodes)))
    assert out.coverage == 0.0
    assert out.matches == set()


def test_drop_accounting_agrees_between_stats_and_metrics():
    """Degraded queries account drops identically in ``stats.drops_by_reason``
    and the (optional) ``MetricsRegistry`` counters, and report the total
    through ``RangeQueryResult.drops``."""
    from repro.geometry.topology import grid_topology
    from repro.obs import MetricsRegistry

    topology = grid_topology(4, 4)
    # identical features: one cluster per component, so killing the roots
    # leaves survivors to run the local-only degraded path
    features = {n: np.zeros(1) for n in topology.graph.nodes}
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=1.5)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    metrics = MetricsRegistry()
    dead = set(clustering.roots)  # every root dead: local-only degraded path
    engine = RangeQueryEngine(
        clustering, features, metric, mtree, backbone, dead=dead, metrics=metrics
    )
    initiator = next(n for n in topology.graph.nodes if n not in dead)
    out = engine.query(np.zeros(1), 1e6, initiator)
    assert out.drops > 0
    reasons = {
        name.rsplit(".", 1)[1]: metrics.counter(name).value
        for name in metrics.names()
        if name.startswith("queries.drops.")
    }
    assert reasons  # the registry saw every structured drop reason
    assert sum(reasons.values()) == out.drops


# ----------------------------------------------------------------------
# backbone summaries: linear-pass build equals the per-direction walk
# ----------------------------------------------------------------------
from repro.features import ManhattanMetric, MatrixMetric, WeightedEuclideanMetric
from repro.geometry import grid_topology


def _walk_summaries(engine):
    """Reference build: walk the whole far side of every edge direction."""
    balls = {}
    for a, b in engine.backbone.tree.edges:
        for src, dst in ((a, b), (b, a)):
            center = engine.mtree.routing_feature[dst]
            radius = 0.0
            for root in engine.backbone.side_roots(src, dst):
                root_center, root_radius = engine.view.routing_ball(root)
                d = engine.metric.distance(center, root_center)
                radius = max(radius, d + root_radius)
            balls[(src, dst)] = (center, radius)
    return balls


def _assert_summaries_exact(engine):
    expected = _walk_summaries(engine)
    built = engine._subtree_ball
    assert list(built) == list(expected)
    for key, (center, radius) in expected.items():
        assert built[key][0] is center, key
        assert built[key][1] == radius, (key, built[key][1], radius)


def _field(n, dim, seed):
    """Smooth random field: multi-member clusters plus a few dozen roots."""
    topology = random_geometric_topology(n, seed=seed)
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(2, dim))
    features = {
        v: np.sin(0.5 * np.asarray(topology.positions[v]) @ weights)
        + rng.normal(0.0, 0.02, size=dim)
        for v in topology.graph.nodes
    }
    return topology, features


def _summary_engine(topology, features, metric, delta, **kwargs):
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=delta)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(clustering, features, metric, mtree, backbone, **kwargs)
    return engine, clustering, mtree, backbone


@pytest.mark.parametrize(
    "dim, metric",
    [
        (1, EuclideanMetric()),
        (3, EuclideanMetric()),
        (4, EuclideanMetric()),
        (4, WeightedEuclideanMetric([0.5, 0.3, 0.2, 0.1])),
        (3, ManhattanMetric()),
    ],
    ids=["euclid-d1", "euclid-d3", "euclid-d4", "weighted-d4", "manhattan-d3"],
)
def test_backbone_summaries_equal_per_direction_walk(dim, metric):
    topology, features = _field(160, dim, seed=dim + 5)
    engine, clustering, _, _ = _summary_engine(topology, features, metric, delta=0.5)
    assert clustering.num_clusters >= 20
    _assert_summaries_exact(engine)


class _IdMatrixMetric(MatrixMetric):
    """Table metric over length-1 features holding a node id."""

    def distance(self, a, b):
        return super().distance(int(a[0]), int(b[0]))


def test_backbone_summaries_exact_on_generic_row_fallback():
    topology = random_geometric_topology(60, seed=9)
    rng = np.random.default_rng(9)
    height = {v: float(rng.uniform(0.0, 3.0)) for v in topology.graph.nodes}
    nodes = sorted(topology.graph.nodes)
    table = {
        (a, b): abs(height[a] - height[b]) for i, a in enumerate(nodes) for b in nodes[i + 1:]
    }
    metric = _IdMatrixMetric(table, check_triangle=False)
    assert metric.pairwise_matrix(np.zeros((2, 1))) is None  # no vectorized form
    features = {v: np.array([float(v)]) for v in nodes}
    engine, clustering, _, _ = _summary_engine(topology, features, metric, delta=0.3)
    assert clustering.num_clusters >= 5
    _assert_summaries_exact(engine)


def test_backbone_summaries_single_cluster_is_empty():
    topology = grid_topology(4, 4)
    features = {v: np.zeros(3) for v in topology.graph.nodes}
    engine, clustering, _, _ = _summary_engine(topology, features, EuclideanMetric(), 1.0)
    assert clustering.num_clusters == 1
    assert engine._subtree_ball == {}
    _assert_summaries_exact(engine)


def test_backbone_summaries_exact_with_root_replacements():
    topology, features = _field(160, 3, seed=21)
    metric = EuclideanMetric()
    engine, clustering, mtree, backbone = _summary_engine(topology, features, metric, 0.5)
    dead = next(
        r
        for r in clustering.roots
        if backbone.tree.degree(r) >= 2 and len(clustering.members(r)) >= 2
    )
    replacement = next(m for m in clustering.members(dead) if m != dead)
    surviving = topology.graph.copy()
    surviving.remove_node(dead)
    assert backbone.reroute_around(surviving, dead, replacement) >= 1
    engine = RangeQueryEngine(
        clustering,
        features,
        metric,
        mtree,
        backbone,
        dead={dead},
        root_replacements={dead: replacement},
    )
    assert any(replacement in key for key in engine._subtree_ball)
    _, replaced_radius = engine.view.routing_ball(replacement)
    assert replaced_radius > mtree.covering_radius[replacement]
    _assert_summaries_exact(engine)


def test_backbone_summaries_exact_on_split_backbone():
    """A repair that cannot re-route an edge leaves a forest."""
    topology, features = _field(160, 3, seed=8)
    metric = EuclideanMetric()
    _, clustering, mtree, backbone = _summary_engine(topology, features, metric, 0.5)
    edges = list(backbone.tree.edges)
    for a, b in edges[::7]:
        backbone.tree.remove_edge(a, b)
    engine = RangeQueryEngine(clustering, features, metric, mtree, backbone)
    assert len(engine._subtree_ball) == 2 * (len(edges) - len(edges[::7]))
    _assert_summaries_exact(engine)


class _CountingMetric(EuclideanMetric):
    """Euclidean metric that counts its scalar ``distance`` calls."""

    def __init__(self):
        self.calls = 0

    def distance(self, a, b):
        self.calls += 1
        return super().distance(a, b)


@pytest.mark.parametrize("dim", [1, 3])
def test_backbone_summary_build_makes_linear_scalar_calls(dim):
    topology = grid_topology(24, 24)
    rng = np.random.default_rng(dim)
    features = {v: rng.uniform(0.0, 10.0, size=dim) for v in topology.graph.nodes}
    metric = _CountingMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=0.6)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    clusters = clustering.num_clusters
    assert clusters >= 200
    metric.calls = 0
    engine = RangeQueryEngine(clustering, features, metric, mtree, backbone)
    # The per-direction walk made ~C^2 calls; the row build re-checks only
    # near-maximum entries, about one per edge direction.
    assert metric.calls <= 4 * clusters, (metric.calls, clusters)
    metric.calls = 0
    _walk_summaries(engine)
    assert metric.calls >= clusters * clusters // 4
