"""Tests for topologies and bounding boxes."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.geometry import topology as topology_module

from repro.geometry import (
    BoundingBox,
    Topology,
    grid_topology,
    random_geometric_topology,
    scatter_topology,
)


def test_grid_shape_and_edges():
    topology = grid_topology(3, 4)
    assert topology.num_nodes == 12
    # 3 rows x 4 cols grid: 3*3 horizontal + 2*4 vertical edges
    assert topology.graph.number_of_edges() == 3 * 3 + 2 * 4
    assert topology.is_connected()


def test_grid_positions_match_indices():
    topology = grid_topology(2, 3, spacing=2.0)
    assert topology.positions[0] == (0.0, 0.0)
    assert topology.positions[5] == (4.0, 2.0)  # row 1, col 2


def test_grid_four_neighborhood():
    topology = grid_topology(3, 3)
    center = 4
    assert sorted(topology.graph.neighbors(center)) == [1, 3, 5, 7]


def test_grid_validation():
    with pytest.raises(ValueError):
        grid_topology(0, 3)
    with pytest.raises(ValueError):
        grid_topology(3, 3, spacing=-1.0)


def test_single_node_grid():
    topology = grid_topology(1, 1)
    assert topology.num_nodes == 1
    assert topology.bounds.width == 1.0  # degenerate box inflated


def test_random_geometric_connected_by_default():
    for seed in range(5):
        topology = random_geometric_topology(60, seed=seed)
        assert topology.is_connected()
        assert topology.num_nodes == 60


def test_random_geometric_target_degree_approximate():
    topology = random_geometric_topology(400, seed=1, target_degree=4.0)
    # Stitching adds a few edges; allow a generous band around 4.
    assert 2.5 <= topology.average_degree() <= 6.5


def test_random_geometric_deterministic_per_seed():
    a = random_geometric_topology(50, seed=9)
    b = random_geometric_topology(50, seed=9)
    assert a.positions == b.positions
    assert set(a.graph.edges) == set(b.graph.edges)


def test_random_geometric_unconnected_option():
    topology = random_geometric_topology(100, seed=2, radio_range=0.1, connect=False)
    assert not nx.is_connected(topology.graph)


def test_scatter_topology_edges_within_range():
    points = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (5.0, 0.0)}
    topology = scatter_topology(points, radio_range=1.5, connect=False)
    assert topology.graph.has_edge("a", "b")
    assert not topology.graph.has_edge("b", "c")


def test_scatter_topology_stitches_components():
    points = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (5.0, 0.0)}
    topology = scatter_topology(points, radio_range=1.5, connect=True)
    assert topology.is_connected()


def test_scatter_topology_empty_rejected():
    with pytest.raises(ValueError):
        scatter_topology({}, radio_range=1.0)


def test_bounds_are_square_and_contain_all_nodes():
    topology = random_geometric_topology(40, seed=3)
    bounds = topology.bounds
    assert bounds.width == pytest.approx(bounds.height)
    for x, y in topology.positions.values():
        assert bounds.contains(x, y)


def test_bounding_box_center():
    box = BoundingBox(0.0, 0.0, 4.0, 2.0)
    assert box.center == (2.0, 1.0)
    assert box.contains(2.0, 1.0)
    assert not box.contains(5.0, 1.0)


def test_topology_requires_positions_for_all_nodes():
    graph = nx.path_graph(3)
    with pytest.raises(ValueError, match="positions missing"):
        Topology(graph, {0: (0.0, 0.0), 1: (1.0, 0.0)})


def test_average_degree():
    topology = grid_topology(2, 2)
    assert topology.average_degree() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# reference builder: the original quadratic paper-scale generator
# ----------------------------------------------------------------------
def _reference_graph(ids, coords, radio_range, *, connect=True):
    """Build the graph the way the original paper-scale path did.

    A row-by-row O(n²) range loop adds ``(ids[i], ids[j])`` for ascending
    ``i < j``; then, while more than one component is left, every component
    is recomputed and the largest is linked to the closest node outside it
    (row-major argmin over a fresh core × rest distance matrix).
    """
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    for a in range(len(ids)):
        deltas = coords[a + 1 :] - coords[a]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        for offset in np.nonzero(dists <= radio_range)[0]:
            graph.add_edge(ids[a], ids[a + 1 + int(offset)])
    index_of = {node: k for k, node in enumerate(ids)}
    while connect:
        components = list(nx.connected_components(graph))
        if len(components) <= 1:
            break
        components.sort(key=len, reverse=True)
        core_idx = np.asarray([index_of[v] for v in components[0]])
        rest_idx = np.asarray([index_of[v] for comp in components[1:] for v in comp])
        diffs = coords[core_idx][:, None, :] - coords[rest_idx][None, :, :]
        dists = np.hypot(diffs[..., 0], diffs[..., 1])
        a, b = np.unravel_index(np.argmin(dists), dists.shape)
        graph.add_edge(ids[core_idx[a]], ids[rest_idx[b]])
    return graph


def _adjacency(graph):
    """Every node with its neighbours in adjacency (insertion) order."""
    return [(u, list(graph.adj[u])) for u in graph]


def _field(n, seed, density=0.8, target_degree=4.0):
    """The coordinates and radio range :func:`random_geometric_topology` uses."""
    rng = np.random.default_rng(seed)
    side = math.sqrt(n / density)
    coords = rng.uniform(0.0, side, size=(n, 2))
    return coords, side * math.sqrt(target_degree / (math.pi * max(n - 1, 1)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.integers(2, topology_module.SPATIAL_HASH_MIN_N - 1),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.5, 1.5),
    target_degree=st.floats(3.0, 12.0),
)
def test_small_n_builder_matches_reference(n, seed, density, target_degree):
    """Generated fields: same edges and adjacency order as the reference."""
    built = random_geometric_topology(n, seed=seed, density=density, target_degree=target_degree)
    coords, radio_range = _field(n, seed, density, target_degree)
    reference = _reference_graph(list(range(n)), coords, radio_range)
    assert _adjacency(built.graph) == _adjacency(reference)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    k=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    degree=st.floats(0.5, 12.0),
    string_ids=st.booleans(),
)
def test_scatter_builder_matches_reference(k, seed, degree, string_ids):
    """Scatter fields whose ids are neither contiguous nor sorted."""
    rng = np.random.default_rng(seed)
    raw = rng.choice(10 * k, size=k, replace=False)
    ids = [f"s{v}" for v in raw] if string_ids else [int(v) for v in raw]
    coords = rng.uniform(-50.0, 50.0, size=(k, 2))
    radio_range = 100.0 * math.sqrt(degree / (math.pi * k))
    points = {node: (float(x), float(y)) for node, (x, y) in zip(ids, coords)}
    built = scatter_topology(points, radio_range=radio_range)
    reference = _reference_graph(ids, coords, radio_range)
    assert _adjacency(built.graph) == _adjacency(reference)


def test_pair_budget_blocks_match_reference(monkeypatch):
    """Blocks far smaller than one cell or one absorbed component."""
    monkeypatch.setattr(topology_module, "_PAIR_BUDGET", 7)
    for n, seed in ((300, 4), (900, 1)):
        built = random_geometric_topology(n, seed=seed)
        coords, radio_range = _field(n, seed)
        assert _adjacency(built.graph) == _adjacency(
            _reference_graph(list(range(n)), coords, radio_range)
        )
    coords = np.column_stack([0.01 * np.arange(60), np.zeros(60)])  # one cell
    dense = scatter_topology({i: tuple(xy) for i, xy in enumerate(coords)}, radio_range=5.0)
    assert dense.graph.number_of_edges() == 60 * 59 // 2
    assert _adjacency(dense.graph) == _adjacency(_reference_graph(list(range(60)), coords, 5.0))


# SHA-256 of repr(_adjacency(...)) of the reference builder's graph for the
# two paper-scale fields the benchmark serves.  Running the reference on
# them costs several seconds per field, so the digests are pinned instead.
_NAMED_FIELDS = {
    "paper-explicit": "e199b2e609f564affed31aa9100b09e411d52a8ff2db54e5a8d3a99b24fb369d",
    "death-valley": "7e48c466e0a7160d01cbd590d3f2449e4f6df757ff633078480a1925ff6004c3",
}


@pytest.mark.parametrize("name", sorted(_NAMED_FIELDS))
def test_named_fields_match_reference_digest(name):
    if name == "paper-explicit":
        graph = random_geometric_topology(2500, seed=2).graph
    else:
        from repro.datasets.death_valley import generate_death_valley_dataset

        graph = generate_death_valley_dataset(seed=11).topology.graph
    digest = hashlib.sha256(repr(_adjacency(graph)).encode()).hexdigest()
    assert digest == _NAMED_FIELDS[name]


def test_stitching_computes_components_once(monkeypatch):
    """One component pass and one link per merged component, not one per link."""
    unstitched = random_geometric_topology(1000, seed=3, connect=False).graph
    components = nx.number_connected_components(unstitched)
    assert components > 10  # the paper's degree leaves many fragments

    calls = []
    original = nx.connected_components

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(nx, "connected_components", counting)
    stitched = random_geometric_topology(1000, seed=3).graph
    assert len(calls) <= 1
    assert stitched.number_of_edges() - unstitched.number_of_edges() == components - 1


_TIED_SCATTER = (
    "from repro.geometry import scatter_topology;"
    "t = scatter_topology({'a': (0, 0), 'b': (2, 0), 'c': (1, 5)}, radio_range=2.5);"
    "print(sorted(tuple(sorted(e)) for e in t.graph.edges))"
)


def test_scatter_stitch_tie_independent_of_hash_seed():
    """c is equidistant from a and b: the first absorbed member, a, wins."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _TIED_SCATTER], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(done.stdout.strip())
    assert outputs == {"[('a', 'b'), ('a', 'c')]"}


# ----------------------------------------------------------------------
# spatial-hash fast path (n >= SPATIAL_HASH_MIN_N)
# ----------------------------------------------------------------------
def test_grid_edges_match_quadratic_path():
    """The cell grid must produce the identical edge set as the O(n²) loop
    on the same coordinates (the range predicate is shared)."""
    from repro.geometry.topology import _range_edges_grid

    n = 600
    coords, radio_range = _field(n, 17)
    quadratic = _reference_graph(list(range(n)), coords, radio_range, connect=False)

    gridded = nx.Graph()
    gridded.add_nodes_from(range(n))
    _range_edges_grid(gridded, coords, radio_range)

    assert set(map(frozenset, quadratic.edges)) == set(map(frozenset, gridded.edges))


def test_fast_path_topology_connected_and_deterministic():
    from repro.geometry.topology import SPATIAL_HASH_MIN_N

    n = SPATIAL_HASH_MIN_N  # smallest size that takes the fast path
    first = random_geometric_topology(n, seed=5)
    second = random_geometric_topology(n, seed=5)
    assert first.is_connected()
    assert first.num_nodes == n
    assert list(first.graph.edges) == list(second.graph.edges)
    # degree stays at the paper's target despite the different stitcher
    assert 3.0 < first.average_degree() < 5.0


def test_centroid_mst_stitcher_connects_fragments():
    from repro.geometry.topology import _stitch_components_grid

    graph = nx.Graph()
    graph.add_nodes_from(range(9))
    # three triangles, far apart
    coords = []
    for cluster, origin in enumerate([(0.0, 0.0), (10.0, 0.0), (5.0, 12.0)]):
        base = cluster * 3
        graph.add_edges_from([(base, base + 1), (base + 1, base + 2), (base, base + 2)])
        for k in range(3):
            coords.append((origin[0] + 0.1 * k, origin[1] + 0.05 * k))
    coords = np.asarray(coords)
    _stitch_components_grid(graph, coords)
    assert nx.is_connected(graph)
    # exactly one stitch edge per MST edge over 3 components
    assert graph.number_of_edges() == 9 + 2
