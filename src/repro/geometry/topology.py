"""Network topologies (paper §8.1).

Three topology families are used by the paper's evaluation:

- a regular grid (the Tao 6×9 buoy array; also the idealized √N × √N grid
  the complexity analysis assumes),
- uniform-random geometric graphs with a small average degree (~4 radio
  neighbours) for the synthetic experiments, and
- random scatterings over a terrain for the Death Valley experiments.

A :class:`Topology` bundles the communication graph, node positions and the
bounding box — everything the quadtree decomposition and the simulator need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro._validation import require_int_at_least, require_positive
from repro.perf.cache import cached_artifact

#: Node count at which :func:`random_geometric_topology` switches from the
#: paper-scale builder to the large-N one.  Below it, edges come from one
#: cell-grid range pass emitted in row-major ``(i, j)`` order and components
#: are joined by exact incremental Prim (:func:`_stitch_components`): the
#: graph, down to each node's adjacency order, is the one the original
#: quadratic range loop and round-by-round stitcher built, so every
#: paper-scale pinned table is unchanged.  At and above it, edges are added
#: cell by cell (:func:`_range_edges_grid`: same edge *set*, different
#: insertion order) and stitching switches to a centroid-MST variant that is
#: deterministic but may pick different stitch edges.
SPATIAL_HASH_MIN_N = 4096

#: Pair distances per vectorised block in the paper-scale range pass and
#: stitcher, so no temporary grows with the square of the field.
_PAIR_BUDGET = 1 << 17


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box of node positions."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        """Box width."""
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        """Box height."""
        return self.ymax - self.ymin

    @property
    def center(self) -> tuple[float, float]:
        """Box centre point."""
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains(self, x: float, y: float) -> bool:
        """Whether (x, y) lies inside the box."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass
class Topology:
    """A communication graph with node positions.

    Attributes
    ----------
    graph:
        The communication graph *CG*.
    positions:
        Mapping node id -> (x, y).
    """

    graph: nx.Graph
    positions: dict[Hashable, tuple[float, float]]
    _bounds: BoundingBox | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        missing = set(self.graph.nodes) - set(self.positions)
        if missing:
            raise ValueError(f"positions missing for nodes: {sorted(missing, key=repr)[:5]}")

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the communication graph."""
        return self.graph.number_of_nodes()

    @property
    def bounds(self) -> BoundingBox:
        """Square bounding box of the node positions (quadtrees want squares)."""
        if self._bounds is None:
            xs = [p[0] for p in self.positions.values()]
            ys = [p[1] for p in self.positions.values()]
            xmin, xmax = min(xs), max(xs)
            ymin, ymax = min(ys), max(ys)
            side = max(xmax - xmin, ymax - ymin)
            # Inflate the shorter axis symmetrically so the box is square;
            # degenerate (single-point) topologies get a unit box.
            if side == 0:
                side = 1.0
            cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
            half = side / 2.0
            self._bounds = BoundingBox(cx - half, cy - half, cx + half, cy + half)
        return self._bounds

    def average_degree(self) -> float:
        """Mean node degree of the communication graph."""
        n = self.graph.number_of_nodes()
        return 2.0 * self.graph.number_of_edges() / n if n else 0.0

    def is_connected(self) -> bool:
        """Whether the communication graph is connected."""
        return self.num_nodes > 0 and nx.is_connected(self.graph)


def grid_topology(rows: int, cols: int, *, spacing: float = 1.0) -> Topology:
    """A rows × cols grid with 4-neighbourhood links (node ids ``r*cols+c``).

    This is the Tao buoy layout (6×9) and the idealized analysis topology.
    """
    require_int_at_least(rows, 1, "rows")
    require_int_at_least(cols, 1, "cols")
    require_positive(spacing, "spacing")
    graph = nx.Graph()
    positions: dict[Hashable, tuple[float, float]] = {}
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            graph.add_node(node)
            positions[node] = (c * spacing, r * spacing)
            if c > 0:
                graph.add_edge(node, node - 1)
            if r > 0:
                graph.add_edge(node, node - cols)
    return Topology(graph, positions)


# Code-version salt "3": 10⁶-node topologies from the vectorised quadtree/
# scale work must not collide with cache entries written by older builds.
@cached_artifact("3")
def random_geometric_topology(
    n: int,
    *,
    seed: int,
    density: float = 0.8,
    target_degree: float = 4.0,
    radio_range: float | None = None,
    connect: bool = True,
) -> Topology:
    """Uniform-random node placement with radio-range links (paper §8.1).

    Nodes are placed uniformly in a square sized so the node density matches
    *density* (paper: 0.7–0.9 nodes per unit area).  Unless *radio_range* is
    given, the range is chosen so the expected neighbour count is
    *target_degree* (paper: ~4 nodes within radio range).

    With *connect* (default), disconnected components are stitched together
    by linking the closest pair of nodes across components — physically this
    models a slightly larger transmit power for the handful of fringe nodes,
    and keeps every experiment on one connected network (the paper implicitly
    assumes a connected *CG*).
    """
    require_int_at_least(n, 1, "n")
    require_positive(density, "density")
    require_positive(target_degree, "target_degree")
    rng = np.random.default_rng(seed)
    side = math.sqrt(n / density)
    coords = rng.uniform(0.0, side, size=(n, 2))
    if radio_range is None:
        # Expected neighbours of a node = (n-1) * pi r^2 / side^2.
        radio_range = side * math.sqrt(target_degree / (math.pi * max(n - 1, 1)))
    else:
        require_positive(radio_range, "radio_range")

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    positions = {i: (float(coords[i, 0]), float(coords[i, 1])) for i in range(n)}
    if n >= SPATIAL_HASH_MIN_N:
        _range_edges_grid(graph, coords, radio_range)
        if connect and n > 1:
            _stitch_components_grid(graph, coords)
    else:
        _add_range_edges(graph, range(n), coords, radio_range)
        if connect and n > 1:
            _stitch_components(graph, range(n), coords)
    return Topology(graph, positions)


def scatter_topology(
    points: Mapping[Hashable, tuple[float, float]],
    *,
    radio_range: float,
    connect: bool = True,
) -> Topology:
    """Build a topology from explicit node positions and a radio range.

    With *connect*, components are stitched as in
    :func:`random_geometric_topology`; equal distances resolve in *points*
    order (see :func:`_stitch_components`), never in hash order.
    """
    require_positive(radio_range, "radio_range")
    ids = list(points)
    if not ids:
        raise ValueError("points must be non-empty")
    coords = np.asarray([points[i] for i in ids], dtype=np.float64)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    _add_range_edges(graph, ids, coords, radio_range)
    if connect and len(ids) > 1:
        _stitch_components(graph, ids, coords)
    positions = {i: (float(points[i][0]), float(points[i][1])) for i in ids}
    return Topology(graph, positions)


def _hash_cells(coords: np.ndarray, cell: float) -> dict[tuple[int, int], np.ndarray]:
    """Bucket point indices by cell of a *cell*-sized square grid.

    Bucket membership lists are ascending (points visited in index order),
    and the dict itself is in first-seen order — both deterministic
    functions of the coordinates.
    """
    keys_x = np.floor(coords[:, 0] / cell).astype(np.int64)
    keys_y = np.floor(coords[:, 1] / cell).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(coords.shape[0]):
        buckets.setdefault((int(keys_x[i]), int(keys_y[i])), []).append(i)
    return {key: np.asarray(members, dtype=np.int64) for key, members in buckets.items()}


def _add_range_edges(
    graph: nx.Graph, ids: Sequence[Hashable], coords: np.ndarray, radio_range: float
) -> None:
    """Add every edge with ``np.hypot(dx, dy) <= radio_range``, row-major.

    One cell-grid pass: each cell's members are tested against its 3×3
    neighbourhood for partners of higher index, in blocks of at most
    :data:`_PAIR_BUDGET` pairs.  The pairs are lexsorted to ascending
    ``(i, j)`` and added in one ``add_edges_from`` call, so each node's
    adjacency lists its range neighbours in *ids* order: the order a plain
    ``for i: for j > i`` loop produces.  The cell side carries a 1e-9
    relative slack so rounding in ``floor(x / cell)`` can never put an
    in-range pair two cells apart; the range predicate itself is exact.
    """
    buckets = _hash_cells(coords, radio_range * (1.0 + 1e-9))
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for (kx, ky), members in buckets.items():
        cand = np.concatenate(
            [
                buckets[key]
                for key in ((kx + dx, ky + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
                if key in buckets
            ]
        )
        xs, ys = coords[cand, 0], coords[cand, 1]
        step = max(1, _PAIR_BUDGET // len(cand))
        for start in range(0, len(members), step):
            block = members[start : start + step]
            dists = np.hypot(xs - coords[block, 0, None], ys - coords[block, 1, None])
            close = (dists <= radio_range) & (cand > block[:, None])
            a, b = np.nonzero(close)
            rows.append(block[a])
            cols.append(cand[b])
    first = np.concatenate(rows)
    second = np.concatenate(cols)
    order = np.lexsort((second, first))
    graph.add_edges_from(
        zip(map(ids.__getitem__, first[order].tolist()), map(ids.__getitem__, second[order].tolist()))
    )


def _range_edges_grid(graph: nx.Graph, coords: np.ndarray, radio_range: float) -> None:
    """Add all edges with pairwise distance <= radio_range, cell by cell.

    The large-N range pass.  Same edge *set* as :func:`_add_range_edges`
    (the identical ``np.hypot(dx, dy) <= radio_range`` predicate on the same
    float64 coordinates; with cell side = radio_range any in-range pair sits
    in adjacent cells), but edges are added as each cell is scanned rather
    than in row-major order.  That order is deterministic, which is all the
    BFS tie-breaking contract above :data:`SPATIAL_HASH_MIN_N` requires, and
    the large-N fields are pinned to it.
    """
    buckets = _hash_cells(coords, radio_range)
    add_edge = graph.add_edge
    for (kx, ky), members in buckets.items():
        blocks = [
            buckets[key]
            for key in (
                (kx + dx, ky + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            )
            if key in buckets
        ]
        cand = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        pts = coords[cand]
        for i in members.tolist():
            deltas = pts - coords[i]
            close = np.hypot(deltas[:, 0], deltas[:, 1]) <= radio_range
            for j in cand[close & (cand > i)].tolist():
                add_edge(i, j)


def _stitch_components_grid(graph: nx.Graph, coords: np.ndarray) -> None:
    """Scalable variant of :func:`_stitch_components` for large n.

    At the paper's target degree (~4) a geometric graph sits *below* the
    continuum-percolation threshold (mean degree ≈ 4.51), so there is no
    giant component: a 10⁵-node graph fragments into thousands of
    components, some with thousands of members, and the legacy
    round-by-round core×rest distance matrix is hopeless.  Instead this
    builds a minimum spanning tree over component *centroids* (dense
    vectorized Prim, O(C²) for C components) and realizes each MST edge as
    the closest actual node pair between the two components — one stitch
    edge per MST edge, connected by construction in a single pass.

    Deterministic: components are indexed largest-first (ties on smallest
    member id), centroids average members in ascending id order, Prim
    starts from component 0 and breaks distance ties on the lowest
    component index, and closest-pair ties resolve row-major over the
    ascending member-id matrix.
    """
    components = list(nx.connected_components(graph))
    if len(components) <= 1:
        return
    components.sort(key=lambda comp: (-len(comp), min(comp)))
    members = [np.asarray(sorted(comp), dtype=np.int64) for comp in components]
    centroids = np.asarray([coords[m].mean(axis=0) for m in members])
    n_comp = len(components)

    # Prim over the complete centroid graph.
    in_tree = np.zeros(n_comp, dtype=bool)
    best_dist = np.full(n_comp, np.inf)
    best_from = np.zeros(n_comp, dtype=np.int64)
    current = 0
    in_tree[0] = True
    for _ in range(n_comp - 1):
        deltas = centroids - centroids[current]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        closer = ~in_tree & (dists < best_dist)
        best_dist[closer] = dists[closer]
        best_from[closer] = current
        nxt = int(np.argmin(np.where(in_tree, np.inf, best_dist)))
        # Realize the MST edge (best_from[nxt], nxt) as the closest
        # cross-component node pair.  Chunked over the first component so
        # two large components never materialize a giant |A|×|B| matrix;
        # strict < keeps the row-major tie-break across chunks.
        ma, mb = members[best_from[nxt]], members[nxt]
        pts_b = coords[mb]
        pair_best = np.inf
        a = b = 0
        for start in range(0, len(ma), 1024):
            block = ma[start : start + 1024]
            pair = coords[block][:, None, :] - pts_b[None, :, :]
            pair_dists = np.hypot(pair[..., 0], pair[..., 1])
            i, j = np.unravel_index(np.argmin(pair_dists), pair_dists.shape)
            if pair_dists[i, j] < pair_best:
                pair_best = float(pair_dists[i, j])
                a, b = start + int(i), int(j)
        graph.add_edge(int(ma[a]), int(mb[b]))
        in_tree[nxt] = True
        best_dist[nxt] = np.inf
        current = nxt


def _stitch_components(graph: nx.Graph, ids: Sequence[Hashable], coords: np.ndarray) -> None:
    """Connect graph components by nearest cross-component links (exact Prim).

    A tree grows from the largest component (on equal sizes, the first in
    node order, which both callers make *ids* order).  Each step links the
    outside node closest to the tree to its nearest tree member and absorbs
    that node's whole component.  The tree thus stays the largest component,
    so the edges and their order are those of repeating "link the largest
    component to the closest node outside it"; but components are computed
    once, and outside nodes are updated against newly absorbed members only,
    in blocks of at most :data:`_PAIR_BUDGET` pairs.

    Ties resolve by smallest distance, then the earliest outside node in
    *ids* order, then the tree member absorbed first (components are
    absorbed whole, members in *ids* order), never by set iteration order.
    """
    n = coords.shape[0]
    components = list(nx.connected_components(graph))
    if len(components) <= 1:
        return
    index_of = {node: k for k, node in enumerate(ids)}
    label = np.empty(n, dtype=np.int64)
    for c, comp in enumerate(components):
        label[np.fromiter(map(index_of.__getitem__, comp), dtype=np.int64, count=len(comp))] = c
    sizes = np.bincount(label)
    by_label = np.argsort(label, kind="stable")  # each component's members in ids order
    starts = np.concatenate(([0], np.cumsum(sizes)))

    best = np.full(n, np.inf)  # each outside node's distance to the tree
    source = np.zeros(n, dtype=np.int64)  # ... and the tree member giving it
    outside = np.ones(n, dtype=bool)
    comp = int(np.argmax(sizes))
    while True:
        absorbed = by_label[starts[comp] : starts[comp + 1]]
        outside[absorbed] = False
        best[absorbed] = np.inf
        rest = np.flatnonzero(outside)
        if not len(rest):
            return
        # Relax the outside nodes against the absorbed members only.  The
        # strict < and the first-row argmin keep the earliest-absorbed
        # member on equal distances.
        xs, ys = coords[rest, 0], coords[rest, 1]
        step = max(1, _PAIR_BUDGET // len(rest))
        for begin in range(0, len(absorbed), step):
            block = absorbed[begin : begin + step]
            dists = np.hypot(coords[block, 0, None] - xs, coords[block, 1, None] - ys)
            nearest = dists.argmin(axis=0)
            closest = dists[nearest, np.arange(len(rest))]
            closer = closest < best[rest]
            best[rest[closer]] = closest[closer]
            source[rest[closer]] = block[nearest[closer]]
        node = int(np.argmin(best))
        graph.add_edge(ids[int(source[node])], ids[node])
        comp = int(label[node])
