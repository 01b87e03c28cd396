"""Quadtree decomposition and sentinel sets (paper §3.2).

The network's square bounding box is recursively split into 4 subcells.
Every cell elects a **leader** — the node closest to the cell centroid that
has not already been elected at a shallower level (footnote 1).  The leaders
of all level-*l* cells form the **sentinel set** ``S_l``; every node ends up
in exactly one sentinel set, so ``Σ_l |S_l| = N``.

The quadtree parent of a sentinel ``s ∈ S_l`` is the leader of the enclosing
level-(l-1) cell; that leader always exists because *s* itself was still
unelected when that cell voted.  ELink's implicit signalling schedules
``S_l`` by timers derived from the level; the explicit signalling walks
phase1/phase2/start messages up and down this parent relation.

For irregular placements the depth can exceed the grid-case
``log4(3N+1) - 1`` by a small constant (footnote 2); a depth cap guards
against pathological co-located points, flushing any remaining unelected
nodes into the deepest level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterator

import numpy as np

from repro.geometry.topology import BoundingBox, Topology


@dataclass
class _LevelCols:
    """Columnar snapshot of one quadtree level (fast build).

    Holds everything needed to lazily materialize the level's
    :class:`QuadCell` objects: member order grouped by cell, group
    offsets, per-cell bounds, each cell's parent index in the previous
    level, and the elected leader (−1 where the cell elected none).
    """

    order: np.ndarray
    starts: np.ndarray
    xmin: np.ndarray
    ymin: np.ndarray
    xmax: np.ndarray
    ymax: np.ndarray
    parent_idx: np.ndarray
    leaders: np.ndarray


@dataclass
class QuadCell:
    """One cell of the quadtree."""

    level: int
    bounds: BoundingBox
    members: list[Hashable]
    leader: Hashable | None = None
    parent: "QuadCell | None" = field(default=None, repr=False)
    children: list["QuadCell"] = field(default_factory=list, repr=False)

    @property
    def centroid(self) -> tuple[float, float]:
        """Geometric centre of the cell."""
        return self.bounds.center


class QuadTreeDecomposition:
    """Sentinel hierarchy over a :class:`~repro.geometry.topology.Topology`.

    The columnar build runs whenever the node ids allow it
    (:meth:`_fast_eligible`); ``fast=False`` forces the per-cell reference
    build, which produces identical outputs.

    Attributes
    ----------
    sentinel_sets:
        ``sentinel_sets[l]`` is the list of sentinels (cell leaders) at
        level *l*; every network node appears in exactly one set.
    level_of:
        Mapping node -> its sentinel level.
    quad_parent:
        Mapping sentinel -> its quadtree parent sentinel (the root maps to
        itself).
    quad_children:
        Mapping sentinel -> list of its quadtree child sentinels.
    """

    #: Hard depth cap; co-located nodes would otherwise split forever.
    MAX_DEPTH = 32

    def __init__(self, topology: Topology, *, fast: bool = True):
        self.topology = topology
        self.root_cell = QuadCell(0, topology.bounds, list(topology.graph.nodes))
        self.sentinel_sets: list[list[Hashable]] = []
        self.level_of: dict[Hashable, int] = {}
        self.quad_parent: dict[Hashable, Hashable] = {}
        self.quad_children: dict[Hashable, list[Hashable]] = {}
        #: Eager cell storage (filled by the reference build, or lazily by
        #: :meth:`_materialize_cells` after a fast build).
        self._cells_eager: list[list[QuadCell]] | None = None
        #: Columnar level snapshots from the fast build (levels >= 1).
        self._fast_levels: list[_LevelCols] = []
        if fast and self._fast_eligible():
            self._build_fast()
        else:
            self._cells_eager = [[self.root_cell]]
            self._build()

    @property
    def _cells_by_level(self) -> list[list[QuadCell]]:
        """Per-level :class:`QuadCell` lists (lazy after a fast build)."""
        if self._cells_eager is None:
            self._materialize_cells()
        return self._cells_eager

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        positions = self.topology.positions
        assigned: set[Hashable] = set()
        level = 0
        current = [self.root_cell]
        while current:
            leaders: list[Hashable] = []
            for cell in current:
                unelected = [v for v in cell.members if v not in assigned]
                if not unelected:
                    continue
                if level >= self.MAX_DEPTH:
                    # Depth cap: flush every remaining node as a sentinel of
                    # this final level (footnote 2's "+k" tolerance).
                    for node in sorted(unelected, key=repr):
                        leaders.append(node)
                        assigned.add(node)
                        self.level_of[node] = level
                        self._attach_parent(node, cell)
                    continue
                leader = self._closest_to(cell.centroid, unelected, positions)
                cell.leader = leader
                leaders.append(leader)
                assigned.add(leader)
                self.level_of[leader] = level
                self._attach_parent(leader, cell)
            if leaders:
                self.sentinel_sets.append(leaders)
            if len(assigned) == len(positions) or level >= self.MAX_DEPTH:
                break
            current = self._subdivide(current)
            if current:
                self._cells_by_level.append(current)
            level += 1
        # Sanity: every node must have been elected at some level.
        if len(assigned) != len(positions):
            missing = set(positions) - assigned
            raise RuntimeError(f"quadtree failed to assign nodes: {sorted(missing, key=repr)[:5]}")

    # ------------------------------------------------------------------
    # columnar construction (identical outputs, no per-message Python)
    # ------------------------------------------------------------------
    def _fast_eligible(self) -> bool:
        """The columnar build requires node ids that are exactly the ints
        ``0..n-1`` in ascending graph order (true for the generated grid and
        geometric topologies); anything else runs the reference build."""
        nodes = self.root_cell.members
        n = len(nodes)
        if n == 0:
            return False
        if nodes[0] != 0 or nodes[-1] != n - 1:
            return False
        return all(type(v) is int for v in nodes) and all(
            v == i for i, v in enumerate(nodes)
        )

    def _build_fast(self) -> None:
        """Vectorised replica of :meth:`_build`.

        Per level, members live in one int array grouped by cell (groups in
        the reference build's cell order, ascending ids within — the
        order bucketed subdivision preserves).  Election, subdivision and
        bounds all become array expressions over the same float recurrences
        as the scalar code, so every output — sentinel sets, levels,
        parent/child maps, cell geometry, and all dict insertion orders —
        is identical.  Exact centroid-distance ties (real on grids) are
        resolved scalar with the reference ``repr`` key.  Cell *objects*
        are not built here; :meth:`_materialize_cells` reconstructs them on
        first ``_cells_by_level`` access from the level snapshots.
        """
        n = len(self.root_cell.members)
        positions = self.topology.positions
        pos = np.array([positions[v] for v in range(n)], dtype=np.float64)
        xs = np.ascontiguousarray(pos[:, 0])
        ys = np.ascontiguousarray(pos[:, 1])

        order = np.arange(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        b = self.root_cell.bounds
        xmin = np.array([b.xmin])
        ymin = np.array([b.ymin])
        xmax = np.array([b.xmax])
        ymax = np.array([b.ymax])
        anc = np.full(1, -1, dtype=np.int64)  # nearest elected ancestor leader
        level_leaders: np.ndarray | None = None  # this level's snapshot target

        assigned = np.zeros(n, dtype=bool)
        assigned_count = 0
        level = 0
        level_of = self.level_of
        quad_parent = self.quad_parent
        quad_children = self.quad_children

        while True:
            num_cells = starts.size
            ends = np.append(starts[1:], order.size)
            cell_of = np.repeat(np.arange(num_cells, dtype=np.int64), ends - starts)
            unelected = ~assigned[order]
            leaders_level: list[Hashable] = []

            if level >= self.MAX_DEPTH:
                # Depth-cap flush (reference semantics: every remaining node
                # becomes a sentinel of this level, cell leaders stay None).
                starts_l = starts.tolist()
                ends_l = ends.tolist()
                anc_l = anc.tolist()
                for c in range(num_cells):
                    seg = order[starts_l[c] : ends_l[c]]
                    rem = seg[unelected[starts_l[c] : ends_l[c]]]
                    if not rem.size:
                        continue
                    ancestor = anc_l[c]
                    for node in sorted(rem.tolist(), key=repr):
                        leaders_level.append(node)
                        level_of[node] = level
                        parent = ancestor if ancestor >= 0 else node
                        quad_parent[node] = parent
                        if parent != node:
                            quad_children.setdefault(parent, []).append(node)
                        quad_children.setdefault(node, [])
                assigned_count = n
                if leaders_level:
                    self.sentinel_sets.append(leaders_level)
                break

            # Election: per-cell argmin of squared centroid distance over
            # the still-unelected members (same float expression as
            # _closest_to; ``inf`` masks elected members and empty votes).
            cx = (xmin + xmax) / 2.0
            cy = (ymin + ymax) / 2.0
            d2 = (xs[order] - cx[cell_of]) ** 2 + (ys[order] - cy[cell_of]) ** 2
            d2[~unelected] = np.inf
            best = np.minimum.reduceat(d2, starts)
            is_best = (d2 == best[cell_of]) & unelected
            cand_idx = np.flatnonzero(is_best)
            cand_cell = cell_of[cand_idx]
            cand_counts = np.bincount(cand_cell, minlength=num_cells)
            leader_per_cell = np.full(num_cells, -1, dtype=np.int64)
            single = cand_counts[cand_cell] == 1
            leader_per_cell[cand_cell[single]] = order[cand_idx[single]]
            if (cand_counts > 1).any():
                # Exact-distance ties: reference tie-break is min repr.
                tied: dict[int, list[int]] = {}
                for i, c in zip(cand_idx.tolist(), cand_cell.tolist()):
                    if cand_counts[c] > 1:
                        tied.setdefault(c, []).append(int(order[i]))
                for c, members in tied.items():
                    leader_per_cell[c] = min(members, key=repr)
            if level_leaders is not None:
                level_leaders[:] = leader_per_cell
            else:
                self._root_leader = int(leader_per_cell[0])

            elected_cells = np.flatnonzero(leader_per_cell >= 0)
            leaders_arr = leader_per_cell[elected_cells]
            assigned[leaders_arr] = True
            assigned_count += leaders_arr.size
            for leader, ancestor in zip(
                leaders_arr.tolist(), anc[elected_cells].tolist()
            ):
                leaders_level.append(leader)
                level_of[leader] = level
                parent = ancestor if ancestor >= 0 else leader
                quad_parent[leader] = parent
                if parent != leader:
                    quad_children.setdefault(parent, []).append(leader)
                quad_children.setdefault(leader, [])
            if leaders_level:
                self.sentinel_sets.append(leaders_level)
            if assigned_count == n:
                break

            # Subdivision: stable sort by (cell, quadrant) keeps members
            # ascending within each child and children in the reference
            # k = 0..3 append order; boundary points go left/bottom.
            kq = np.where(
                xs[order] <= cx[cell_of],
                np.where(ys[order] <= cy[cell_of], 0, 2),
                np.where(ys[order] <= cy[cell_of], 1, 3),
            )
            key = cell_of * 4 + kq
            perm = np.argsort(key, kind="stable")
            order = order[perm]
            skey = key[perm]
            starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
            group_key = skey[starts]
            parent_cell = group_key >> 2
            child_k = group_key & 3
            left = (child_k & 1) == 0
            bottom = (child_k & 2) == 0
            pmx = cx[parent_cell]
            pmy = cy[parent_cell]
            xmin, xmax = (
                np.where(left, xmin[parent_cell], pmx),
                np.where(left, pmx, xmax[parent_cell]),
            )
            ymin, ymax = (
                np.where(bottom, ymin[parent_cell], pmy),
                np.where(bottom, pmy, ymax[parent_cell]),
            )
            anc = np.where(leader_per_cell >= 0, leader_per_cell, anc)[parent_cell]
            level_leaders = np.full(starts.size, -1, dtype=np.int64)
            self._fast_levels.append(
                _LevelCols(order, starts, xmin, ymin, xmax, ymax, parent_cell, level_leaders)
            )
            level += 1

        if assigned_count != n:
            missing = np.flatnonzero(~assigned).tolist()
            raise RuntimeError(
                f"quadtree failed to assign nodes: {sorted(missing, key=repr)[:5]}"
            )

    def _materialize_cells(self) -> None:
        """Rebuild the :class:`QuadCell` tree from the fast build's level
        snapshots (first ``_cells_by_level`` access only; the scale path
        never needs the objects)."""
        self.root_cell.leader = getattr(self, "_root_leader", None)
        cells_by_level = [[self.root_cell]]
        previous = [self.root_cell]
        for depth_index, snap in enumerate(self._fast_levels, start=1):
            members = snap.order.tolist()
            starts = snap.starts.tolist()
            ends = starts[1:] + [len(members)]
            xmin = snap.xmin.tolist()
            ymin = snap.ymin.tolist()
            xmax = snap.xmax.tolist()
            ymax = snap.ymax.tolist()
            parent_idx = snap.parent_idx.tolist()
            leaders = snap.leaders.tolist()
            cells = []
            for g in range(len(starts)):
                parent = previous[parent_idx[g]]
                cell = QuadCell(
                    depth_index,
                    BoundingBox(xmin[g], ymin[g], xmax[g], ymax[g]),
                    members[starts[g] : ends[g]],
                    parent=parent,
                )
                if leaders[g] >= 0:
                    cell.leader = leaders[g]
                parent.children.append(cell)
                cells.append(cell)
            cells_by_level.append(cells)
            previous = cells
        self._cells_eager = cells_by_level

    def _attach_parent(self, leader: Hashable, cell: QuadCell) -> None:
        parent_cell = cell.parent
        while parent_cell is not None and parent_cell.leader is None:
            parent_cell = parent_cell.parent
        parent = parent_cell.leader if parent_cell is not None else leader
        self.quad_parent[leader] = parent
        if parent != leader:
            self.quad_children.setdefault(parent, []).append(leader)
        self.quad_children.setdefault(leader, [])

    @staticmethod
    def _closest_to(centroid, candidates, positions) -> Hashable:
        cx, cy = centroid
        return min(
            candidates,
            key=lambda v: ((positions[v][0] - cx) ** 2 + (positions[v][1] - cy) ** 2, repr(v)),
        )

    def _subdivide(self, cells: list[QuadCell]) -> list[QuadCell]:
        positions = self.topology.positions
        out: list[QuadCell] = []
        for cell in cells:
            if not cell.members:
                continue
            b = cell.bounds
            mx, my = b.center
            quads = [
                BoundingBox(b.xmin, b.ymin, mx, my),
                BoundingBox(mx, b.ymin, b.xmax, my),
                BoundingBox(b.xmin, my, mx, b.ymax),
                BoundingBox(mx, my, b.xmax, b.ymax),
            ]
            buckets: list[list[Hashable]] = [[] for _ in quads]
            # Each member goes to exactly one quadrant: points on the
            # splitting lines go to the left/bottom quadrant.
            for v in cell.members:
                x, y = positions[v]
                if x <= mx:
                    k = 0 if y <= my else 2
                else:
                    k = 1 if y <= my else 3
                buckets[k].append(v)
            for k, q in enumerate(quads):
                if buckets[k]:
                    child = QuadCell(cell.level + 1, q, buckets[k], parent=cell)
                    cell.children.append(child)
                    out.append(child)
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """α — the index of the deepest non-empty sentinel set."""
        return len(self.sentinel_sets) - 1

    def sentinels_at(self, level: int) -> list[Hashable]:
        """Copy of the sentinel list at *level*."""
        return list(self.sentinel_sets[level])

    def iter_sentinels(self) -> Iterator[tuple[int, Hashable]]:
        """Yield (level, sentinel) over the whole hierarchy."""
        for level, sentinels in enumerate(self.sentinel_sets):
            for s in sentinels:
                yield level, s

    @property
    def root(self) -> Hashable:
        """The level-0 sentinel (quadtree root)."""
        return self.sentinel_sets[0][0]

    def expected_depth_bound(self) -> float:
        """The grid-case depth ``log4(3N+1) - 1`` from §3.2."""
        n = self.topology.num_nodes
        return math.log(3 * n + 1, 4) - 1

    def __repr__(self) -> str:
        sizes = [len(s) for s in self.sentinel_sets]
        return f"QuadTreeDecomposition(depth={self.depth}, level_sizes={sizes})"
