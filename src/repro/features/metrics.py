"""Metric distances between node features (paper §2.2).

A *feature* is the coefficient vector of a node's fitted data model (or, for
static datasets such as elevation, a 1-d value).  Clustering operates on a
metric ``d(F_i, F_j)`` over features; the paper motivates a **weighted
Euclidean** distance that emphasises higher-order model coefficients, and
formulates everything over general metric spaces.

This module provides the metrics used throughout the reproduction:

- :class:`EuclideanMetric`
- :class:`ManhattanMetric`
- :class:`WeightedEuclideanMetric` — the paper's choice; the Tao experiment
  uses weights ``(0.5, 0.3, 0.2, 0.1)``.
- :class:`MatrixMetric` — an explicit distance-matrix lookup, used for the
  worked examples (Figs 3 and 5) and for the NP-hardness reduction where
  distances take only the values 1 and 2.

All metrics satisfy positivity, symmetry and the triangle inequality; the
property-based tests in ``tests/test_metrics.py`` check these on random
inputs, and :func:`check_metric_axioms` performs the same check on a concrete
sample of features.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro._validation import require_non_empty

#: Features are accepted as anything convertible to a 1-d float array.
FeatureLike = Sequence[float] | np.ndarray | float

_FLOAT64 = np.dtype(np.float64)


def _coerce_pair(a: FeatureLike, b: FeatureLike) -> tuple[np.ndarray, np.ndarray]:
    """Feature pair for a distance computation.

    Already-valid 1-d float64 arrays (the long-lived per-node feature
    vectors every hot loop passes) are returned as-is; anything else goes
    through the full :func:`as_feature` coercion and validation.
    """
    if (
        type(a) is np.ndarray
        and type(b) is np.ndarray
        and a.dtype == _FLOAT64
        and b.dtype == _FLOAT64
        and a.ndim == 1
        and b.ndim == 1
    ):
        return a, b
    return as_feature(a), as_feature(b)


def as_feature(value: FeatureLike) -> np.ndarray:
    """Coerce *value* to a 1-d float64 feature vector.

    Scalars become length-1 vectors so that static datasets (e.g. elevation)
    use the same code paths as model-coefficient features.
    """
    array = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if array.ndim != 1:
        raise ValueError(f"feature must be a scalar or 1-d vector, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"feature must be finite, got {array!r}")
    return array


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"feature dimensions differ: {a.shape[0]} vs {b.shape[0]}")


class Metric:
    """Base class for feature metrics.

    Subclasses implement :meth:`distance`.  ``pairwise`` has a generic
    fallback; array-based metrics override it with a vectorized version.
    """

    def distance(self, a: FeatureLike, b: FeatureLike) -> float:
        """Metric distance between two features."""
        raise NotImplementedError

    def __call__(self, a: FeatureLike, b: FeatureLike) -> float:
        return self.distance(a, b)

    def pairwise(self, features: Sequence[FeatureLike]) -> np.ndarray:
        """Return the symmetric matrix of distances between all *features*."""
        items = require_non_empty(features, "features")
        n = len(items)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = self.distance(items[i], items[j])
        return out

    def pairwise_matrix(self, matrix: np.ndarray) -> np.ndarray | None:
        """All-pairs distances over the rows of a prebuilt (n, d) matrix.

        Returns None when the metric has no vectorized form (e.g.
        :class:`MatrixMetric`, whose features are node ids, not vectors);
        callers then fall back to per-pair :meth:`distance`.
        """
        return None

    def distance_row(self, center: FeatureLike, rows: Sequence[FeatureLike]) -> np.ndarray:
        """Distances from *center* to each row of *rows*, as one float64 array.

        The generic fallback calls :meth:`distance` once per row, so it is
        bitwise identical to the scalar form for every metric.  Vectorized
        overrides take an (n, d) matrix and are bitwise identical at d = 1;
        at d ≥ 2 their reductions may round differently from the scalar
        call by an ulp, so callers that need the scalar value exactly must
        re-check the entries they select.
        """
        return np.fromiter(
            (self.distance(center, row) for row in rows), dtype=np.float64, count=len(rows)
        )


class EuclideanMetric(Metric):
    """Plain Euclidean distance between feature vectors."""

    def distance(self, a: FeatureLike, b: FeatureLike) -> float:
        """Metric distance between two features."""
        # _coerce_pair and _check_same_dim are inlined: this is the hottest
        # scalar call in the codebase and the two extra frames are measurable.
        if (
            type(a) is np.ndarray
            and type(b) is np.ndarray
            and a.dtype == _FLOAT64
            and b.dtype == _FLOAT64
            and a.ndim == 1
            and b.ndim == 1
        ):
            va, vb = a, b
        else:
            va, vb = as_feature(a), as_feature(b)
        if va.shape != vb.shape:
            raise ValueError(f"feature dimensions differ: {va.shape[0]} vs {vb.shape[0]}")
        if va.shape[0] == 1:
            # sqrt((a-b)^2) is exactly |a-b| in IEEE-754, so the scalar
            # form is bitwise identical to the vector form below.
            return abs(float(va[0]) - float(vb[0]))
        diff = va - vb
        # math.sqrt and np.sqrt are both correctly-rounded IEEE-754 sqrt,
        # so swapping in the cheaper scalar call cannot change a bit.
        return math.sqrt(np.dot(diff, diff))

    def pairwise(self, features: Sequence[FeatureLike]) -> np.ndarray:
        """Vectorized all-pairs distance matrix."""
        items = require_non_empty(features, "features")
        matrix = np.asarray([as_feature(f) for f in items], dtype=np.float64)
        return self.pairwise_matrix(matrix)

    def pairwise_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Vectorized all-pairs distances over the rows of an (n, d) matrix."""
        diff = matrix[:, None, :] - matrix[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def distance_row(self, center: FeatureLike, rows: np.ndarray) -> np.ndarray:
        """Vectorized distances from *center* to each row of an (n, d) matrix."""
        if rows.shape[1] == 1:
            # |a - b|, the exact scalar form distance() takes at d = 1.
            return np.abs(rows[:, 0] - center[0])
        diff = rows - center
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def __repr__(self) -> str:
        return "EuclideanMetric()"


class ManhattanMetric(Metric):
    """L1 distance between feature vectors."""

    def distance(self, a: FeatureLike, b: FeatureLike) -> float:
        """Metric distance between two features."""
        va, vb = _coerce_pair(a, b)
        _check_same_dim(va, vb)
        return float(np.sum(np.abs(va - vb)))

    def pairwise(self, features: Sequence[FeatureLike]) -> np.ndarray:
        """Vectorized all-pairs distance matrix."""
        items = require_non_empty(features, "features")
        matrix = np.asarray([as_feature(f) for f in items], dtype=np.float64)
        return self.pairwise_matrix(matrix)

    def pairwise_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Vectorized all-pairs distances over the rows of an (n, d) matrix."""
        return np.sum(np.abs(matrix[:, None, :] - matrix[None, :, :]), axis=-1)

    def distance_row(self, center: FeatureLike, rows: np.ndarray) -> np.ndarray:
        """Vectorized distances from *center* to each row of an (n, d) matrix."""
        return np.sum(np.abs(rows - center), axis=-1)

    def __repr__(self) -> str:
        return "ManhattanMetric()"


class WeightedEuclideanMetric(Metric):
    """Weighted Euclidean distance ``sqrt(sum_k w_k (a_k - b_k)^2)``.

    The paper uses this to weight higher-order model coefficients more
    heavily; the Tao experiment uses weights ``(0.5, 0.3, 0.2, 0.1)``.
    Weights must be positive — a zero weight would collapse a coordinate and
    break the positivity axiom of the metric.
    """

    def __init__(self, weights: Sequence[float]):
        array = np.asarray(list(weights), dtype=np.float64)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(array)) or np.any(array <= 0):
            raise ValueError(f"weights must be finite and > 0, got {array!r}")
        self.weights = array

    def distance(self, a: FeatureLike, b: FeatureLike) -> float:
        """Metric distance between two features."""
        # Inlined coercion/validation, as in EuclideanMetric.distance.
        if (
            type(a) is np.ndarray
            and type(b) is np.ndarray
            and a.dtype == _FLOAT64
            and b.dtype == _FLOAT64
            and a.ndim == 1
            and b.ndim == 1
        ):
            va, vb = a, b
        else:
            va, vb = as_feature(a), as_feature(b)
        if va.shape != vb.shape:
            raise ValueError(f"feature dimensions differ: {va.shape[0]} vs {vb.shape[0]}")
        if va.shape != self.weights.shape:
            raise ValueError(
                f"feature dimension {va.shape[0]} does not match "
                f"weight dimension {self.weights.shape[0]}"
            )
        diff = va - vb
        return math.sqrt(np.dot(self.weights, diff * diff))

    def pairwise(self, features: Sequence[FeatureLike]) -> np.ndarray:
        """Vectorized all-pairs distance matrix."""
        items = require_non_empty(features, "features")
        matrix = np.asarray([as_feature(f) for f in items], dtype=np.float64)
        return self.pairwise_matrix(matrix)

    def pairwise_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Vectorized all-pairs distances over the rows of an (n, d) matrix."""
        diff = matrix[:, None, :] - matrix[None, :, :]
        return np.sqrt(np.einsum("k,ijk->ij", self.weights, diff * diff))

    def distance_row(self, center: FeatureLike, rows: np.ndarray) -> np.ndarray:
        """Vectorized distances from *center* to each row of an (n, d) matrix."""
        diff = rows - center
        return np.sqrt(np.einsum("k,ik->i", self.weights, diff * diff))

    def __repr__(self) -> str:
        return f"WeightedEuclideanMetric(weights={self.weights.tolist()})"


class MatrixMetric(Metric):
    """Distance defined by an explicit lookup table over node identifiers.

    Features under this metric are hashable node ids rather than coefficient
    vectors.  Used to reproduce the paper's worked examples (Fig 3, Fig 5)
    and the clique-cover reduction of Theorem 1.  The table is validated for
    symmetry, zero diagonal and (optionally) the triangle inequality.
    """

    def __init__(
        self,
        distances: Mapping[tuple[Hashable, Hashable], float],
        *,
        check_triangle: bool = True,
    ):
        table: dict[tuple[Hashable, Hashable], float] = {}
        nodes: set[Hashable] = set()
        for (a, b), value in distances.items():
            if value < 0:
                raise ValueError(f"distance d({a!r},{b!r}) must be >= 0, got {value}")
            if a == b and value != 0:
                raise ValueError(f"self-distance d({a!r},{a!r}) must be 0, got {value}")
            table[(a, b)] = float(value)
            table[(b, a)] = float(value)
            nodes.update((a, b))
        for (a, b) in list(table):
            if (b, a) in distances and distances[(b, a)] != table[(a, b)]:
                raise ValueError(f"asymmetric distances given for pair ({a!r}, {b!r})")
        self._table = table
        self.nodes = frozenset(nodes)
        if check_triangle:
            self._check_triangle()

    def _check_triangle(self) -> None:
        nodes = sorted(self.nodes, key=repr)
        for a in nodes:
            for b in nodes:
                if a == b or (a, b) not in self._table:
                    continue
                for c in nodes:
                    if c in (a, b):
                        continue
                    if (a, c) in self._table and (c, b) in self._table:
                        if self._table[(a, b)] > self._table[(a, c)] + self._table[(c, b)] + 1e-12:
                            raise ValueError(
                                f"triangle inequality violated: d({a!r},{b!r}) > "
                                f"d({a!r},{c!r}) + d({c!r},{b!r})"
                            )

    def distance(self, a: Hashable, b: Hashable) -> float:
        """Metric distance between two features."""
        if a == b:
            return 0.0
        try:
            return self._table[(a, b)]
        except KeyError:
            raise KeyError(f"no distance defined between {a!r} and {b!r}") from None

    def __repr__(self) -> str:
        return f"MatrixMetric(<{len(self.nodes)} nodes>)"


def check_metric_axioms(
    metric: Metric, features: Sequence[FeatureLike], *, tolerance: float = 1e-9
) -> None:
    """Raise ``AssertionError`` if *metric* violates the metric axioms on *features*.

    Checks identity of indiscernibles (d(x, x) == 0), non-negativity,
    symmetry and the triangle inequality over every triple.  Intended for
    tests and for validating user-supplied metrics on a data sample.
    """
    items = require_non_empty(features, "features")
    n = len(items)
    for i in range(n):
        assert abs(metric.distance(items[i], items[i])) <= tolerance, "d(x,x) != 0"
        for j in range(n):
            dij = metric.distance(items[i], items[j])
            dji = metric.distance(items[j], items[i])
            assert dij >= -tolerance, "negative distance"
            assert abs(dij - dji) <= tolerance, "asymmetric distance"
    for i in range(n):
        for j in range(n):
            dij = metric.distance(items[i], items[j])
            for k in range(n):
                dik = metric.distance(items[i], items[k])
                dkj = metric.distance(items[k], items[j])
                assert dij <= dik + dkj + tolerance, "triangle inequality violated"
