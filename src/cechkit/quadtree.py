"""Normalized point clouds and the (conceptually full) quadtree over them.

The cloud is rescaled so the minimum pairwise distance is exactly
1/sqrt(d) and translated into the half-open root cube [0, 2^L)^d.  The
quadtree is stored compressed: only nonempty cells exist, one level
dictionary per height, built lazily for any height, negative ones too
(normalization makes deep cells hold single points).  One cached index,
the nonempty height-h cells bucketed by their ancestor at height H,
serves every neighbourhood query: a cell's children are its (h-1, h)
bucket, and the cells near an anchor are its bucket and its 3^d - 1
neighbours' buckets, probed by key or, when fewer buckets are nonempty
than that, found by a scan of the nonempty ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .geometry import Ball, _as_points, min_pairwise_distance


class Cell(NamedTuple):
    """Axis-aligned dyadic cube: side 2^height, min corner index*2^height.

    A cell is its (height, index) key: it hashes, compares and sorts as
    that tuple.  The cell box is half-open for point membership and
    closed for geometric intersection tests.
    """

    height: int
    index: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** self.height

    def diam(self) -> float:
        return self.side * math.sqrt(self.d)

    def corner_tuples(self) -> list[tuple[float, ...]]:
        """The 2^d corners; bit a of a corner's position picks hi on axis a."""
        s = self.side
        spans = [(i * s, (i + 1) * s) for i in reversed(self.index)]
        return [c[::-1] for c in itertools.product(*spans)]

    def corners(self) -> np.ndarray:
        return np.array(self.corner_tuples())

    def distance_to_point(self, x) -> float:
        s = self.side
        total = 0.0
        for i, c in zip(self.index, x):
            gap = max(i * s - c, c - (i + 1) * s, 0.0)
            total += gap * gap
        return math.sqrt(total)

    def distance_to_cell(self, other: "Cell") -> float:
        s, t = self.side, other.side
        total = 0.0
        for i, j in zip(self.index, other.index):
            gap = max(i * s - (j + 1) * t, j * t - (i + 1) * s, 0.0)
            total += gap * gap
        return math.sqrt(total)

    def intersects_ball(self, ball: Ball) -> bool:
        return self.distance_to_point(ball.center) <= ball.radius + 1e-12


def dyadic_height(x: float) -> int:
    """The integer h with 2^h <= x < 2^(h+1), read off the float's exponent."""
    if not 0.0 < x < math.inf:
        raise InvalidInput(f"positive finite value required, got {x}")
    return math.frexp(x)[1] - 1


def cell_index_of(x, h: int) -> tuple[int, ...]:
    """Lattice index of the height-h cell containing point x."""
    side = 2.0 ** h
    return tuple(int(math.floor(c / side)) for c in x)


@dataclass(frozen=True)
class NormalizedCloud:
    """Point cloud after the min-distance-1/sqrt(d) similarity transform."""

    points: np.ndarray  # (n, d), inside [0, 2^L)^d
    d: int
    L: int
    scale: float  # normalized = (raw - raw.min(axis=0)) * scale

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_original_length(self, r: float) -> float:
        return r / self.scale


def normalize(raw_points) -> NormalizedCloud:
    """Similarity-transform raw points so the minimum gap is 1/sqrt(d).

    The root cube side 2^L, L >= 0, is the smallest power of two above
    the scaled bounding box's extent, so no point lands on the open
    upper face.
    """
    pts = _as_points(raw_points)
    n, d = pts.shape

    offset = pts.min(axis=0).copy()
    if n == 1:
        return NormalizedCloud(np.zeros((1, d)), d, 0, 1.0)

    mdist = min_pairwise_distance(pts)
    if mdist == 0.0:
        # Coincident points are deduplicated by callers where required;
        # a cloud that is *entirely* duplicates cannot be normalized.
        raise DegenerateInput("cloud contains coincident points")
    scale = (1.0 / math.sqrt(d)) / mdist
    shifted = (pts - offset) * scale
    L = max(0, dyadic_height(float(shifted.max())) + 1)
    return NormalizedCloud(shifted, d, L, scale)


@dataclass
class Quadtree:
    """Compressed quadtree exposing the uncompressed logical grid view.

    `level(h)` maps lattice indices of nonempty height-h cells to the
    ids of the points they contain.  Levels for any height (including
    negative) are computed on demand and cached.
    """

    cloud: NormalizedCloud
    _levels: dict[int, dict[tuple[int, ...], list[int]]] = field(default_factory=dict)
    _buckets: dict[tuple[int, int], dict] = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.cloud.d

    @property
    def L(self) -> int:
        return self.cloud.L

    def level(self, h: int) -> dict[tuple[int, ...], list[int]]:
        if h not in self._levels:
            lev: dict[tuple[int, ...], list[int]] = {}
            for i, x in enumerate(self.cloud.points.tolist()):
                lev.setdefault(cell_index_of(x, h), []).append(i)
            self._levels[h] = lev
        return self._levels[h]

    def points_in(self, cell: Cell) -> list[int]:
        return self.level(cell.height).get(cell.index, [])

    def rep(self, cell: Cell) -> int:
        """Representative point id: minimum id among contained points.

        Taking the minimum makes the hereditary property automatic: the
        representative of an internal cell is the representative of one
        of its children.
        """
        ids = self.points_in(cell)
        if not ids:
            raise InvalidInput(f"cell {cell} is empty")
        return min(ids)

    def root(self) -> Cell:
        return Cell(self.L, (0,) * self.d)

    def buckets(self, h: int, H: int) -> dict[tuple[int, ...], tuple[Cell, ...]]:
        """Nonempty height-h cells keyed by the index of their ancestor at
        height H >= h; each bucket is a sorted tuple.  Cached; read only."""
        if (h, H) not in self._buckets:
            out: dict[tuple[int, ...], list[Cell]] = {}
            for idx in sorted(self.level(h)):
                out.setdefault(tuple(i >> (H - h) for i in idx), []).append(Cell(h, idx))
            self._buckets[(h, H)] = {a: tuple(g) for a, g in out.items()}
        return self._buckets[(h, H)]

    def near(self, anchor: Cell, h: int) -> list[Cell]:
        """Nonempty height-h cells whose ancestor at anchor.height is the
        anchor or one of its 3^d - 1 neighbours, in no set order.  It
        probes the 3^d keys around the anchor, or, when fewer buckets
        than that are nonempty, scans them for keys within 1 of the
        anchor on every axis, so its cost is at most the smaller count."""
        buckets, a = self.buckets(h, anchor.height), anchor.index
        if len(buckets) < 3**self.d:
            return [
                c
                for key, group in buckets.items()
                if all(-1 <= i - j <= 1 for i, j in zip(key, a))
                for c in group
            ]
        offsets = itertools.product((-1, 0, 1), repeat=self.d)
        return [c for o in offsets for c in buckets.get(tuple(map(sum, zip(a, o))), ())]

    def children(self, cell: Cell) -> list[Cell]:
        """Nonempty children of `cell`, sorted by lattice index."""
        return list(self.buckets(cell.height - 1, cell.height).get(cell.index, ()))

    def cell_containing(self, point_id: int, h: int) -> Cell:
        return Cell(h, cell_index_of(self.cloud.points[point_id], h))

    def nonempty_cells_intersecting(self, ball: Ball, h: int) -> list[Cell]:
        """Nonempty height-h cells whose closed box meets the closed ball.

        With tol = 1e-12 the slack of `intersects_ball`, H is the smallest
        height >= h with 2^H > (r + tol + 2^h)(1 + 1e-9), the factor absorbing
        rounding in the ball test.  A cell meeting the ball has its lower
        corner within r + tol + 2^h < 2^H of the center on every axis, so
        its ancestor at H is the center's height-H cell or a neighbour.
        """
        H = max(h, dyadic_height((ball.radius + 1e-12 + 2.0 ** h) * (1.0 + 1e-9)) + 1)
        anchor = Cell(H, cell_index_of(ball.center, H))
        return sorted(c for c in self.near(anchor, h) if c.intersects_ball(ball))


def qcell(q: Cell, i: int) -> Cell:
    """Unique ancestor of `q` at height i >= height(q)."""
    if i < q.height:
        raise InvalidInput(f"target height {i} below cell height {q.height}")
    shift = i - q.height
    return Cell(i, tuple(idx >> shift for idx in q.index))


def build(cloud: NormalizedCloud) -> Quadtree:
    """Build the quadtree over a normalized cloud."""
    return Quadtree(cloud)
