"""Normalized point clouds and the (conceptually full) quadtree over them.

The cloud is rescaled so the minimum pairwise distance is exactly
1/sqrt(d) and translated into the half-open root cube [0, 2^L)^d.  The
quadtree is stored compressed: only nonempty cells exist physically, one
level dictionary per height, materialized lazily.  Heights below 0 are
legal ("virtual" cells) and are produced by the same machinery; the
normalization guarantees that sufficiently deep cells hold single
points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, InvalidInput
from .geometry import Ball, min_pairwise_distance


@dataclass(frozen=True, order=True)
class Cell:
    """Axis-aligned dyadic cube: side 2^height, min corner index*2^height.

    The cell box is half-open for point membership and closed for
    geometric intersection tests.
    """

    height: int
    index: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** self.height

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.index, dtype=float) * self.side

    @property
    def hi(self) -> np.ndarray:
        return (np.asarray(self.index, dtype=float) + 1.0) * self.side

    def diam(self) -> float:
        return self.side * math.sqrt(self.d)

    def center(self) -> np.ndarray:
        return (np.asarray(self.index, dtype=float) + 0.5) * self.side

    def corner_tuples(self) -> list[tuple[float, ...]]:
        """The 2^d corners; bit a of a corner's position picks hi on axis a."""
        s = self.side
        spans = [(i * s, (i + 1) * s) for i in reversed(self.index)]
        return [c[::-1] for c in itertools.product(*spans)]

    def corners(self) -> np.ndarray:
        return np.array(self.corner_tuples())

    def contains_point(self, x) -> bool:
        return cell_index_of(np.asarray(x, dtype=float), self.height) == self.index

    def distance_to_point(self, x) -> float:
        x = np.asarray(x, dtype=float)
        gap = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        return float(np.linalg.norm(gap))

    def distance_to_cell(self, other: "Cell") -> float:
        gap = np.maximum(np.maximum(self.lo - other.hi, other.lo - self.hi), 0.0)
        return float(np.linalg.norm(gap))

    def intersects_ball(self, ball: Ball, tol: float = 1e-12) -> bool:
        return self.distance_to_point(ball.center_array) <= ball.radius + tol


def cell_index_of(x: np.ndarray, h: int) -> tuple[int, ...]:
    """Lattice index of the height-h cell containing point x."""
    side = 2.0 ** h
    return tuple(int(math.floor(c / side)) for c in x)


@dataclass(frozen=True)
class NormalizedCloud:
    """Point cloud after the min-distance-1/sqrt(d) similarity transform."""

    points: np.ndarray  # (n, d), inside [0, 2^L)^d
    d: int
    L: int
    scale: float  # normalized = (raw - offset) * scale
    offset: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_original_length(self, r: float) -> float:
        return r / self.scale

    def to_normalized_length(self, r: float) -> float:
        return r * self.scale


def normalize(raw_points) -> NormalizedCloud:
    """Similarity-transform raw points so the minimum gap is 1/sqrt(d).

    The root cube side 2^L is the smallest power of two holding the
    scaled bounding box; L is bumped once if a point would land exactly
    on the open upper face.
    """
    pts = np.asarray(raw_points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise InvalidInput("empty point set")
    if not np.isfinite(pts).all():
        raise InvalidInput("non-finite coordinate")
    n, d = pts.shape

    offset = pts.min(axis=0).copy()
    if n == 1:
        return NormalizedCloud(np.zeros((1, d)), d, 0, 1.0, offset)

    mdist = min_pairwise_distance(pts)
    if mdist == 0.0:
        # Coincident points are deduplicated by callers where required;
        # a cloud that is *entirely* duplicates cannot be normalized.
        raise DegenerateInput("cloud contains coincident points")
    scale = (1.0 / math.sqrt(d)) / mdist
    shifted = (pts - offset) * scale
    extent = float(shifted.max()) if shifted.size else 0.0

    L = 0
    while 2.0 ** L < extent:
        L += 1
    if (shifted >= 2.0 ** L).any():
        L += 1
    return NormalizedCloud(shifted, d, L, scale, offset)


@dataclass
class Quadtree:
    """Compressed quadtree exposing the uncompressed logical grid view.

    `level(h)` maps lattice indices of nonempty height-h cells to the
    ids of the points they contain.  Levels for any height (including
    negative) are computed on demand and cached.
    """

    cloud: NormalizedCloud
    _levels: dict[int, dict[tuple[int, ...], list[int]]] = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.cloud.d

    @property
    def L(self) -> int:
        return self.cloud.L

    def level(self, h: int) -> dict[tuple[int, ...], list[int]]:
        cached = self._levels.get(h)
        if cached is not None:
            return cached
        lev: dict[tuple[int, ...], list[int]] = {}
        for i, x in enumerate(self.cloud.points):
            lev.setdefault(cell_index_of(x, h), []).append(i)
        self._levels[h] = lev
        return lev

    def cells_at(self, h: int) -> list[Cell]:
        return [Cell(h, idx) for idx in sorted(self.level(h))]

    def points_in(self, cell: Cell) -> list[int]:
        return self.level(cell.height).get(cell.index, [])

    def is_nonempty(self, cell: Cell) -> bool:
        return cell.index in self.level(cell.height)

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

    def children(self, cell: Cell) -> list[Cell]:
        """Nonempty children of `cell`, sorted by lattice index."""
        h = cell.height - 1
        lev = self.level(h)
        out = []
        base = tuple(2 * i for i in cell.index)
        for m in range(1 << self.d):
            idx = tuple(base[a] + ((m >> a) & 1) for a in range(self.d))
            if idx in lev:
                out.append(Cell(h, idx))
        return sorted(out, key=lambda c: c.index)

    def cell_containing(self, point_id: int, h: int) -> Cell:
        return Cell(h, cell_index_of(self.cloud.points[point_id], h))

    def nonempty_cells_intersecting(self, ball: Ball, h: int) -> list[Cell]:
        """Nonempty height-h cells whose closed box meets the closed ball.

        Descends from the root, pruning empty or disjoint subtrees, so
        the work is proportional to the number of cells visited.
        """
        root = self.root()
        if h >= self.L:
            anc = Cell(h, tuple(i >> (h - self.L) for i in root.index))
            return [anc] if anc.intersects_ball(ball) else []
        frontier = [root] if root.intersects_ball(ball) else []
        height = self.L
        while height > h:
            nxt = []
            for cell in frontier:
                for child in self.children(cell):
                    if child.intersects_ball(ball):
                        nxt.append(child)
            frontier = nxt
            height -= 1
        return sorted(frontier, key=lambda c: c.index)


def qcell(q: Cell, i: int) -> Cell:
    """Unique ancestor of `q` at height i >= height(q)."""
    if i < q.height:
        raise InvalidInput(f"target height {i} below cell height {q.height}")
    shift = i - q.height
    return Cell(i, tuple(idx >> shift for idx in q.index))


def build(cloud: NormalizedCloud) -> Quadtree:
    """Build the quadtree over a normalized cloud."""
    return Quadtree(cloud)
