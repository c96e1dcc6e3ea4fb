"""Exact low-dimensional geometric primitives.

Minimum enclosing balls are computed by Welzl's move-to-front algorithm
with support sets of at most d+1 points; this is exact (up to floating
point) and practical for d <= 12, which covers everything the rest of
the library needs.  Its one numeric kernel is `circumball`: with the
rows of V the offsets of the boundary points from the first one, p0,
the center is p0 + lambda V where lambda solves the small Gram system
(V V^T) lambda = diag(V V^T) / 2, the minimum-norm center in the
boundary's affine hull.  A singular Gram matrix (an affinely dependent
boundary) falls back to a least-squares solve of the offset system.
Balls of cell unions reduce to the ball of all cell corners, since the
meb of a convex polytope equals the meb of its vertex set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Relative tolerance for geometric containment checks.
TAU_GEOM = 1e-9

# Looser internal slack used while the Welzl recursion decides whether a
# point is already covered; keeps the recursion from cycling on ties.
_WELZL_SLACK = 1e-10

MAX_MEB_DIM = 12


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidInput(f"negative radius {self.radius}")

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    def contains(self, point, tol: float = TAU_GEOM) -> bool:
        d = float(np.linalg.norm(np.asarray(point, dtype=float) - self.center_array))
        return d <= self.radius * (1.0 + tol) + tol


@dataclass(frozen=True)
class MebResult:
    """Minimum enclosing ball plus a certificate of support points."""

    ball: Ball
    support: tuple[int, ...]

    @property
    def radius(self) -> float:
        return self.ball.radius

    @property
    def center(self) -> np.ndarray:
        return self.ball.center_array


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.size == 0:
        raise InvalidInput("empty point set")
    if not np.isfinite(pts).all():
        raise InvalidInput("non-finite coordinate")
    return pts


def circumball(boundary) -> tuple[np.ndarray, float]:
    """Smallest ball with all `boundary` points on its surface.

    The center is p0 + lambda V with (V V^T) lambda = diag(V V^T) / 2,
    where the rows of V are q - p0; this is the minimum-norm solution
    of the offset system 2 V x = diag(V V^T), so the center lies in the
    affine hull of the boundary.  When the Gram matrix is singular, or
    lambda comes out non-finite, the least-squares solve of the offset
    system gives that minimum-norm center instead.  The radius is the
    largest distance from the center to a boundary point.
    """
    pts = np.asarray(boundary, dtype=float)
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), 0.0
    V = pts[1:] - p0
    if len(V) == 1:
        center = p0 + 0.5 * V[0]  # the 1x1 Gram system has lambda = 1/2
    else:
        G = V @ V.T
        try:
            lam = np.linalg.solve(G, 0.5 * np.diag(G))
        except np.linalg.LinAlgError:
            lam = None
        if lam is not None and np.isfinite(lam).all():
            center = p0 + lam @ V
        else:
            x, *_ = np.linalg.lstsq(2.0 * V, np.diag(G), rcond=None)
            center = p0 + x
    D = pts - center
    return center, math.sqrt(float(np.einsum("ij,ij->i", D, D).max()))


def covers(center: np.ndarray, radius: float, q: np.ndarray) -> bool:
    """True iff the ball (center, radius) contains q up to the Welzl slack."""
    v = q - center
    return math.sqrt(v @ v) <= radius * (1.0 + _WELZL_SLACK) + 1e-14


def _welzl_mtf(pts: list[np.ndarray], boundary: list[np.ndarray], d: int):
    center, radius = circumball(boundary)
    if len(boundary) == d + 1:
        return center, radius
    for i, q in enumerate(pts):
        if not covers(center, radius, q):
            center, radius = _welzl_mtf(pts[: i + 1], boundary + [q], d)
    return center, radius


def meb(points) -> MebResult:
    """Minimum enclosing ball of a nonempty point set in R^d, d <= 12."""
    pts = _as_points(points)
    n, d = pts.shape
    if d > MAX_MEB_DIM:
        raise InvalidInput(f"dimension {d} exceeds exact meb limit {MAX_MEB_DIM}")
    if n == 1:
        return MebResult(Ball(tuple(pts[0]), 0.0), (0,))

    order = list(range(n))
    random.Random(0x5EB1).shuffle(order)
    shuffled = [pts[i] for i in order]

    center, radius = shuffled[0].copy(), 0.0
    for i, p in enumerate(shuffled):
        if not covers(center, radius, p):
            center, radius = _welzl_mtf(shuffled[:i], [p], d)

    dists = np.linalg.norm(pts - center, axis=1)
    on_boundary = [
        int(i) for i in np.argsort(-dists) if abs(dists[i] - radius) <= radius * TAU_GEOM + 1e-12
    ]
    support = tuple(sorted(on_boundary[: d + 1]))
    return MebResult(Ball(tuple(center), radius), support)


def _row_distances(pts: np.ndarray):
    """Distances from each point to the later ones, one row at a time,
    so memory stays O(n) where a full distance matrix would be O(n^2)."""
    for i in range(pts.shape[0] - 1):
        yield np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)


def diam(points) -> float:
    """Maximum pairwise distance; 0 for a single point."""
    pts = _as_points(points)
    return max((float(dd.max()) for dd in _row_distances(pts)), default=0.0)


def expand(ball: Ball, factor: float) -> Ball:
    """Ball with the same center and radius scaled by `factor`."""
    if factor < 0:
        raise InvalidInput(f"negative expansion factor {factor}")
    return Ball(ball.center, ball.radius * factor)


def meb_of_cells(cells) -> MebResult:
    """Minimum enclosing ball of a union of solid quadtree cells.

    Computed as the meb of all cell corners (2^d per cell), which is
    exact for the convex union arguments used elsewhere.
    """
    cells = list(cells)
    if not cells:
        raise InvalidInput("empty cell list")
    corners = np.concatenate([c.corners() for c in cells], axis=0)
    corners = np.unique(corners, axis=0)
    return meb(corners)


def min_pairwise_distance(points) -> float:
    """Minimum distance over all pairs of points."""
    pts = _as_points(points)
    if pts.shape[0] < 2:
        raise InvalidInput("need at least two points")
    return min(float(dd.min()) for dd in _row_distances(pts))
