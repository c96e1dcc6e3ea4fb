"""Exact low-dimensional geometric primitives.

Minimum enclosing balls use Gaertner's pivoting (ESA 1999): the point
farthest from the center joins a support list, whose ball Welzl's
move-to-front solves with boundaries of at most d+1 points.  This is
exact up to floating point, deterministic, and practical for d <= 12.
The loop runs on Python floats: points are tuples and every containment
test is one `math.dist` (`covers`).  Its one numeric kernel is
`circumball`: with the rows of V the offsets of the boundary points from
the first one, p0, the center is p0 + lambda V where lambda solves the
small Gram system (V V^T) lambda = diag(V V^T) / 2, the minimum-norm
center in the boundary's affine hull.  Boundaries of at most three
points are solved in closed form (the point, the midpoint, Cramer's rule
on the 2x2 system); larger ones, and a singular 2x2 system, go to a
numpy solve, which falls back to least squares for an affinely
dependent boundary.  The ball of a union of cells is the ball of their
corners, whose convex hull holds the union (`meb_of_cells`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

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


def circumball(boundary) -> tuple[tuple[float, ...], float]:
    """Smallest ball with all `boundary` points on its surface.

    `boundary` is any sequence of points; the result is a center tuple
    and a radius.  The center is p0 + lambda V with
    (V V^T) lambda = diag(V V^T) / 2, where the rows of V are q - p0;
    this is the minimum-norm solution of the offset system
    2 V x = diag(V V^T), so the center lies in the affine hull of the
    boundary.  Up to three points the system is solved on Python floats:
    lambda = 1/2 for two, Cramer's rule on the 2x2 Gram matrix for
    three.  A singular 2x2 matrix (det == 0), a non-finite lambda, or
    four or more points go to `np.linalg.solve`, and from there to the
    least-squares solve of the offset system, which gives the
    minimum-norm center, when that Gram matrix is singular or lambda is
    not finite.  The radius is the largest distance from the center to
    a boundary point (half the distance for two points).
    """
    p0 = boundary[0]
    if len(boundary) == 1:
        return tuple(p0), 0.0
    if len(boundary) == 2:
        p1 = boundary[1]
        return tuple(a + 0.5 * (b - a) for a, b in zip(p0, p1)), 0.5 * math.dist(p0, p1)
    if len(boundary) == 3:
        v1 = [b - a for a, b in zip(p0, boundary[1])]
        v2 = [b - a for a, b in zip(p0, boundary[2])]
        g11, g12, g22 = sum(map(mul, v1, v1)), sum(map(mul, v1, v2)), sum(map(mul, v2, v2))
        det = g11 * g22 - g12 * g12
        if det != 0.0:
            lam1 = g22 * (g11 - g12) / (2.0 * det)
            lam2 = g11 * (g22 - g12) / (2.0 * det)
            if math.isfinite(lam1) and math.isfinite(lam2):
                center = tuple(a + lam1 * x + lam2 * y for a, x, y in zip(p0, v1, v2))
                return center, max(math.dist(center, q) for q in boundary)
    pts = np.asarray(boundary, dtype=float)
    V = pts[1:] - pts[0]
    G = V @ V.T
    try:
        lam = np.linalg.solve(G, 0.5 * np.diag(G))
    except np.linalg.LinAlgError:
        lam = None
    if lam is not None and np.isfinite(lam).all():
        center = pts[0] + lam @ V
    else:
        x, *_ = np.linalg.lstsq(2.0 * V, np.diag(G), rcond=None)
        center = pts[0] + x
    D = pts - center
    return tuple(center.tolist()), math.sqrt(float(np.einsum("ij,ij->i", D, D).max()))


def covers(center, radius: float, q) -> bool:
    """True iff the ball (center, radius) contains q up to the Welzl slack."""
    return math.dist(q, center) <= radius * (1.0 + _WELZL_SLACK) + 1e-14


def _welzl_mtf(pts: list[tuple], boundary: list[tuple], d: int):
    center, radius = circumball(boundary)
    if len(boundary) == d + 1:
        return center, radius
    for i, q in enumerate(pts):
        if not covers(center, radius, q):
            center, radius = _welzl_mtf(pts[: i + 1], boundary + [q], d)
    return center, radius


def meb(points) -> MebResult:
    """Minimum enclosing ball of a nonempty point set in R^d, d <= 12.

    The farthest point (the first on a tie) joins the front of the
    support until it is covered or already there; the second stop keeps
    rounding from cycling, so there are at most n passes.
    """
    pts = _as_points(points)
    d = pts.shape[1]
    if d > MAX_MEB_DIM:
        raise InvalidInput(f"dimension {d} exceeds exact meb limit {MAX_MEB_DIM}")

    rows = [tuple(r) for r in pts.tolist()]
    support = [rows[0]]
    center, radius = rows[0], 0.0
    while True:
        q = max(rows, key=lambda p: math.dist(p, center))
        if covers(center, radius, q) or q in support:
            break
        center, radius = _welzl_mtf(support, [q], d)
        support.insert(0, q)

    # The d+1 lowest indices on the sphere: with more co-spherical points
    # the support then depends on the ball only, not on the last bits of
    # its center.
    tol = radius * TAU_GEOM + 1e-12
    on_boundary = (i for i, q in enumerate(rows) if abs(math.dist(q, center) - radius) <= tol)
    return MebResult(Ball(center, radius), tuple(itertools.islice(on_boundary, d + 1)))


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

    Computed as the meb of all distinct cell corners (2^d per cell), in
    lexicographic order, which is exact for the convex union arguments
    used elsewhere.
    """
    cells = list(cells)
    if not cells:
        raise InvalidInput("empty cell list")
    corners = set()
    for c in cells:
        corners.update(c.corner_tuples())
    return meb(sorted(corners))


def min_pairwise_distance(points) -> float:
    """Minimum distance over all pairs of points."""
    pts = _as_points(points)
    if pts.shape[0] < 2:
        raise InvalidInput("need at least two points")
    return min(float(dd.min()) for dd in _row_distances(pts))
