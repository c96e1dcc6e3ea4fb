"""Exact low-dimensional geometric primitives.

One pivot loop (Gaertner, ESA 1999) on rows of Python floats serves
every minimum enclosing ball: the point farthest from the center joins
a support list, whose ball Welzl's move-to-front solves with boundaries
of at most d+1 points.  Stopped when that point is covered, it gives the
meb, exact up to floating point and deterministic for d <= 12; stopped
when the (1+eps)-expanded ball covers it, its pivots are a
Badoiu-Clarkson meb-coreset.  Only the public `meb` validates outside
input.  The one numeric kernel, `circumball`, solves the Gram system
(V V^T) lambda = diag(V V^T) / 2 of the boundary offsets V from p0 for
the minimum-norm center p0 + lambda V: in closed form up to three
points, else by a numpy solve with a least-squares fallback.  The ball
of a union of cells is the ball of their corners (`meb_of_cells`).
Distances and the numpy Gram system scale each difference by a power of
two before squaring, and the closed form takes only Gram entries within
2^(+-400), so none of them under- or overflows; the on-sphere test of
the support takes a slack relative to the radius plus a few ulps of the
center's largest coordinate.
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

# The closed-form three-point circumball takes Gram entries in this range,
# where its products neither under- nor overflow; others go to the scaled
# numpy solve.
_GRAM_MIN, _GRAM_MAX = 2.0**-400, 2.0**400


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidInput(f"negative radius {self.radius}")

    def contains(self, point) -> bool:
        return math.dist(point, self.center) <= self.radius * (1.0 + TAU_GEOM) + TAU_GEOM


@dataclass(frozen=True)
class MebResult:
    """Minimum enclosing ball plus a certificate of support points."""

    ball: Ball
    support: tuple[int, ...]

    @property
    def radius(self) -> float:
        return self.ball.radius

    @property
    def center(self) -> tuple[float, ...]:
        return self.ball.center


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
    three.  A singular 2x2 matrix (det == 0), a diagonal Gram entry
    outside 2^(+-400), a non-finite lambda, or four or more points go to
    `np.linalg.solve`, and from there to the least-squares solve of the
    offset system, which gives the minimum-norm center, when that Gram
    matrix is singular or lambda is not finite.  The numpy Gram matrix is
    formed from the offsets scaled by the power of two of their largest
    entry, so it neither under- nor overflows; lambda does not depend on
    that scale, and the center is formed from the unscaled offsets.  The
    radius is the largest distance from the center to a boundary point
    (half the distance for two points).
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
        if det != 0.0 and _GRAM_MIN < g11 < _GRAM_MAX and _GRAM_MIN < g22 < _GRAM_MAX:
            lam1 = g22 * (g11 - g12) / (2.0 * det)
            lam2 = g11 * (g22 - g12) / (2.0 * det)
            if math.isfinite(lam1) and math.isfinite(lam2):
                center = tuple(a + lam1 * x + lam2 * y for a, x, y in zip(p0, v1, v2))
                return center, max(math.dist(center, q) for q in boundary)
    pts = np.asarray(boundary, dtype=float)
    V = pts[1:] - pts[0]
    e = -math.frexp(np.abs(V).max())[1]
    W = np.ldexp(V, e)
    G = W @ W.T
    try:
        lam = np.linalg.solve(G, 0.5 * np.diag(G))
    except np.linalg.LinAlgError:
        lam = None
    if lam is not None and np.isfinite(lam).all():
        center = pts[0] + lam @ V
    else:
        x, *_ = np.linalg.lstsq(2.0 * W, np.diag(G), rcond=None)
        center = pts[0] + np.ldexp(x, -e)
    D = np.ldexp(pts - center, e)
    radius = math.ldexp(math.sqrt(float(np.einsum("ij,ij->i", D, D).max())), -e)
    return tuple(center.tolist()), radius


def covers(center, radius: float, q) -> bool:
    """True iff the ball (center, radius) contains q up to the Welzl slack,
    which is relative only, so the answer does not depend on the scale."""
    return math.dist(q, center) <= radius * (1.0 + _WELZL_SLACK)


def _welzl_mtf(pts: list[tuple], boundary: list[tuple], d: int):
    center, radius = circumball(boundary)
    if len(boundary) == d + 1:
        return center, radius
    for i, q in enumerate(pts):
        if not covers(center, radius, q):
            center, radius = _welzl_mtf(pts[: i + 1], boundary + [q], d)
    return center, radius


def _pivot(rows: list[tuple], stop=covers):
    """Gaertner's loop from the support [rows[0]]: the farthest point q
    (the first on a tie) ends it when `stop(center, radius, q)` holds or
    q is already in the support, which keeps rounding from cycling;
    otherwise q joins the front of the support and Welzl's move-to-front
    solves the support's ball.  Returns the center, the radius and the
    support (latest pivot first)."""
    d = len(rows[0])
    if d > MAX_MEB_DIM:
        raise InvalidInput(f"dimension {d} exceeds exact meb limit {MAX_MEB_DIM}")
    support = [rows[0]]
    center, radius = rows[0], 0.0
    while True:
        q = max(rows, key=lambda p: math.dist(p, center))
        if stop(center, radius, q) or q in support:
            return center, radius, support
        center, radius = _welzl_mtf(support, [q], d)
        support.insert(0, q)


def _meb_of_rows(rows: list[tuple]) -> MebResult:
    center, radius, _ = _pivot(rows)
    # The d+1 lowest indices on the sphere: with more co-spherical points
    # the support then depends on the ball only, not on the last bits of
    # its center.  Far from the origin a distance's rounding is set by
    # the center's coordinates, so the slack adds a few of their ulps.
    tol = radius * TAU_GEOM + 4.0 * math.ulp(max(map(abs, center)))
    on_boundary = (i for i, q in enumerate(rows) if abs(math.dist(q, center) - radius) <= tol)
    return MebResult(Ball(center, radius), tuple(itertools.islice(on_boundary, len(center) + 1)))


def meb(points) -> MebResult:
    """Minimum enclosing ball of a nonempty point set in R^d, d <= 12."""
    return _meb_of_rows([tuple(r) for r in _as_points(points).tolist()])


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, without under- or overflow.

    Each row is scaled by the power of two of its largest entry before
    squaring and scaled back after; powers of two scale exactly, so the
    norms are the plain ones wherever those neither under- nor overflow.
    """
    _, e = np.frexp(np.abs(rows).max(axis=1))
    return np.ldexp(np.linalg.norm(np.ldexp(rows, -e[:, None]), axis=1), e)


def _row_distances(pts: np.ndarray):
    """Distances from each point to the later ones, one row at a time,
    so memory stays O(n) where a full distance matrix would be O(n^2)."""
    for i in range(pts.shape[0] - 1):
        yield _norms(pts[i + 1 :] - pts[i])


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
    return _meb_of_rows(sorted(corners))


def min_pairwise_distance(points) -> float:
    """Minimum distance over all pairs of points."""
    pts = _as_points(points)
    if pts.shape[0] < 2:
        raise InvalidInput("need at least two points")
    return min(float(dd.min()) for dd in _row_distances(pts))
