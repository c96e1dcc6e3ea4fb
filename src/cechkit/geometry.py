"""Exact low-dimensional geometric primitives.

One pivot loop (Gaertner, ESA 1999) on rows of Python floats serves
every minimum enclosing ball: the point farthest from the center joins
a support list, whose ball Welzl's move-to-front solves with boundaries
of at most d+1 points.  Stopped when that point is covered, it gives the
meb, exact up to floating point and deterministic for d <= 12; stopped
when the (1+eps)-expanded ball covers it, its pivots are a
Badoiu-Clarkson meb-coreset.  Only the public `meb` validates outside
input.  The one numeric kernel is Gaertner's push (`_Boundary`): a
boundary is its first point plus the Gram-Schmidt-orthogonalised
offsets of the others from it, and adding a point moves the center
along the new orthogonal direction until it is equidistant, in O(k d)
flops for k points.  Each Welzl level pushes one point onto its
parent's boundary; `circumball` pushes a whole boundary and hands an
affinely dependent one to a least-squares solve.  The ball of a union
of cells is the ball of their corners (`meb_of_cells`).  Distances and
the push scale each difference by a power of two before squaring, so
none of them under- or overflows; the on-sphere test of the support
takes a slack relative to the radius plus a few ulps of the center's
largest coordinate.
"""

from __future__ import annotations

import functools
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

# A push is refused when the new offset, orthogonalised against the
# boundary's, keeps no more than this share of its squared norm: the
# center would then move by about 2^31 times the offset's length, where
# the batched Cech solve (complexes) refuses lambda above 2^64 alike.
_DEPENDENT = 2.0**-64


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


def _scale(rows) -> float:
    """The power of two that brings the rows' largest coordinate range
    into [1/2, 1): offsets between rows times it square without under-
    or overflow, and scale back exactly."""
    spread = max(max(c) - min(c) for c in zip(*rows))
    return math.ldexp(1.0, -min(max(math.frexp(spread)[1], -1000), 1000))


class _Boundary:
    """The smallest ball with some points on its sphere, in Gaertner's
    push form (ESA 1999).

    The points are the first, q0, and the offsets of the later ones from
    q0, orthogonalised by Gram-Schmidt into `basis` (each with its
    squared norm).  Offsets are multiplied by the power of two `s` fixed
    by the caller (`_scale`), so that no square under- or overflows; `w`
    is the center's scaled offset from q0.  `center` and `radius` are the
    ball itself: the center q0 + w / s, and the radius its largest
    distance to a boundary point; two points give the midpoint and half
    their distance, to the bit.
    """

    __slots__ = ("points", "s", "basis", "w", "center", "radius")

    def __init__(self, points, s, basis, w, center, radius):
        self.points, self.s, self.basis, self.w = points, s, basis, w
        self.center, self.radius = center, radius

    @classmethod
    def first(cls, p: tuple, s: float) -> "_Boundary":
        return cls((p,), s, (), [0.0] * len(p), p, 0.0)

    def push(self, p: tuple) -> "_Boundary | None":
        """The smallest ball with the boundary and p on its sphere, in
        O(k d) flops for k points; None when p's offset, orthogonalised
        against the boundary's, keeps no more than `_DEPENDENT` of its
        squared norm (p is affinely dependent on the boundary)."""
        q0, s = self.points[0], self.s
        points = self.points + (p,)
        q = [(a - b) * s for a, b in zip(p, q0)]
        qq = sum(map(mul, q, q))
        if not self.basis:  # the midpoint and half the distance, to the bit
            if not qq > 0.0:
                return None
            center = tuple([a + 0.5 * (b - a) for a, b in zip(q0, p)])
            return _Boundary(points, s, ((q, qq),), [0.5 * a for a in q], center, 0.5 * math.dist(q0, p))
        v = q
        for u, uu in self.basis:
            t = sum(map(mul, u, v)) / uu
            v = [a - t * b for a, b in zip(v, u)]
        vv = sum(map(mul, v, v))
        if not vv > _DEPENDENT * qq:
            return None
        # The center moves along v to equidistance from p; as q0 lies on
        # the sphere, p's excess power |q - w|^2 - |w|^2 is q.q - 2 q.w.
        f = 0.5 * (qq - 2.0 * sum(map(mul, q, self.w))) / vv
        w = [a + f * b for a, b in zip(self.w, v)]
        inv = 1.0 / s
        center = tuple([a + b * inv for a, b in zip(q0, w)])
        radius = max(map(math.dist, itertools.repeat(center), points))
        return _Boundary(points, s, self.basis + ((v, vv),), w, center, radius)


def circumball(boundary) -> tuple[tuple[float, ...], float]:
    """Smallest ball with all `boundary` points on its surface.

    `boundary` is any sequence of points; the result is a center tuple
    and a radius.  The points are pushed one at a time (`_Boundary`),
    so the center lies in their affine hull.  A point affinely dependent
    on those before it leaves no sphere to push onto; then the center is
    the minimum-norm least-squares solution of the offset system
    2 V x = diag(V V^T), the rows of V being q - p0, formed from V scaled
    by the power of two of its largest entry so that nothing under- or
    overflows, and the radius is the largest distance from it to a
    boundary point.
    """
    pts = np.asarray(boundary, dtype=float)
    rows = [tuple(r) for r in pts.tolist()]
    ball = _Boundary.first(rows[0], _scale(rows))
    for p in rows[1:]:
        ball = ball.push(p)
        if ball is None:
            break
    else:
        return ball.center, ball.radius
    V = pts[1:] - pts[0]
    e = -math.frexp(np.abs(V).max())[1]
    W = np.ldexp(V, e)
    x, *_ = np.linalg.lstsq(2.0 * W, np.einsum("ij,ij->i", W, W), rcond=None)
    center = pts[0] + np.ldexp(x, -e)
    D = np.ldexp(pts - center, e)
    radius = math.ldexp(math.sqrt(float(np.einsum("ij,ij->i", D, D).max())), -e)
    return tuple(center.tolist()), radius


def covers(center, radius: float, q) -> bool:
    """True iff the ball (center, radius) contains q up to the Welzl slack,
    which is relative only, so the answer does not depend on the scale."""
    return math.dist(q, center) <= radius * (1.0 + _WELZL_SLACK)


def _welzl_mtf(pts: list[tuple], boundary: _Boundary, d: int):
    """Welzl's move-to-front ball of pts with `boundary` on its sphere:
    each point outside the current ball is pushed onto this level's
    boundary and solved by the next level; a point that cannot be pushed
    is skipped, as in Gaertner's loop."""
    center, radius = boundary.center, boundary.radius
    if len(boundary.points) == d + 1:
        return center, radius
    for i, q in enumerate(pts):
        if not covers(center, radius, q):
            pushed = boundary.push(q)
            if pushed is not None:
                center, radius = _welzl_mtf(pts[:i], pushed, d)
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
    s = _scale(rows)
    support = [rows[0]]
    center, radius = rows[0], 0.0
    while True:
        q = max(rows, key=functools.partial(math.dist, center))
        if stop(center, radius, q) or q in support:
            return center, radius, support
        center, radius = _welzl_mtf(support, _Boundary.first(q, s), d)
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
