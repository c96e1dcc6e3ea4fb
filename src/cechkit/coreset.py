"""Coresets for minimum enclosing balls and their radii.

Two notions: a meb-coreset approximates the ball itself (the expanded
ball around the subset's center covers everything), a radius-coreset
only approximates the radius.  The tight radius-coreset size is
delta(eps) = ceil(1/(2*eps + eps^2) + 1).

The meb-coreset is the pivots of `geometry.meb`'s loop, stopped once
the (1+eps)-expanded ball covers the farthest point.  The greedy
radius-coreset solves its candidate balls with that loop too.  Subset
radii r_k are computed by exhaustive enumeration, which also powers the
Jung-type inequality checks; inputs are capped accordingly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import TAU_GEOM, _norms, _pivot, meb

_ENUM_CAP = 16
_CEIL_TOL = 1e-9


def delta(eps: float) -> int:
    """Tight radius-coreset size ceil(1/(2*eps + eps^2) + 1).

    A small tolerance keeps near-integer arguments (eps = sqrt(2) - 1
    gives exactly 2) from rounding up spuriously; the size stays >= 2.
    """
    value = 1.0 / (2.0 * eps + eps * eps) + 1.0 if eps > 0.0 else math.nan
    if not (eps < math.inf and value < math.inf):  # a NaN fails too
        raise InvalidInput(f"eps must be positive and finite, as must delta(eps); got eps={eps!r}")
    return max(2, int(math.ceil(value - _CEIL_TOL)))


def r_k(points, k: int) -> float:
    """Maximum meb radius over all k-subsets of the input."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if not (2 <= k <= n):
        raise InvalidInput(f"k must be in [2, {n}], got {k}")
    if n > _ENUM_CAP:
        raise InvalidInput(f"subset enumeration capped at n <= {_ENUM_CAP}")
    return max(meb(pts[list(sub)]).radius for sub in itertools.combinations(range(n), k))


def is_radius_coreset(points, subset, eps: float) -> bool:
    pts = np.asarray(points, dtype=float)
    sub = pts[list(subset)]
    return meb(pts).radius <= (1.0 + eps) * meb(sub).radius * (1.0 + 1e-12)


def is_meb_coreset(points, subset, eps: float) -> bool:
    pts = np.asarray(points, dtype=float)
    res = meb(pts[list(subset)])
    cover = (1.0 + eps) * res.radius
    dists = _norms(pts - res.center)
    return bool((dists <= cover * (1.0 + 1e-12)).all())


@dataclass
class CoresetResult:
    subset: tuple[int, ...]
    kind: str  # "meb" or "radius"
    eps: float
    achieved_factor: float
    undersized_input: bool = False

    @property
    def size(self) -> int:
        return len(self.subset)


def radius_coreset_greedy(points, eps: float) -> CoresetResult:
    """Greedy removal down to size delta(eps), keeping the radius maximal.

    At each step the removed point is the one whose removal leaves the
    largest remaining meb radius; ties go to the smallest point id.  The
    ball of the current set is solved once per round.  Removing a point
    strictly inside it leaves the radius at r, and no later candidate
    can beat r by the 1e-12 tie margin, so such a point takes r without
    a solve and ends the scan.  A boundary winner's scan solve is the
    next round's ball; an interior winner's is solved afresh.
    """
    dlt = delta(eps)
    res = meb(points)
    full_rad, center, r = res.radius, res.center, res.radius
    rows = [tuple(p) for p in np.asarray(points, dtype=float).tolist()]
    n = len(rows)
    if n < dlt:
        return CoresetResult(tuple(range(n)), "radius", eps, 1.0, undersized_input=True)

    current = list(range(n))
    while len(current) > dlt:
        inside = r * (1.0 - TAU_GEOM)
        best_rad, best_drop, best_ball = -1.0, None, None
        for drop in current:
            interior = math.dist(rows[drop], center) < inside
            if interior:
                rad, solved = r, None
            else:
                solved = _pivot([rows[i] for i in current if i != drop])
                rad = solved[1]
            if rad > best_rad * (1.0 + 1e-12):
                best_rad, best_drop, best_ball = rad, drop, solved
            if interior:
                break
        current.remove(best_drop)
        center, r, _ = best_ball or _pivot([rows[i] for i in current])

    factor = full_rad / r if r > 0 else 1.0
    return CoresetResult(tuple(current), "radius", eps, factor)


def radius_coreset_min(points, eps: float) -> CoresetResult:
    """Minimum-cardinality radius-coreset by exhaustive subset search."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n > 14:
        raise InvalidInput("exhaustive search capped at n <= 14")
    full_rad = meb(pts).radius
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            rad = meb(pts[list(sub)]).radius
            if full_rad <= (1.0 + eps) * rad * (1.0 + 1e-12):
                factor = full_rad / rad if rad > 0 else 1.0
                return CoresetResult(tuple(sub), "radius", eps, factor)
    raise AssertionError("unreachable: the whole set is always a radius-coreset")


def meb_coreset(points, eps: float) -> CoresetResult:
    """Badoiu-Clarkson meb-coreset: the pivots of `geometry.meb`'s loop.

    The loop adds the point farthest from the current center until the
    (1+eps)-expanded ball of the pivots covers everything, so the
    covering invariant is exact; the subset size is not guaranteed
    minimal.
    """
    if not (0.0 < eps <= 1.0):
        raise InvalidInput(f"eps must be in (0, 1], got {eps}")
    full_rad = meb(points).radius
    rows = [tuple(p) for p in np.asarray(points, dtype=float).tolist()]
    _, radius, support = _pivot(
        rows, lambda c, r, q: math.dist(q, c) <= (1.0 + eps) * r * (1.0 + 1e-12)
    )
    factor = full_rad / radius if radius > 0 else 1.0
    # A pivot is the first row at its distance, so `index` finds its id.
    return CoresetResult(tuple(sorted(map(rows.index, support))), "meb", eps, factor)


@dataclass
class JungReport:
    d: int
    n: int
    pairwise: dict = field(default_factory=dict)  # (i, j) -> (lhs, bound, slack)
    jung_uniform: tuple[float, float] | None = None
    jung_printed: tuple[float, float] | None = None
    telescoping_max_err: float = 0.0

    @property
    def ok(self) -> bool:
        pairs = [p[:2] for p in self.pairwise.values()] + [self.jung_uniform, self.jung_printed]
        bad = any(lhs > bound * (1.0 + 1e-9) + 1e-12 for lhs, bound in pairs)
        return not bad and self.telescoping_max_err <= 1e-9


def telescoping_identity(j: int, i: int) -> tuple[float, float]:
    """Both sides of prod_{t=j}^{i-1} t/sqrt(t^2-1) = sqrt(j(i-1)/(i(j-1)))."""
    prod = 1.0
    for t in range(j, i):
        prod *= t / math.sqrt(t * t - 1.0)
    closed = math.sqrt(j * (i - 1) / (i * (j - 1)))
    return prod, closed


def jung_check(points) -> JungReport:
    """Verify generalized Jung inequalities r_i <= sqrt(j(i-1)/(i(j-1))) r_j.

    r_k is the maximum meb radius over k-subsets throughout, so r_2 is
    half the diameter; the classical Jung bound is reported both in
    that uniform reading and in the diameter reading.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if not 2 <= n <= _ENUM_CAP:
        raise InvalidInput(f"jung_check needs 2 <= n <= {_ENUM_CAP} points, got {n}")

    top = min(n, d + 1)
    radii = {k: r_k(pts, k) for k in range(2, top + 1)}
    rad_all = meb(pts).radius

    report = JungReport(d=d, n=n)
    for j in range(2, top + 1):
        for i in range(j, top + 1):
            bound = math.sqrt(j * (i - 1) / (i * (j - 1))) * radii[j]
            report.pairwise[(i, j)] = (radii[i], bound, bound - radii[i])

    jung_c = math.sqrt(2.0 * d / (d + 1.0))
    diam_half = radii[2]
    report.jung_uniform = (rad_all, jung_c * diam_half)
    report.jung_printed = (rad_all, jung_c * 2.0 * diam_half)

    err = 0.0
    for j in range(2, 13):
        for i in range(j, 13):
            prod, closed = telescoping_identity(j, i)
            err = max(err, abs(prod - closed) / closed)
    report.telescoping_max_err = err
    return report
