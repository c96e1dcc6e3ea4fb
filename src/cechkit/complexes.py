"""Simplicial complexes, filtrations, and completion complexes.

A Filtration stores (simplex, value) entries sorted by
(value, dimension, lexicographic vertex order), which fixes the column
order of the persistence reduction.  Simplices are sorted tuples of
vertex labels; for point clouds the labels are point ids.  One
completion rule, `_complete`, builds Rips (the 1-completion of the edge
lengths), `completion`, and Cech above dimension d (the d-completion of
its d-skeleton).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import TAU_GEOM, _as_points, _pivot, _row_distances, circumball, covers


def _entry_key(entry):
    simplex, value = entry
    return (value, len(simplex), simplex)


@dataclass
class Filtration:
    """Sorted list of (simplex, value) pairs, closed under faces."""

    entries: list[tuple[tuple[int, ...], float]]

    def __post_init__(self):
        self.entries = sorted(self.entries, key=_entry_key)

    def value_of(self) -> dict[tuple[int, ...], float]:
        return {s: v for s, v in self.entries}

    @property
    def simplices(self) -> set[tuple[int, ...]]:
        return {s for s, _ in self.entries}

    def complex_at(self, alpha: float, tol: float = 0.0) -> set[tuple[int, ...]]:
        return {s for s, v in self.entries if v <= alpha + tol}


def _complete(values, vertices, i: int, kmax: int) -> Filtration:
    """Keep `values` up to dimension i (it must hold every such simplex)
    and put each higher simplex, up to kmax, at the max of its facet
    values, which is exactly the max over its i-faces: the i-completion.
    """
    top = min(kmax, len(vertices) - 1)
    entries = [(s, v) for s, v in values.items() if len(s) <= min(i, top) + 1]
    layer = {s: v for s, v in entries if len(s) == i + 1}
    for k in range(i + 1, top + 1):
        layer = {
            s: max(map(layer.__getitem__, itertools.combinations(s, k)))
            for s in itertools.combinations(vertices, k + 1)
        }
        entries.extend(layer.items())
    return Filtration(entries)


def cech_filtration(points, kmax: int) -> Filtration:
    """Filtration value of each simplex is the meb radius of its vertices.

    Simplices up to dimension d are solved dimension by dimension,
    keeping each one's ball (center and value).  Facet inheritance: if
    the ball of some facet contains the opposite vertex (up to the Welzl
    slack), that ball encloses the whole simplex and, being the facet's
    meb, is also the simplex's meb, so the simplex takes it without a
    solve.  Otherwise every vertex is a support point, and the meb is
    the circumball of all k+1 vertices; a degenerate circumball solve
    falls back to `meb`'s pivot loop.  Each value is finally raised to the
    largest facet value: rounding, and inheriting a ball that holds its
    vertex only up to the slack, could otherwise leave a facet a hair
    above its coface.  Above dimension d a meb has at most d+1 support
    points, so Cech is the d-completion of its d-skeleton (`_complete`).
    """
    pts = _as_points(points)
    if kmax < 0:
        raise InvalidInput(f"kmax must be >= 0, got {kmax}")
    n, d = pts.shape
    rows = [tuple(p) for p in pts.tolist()]
    # simplex -> (center, value), for the dimension last solved only; the
    # top dimension solved keeps none, since no coface reads them
    balls: dict[tuple[int, ...], tuple[tuple[float, ...], float]] = {
        (i,): (rows[i], 0.0) for i in range(n)
    }
    values = {s: 0.0 for s in balls}
    top = min(kmax, n - 1, d)
    for k in range(1, top + 1):
        prev, balls = balls, {}
        for simplex in itertools.combinations(range(n), k + 1):
            facets = [simplex[:j] + simplex[j + 1 :] for j in range(k + 1)]
            for facet, opposite in zip(facets, simplex):
                if covers(*prev[facet], rows[opposite]):
                    ball = prev[facet]
                    break
            else:
                ball = _all_support_ball([rows[i] for i in simplex])
            value = max(ball[1], max(prev[f][1] for f in facets))
            if k < top:
                balls[simplex] = (ball[0], value)
            values[simplex] = value
    return _complete(values, range(n), d, kmax)


def _all_support_ball(vertices: list[tuple[float, ...]]):
    """Meb of a simplex none of whose facet balls holds the opposite vertex.

    Then every vertex lies on the meb's boundary, so the meb is the
    circumball.  A circumball with a vertex off its sphere (by more than
    radius * TAU_GEOM) came from a degenerate solve; the pivot loop of
    `meb` decides then.
    """
    center, radius = circumball(vertices)
    nearest = min(math.dist(center, v) for v in vertices)
    if radius - nearest <= radius * TAU_GEOM:
        return center, radius
    return _pivot(vertices)[:2]


def rips_filtration(points, kmax: int) -> Filtration:
    """Filtration value of each simplex is the diameter of its vertices:
    the 1-completion of the edge lengths."""
    pts = _as_points(points)
    if kmax < 0:
        raise InvalidInput(f"kmax must be >= 0, got {kmax}")
    n = pts.shape[0]
    values = {(i,): 0.0 for i in range(n)}
    for i, row in enumerate(_row_distances(pts)):
        values.update(((i, j), float(v)) for j, v in enumerate(row, start=i + 1))
    return _complete(values, range(n), 1, kmax)


def completion(filt: Filtration, i: int, kmax: int) -> Filtration:
    """i-completion: the maximal filtration sharing filt's i-skeleton.

    Simplices of dimension <= i keep their values, a higher one enters at the
    max of its i-faces' values; filt must hold every i-simplex on its vertices.
    Of Cech, the 1-completion (delta = 2, every eps >= sqrt(2)-1) is Rips at
    half the edge lengths; for i >= kmax (delta-1 >= pmax+1) it is Cech up to kmax.
    """
    if i < 1:
        raise InvalidInput(f"completion order must be >= 1, got {i}")
    values = filt.value_of()
    vertices = sorted({v for s in values for v in s})
    n = len(vertices)
    for k in range(min(i, n - 1) + 1):
        if not all(map(values.__contains__, itertools.combinations(vertices, k + 1))):
            raise InvalidInput("input filtration is missing part of its i-skeleton")
    return _complete(values, vertices, i, kmax)


@dataclass
class SandwichReport:
    eps: float
    delta: int
    violations: list[tuple[float, tuple[int, ...], str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_completion_sandwich(points, eps: float, alphas) -> SandwichReport:
    """Check C_a <= M_{delta-1}(C_a) <= C_{(1+eps)a} at each given scale."""
    from .coreset import delta as delta_of

    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dlt = delta_of(eps)
    cech = cech_filtration(pts, n - 1)
    comp = completion(cech, dlt - 1, n - 1)
    cech_vals = cech.value_of()
    comp_vals = comp.value_of()

    report = SandwichReport(eps=eps, delta=dlt)
    for alpha in alphas:
        c_a = cech.complex_at(alpha)
        m_a = comp.complex_at(alpha)
        for s in c_a:
            if s not in m_a:
                report.violations.append((alpha, s, "C_a not in M(C_a)"))
        for s in m_a:
            if cech_vals[s] > (1.0 + eps) * alpha * (1.0 + 1e-12):
                report.violations.append((alpha, s, "M(C_a) not in C_(1+eps)a"))
    # Value-wise form of the same statement, independent of the alpha grid.
    for s, v in cech_vals.items():
        mv = comp_vals[s]
        if mv > v * (1.0 + 1e-12) + 1e-15:
            report.violations.append((float("nan"), s, "completion value above cech"))
        if v > (1.0 + eps) * mv * (1.0 + 1e-12) + 1e-15:
            report.violations.append((float("nan"), s, "cech value above (1+eps)*completion"))
    return report
