"""Simplicial complexes, filtrations, and completion complexes.

A Filtration stores (simplex, value) entries sorted by
(value, dimension, lexicographic vertex order), which fixes the column
order of the persistence reduction.  Simplices are sorted tuples of
vertex labels; for point clouds the labels are point ids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import TAU_GEOM, circumball, covers, meb


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

    def complex_at(self, alpha: float, tol: float = 0.0) -> set[tuple[int, ...]]:
        return {s for s, v in self.entries if v <= alpha + tol}

    def max_dim(self) -> int:
        return max((len(s) - 1 for s, _ in self.entries), default=-1)

    def is_face_monotone(self) -> bool:
        values = self.value_of()
        for s, v in self.entries:
            if len(s) == 1:
                continue
            for face in itertools.combinations(s, len(s) - 1):
                if face not in values or values[face] > v + 1e-12:
                    return False
        return True

    def dump(self) -> str:
        lines = [f"{' '.join(map(str, s))} ; {v!r}" for s, v in self.entries]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Filtration":
        entries = []
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                left, right = line.split(";")
                simplex = tuple(int(t) for t in left.split())
                entries.append((simplex, float(right)))
            except ValueError as exc:
                raise InvalidInput(f"bad filtration line {ln}: {line!r}") from exc
        return Filtration(entries)


def cech_filtration(points, kmax: int) -> Filtration:
    """Filtration value of each simplex is the meb radius of its vertices.

    Simplices are solved dimension by dimension, keeping each one's ball
    (center and value).  Facet inheritance: if the ball of some facet
    contains the opposite vertex (up to the Welzl slack), that ball
    encloses the whole simplex and, being the facet's meb, is also the
    simplex's meb, so the simplex takes it without a solve.  Otherwise
    every vertex is a support point, and for k <= d the meb is the
    circumball of all k+1 vertices.  For k > d (where inheritance always
    applies in exact arithmetic, since a support set has at most d+1
    points) and for a degenerate circumball solve, Welzl's `meb` is the
    fallback.  Each value is finally raised to the largest facet value:
    rounding, and inheriting a ball that holds its vertex only up to the
    slack, could otherwise leave a facet a hair above its coface.
    """
    pts = np.asarray(points, dtype=float)
    if kmax < 0:
        raise InvalidInput(f"kmax must be >= 0, got {kmax}")
    n, d = pts.shape
    rows = [tuple(p) for p in pts.tolist()]
    # simplex -> (center, value), for the dimension last solved only
    balls: dict[tuple[int, ...], tuple[tuple[float, ...], float]] = {
        (i,): (rows[i], 0.0) for i in range(n)
    }
    entries = [(s, 0.0) for s in balls]
    for k in range(1, min(kmax, n - 1) + 1):
        prev, balls = balls, {}
        for simplex in itertools.combinations(range(n), k + 1):
            facets = [simplex[:j] + simplex[j + 1 :] for j in range(k + 1)]
            for facet, opposite in zip(facets, simplex):
                if covers(*prev[facet], rows[opposite]):
                    ball = prev[facet]
                    break
            else:
                ball = _all_support_ball([rows[i] for i in simplex], d)
            value = max(ball[1], max(prev[f][1] for f in facets))
            balls[simplex] = (ball[0], value)
            entries.append((simplex, value))
    return Filtration(entries)


def _all_support_ball(vertices: list[tuple[float, ...]], d: int):
    """Meb of a simplex none of whose facet balls holds the opposite vertex.

    Then every vertex lies on the meb's boundary, so the meb is the
    circumball when the k+1 vertices can be affinely independent
    (k <= d).  A circumball with a vertex off its sphere (by the support
    tolerance of `meb`) came from a degenerate solve; `meb` decides then.
    """
    if len(vertices) <= d + 1:
        center, radius = circumball(vertices)
        nearest = min(math.dist(center, v) for v in vertices)
        if radius - nearest <= radius * TAU_GEOM + 1e-12:
            return center, radius
    res = meb(vertices)
    return res.ball.center, res.radius


def rips_filtration(points, kmax: int) -> Filtration:
    """Filtration value of each simplex is the diameter of its vertices."""
    pts = np.asarray(points, dtype=float)
    if kmax < 0:
        raise InvalidInput(f"kmax must be >= 0, got {kmax}")
    n = pts.shape[0]
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    entries = []
    for k in range(min(kmax, n - 1) + 1):
        for simplex in itertools.combinations(range(n), k + 1):
            if k == 0:
                value = 0.0
            else:
                idx = list(simplex)
                value = float(dist[np.ix_(idx, idx)].max())
            entries.append((simplex, value))
    return Filtration(entries)


def completion(filt: Filtration, i: int, kmax: int) -> Filtration:
    """i-completion: the maximal filtration sharing filt's i-skeleton.

    Simplices of dimension <= i keep their values; a higher simplex
    enters when all its i-faces are present, i.e. at the maximum of
    their values.  The input must contain every simplex of dimension
    <= i over its vertex set (Cech filtrations do).
    """
    if i < 1:
        raise InvalidInput(f"completion order must be >= 1, got {i}")
    values = filt.value_of()
    vertices = sorted(v for s in values for v in s)
    vertices = sorted(set(vertices))
    n = len(vertices)
    for simplex in itertools.combinations(vertices, min(i, n - 1) + 1):
        if simplex not in values:
            raise InvalidInput("input filtration is missing part of its i-skeleton")

    entries = []
    for k in range(min(kmax, n - 1) + 1):
        for simplex in itertools.combinations(vertices, k + 1):
            if k <= i:
                entries.append((simplex, values[simplex]))
            else:
                value = max(
                    values[f] for f in itertools.combinations(simplex, i + 1)
                )
                entries.append((simplex, value))
    return Filtration(entries)


@dataclass
class SandwichReport:
    eps: float
    delta: int
    alphas: list[float]
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

    report = SandwichReport(eps=eps, delta=dlt, alphas=list(alphas))
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
