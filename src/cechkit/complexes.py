"""Simplicial complexes, filtrations, and completion complexes.

A Filtration stores (simplex, value) entries sorted by
(value, dimension, lexicographic vertex order), which fixes the column
order of the persistence reduction.  Simplices are sorted tuples of
vertex labels; for point clouds the labels are point ids.  One
completion rule, `_complete`, builds Rips (the 1-completion of the edge
lengths), `completion`, and Cech above dimension d (the d-completion of
its d-skeleton).

The builders value one dimension (layer) at a time on numpy arrays: a
layer's values, and for Cech its balls, sit in arrays in
`itertools.combinations` order, and one facet table, read in blocks of
at most `_BLOCK` floats, gives the position of each simplex's facets in
the layer below.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import _WELZL_SLACK, TAU_GEOM, _as_points, _norms, _pivot, _row_distances, circumball

# Largest block of a layer, in floats (or facet positions), so that memory
# stays bounded when d is large; the values do not depend on it.
_BLOCK = 1 << 18
# Largest layer, in vertex slots, whose facet table is cached.
_SMALL = 1 << 12


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


def _layer_blocks(m: int, k: int, width: int):
    """The k-simplices on vertices 0..m-1 in `itertools.combinations` order,
    in blocks of max(1, _BLOCK // width) simplices.  Each block is a pair
    (S, F): S holds the simplices' vertices, one row each, and F[r, j] is
    the position of facet j of S[r] (S[r] without S[r, j]) among the
    (k-1)-simplices.  A layer of at most _SMALL vertex slots that fits one
    block comes from a bounded cache.
    """
    size = max(1, _BLOCK // width)
    count = math.comb(m, k + 1)
    if count <= size and count * (k + 1) <= _SMALL:
        yield _small_layer(m, k)
        return
    binom = _binomials(m, k)
    simplices = itertools.chain.from_iterable(itertools.combinations(range(m), k + 1))
    while True:
        S = np.fromiter(itertools.islice(simplices, size * (k + 1)), dtype=np.intp)
        if not S.size:
            return
        S = S.reshape(-1, k + 1)
        yield S, _facet_table(S, m, binom)


@functools.lru_cache(maxsize=128)
def _small_layer(m: int, k: int):
    """The whole layer as one (S, F) block, read-only, since it is shared."""
    S = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), k + 1)), np.intp)
    S = S.reshape(-1, k + 1)
    F = _facet_table(S, m, _binomials(m, k))
    S.flags.writeable = F.flags.writeable = False
    return S, F


def _binomials(m: int, k: int) -> np.ndarray:
    """binom[a, b] = C(a, b) for a < m and b <= k."""
    binom = np.ones((m, k + 1), dtype=np.int64)
    for b in range(1, k + 1):
        binom[0, b] = 0
        binom[1:, b] = np.cumsum(binom[:-1, b - 1])  # C(a, b) = sum of C(j, b-1), j < a
    return binom


def _facet_table(S: np.ndarray, m: int, binom: np.ndarray) -> np.ndarray:
    """F[r, j]: the position of S[r] without S[r, j] among the
    (k-1)-simplices on m vertices, its rank in the combinatorial number
    system: c_0 < ... < c_{k-1} sits at C(m, k) - 1 - sum_t C(m-1-c_t, k-t).
    Vertex q is element q of the facets j > q and element q-1 of the
    facets j < q, so the terms of q < j and of q > j are running sums."""
    k = S.shape[1] - 1
    R = m - 1 - S.T
    F = np.empty((k + 1, S.shape[0]), dtype=np.int64)
    F[0] = math.comb(m, k) - 1
    for j in range(1, k + 1):
        F[j] = F[j - 1] - binom[R[j - 1], k + 1 - j]
    later = 0
    for j in range(k - 1, -1, -1):
        later = later + binom[R[j + 1], k - j]
        F[j] -= later
    return F.T


def _complete(entries: list, layer: np.ndarray, vertices, i: int, kmax: int) -> Filtration:
    """The i-completion up to kmax: `entries` hold every simplex on
    `vertices` up to dimension i, and `layer` the i-simplices' values in
    `itertools.combinations(vertices, i + 1)` order.  Each higher layer is
    the max of its facet values, which is exactly the max over its
    i-faces; max rounds nothing, so the values are those of a per-simplex
    loop bit for bit.
    """
    m = len(vertices)
    for k in range(i + 1, min(kmax, m - 1) + 1):
        layer = np.concatenate([layer[F].max(axis=1) for _, F in _layer_blocks(m, k, k + 1)])
        entries.extend(zip(itertools.combinations(vertices, k + 1), layer.tolist()))
    return Filtration(entries)


def cech_filtration(points, kmax: int) -> Filtration:
    """Filtration value of each simplex is the meb radius of its vertices.

    Simplices up to dimension d are solved a dimension at a time, keeping
    each one's ball (center and value) in arrays for the next dimension;
    the top dimension solved keeps none.  An edge's ball is exact: center
    a + (b - a)/2 and value math.dist(a, b)/2.  Above that, facet
    inheritance: if the ball of some facet contains the opposite vertex
    (up to the Welzl slack), that ball encloses the whole simplex and,
    being the facet's meb, is also the simplex's meb, so the simplex takes
    the first such ball in facet order without a solve.  Otherwise every
    vertex is a support point, and the meb is the circumball of all k+1
    vertices (`_all_support_balls`, one batched solve per block).  Each
    value is finally raised to the largest facet value: rounding, and
    inheriting a ball that holds its vertex only up to the slack, could
    otherwise leave a facet a hair above its coface.  Above dimension d a
    meb has at most d+1 support points, so Cech is the d-completion of its
    d-skeleton (`_complete`).
    """
    pts = _as_points(points)
    if kmax < 0:
        raise InvalidInput(f"kmax must be >= 0, got {kmax}")
    n = pts.shape[0]
    entries = [((i,), 0.0) for i in range(n)]
    centers, values = pts, np.zeros(n)
    top = min(kmax, n - 1, pts.shape[1])
    for k in range(1, top + 1):
        centers, values = _cech_layer(pts, k, centers, values, k < top)
        entries.extend(zip(itertools.combinations(range(n), k + 1), values.tolist()))
    return _complete(entries, values, range(n), top, kmax)


def _cech_layer(pts, k: int, centers, values, keep: bool):
    """Balls of the k-simplices, from those of the (k-1)-simplices: their
    centers (None unless `keep`) and values, in combinations order."""
    n, d = pts.shape
    layer_centers, layer_values = [], []
    for S, F in _layer_blocks(n, k, (k + 1) * d):
        if k == 1:
            a, b = pts[S[:, 0]], pts[S[:, 1]]
            c = a + 0.5 * (b - a)
            v = np.array([0.5 * math.dist(p, q) for p, q in zip(a.tolist(), b.tolist())])
        else:
            c, v = _facet_or_support_balls(pts[S], centers[F], values[F])
        layer_values.append(v)
        if keep:
            layer_centers.append(c)
    return (np.concatenate(layer_centers) if keep else None), np.concatenate(layer_values)


def _dists(X: np.ndarray) -> np.ndarray:
    """Norms along the last axis, each row scaled by a power of two
    before squaring (`geometry._norms`)."""
    return _norms(X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1])


def _facet_or_support_balls(P, C, fv):
    """Balls and values of a block of simplices, vertices P (B, k+1, d),
    from the balls of their facets: facet j (vertex j dropped) has center
    C[:, j] and value fv[:, j]."""
    covered = _dists(P - C) <= fv * (1.0 + _WELZL_SLACK)
    centers = C[np.arange(len(P)), covered.argmax(axis=1)]
    values = fv.max(axis=1)
    solve = np.flatnonzero(~covered.any(axis=1))
    if solve.size:
        centers[solve], radii = _all_support_balls(P[solve])
        values[solve] = np.maximum(values[solve], radii)
    return centers, values


def _solve_stack(G, rhs):
    """Solve each system G[b] x = rhs[b]; a singular one gives NaNs
    without failing the others (numpy refuses the whole stack, so a
    failed stack is halved until the singular systems stand alone)."""
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(G) == 1:
            return np.full_like(rhs, np.nan)
        h = len(G) // 2
        return np.concatenate([_solve_stack(G[:h], rhs[:h]), _solve_stack(G[h:], rhs[h:])])


def _all_support_balls(P):
    """Meb of each simplex in P (B, k+1, d), k <= d, none of whose facet
    balls holds the opposite vertex: the circumball, as `circumball`
    solves it, batched.  The Gram system (V V^T) lambda = diag(V V^T) / 2
    of the offsets V from the first vertex is formed from V scaled by the
    power of two of its largest entry, and every distance is scaled
    likewise (`_dists`), so nothing under- or overflows.  A singular,
    non-finite or huge lambda, or a circumball with a vertex off its sphere
    by more than radius * TAU_GEOM, goes to the scalar `_all_support_ball`.
    """
    V = P[:, 1:] - P[:, :1]
    _, e = np.frexp(np.abs(V).max(axis=(1, 2)))
    W = np.ldexp(V, -e[:, None, None])
    G = W @ W.transpose(0, 2, 1)
    lam = _solve_stack(G, 0.5 * np.diagonal(G, axis1=1, axis2=2))
    ok = (np.abs(lam) <= 2.0**64).all(axis=1)  # also false on NaN; bounds the center
    lam[~ok] = 0.0
    centers = P[:, 0] + (lam[:, None, :] @ V)[:, 0]
    dist = _dists(P - centers[:, None, :])
    radii = dist.max(axis=1)
    ok &= radii - dist.min(axis=1) <= radii * TAU_GEOM
    for b in np.flatnonzero(~ok):
        centers[b], radii[b] = _all_support_ball([tuple(r) for r in P[b].tolist()])
    return centers, radii


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
    entries = [((i,), 0.0) for i in range(n)]
    layer = np.concatenate([np.empty(0), *_row_distances(pts)])
    if kmax >= 1:
        entries.extend(zip(itertools.combinations(range(n), 2), layer.tolist()))
    return _complete(entries, layer, range(n), 1, kmax)


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
    top = min(i, kmax, n - 1)
    entries = [(s, v) for s, v in values.items() if len(s) <= top + 1]
    if top == min(kmax, n - 1):
        return Filtration(entries)
    layer = np.fromiter(map(values.__getitem__, itertools.combinations(vertices, i + 1)), float)
    return _complete(entries, layer, vertices, i, kmax)


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
