"""Simplicial complexes, filtrations, and completion complexes.

A Filtration is its layers, one per dimension.  Layer k holds the
k-simplices in lexicographic order (for a full layer on sorted vertices,
`itertools.combinations` order), their values as one float array, and,
read by the persistence engine, each simplex's facet positions in layer
k-1.  Simplices are sorted tuples of vertex labels; for point clouds the
labels are point ids.  The builders hand their layers over whole:
`cech_filtration`, `rips_filtration` and `completion` value one
dimension at a time on numpy arrays, and one facet table, read in blocks
of at most `_BLOCK` floats, gives the position of each simplex's facets
in the layer below; those tables are the layers' facets.  One completion
rule, `_complete`, builds Rips (the 1-completion of the edge lengths),
`completion`, and Cech above dimension d (the d-completion of its
d-skeleton).  `Filtration(entries)` is the one other way in: it groups
(simplex, value) pairs by dimension, and sorts a layer and looks its
facets up only when they are read.  The (value, dimension, simplex) order
of `entries`, the column order of persistence, is derived on read.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import _WELZL_SLACK, TAU_GEOM, _as_points, _norms, _pivot, _row_distances, circumball

# Largest block of a layer, in floats (or facet positions), so that memory
# stays bounded when d is large; the values do not depend on it.
_BLOCK = 1 << 18
# Largest layer, in vertex slots, whose facet table is cached.
_SMALL = 1 << 12


class _Combinations:
    """Every r-subset of `vertices`, in `itertools.combinations` order: a
    full layer's simplices, listed only while they are read."""

    __slots__ = ("vertices", "r")

    def __init__(self, vertices, r: int):
        self.vertices, self.r = vertices, r

    def __iter__(self):
        return itertools.combinations(self.vertices, self.r)


class _Layer:
    """The k-simplices of a filtration in lexicographic order, their
    values in the same order, and `facets[r]`, the positions in layer k-1
    of the facets of simplex r (None for k = 0, or until looked up)."""

    __slots__ = ("simplices", "values", "facets")

    def __init__(self, simplices, values: np.ndarray, facets: np.ndarray | None = None):
        self.simplices, self.values, self.facets = simplices, values, facets


class Filtration:
    """Simplices with the value at which each enters, one layer per
    dimension.  `Filtration(entries)` takes (simplex, value) pairs, each
    simplex at most once, and keeps them as one simplex -> value dict per
    dimension until the layers are read; face-monotonicity is checked by
    `homology.persist_filtration`, which reads every facet."""

    def __init__(self, entries=()):
        entries = list(entries)
        by_size: dict = defaultdict(dict)  # vertex count -> {simplex: value}
        for s, v in entries:
            by_size[len(s)][s] = v
        if 0 in by_size:
            raise InvalidInput("a filtration entry has no vertex")
        if sum(map(len, by_size.values())) < len(entries):
            seen: set = set()
            for s, _ in entries:
                if s in seen:
                    raise InvalidInput(f"simplex {s} appears twice in the filtration")
                seen.add(s)
        self._given = [by_size[k] for k in range(1, max(by_size, default=0) + 1)]
        self._layers = None  # built from _given, which it replaces, when first read
        self._vertices = None  # sorted labels when every layer is full on them
        self._span = None

    @classmethod
    def _of_layers(cls, layers: list[_Layer], vertices) -> "Filtration":
        """The filtration whose layer k holds every (k+1)-subset of the
        sorted `vertices`, in `itertools.combinations` order."""
        filt = cls.__new__(cls)
        filt._given, filt._layers, filt._vertices, filt._span = None, layers, vertices, None
        return filt

    def _lex(self) -> list[_Layer]:
        """The layers; given entries are sorted into them, in place of
        their dicts, on the first call."""
        if self._layers is None:
            self._layers = []
            for given in self._given:
                simplices = sorted(given)
                values = np.fromiter(map(given.__getitem__, simplices), float, len(simplices))
                self._layers.append(_Layer(simplices, values))
            self._given = None
        return self._layers

    def __len__(self) -> int:
        return sum(self.layer_sizes)

    @property
    def layer_sizes(self) -> list[int]:
        """Number of simplices of each dimension, from 0 up."""
        if self._given is not None:
            return list(map(len, self._given))
        return [len(layer.values) for layer in self._layers]

    def layer(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Layer k in lexicographic order: its values and, for k >= 1, the
        positions of each simplex's facets in layer k-1.  A layer given as
        entries looks its facets up on the first read; a missing facet
        raises InvalidInput, since the filtration is then not
        face-monotone."""
        layers = self._lex()
        layer = layers[k]
        if k and layer.facets is None:
            position = {s: j for j, s in enumerate(layers[k - 1].simplices)}
            facets = itertools.chain.from_iterable(
                map(itertools.combinations, layer.simplices, itertools.repeat(k))
            )
            count = len(layer.values) * (k + 1)
            try:
                flat = np.fromiter(map(position.__getitem__, facets), np.intp, count)
            except KeyError:
                raise InvalidInput("filtration is not face-monotone") from None
            layer.facets = flat.reshape(-1, k + 1)
        return layer.values, layer.facets

    @property
    def entries(self) -> list[tuple[tuple, float]]:
        """(simplex, value) pairs sorted by (value, dimension, simplex): a
        stable sort of the values of the layers laid end to end."""
        layers = self._lex()
        if not layers:
            return []
        values = np.concatenate([layer.values for layer in layers])
        simplices = [s for layer in layers for s in layer.simplices]
        values_list = values.tolist()
        return [(simplices[j], values_list[j]) for j in np.argsort(values, kind="stable").tolist()]

    def span(self) -> tuple[float, float]:
        """The first and the last value of a nonempty filtration."""
        if self._span is None:
            if self._given is not None:
                filled = [given.values() for given in self._given if given]
            else:
                filled = [layer.values.tolist() for layer in self._layers if len(layer.values)]
            self._span = min(map(min, filled)), max(map(max, filled))
        return self._span

    def value_of(self) -> dict[tuple[int, ...], float]:
        if self._given is None:
            return {
                s: v for layer in self._layers for s, v in zip(layer.simplices, layer.values.tolist())
            }
        out: dict = {}
        for given in self._given:
            out.update(given)
        return out

    @property
    def simplices(self) -> set[tuple[int, ...]]:
        return set(self.value_of())

    def complex_at(self, alpha: float, tol: float = 0.0) -> set[tuple[int, ...]]:
        return {s for s, v in self.value_of().items() if v <= alpha + tol}


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


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The blocks of a layer as one array (a lone block as it is)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _complete(layers: list[_Layer], vertices, i: int, kmax: int) -> Filtration:
    """The i-completion up to kmax: `layers` hold every simplex on the
    sorted `vertices` up to dimension i, lexicographically.  Each higher
    layer is the max of its facet values, which is exactly the max over
    its i-faces; max rounds nothing, so the values are those of a
    per-simplex loop bit for bit.
    """
    m = len(vertices)
    values = layers[i].values
    for k in range(i + 1, min(kmax, m - 1) + 1):
        tables = [F for _, F in _layer_blocks(m, k, k + 1)]
        values = _joined([values[F].max(axis=1) for F in tables])
        layers.append(_Layer(_Combinations(vertices, k + 1), values, _joined(tables)))
    return Filtration._of_layers(layers, vertices)


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
    vertices = range(n)
    centers, values = pts, np.zeros(n)
    layers = [_Layer(_Combinations(vertices, 1), values)]
    top = min(kmax, n - 1, pts.shape[1])
    for k in range(1, top + 1):
        centers, values, facets = _cech_layer(pts, k, centers, values, k < top)
        layers.append(_Layer(_Combinations(vertices, k + 1), values, facets))
    return _complete(layers, vertices, top, kmax)


def _cech_layer(pts, k: int, centers, values, keep: bool):
    """Balls of the k-simplices, from those of the (k-1)-simplices: their
    centers (None unless `keep`), values and facet table, in combinations
    order."""
    n, d = pts.shape
    layer_centers, layer_values, tables = [], [], []
    for S, F in _layer_blocks(n, k, (k + 1) * d):
        tables.append(F)
        if k == 1:
            a, b = pts[S[:, 0]], pts[S[:, 1]]
            c = a + 0.5 * (b - a)
            v = np.array([0.5 * math.dist(p, q) for p, q in zip(a.tolist(), b.tolist())])
        else:
            c, v = _facet_or_support_balls(pts[S], centers[F], values[F])
        layer_values.append(v)
        if keep:
            layer_centers.append(c)
    return (_joined(layer_centers) if keep else None), _joined(layer_values), _joined(tables)


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
    vertices = range(n)
    layers = [_Layer(_Combinations(vertices, 1), np.zeros(n))]
    if kmax < 1 or n < 2:
        return Filtration._of_layers(layers, vertices)
    edges = np.concatenate(list(_row_distances(pts)))
    facets = _joined([F for _, F in _layer_blocks(n, 1, 2)])
    layers.append(_Layer(_Combinations(vertices, 2), edges, facets))
    return _complete(layers, vertices, 1, kmax)


def completion(filt: Filtration, i: int, kmax: int) -> Filtration:
    """i-completion: the maximal filtration sharing filt's i-skeleton.

    Simplices of dimension <= i keep their values, a higher one enters at the
    max of its i-faces' values; filt must hold every i-simplex on its vertices.
    Of Cech, the 1-completion (delta = 2, every eps >= sqrt(2)-1) is Rips at
    half the edge lengths; for i >= kmax (delta-1 >= pmax+1) it is Cech up to kmax.
    """
    if i < 1:
        raise InvalidInput(f"completion order must be >= 1, got {i}")
    layers = filt._lex()
    vertices = filt._vertices
    if vertices is None:  # given as entries
        vertices = sorted({v for layer in layers for s in layer.simplices for v in s})
    n = len(vertices)
    # Simplices are sorted tuples of distinct labels, each at most once, so
    # a layer holds every k-simplex on the vertices iff it holds C(n, k+1).
    sizes = filt.layer_sizes
    if any(k >= len(sizes) or sizes[k] != math.comb(n, k + 1) for k in range(min(i, n - 1) + 1)):
        raise InvalidInput("input filtration is missing part of its i-skeleton")
    top = min(i, kmax, n - 1)
    layers = layers[: top + 1]
    if top == min(kmax, n - 1):
        return Filtration._of_layers(layers, vertices)
    return _complete(layers, vertices, i, kmax)


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
