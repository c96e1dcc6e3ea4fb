import bisect
import importlib.util
import itertools
import math
import os
import random
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import cechkit.approx as approx_module
from cechkit.approx import ApproxComplex
from cechkit.complexes import Filtration
from cechkit.errors import InvalidInput
from cechkit.geometry import TAU_GEOM, _pivot, covers, meb
from cechkit.homology import INF, PersistenceDiagram, SComplex, Tower, VertexMap
from cechkit.quadtree import Cell, cell_index_of, dyadic_height

# Hypothesis caches the literals it finds in local source files under its
# storage directory, even with database=None; keep that cache out of the
# working tree, in a directory removed when the test run exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Equilateral triangle with circumradius sqrt(4/3); used all over the suite.
TRIANGLE = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, np.sqrt(3.0)]])


@pytest.fixture
def triangle():
    return TRIANGLE.copy()


def random_cloud(rng, n, d, box=1.0):
    """Uniform points in a box, resampled until pairwise distinct."""
    while True:
        pts = rng.uniform(0.0, box, size=(n, d))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        if n < 2 or dist[np.triu_indices(n, 1)].min() > 1e-6:
            return pts


def large_support_clouds():
    """Gaussian clouds in R^3-R^6, three per dimension, whose meb supports
    hold 4 or more points."""
    rng = np.random.default_rng(71)
    for d in range(3, 7):
        found = 0
        while found < 3:
            pts = rng.standard_normal((int(rng.integers(8, 13)), d))
            if len(meb(pts).support) >= 4:
                found += 1
                yield pts


def is_face_monotone(filt):
    """Every facet of every entry is present and enters no later than it,
    up to 1e-12 (the check `persist_filtration` makes)."""
    values = filt.value_of()
    for s, v in filt.entries:
        if len(s) == 1:
            continue
        for face in itertools.combinations(s, len(s) - 1):
            if face not in values or values[face] > v + 1e-12:
                return False
    return True


def filtration_max_dim(filt):
    """Largest simplex dimension of a filtration; -1 when it is empty."""
    return max((len(s) - 1 for s, _ in filt.entries), default=-1)


def cell_lo(cell):
    """Lower corner of a quadtree cell."""
    return tuple(i * cell.side for i in cell.index)


def contains_point(cell, x):
    """Is x in the cell's half-open box?"""
    return cell_index_of(x, cell.height) == cell.index


def cells_at(qt, h):
    """The nonempty height-h cells of a quadtree, sorted by index."""
    return [Cell(h, idx) for idx in sorted(qt.level(h))]


def bench_module(name):
    """bench/<name>.py, loaded by path under the name bench_<name>, so the
    tests can run the benchmark's own ops and checks without putting
    bench/ on sys.path."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]


# ---------------------------------------------------------------------------
# numpy references for the meb kernel: Welzl over Gram solves


def _ref_circumball(boundary):
    pts = np.asarray(boundary, dtype=float)
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), 0.0
    V = pts[1:] - p0
    if len(V) == 1:
        center = p0 + 0.5 * V[0]
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


def _ref_covers(center, radius, q):
    v = q - center
    return math.sqrt(v @ v) <= radius * (1.0 + 1e-10) + 1e-14


def _ref_welzl(pts, boundary, d):
    center, radius = _ref_circumball(boundary)
    if len(boundary) == d + 1:
        return center, radius
    for i, q in enumerate(pts):
        if not _ref_covers(center, radius, q):
            center, radius = _ref_welzl(pts[: i + 1], boundary + [q], d)
    return center, radius


def ref_meb_ball(points):
    """(center, radius): numpy Welzl with the fixed-seed shuffle that
    `meb` ran before its pivot loop."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    order = list(range(len(pts)))
    random.Random(0x5EB1).shuffle(order)
    shuffled = [pts[i] for i in order]
    center, radius = shuffled[0].copy(), 0.0
    for i, p in enumerate(shuffled):
        if not _ref_covers(center, radius, p):
            center, radius = _ref_welzl(shuffled[:i], [p], d)
    return center, radius


def ref_meb(points):
    """(radius, support, boundary): `ref_meb_ball` and the library's
    support certificate; `boundary` is every point the certificate
    accepts as on the sphere, in its order."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n == 1:
        return 0.0, (0,), [0]
    center, radius = ref_meb_ball(pts)
    dists = np.linalg.norm(pts - center, axis=1)
    boundary = [i for i in range(n) if abs(dists[i] - radius) <= radius * TAU_GEOM + 1e-12]
    return radius, tuple(boundary[: d + 1]), boundary


# ---------------------------------------------------------------------------
# the per-simplex routes of the filtration builders


def ref_completion(filt, i, kmax):
    """Each simplex above dimension i at the max over all its i-faces."""
    values = filt.value_of()
    vertices = sorted({v for s in values for v in s})
    entries = []
    for k in range(min(kmax, len(vertices) - 1) + 1):
        for s in itertools.combinations(vertices, k + 1):
            if k <= i:
                entries.append((s, values[s]))
            else:
                entries.append((s, max(values[f] for f in itertools.combinations(s, i + 1))))
    return Filtration(entries)


def ref_cech(pts, kmax):
    """Facet-ball inheritance in every dimension: an edge's ball is its
    midpoint and half its length; above that a circumball solve for
    k <= d and a Welzl fallback (also for k > d), both on the numpy
    references above."""
    n, d = pts.shape
    rows = [tuple(p) for p in pts.tolist()]
    balls = {(i,): (rows[i], 0.0) for i in range(n)}
    entries = [(s, 0.0) for s in balls]
    for k in range(1, min(kmax, n - 1) + 1):
        prev, balls = balls, {}
        for s in itertools.combinations(range(n), k + 1):
            facets = [s[:j] + s[j + 1 :] for j in range(k + 1)]
            for facet, opposite in zip(facets, s):
                if covers(*prev[facet], rows[opposite]):
                    ball = prev[facet]
                    break
            else:
                vertices = [rows[i] for i in s]
                ball = None
                if k == 1:  # the midpoint and half the distance, exactly
                    a, b = vertices
                    ball = (tuple(x + 0.5 * (y - x) for x, y in zip(a, b)), 0.5 * math.dist(a, b))
                elif k <= d:
                    center, radius = _ref_circumball(vertices)
                    nearest = min(math.dist(center, v) for v in vertices)
                    if radius - nearest <= radius * TAU_GEOM + 1e-12:
                        ball = (tuple(center.tolist()), radius)
                if ball is None:
                    center, radius = ref_meb_ball(vertices)
                    ball = (tuple(center.tolist()), radius)
            value = max(ball[1], max(prev[f][1] for f in facets))
            balls[s] = (ball[0], value)
            entries.append((s, value))
    return Filtration(entries)


# ---------------------------------------------------------------------------
# towers as one complex per scale, the form the tower had before it held one
# filtration per complex, and the coned walk over that form: the oracle of
# `homology.Tower` and `homology._coned_filtration`


@dataclass
class ScaleTower:
    """Complexes at strictly increasing scales linked by vertex maps; with
    `births_at_zero` the first complex counts as entered at 0."""

    complexes: list
    maps: list
    scales: list
    births_at_zero: bool = False

    def values(self) -> list:
        """The scale at which each complex enters."""
        return [0.0 if i == 0 and self.births_at_zero else s for i, s in enumerate(self.scales)]

    def tower(self) -> Tower:
        """The same tower as a `Tower`: each complex whole at its scale."""
        values = zip(self.complexes, self.values())
        return Tower([Filtration([(s, v) for s in K.simplices]) for K, v in values], self.maps)


def per_scale(tower: Tower) -> ScaleTower:
    """A `Tower` as one complex per value of its filtrations, each joined to
    the next by the identity inside a filtration and by the tower's map
    between two."""
    complexes, maps, scales = [], [], []
    for i, K in enumerate(tower.complexes):
        for j, v in enumerate(sorted({v for _, v in K.entries})):
            L = SComplex(K.complex_at(v))
            if complexes:
                prev = complexes[-1]
                mapping = tower.maps[i - 1].mapping if j == 0 else {x: x for x in prev.vertices()}
                maps.append(VertexMap(prev, L, mapping))
            complexes.append(L)
            scales.append(v)
    return ScaleTower(complexes, maps, scales)


def ref_coned_filtration(tower: ScaleTower) -> dict:
    """Coned filtration of a per-scale tower in every dimension: every map
    checked over its own domain and codomain, each fibre listed from the
    domain, and each complex relabelled whole at its scale."""
    value, ids, fresh, current = {}, {}, itertools.count(), set()
    for i, (K, scale) in enumerate(zip(tower.complexes, tower.values())):
        if i > 0:
            f = tower.maps[i - 1]
            if not f.is_simplicial():
                raise InvalidInput("map is not simplicial")
            fibres = {}
            for x in tower.complexes[i - 1].vertices():
                fibres.setdefault(f.mapping[x], []).append(ids[x])
            ids = {}
            for w, (v, *rest) in fibres.items():
                for u in rest:
                    star_u = [s for s in current if u in s]
                    star_v = [s for s in current if v in s]
                    if len(star_u) > len(star_v):
                        u, v, star_u = v, u, star_v
                    for s in star_u:
                        for k in range(1, len(s) + 1):
                            for face in itertools.combinations(s, k):
                                value.setdefault(tuple(sorted({*face, v})), scale)
                    current.difference_update(star_u)
                    current.update(tuple(sorted({v if x == u else x for x in s})) for s in star_u)
                ids[w] = v
        for x in K.vertices():
            if x not in ids:
                ids[x] = next(fresh)
        current = {tuple(sorted(ids[x] for x in s)) for s in K.simplices}
        for s in current:
            value.setdefault(s, scale)
    return value


# ---------------------------------------------------------------------------
# the persistence engines before the present one, kept as its oracles


def ref_persist(filt, pmax):
    """Boundary-matrix column reduction of the (pmax+1)-skeleton, bitset
    columns over global positions, that records every low, then reads the
    pairs and the unpaired simplices in two more loops."""
    entries = [e for e in filt.entries if len(e[0]) <= pmax + 2]
    position = {s: i for i, (s, _) in enumerate(entries)}
    columns = [
        sum(1 << position[f] for f in itertools.combinations(s, len(s) - 1)) if len(s) > 1 else 0
        for s, _ in entries
    ]
    low_of, lows = {}, [None] * len(entries)
    for j in range(len(entries)):
        col = columns[j]
        while col and (col.bit_length() - 1) in low_of:
            col ^= columns[low_of[col.bit_length() - 1]]
        columns[j] = col
        if col:
            low_of[col.bit_length() - 1] = j
            lows[j] = col.bit_length() - 1
    dgm, paired = PersistenceDiagram(), set()
    for j, low in enumerate(lows):
        if low is None:
            continue
        paired.update((low, j))
        p = len(entries[low][0]) - 1
        if p <= pmax and entries[low][1] < entries[j][1]:
            dgm.add(p, entries[low][1], entries[j][1])
    for j, (s, v) in enumerate(entries):
        if j not in paired and lows[j] is None and len(s) - 1 <= pmax:
            dgm.add(len(s) - 1, v, INF)
    return dgm


def ref_cohomology(filt, pmax):
    """Persistent cohomology with clearing over the sorted (simplex, value)
    entries: one pass checks every entry's facets through a simplex ->
    value dict and lists each (pmax+1)-skeleton simplex's cofacets, by
    position in their dimension, in a simplex -> list dict."""
    top = max(pmax + 1, 0)
    entries = filt.entries
    value = dict(entries)
    layers = [[] for _ in range(top + 1)]  # k -> its entries, in order
    cofacets = defaultdict(list)  # simplex -> its cofacets' positions in their layer
    try:
        for entry in entries:
            s, v = entry
            k = len(s) - 1
            if not k:
                layers[0].append(entry)
                continue
            facets = itertools.combinations(s, k)
            if k <= top:
                facets = tuple(facets)
            if max(map(value.__getitem__, facets)) > v + 1e-12:
                raise InvalidInput("filtration is not face-monotone")
            if k <= top:
                j = len(layers[k])
                layers[k].append(entry)
                for f in facets:
                    cofacets[f].append(j)
    except KeyError:  # a missing facet
        raise InvalidInput("filtration is not face-monotone") from None

    dgm = PersistenceDiagram()
    cleared = {}
    for p in range(pmax + 1):
        pivots = {}  # cofacet position -> the reduced column whose pivot it is
        above = layers[p + 1]
        points = []
        for i in range(len(layers[p]) - 1, -1, -1):
            if i in cleared:
                continue
            s, birth = layers[p][i]
            col = cofacets.get(s)
            if col:
                low = col[0]
                if low in pivots:
                    col = set(col)
                    while True:
                        col.symmetric_difference_update(pivots[low])
                        if not col:
                            break
                        low = min(col)
                        if low not in pivots:
                            break
            if col:
                pivots[low] = col
                death = above[low][1]
                if birth < death:
                    points.append((birth, death))
            else:
                points.append((birth, INF))
        if points:
            dgm.points[p] = points
        cleared = pivots
    return dgm


# ---------------------------------------------------------------------------
# build_A as it grew every tuple through one loop, kept as the oracle of the
# per-dimension passes: a pair's radius and every bracket from `ref_bracket`,
# each tuple settled by `ref_settle`, which solves through
# `approx.meb_of_cells`, so a spy there sees the oracle's solves too


def ref_pair_radius(a, b, half):
    """meb radius of two cells of one height and half side `half`: their
    union is centrally symmetric, so its ball is the diametral ball of two
    opposite corners."""
    q = 0
    for i, j in zip(a.index, b.index):
        g = abs(i - j) + 1
        q += g * g
    return half * math.sqrt(q)


def ref_centre_radius(t):
    """meb radius of the centres of three or more cells of one height: the
    closed form in the integer squared sides for three, the pivot loop for
    more."""
    side = t[0].side
    if len(t) == 3:
        ab = bc = ac = 0
        a, b, c = t
        for i, j, k in zip(a.index, b.index, c.index):
            ab += (i - j) * (i - j)
            bc += (j - k) * (j - k)
            ac += (i - k) * (i - k)
        x, y, z = sorted((ab, bc, ac))
        if z >= x + y:
            return side * 0.5 * math.sqrt(z)
        return side * math.sqrt(x * y * z / (2 * (x * y + y * z + z * x) - x * x - y * y - z * z))
    return _pivot([tuple((i + 0.5) * side for i in c.index) for c in t])[1]


def ref_bracket(t, facets, half, half_diag):
    """[lo, hi] holding the value of a tuple of cells of one height: a
    pair's radius, else the centres' radius widened by the cells' in- and
    circumradii, raised to the facets' brackets and moved out by 1e-9."""
    if len(t) == 2:
        radius = ref_pair_radius(t[0], t[1], half)
        return radius, radius
    r_c = ref_centre_radius(t)
    lo, hi = r_c + half, r_c + half_diag
    for f_lo, f_hi in facets:
        if f_lo > lo:
            lo = f_lo
        if f_hi > hi:
            hi = f_hi
    return lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)


def ref_settle(t, bracket, theta, facets):
    """t's bracket if t is in D at theta, else None, solving t's union
    only when lo <= theta < hi."""
    lo, hi = bracket
    if theta < lo:
        return None
    if theta >= hi:
        return bracket
    radius = approx_module.meb_of_cells(t).radius
    if radius > theta:
        return None
    return max(radius, *(f[0] for f in facets)), max(radius, *(f[1] for f in facets))


def ref_grown_A(qt, wssd, alpha, eps):
    """D_alpha with each simplex's bracket and entry scale: sorted tuples
    grow one cell at a time, a vertex by a later cell of its own or an
    adjacent bucket and a larger tuple by a later cell with an edge to its
    last cell, each tried when all its facets are in; each bracket is
    `ref_bracket`'s, looked up as a module global per tuple."""
    if abs(wssd.epsilon - eps / 12.0) > 1e-12 * eps:
        raise InvalidInput("WSSD must be built with parameter eps/12")
    params = approx_module._grid_params(qt, alpha, eps)
    h, theta_k = params.h_alpha, params.theta_k
    thetas = approx_module._height_scales(params, qt.d)
    top = dyadic_height(theta_k) + 2
    later = {}
    for a, group in qt.buckets(h, top).items():
        near = sorted(qt.near(Cell(top, a), h))
        for c in group:
            later[c] = near[bisect.bisect_right(near, c) :]
    half = 0.5 * 2.0**h
    half_diag = half * math.sqrt(qt.d)
    values = {(c,): (0.0, 0.0) for c in later}
    entries = dict.fromkeys(values, thetas[0])
    up = {c: [] for c in later}
    layer = list(values)
    for _ in range(wssd.kmax):
        grown = []
        for s in layer:
            for c in later[s[0]] if len(s) == 1 else up[s[-1]]:
                t = s + (c,)
                try:
                    facets = [values[f] for f in itertools.combinations(t, len(s))]
                except KeyError:
                    continue
                bracket = ref_settle(t, ref_bracket(t, facets, half, half_diag), theta_k, facets)
                if bracket is None:
                    continue
                values[t] = bracket
                grown.append(t)
                if len(t) == 2:
                    up[s[0]].append(c)
                faces = itertools.combinations(t, len(s))
                j = bisect.bisect_left(thetas, max(bracket[0], *map(entries.__getitem__, faces)))
                while thetas[j] < bracket[1] and ref_settle(t, bracket, thetas[j], facets) is None:
                    j += 1
                entries[t] = thetas[j]
        layer = grown
    return ApproxComplex(alpha, params, SComplex(set(values)), values, entries)
