"""Approximation complexes over grid cells, and the maps between them.

Scales are discretized into intervals [theta_l, theta_{l+1}) with
theta_l = (1 + eps/2)^l; the complex is constant on each interval, so a
tower evaluated at the theta values captures the whole module.  The
complexes at the scales of one grid height are nested, so the tower
holds one filtration per height, and the connecting map g joins two
heights only.  `build_A` enumerates a height's complex at one scale and
records, as it accepts each simplex, the first scale of the height at
which the simplex is in, so a height is enumerated and valued in one
pass.

The complex at scale alpha is D_alpha (see `build_A`).  It equals the
paper's projection of an eps/12-WSSD to the grid on every cloud checked,
and geometry alone interleaves it with the Cech tower:
- psi: a cell's representative point lies in the cell;
- phi: meb(cells) <= r + sqrt(d) 2^h < theta_k ((1+eps/2)/(1+eps) + eps/3),
  which is <= theta_k for eps <= 1/2; eps in (1/2, 1) is checked by a
  seeded test of the maps and the tower's (1+eps)-approximation instead;
- g: theta_k + eps theta_{k+1}/3 <= theta_{k+1} for every eps < 1.

A tuple of cells is in D_alpha when its union's meb radius is <= theta_k.
Each simplex carries a certified bracket of that radius, exact for a
pair of cells and narrower than a scale step for more, so the union is
solved only at the one scale its bracket may hold, if any.  A pair's
radius and three cells' centre radius are closed forms in their integer
index differences; only four or more cells run the meb pivot loop.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import Filtration, cech_filtration
from .errors import InvalidInput
from .geometry import _pivot, meb, meb_of_cells, min_pairwise_distance
from .homology import SComplex, Tower, VertexMap
from .quadtree import Cell, Quadtree, cell_index_of, dyadic_height, qcell
from .wssd import WSSD

# Relative margins of a cell tuple's radius bracket (see `build_A`).
_LO, _HI = 1.0 - 1e-9, 1.0 + 1e-9

# Most scales a tower may have.  The default range holds about
# log(spread)/log(1 + eps/2) of them, 69323 on a right triangle at eps=1e-5.
MAX_TOWER_SCALES = 100_000


def _theta(eps: float, ell: int) -> float:
    """(1 + eps/2)^l; inf where it overflows, so above every finite alpha."""
    try:
        return (1.0 + eps / 2.0) ** ell
    except OverflowError:
        return math.inf


def theta_value(eps: float, ell: int) -> float:
    """theta_l = (1 + eps/2)^l, the l-th discretized scale."""
    theta = _theta(eps, ell)
    if not 0.0 < theta < math.inf:
        raise InvalidInput(f"theta_l = (1 + eps/2)^l is not a positive finite float at l={ell}")
    return theta


@dataclass(frozen=True)
class ScaleParams:
    eps: float
    alpha: float
    k_alpha: int
    h_alpha: int

    @property
    def theta_k(self) -> float:
        return theta_value(self.eps, self.k_alpha)


def scale_params(alpha: float, eps: float, d: int) -> ScaleParams:
    """k_alpha with theta_k <= alpha < theta_{k+1}, and the grid height
    h_alpha with 2^h <= eps*theta_k/(3*sqrt(d)) < 2^(h+1)."""
    if not 0.0 < alpha < math.inf:
        raise InvalidInput(f"alpha must be positive and finite, got {alpha}")
    if not (0.0 < eps < 1.0 and 1.0 + eps / 2.0 > 1.0):  # else log(1 + eps/2) is 0
        raise InvalidInput(f"eps must be in (0,1) with 1 + eps/2 > 1, got eps={eps!r}")
    k = int(math.floor(math.log(alpha) / math.log(1.0 + eps / 2.0)))
    while _theta(eps, k) > alpha:
        k -= 1
    while _theta(eps, k + 1) <= alpha:
        k += 1
    h = dyadic_height(eps * theta_value(eps, k) / (3.0 * math.sqrt(d)))
    return ScaleParams(eps, alpha, k, h)


def _height_scales(params: ScaleParams, d: int) -> list[float]:
    """theta_l for every l <= k_alpha whose grid height is h_alpha, in
    ascending order: heights never decrease with l, so they are a run
    ending at k_alpha.  Each l's height is worked out as in
    `scale_params`."""
    eps, ell = params.eps, params.k_alpha
    while True:
        x = eps * _theta(eps, ell - 1) / (3.0 * math.sqrt(d))  # 0 if theta underflows
        if x == 0.0 or dyadic_height(x) != params.h_alpha:
            break
        ell -= 1
    return [theta_value(eps, i) for i in range(ell, params.k_alpha + 1)]


@dataclass
class ApproxComplex:
    """Complex over the height-h_alpha grid cells at a fixed scale."""

    alpha: float
    params: ScaleParams
    complex: SComplex  # vertex labels are Cell objects
    # simplex -> (lo, hi), a bracket of its value: the largest meb radius
    # over the cell unions of its faces of two or more cells ((0, 0) for a
    # vertex); None if not recorded
    values: dict | None = None
    # simplex -> the first scale theta_l <= theta_k of its grid height at
    # which it is in D; None if not recorded
    entries: dict | None = None

    @property
    def h(self) -> int:
        return self.params.h_alpha


def _grid_params(qt: Quadtree, alpha: float, eps: float) -> ScaleParams:
    """scale_params at alpha, on a grid whose cell indices stay finite."""
    params = scale_params(alpha, eps, qt.d)
    if params.h_alpha < qt.L - 1024:  # cell indices below 2^(L-h) must stay finite floats
        raise InvalidInput(
            f"grid height {params.h_alpha} at l={params.k_alpha} is too fine for the cloud"
        )
    return params


def _pair_radius(a: Cell, b: Cell, half: float) -> float:
    """meb radius of two cells of one height and half side `half`: their
    union is centrally symmetric, so its ball is the diametral ball of two
    opposite corners."""
    q = 0
    for i, j in zip(a.index, b.index):
        g = abs(i - j) + 1
        q += g * g
    return half * math.sqrt(q)


def _centre_radius(t: tuple) -> float:
    """meb radius r_c of the centres of three or more cells of one height.

    Three centres are solved in closed form from the exact integer
    squared sides x <= y <= z of their index triangle: the ball on the
    longest side, r_c/s = sqrt(z)/2, when z >= x + y (right, obtuse or
    collinear), else the circumball, r_c/s = sqrt(xyz / 16A^2) with
    16A^2 = 2(xy + yz + zx) - x^2 - y^2 - z^2 (Heron).  More centres go
    through the pivot loop."""
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


def _bracket(t: tuple, facets: list, half: float, half_diag: float) -> tuple[float, float]:
    """[lo, hi] holding the value of a tuple of cells of one height, given
    its facets' brackets (see `build_A`): a pair's radius in closed form,
    else the centres' radius r_c, closed form for three cells, widened by
    the cells' in- and circumradii.  half = s/2 and half_diag = s sqrt(d)/2
    for the cells' side s, fixed for a whole height."""
    if len(t) == 2:
        radius = _pair_radius(t[0], t[1], half)
        return radius, radius
    r_c = _centre_radius(t)
    lo, hi = r_c + half, r_c + half_diag
    for f_lo, f_hi in facets:
        if f_lo > lo:
            lo = f_lo
        if f_hi > hi:
            hi = f_hi
    return lo * _LO, hi * _HI


def _settle(t: tuple, bracket: tuple, theta: float, facets: list) -> tuple[float, float] | None:
    """t's bracket if t is in D at theta, else None; t's facets, whose
    brackets are `facets`, must be in D at theta.  A bracket decides alone
    unless lo <= theta < hi; then t's union is solved, and the bracket
    becomes its radius raised to its facets' brackets."""
    lo, hi = bracket
    if theta < lo:
        return None
    if theta >= hi:
        return bracket
    radius = meb_of_cells(t).radius
    if radius > theta:
        return None
    return max(radius, *(f[0] for f in facets)), max(radius, *(f[1] for f in facets))


def build_A(qt: Quadtree, wssd: WSSD, alpha: float, eps: float) -> ApproxComplex:
    """D_alpha: the nonempty height-h_alpha cells, and every tuple of up to
    wssd.kmax + 1 of them whose union has meb radius <= theta_{k_alpha},
    each with the first scale of its height at which it is in D.

    Sorted tuples grow one cell at a time and are tried only when all
    their facets are in, so the complex is closed by construction; a
    tuple of two or more cells grows only by a later cell that has an
    edge to its last cell, as every other coface misses a face.  A
    simplex's value is the max of its union's radius and its facet
    values, so it lies in D at every theta_k >= its value.  Each simplex
    keeps a bracket [lo, hi] of its value instead (`_bracket`):
    - two cells of side s = 2^h: the radius in closed form, lo = hi;
    - more cells, whose centres have meb radius r_c (`_centre_radius`:
      closed form for three cells, the pivot loop for more): the union
      holds each cell's inscribed ball and lies within their
      circumscribed balls, so its radius is in
      [r_c + s/2, r_c + s sqrt(d)/2].  Raised to the facets' brackets
      and moved out by 1e-9 relative, more than the pivot loop's 1e-10
      slack, these ends hold the value that `meb_of_cells` gives, so a
      theta outside [lo, hi) decides the tuple as that value would.
    A tuple's union is solved (`meb_of_cells`) only at a theta in [lo, hi)
    (`_settle`).  A bracket is about s (sqrt(d) - 1)/2 < eps theta/6 wide
    for every theta of height h, under the scale step eps theta/2, so it
    holds at most one of them, and each tuple is solved at most once.
    D only grows with theta inside one height, so a tuple accepted at
    theta_k enters at the first of the height's scales (`_height_scales`)
    that is at least its bracket's lo and its facets' entries and that
    `_settle` admits; that scale is found as the tuple is accepted, with
    its settled bracket, so a union solved at theta_k is not solved
    again.  A vertex enters at the height's first scale.
    Only epsilon and kmax are read from the WSSD, which must be built at
    eps/12, so its tuples are never built here (see `build_wssd`).
    """
    if abs(wssd.epsilon - eps / 12.0) > 1e-12 * eps:
        raise InvalidInput("WSSD must be built with parameter eps/12")
    params = _grid_params(qt, alpha, eps)
    h, theta_k = params.h_alpha, params.theta_k
    thetas = _height_scales(params, qt.d)

    # The cells of a simplex are within 2 theta_k <= 2^top of each other,
    # so their ancestors at height `top` are equal or adjacent.
    top = dyadic_height(theta_k) + 2
    later = {}  # cell -> the larger cells in its own and adjacent buckets
    for a, group in qt.buckets(h, top).items():
        near = sorted(qt.near(Cell(top, a), h))
        for c in group:
            later[c] = near[bisect.bisect_right(near, c):]

    half = 0.5 * 2.0**h
    half_diag = half * math.sqrt(qt.d)
    values = {(c,): (0.0, 0.0) for c in later}
    entries = dict.fromkeys(values, thetas[0])
    up = {c: [] for c in later}  # cell -> the later cells it has an edge to
    layer = list(values)
    for _ in range(wssd.kmax):
        grown = []
        for s in layer:
            for c in later[s[0]] if len(s) == 1 else up[s[-1]]:
                t = s + (c,)
                try:
                    facets = [values[f] for f in itertools.combinations(t, len(s))]
                except KeyError:  # a facet is not in
                    continue
                bracket = _settle(t, _bracket(t, facets, half, half_diag), theta_k, facets)
                if bracket is None:
                    continue
                values[t] = bracket
                grown.append(t)
                if len(t) == 2:
                    up[s[0]].append(c)
                faces = itertools.combinations(t, len(s))
                j = bisect.bisect_left(thetas, max(bracket[0], *map(entries.__getitem__, faces)))
                while thetas[j] < bracket[1] and _settle(t, bracket, thetas[j], facets) is None:
                    j += 1
                entries[t] = thetas[j]
        layer = grown
    return ApproxComplex(alpha, params, SComplex(set(values)), values, entries)


def map_g(a1: ApproxComplex, a2: ApproxComplex) -> VertexMap:
    """Connecting map: a grid cell goes to its ancestor at the coarser height."""
    if a1.alpha > a2.alpha:
        raise InvalidInput("map_g requires alpha1 <= alpha2")
    mapping = {s[0]: qcell(s[0], a2.h) for s in a1.complex.simplices if len(s) == 1}
    return VertexMap(a1.complex, a2.complex, mapping)


def cech_complex_at(points, alpha: float, kmax: int) -> SComplex:
    filt = cech_filtration(points, kmax)
    return SComplex(filt.complex_at(alpha, tol=1e-12))


def map_phi(points, a: ApproxComplex, eps: float, kmax: int = None) -> VertexMap:
    """Cross map from the Cech complex at alpha/(1+eps) into the grid complex."""
    pts = np.asarray(points, dtype=float)
    if kmax is None:
        # A-complexes carry no simplex above dimension d, so the domain is
        # capped at the d-skeleton; homology below dimension d is unaffected.
        kmax = pts.shape[1]
    domain = cech_complex_at(pts, a.alpha / (1.0 + eps), kmax)
    h = a.h
    mapping = {v: Cell(h, cell_index_of(pts[v], h)) for v in domain.vertices()}
    return VertexMap(domain, a.complex, mapping)


def map_psi(qt: Quadtree, a: ApproxComplex, kmax: int = None) -> VertexMap:
    """Cross map sending a grid cell to its representative point."""
    if kmax is None:
        kmax = qt.d
    codomain = cech_complex_at(qt.cloud.points, a.alpha, kmax)
    mapping = {cell: qt.rep(cell) for cell in a.complex.vertices()}
    return VertexMap(a.complex, codomain, mapping)


def tower_scale_range(qt: Quadtree, eps: float) -> tuple[int, int]:
    """Theta exponents spanning [min pair radius / (1+eps), rad(S)*(1+eps)]."""
    pts = qt.cloud.points
    if pts.shape[0] < 2:
        return (0, 0)
    lo_val = (min_pairwise_distance(pts) / 2.0) / (1.0 + eps)
    hi_val = meb(pts).radius * (1.0 + eps)
    base = math.log(1.0 + eps / 2.0)
    if base == 0.0:
        raise InvalidInput(f"eps={eps!r} is too small: 1 + eps/2 rounds to 1")
    ell_min = int(math.floor(math.log(lo_val) / base)) - 1
    ell_max = int(math.ceil(math.log(hi_val) / base)) + 1
    return ell_min, ell_max


def build_tower(qt: Quadtree, wssd: WSSD, eps: float, ell_range: tuple[int, int]) -> Tower:
    """Tower of approximation complexes at scales theta_l for l in ell_range.

    The heights h_alpha never decrease with l, so the scales of one height
    form a run, over which D_alpha only grows.  Each run is one complex,
    one `build_A` at its largest scale, which values each simplex at the
    scale it enters; `map_g` links consecutive runs at the first scale of
    the later one.  Only the first run can start inside its height, so
    its values are raised to its first scale.  Its vertices then enter at
    0 when, one per point, they alone are in at that scale, since the
    module is then constant on the whole interval (0, theta_{ell_min}].
    """
    ell_min, ell_max = ell_range
    if ell_max < ell_min:
        raise InvalidInput("empty scale range")
    count = ell_max - ell_min + 1
    if count > MAX_TOWER_SCALES:
        raise InvalidInput(
            f"eps={eps!r} and l in [{ell_min}, {ell_max}] give {count} scales, "
            f"above the limit of {MAX_TOWER_SCALES}"
        )
    # theta is monotone in l, so an unrepresentable scale shows at an end.
    theta_value(eps, ell_min), theta_value(eps, ell_max)
    # In ascending order, so a grid too fine is named at its smallest l.
    params = [_grid_params(qt, theta_value(eps, ell), eps) for ell in range(ell_min, ell_max + 1)]
    tops = [
        build_A(qt, wssd, list(run)[-1].alpha, eps)
        for _, run in itertools.groupby(params, key=lambda p: p.h_alpha)
    ]
    start = params[0].theta_k
    first = {s: max(v, start) for s, v in tops[0].entries.items()}
    vertices = [s for s in first if len(s) == 1]
    if len(vertices) == qt.cloud.n and all(v > start for s, v in first.items() if len(s) > 1):
        first.update(dict.fromkeys(vertices, 0.0))
    entries = [first] + [a.entries for a in tops[1:]]
    maps = [map_g(a, b) for a, b in zip(tops, tops[1:])]
    return Tower([Filtration(list(e.items())) for e in entries], maps)
