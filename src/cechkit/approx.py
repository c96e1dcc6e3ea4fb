"""Approximation complexes over grid cells, and the maps between them.

Scales are discretized into intervals [theta_l, theta_{l+1}) with
theta_l = (1 + eps/2)^l; the complex is constant on each interval, so a
tower evaluated at the theta values captures the whole module.  The
construction consumes a WSSD built at eps/12, exactly as the analysis
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import cech_filtration
from .errors import InvalidInput
from .geometry import meb, meb_of_cells, min_pairwise_distance
from .homology import SComplex, Tower, VertexMap
from .quadtree import Cell, Quadtree, cell_index_of, qcell
from .wssd import WSSD, _bracket_pow2


def theta_value(eps: float, ell: int) -> float:
    """theta_l = (1 + eps/2)^l, the l-th discretized scale."""
    return (1.0 + eps / 2.0) ** ell


@dataclass(frozen=True)
class ScaleParams:
    eps: float
    alpha: float
    k_alpha: int
    h_alpha: int

    def theta(self, ell: int) -> float:
        return theta_value(self.eps, ell)

    @property
    def theta_k(self) -> float:
        return self.theta(self.k_alpha)


def scale_params(alpha: float, eps: float, d: int) -> ScaleParams:
    """k_alpha with theta_k <= alpha < theta_{k+1}, and the grid height
    h_alpha with 2^h <= eps*theta_k/(3*sqrt(d)) <= 2^(h+1)."""
    if alpha <= 0.0:
        raise InvalidInput(f"alpha must be positive, got {alpha}")
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must be in (0,1), got {eps}")
    k = int(math.floor(math.log(alpha) / math.log(1.0 + eps / 2.0)))
    while theta_value(eps, k) > alpha:
        k -= 1
    while theta_value(eps, k + 1) <= alpha:
        k += 1
    h = _bracket_pow2(eps * theta_value(eps, k) / (3.0 * math.sqrt(d)))
    return ScaleParams(eps, alpha, k, h)


@dataclass
class ApproxComplex:
    """Complex over the height-h_alpha grid cells at a fixed scale."""

    alpha: float
    params: ScaleParams
    complex: SComplex  # vertex labels are Cell objects

    @property
    def h(self) -> int:
        return self.params.h_alpha


def build_A(
    qt: Quadtree,
    wssd: WSSD,
    alpha: float,
    eps: float,
    check_closure: bool = True,
    *,
    rad_cache: dict | None = None,
) -> ApproxComplex:
    """Approximation complex at scale alpha from an eps/12-WSSD.

    Every WST with all cells at height <= h_alpha is projected to the
    grid, and the projected tuple joins the complex if the radius of its
    cell union is at most theta_{k_alpha}.  All nonempty grid cells are
    vertices regardless.  `rad_cache` maps a projected cell tuple to the
    meb radius of its union; a caller building several scales of one
    WSSD passes one dict to all of them, since that radius does not
    depend on the scale.
    """
    if abs(wssd.epsilon - eps / 12.0) > 1e-12 * eps:
        raise InvalidInput("WSSD must be built with parameter eps/12")
    params = scale_params(alpha, eps, qt.d)
    h, theta_k = params.h_alpha, params.theta_k

    simplices: set[tuple[Cell, ...]] = set()
    for idx in qt.level(h):
        simplices.add((Cell(h, idx),))

    if rad_cache is None:
        rad_cache = {}
    for t in wssd.all_tuples():
        if any(c.height > h for c in t.cells):
            continue
        if t.rad > theta_k:  # projected radius only grows
            continue
        mapped = tuple(sorted({qcell(c, h) for c in t.cells}))
        if len(mapped) == 1:
            continue  # already a vertex
        if mapped in simplices:
            continue
        rad = rad_cache.get(mapped)
        if rad is None:
            rad = meb_of_cells(mapped).radius
            rad_cache[mapped] = rad
        if rad <= theta_k:
            simplices.add(mapped)

    K = SComplex(simplices)
    if check_closure and not K.is_closed():
        raise AssertionError("approximation complex is not closed under faces")
    return ApproxComplex(alpha, params, K)


def map_g(a1: ApproxComplex, a2: ApproxComplex) -> VertexMap:
    """Connecting map: a grid cell goes to its ancestor at the coarser height."""
    if a1.alpha > a2.alpha:
        raise InvalidInput("map_g requires alpha1 <= alpha2")
    mapping = {cell: qcell(cell, a2.h) for cell in a1.complex.vertices()}
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
    ell_min = int(math.floor(math.log(lo_val) / base)) - 1
    ell_max = int(math.ceil(math.log(hi_val) / base)) + 1
    return ell_min, ell_max


def build_tower(qt: Quadtree, wssd: WSSD, eps: float, ell_range: tuple[int, int]) -> Tower:
    """Tower of approximation complexes at scales theta_l for l in ell_range.

    Classes alive at the leftmost complex are treated as born at scale 0
    when that complex is vertices-only, since the module is then constant
    on the whole interval (0, theta_{ell_min}].
    """
    ell_min, ell_max = ell_range
    if ell_max < ell_min:
        raise InvalidInput("empty scale range")
    scales = [theta_value(eps, ell) for ell in range(ell_min, ell_max + 1)]
    rad_cache: dict = {}  # projected-tuple radii, shared by every scale
    complexes = [build_A(qt, wssd, s, eps, rad_cache=rad_cache) for s in scales]
    maps = [
        map_g(complexes[i], complexes[i + 1]) for i in range(len(complexes) - 1)
    ]
    left = complexes[0].complex
    vertices_only = left.max_dim() <= 0 and len(left.vertices()) == qt.cloud.n
    return Tower(
        [a.complex for a in complexes],
        maps,
        scales,
        births_at_zero=vertices_only,
    )
