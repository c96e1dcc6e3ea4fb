"""Well-separated simplicial decompositions.

Gamma_1 is an (eps/2)-WSPD.  For k >= 2, each (k-1)-tuple gamma is
extended by every nonempty grid cell, at the height matched to
rad(gamma), that intersects the doubled enclosing ball of gamma's cell
union.  Tuples are deduplicated on their sorted cell key because the
recursion can reach the same tuple through different parents.

`build_wssd` checks its arguments at once but builds Gamma_1 ... Gamma_kmax
on the first read of the decomposition's tuples, so a caller that reads
only `epsilon` and `kmax` (the grid tower) never runs the WSPD.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import Ball, MebResult, expand, meb, meb_of_cells
from .quadtree import Cell, Quadtree, dyadic_height
from .wspd import build_wspd


def grid_height_for(r: float, eps: float, d: int) -> int:
    """Height h of the expansion grid: 2^h <= eps*r/(2*sqrt(d)) < 2^(h+1)."""
    return dyadic_height(eps * r / (2.0 * math.sqrt(d)))


@dataclass
class WST:
    """Well-separated tuple: cells plus the cached radius of their union."""

    cells: tuple[Cell, ...]
    _meb: MebResult | None = field(default=None, repr=False)

    @property
    def k(self) -> int:
        return len(self.cells) - 1

    def meb(self) -> MebResult:
        if self._meb is None:
            self._meb = meb_of_cells(self.cells)
        return self._meb

    @property
    def rad(self) -> float:
        return self.meb().radius

    def key(self):
        return tuple(sorted(self.cells))


class WSSD:
    """Gamma_1 ... Gamma_kmax at parameter epsilon; gammas[k-1] holds the
    (k+1)-tuples of Gamma_k.  One from `build_wssd` builds them on the
    first read of `gammas` (or `gamma`, `all_tuples`) and keeps them."""

    def __init__(self, epsilon: float, gammas: list[list[WST]]):
        self.epsilon = epsilon
        self.kmax = len(gammas)
        self._gammas = gammas
        self._qt: Quadtree | None = None  # set while Gamma is still to be built

    @property
    def gammas(self) -> list[list[WST]]:
        if self._qt is not None:
            self._gammas = _build_gammas(self._qt, self.epsilon, self.kmax)
            self._qt = None
        return self._gammas

    def gamma(self, k: int) -> list[WST]:
        return self.gammas[k - 1]

    def all_tuples(self):
        for g in self.gammas:
            yield from g


def build_wssd(qt: Quadtree, eps: float, kmax: int) -> WSSD:
    """The WSSD Gamma_1 ... Gamma_kmax of the cloud at parameter eps.

    eps and kmax are checked here; the tuples are built on the first read
    of Gamma, so an error of the WSPD (a grid height too fine for the
    cloud) is raised there."""
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must be in (0,1), got {eps}")
    if not (1 <= kmax <= qt.d):
        raise InvalidInput(f"kmax must satisfy 1 <= kmax <= d={qt.d}, got {kmax}")
    dec = WSSD(eps, [[] for _ in range(kmax)])
    dec._qt = qt
    return dec


def _build_gammas(qt: Quadtree, eps: float, kmax: int) -> list[list[WST]]:
    """Recursive construction of Gamma_1 ... Gamma_kmax."""
    base = build_wspd(qt, eps / 2.0)
    gamma1 = [WST((p.q, p.q2)) for p in base.pairs]
    gammas = [gamma1]

    for _k in range(2, kmax + 1):
        out: dict[tuple, WST] = {}
        for g in gammas[-1]:
            res = g.meb()
            r = res.radius
            h = grid_height_for(r, eps, qt.d)
            double = Ball(res.center, 2.0 * r)
            for q2 in qt.nonempty_cells_intersecting(double, h):
                t = WST(g.cells + (q2,))
                out.setdefault(t.key(), t)
        gammas.append([out[k] for k in sorted(out)])

    return gammas


def covered_simplices(qt: Quadtree, tuples, k: int) -> set[tuple[int, ...]]:
    """Every k-simplex that some (k+1)-tuple covers.

    Enumerates each tuple's distinct choices of one point per cell (a
    tuple covers a simplex when a matching puts each vertex in its own
    cell) instead of testing each simplex against each tuple.
    """
    out = set()
    for t in tuples:
        for choice in itertools.product(*(qt.points_in(c) for c in t.cells)):
            if len(set(choice)) == k + 1:
                out.add(tuple(sorted(choice)))
    return out


def is_covering(qt: Quadtree, dec: WSSD) -> bool:
    """Does every Gamma_k cover all C(n, k+1) k-simplices of the cloud?"""
    n = qt.cloud.n
    return all(
        len(covered_simplices(qt, dec.gamma(k), k)) == math.comb(n, k + 1)
        for k in range(1, dec.kmax + 1)
    )


def heights_bounded(dec: WSSD, d: int) -> bool:
    """Is every cell of every tuple small: 2^h <= eps * rad / sqrt(d)?"""
    return all(
        2.0**c.height <= dec.epsilon * t.rad / math.sqrt(d) * (1 + 1e-9)
        for t in dec.all_tuples()
        for c in t.cells
    )


def _expansion_sample_check(cells, factor: float, trials: int, seed: int) -> bool:
    """Sample balls containing at least one (geometric) point of every
    cell and check that their `factor`-expansion contains every cell
    corner.  Sample points are random convex corner combinations, so
    they always lie inside their cell.
    """
    rng = np.random.RandomState(seed)
    corner_sets = [c.corners() for c in cells]
    all_corners = np.concatenate(corner_sets, axis=0)

    for _ in range(trials):
        anchors = []
        for corners in corner_sets:
            w = rng.dirichlet(np.ones(corners.shape[0]))
            anchors.append(w @ corners)
        base = meb(anchors).ball
        grow = rng.uniform(0.0, 1.0)
        shift = rng.standard_normal(len(base.center))
        norm = float(np.linalg.norm(shift))
        if norm > 0 and base.radius > 0:
            shift *= rng.uniform(0.0, 1.0) * base.radius * grow / norm
        else:
            shift[:] = 0.0
        ball = Ball(tuple(c + s for c, s in zip(base.center, shift)), base.radius * (1.0 + grow))
        big = expand(ball, factor)
        for corner in all_corners:
            if not big.contains(corner):
                return False
    return True


def wst_ball_property_check(t: WST, eps: float, trials: int, seed: int = 0) -> bool:
    """Randomized check of the defining tuple property: balls meeting
    every cell, (1+eps)-expanded, contain the whole cell union."""
    return _expansion_sample_check(t.cells, 1.0 + eps, trials, seed)


def simplices_of(n: int, k: int):
    """All k-simplices (as sorted id tuples) over n points."""
    return itertools.combinations(range(n), k + 1)
