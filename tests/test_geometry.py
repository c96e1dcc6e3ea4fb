"""Minimum enclosing balls, diameters, and ball expansion."""

import itertools
import math
import random

import numpy as np
import pytest

from cechkit import quadtree, wssd
from cechkit.errors import InvalidInput
from cechkit.geometry import (
    TAU_GEOM,
    Ball,
    circumball,
    diam,
    expand,
    meb,
    meb_of_cells,
    min_pairwise_distance,
)
from cechkit.quadtree import Cell

from conftest import TRIANGLE, random_cloud


# ---------------------------------------------------------------------------
# brute-force oracle: minimum over circumballs of support subsets

def _circumball_oracle(pts):
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), 0.0
    A = np.array([2.0 * (q - p0) for q in pts[1:]])
    b = np.array([float(np.dot(q - p0, q - p0)) for q in pts[1:]])
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    c = p0 + x
    return c, max(float(np.linalg.norm(q - c)) for q in pts)


def meb_radius_bruteforce(pts):
    """Smallest circumball radius over support subsets covering all points."""
    n, d = pts.shape
    best = math.inf
    for size in range(1, min(n, d + 1) + 1):
        for sub in itertools.combinations(range(n), size):
            c, r = _circumball_oracle(pts[list(sub)])
            if all(np.linalg.norm(p - c) <= r * (1 + 1e-9) + 1e-12 for p in pts):
                best = min(best, r)
    return best


# ---------------------------------------------------------------------------
# circumball

def test_circumball_matches_oracle_on_general_position():
    rng = np.random.default_rng(29)
    for _ in range(40):
        d = int(rng.integers(1, 7))
        pts = rng.uniform(size=(int(rng.integers(1, d + 2)), d))
        c, r = circumball(pts)
        oc, orad = _circumball_oracle(pts)
        assert np.allclose(c, oc, rtol=1e-9, atol=1e-12)
        assert r == pytest.approx(orad, rel=1e-9)


@pytest.mark.parametrize(
    "boundary",
    [
        [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]],  # collinear in R^2
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],  # coplanar in R^3
        [[0.0, 0.0], [2.0, 1.0], [2.0, 1.0]],  # repeated point
    ],
)
def test_circumball_singular_gram_falls_back_to_lstsq(boundary, monkeypatch):
    # An affinely dependent boundary makes the Gram matrix singular; the
    # least-squares solve must take over and agree with the oracle.
    pts = np.array(boundary)
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    c, r = circumball(pts)
    monkeypatch.undo()
    assert calls
    oc, orad = _circumball_oracle(pts)
    assert np.allclose(c, oc, rtol=1e-12, atol=1e-12)
    assert r == pytest.approx(orad, rel=1e-12)


# ---------------------------------------------------------------------------
# meb

def test_meb_equilateral_triangle():
    res = meb(TRIANGLE)
    assert np.allclose(res.center, [0.0, 0.5773502], atol=1e-6)
    assert res.radius == pytest.approx(1.1547005, abs=1e-6)


def test_meb_single_point():
    res = meb([[3.0, 4.0]])
    assert tuple(res.center) == (3.0, 4.0)
    assert res.radius == 0.0


def test_meb_standard_simplex_r4():
    res = meb(np.eye(4))
    assert res.radius == pytest.approx(math.sqrt(3.0 / 4.0), abs=1e-9)


def test_meb_errors():
    with pytest.raises(InvalidInput):
        meb(np.empty((0, 2)))
    with pytest.raises(InvalidInput):
        meb([[0.0, np.inf]])
    with pytest.raises(InvalidInput):
        meb(np.zeros((2, 13)))


def test_meb_support_certificate():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = random_cloud(rng, int(rng.integers(2, 8)), 3)
        res = meb(pts)
        assert 1 <= len(res.support) <= 4
        for i in res.support:
            dist = np.linalg.norm(pts[i] - res.center)
            assert dist == pytest.approx(res.radius, rel=1e-6, abs=1e-9)
        for p in pts:
            assert res.ball.contains(p)


def test_meb_matches_bruteforce_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(2, 4))
        pts = random_cloud(rng, n, d)
        assert meb(pts).radius == pytest.approx(meb_radius_bruteforce(pts), rel=1e-9)


def test_meb_monotone_under_inclusion():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = random_cloud(rng, 8, 3)
        k = int(rng.integers(2, 8))
        sub = rng.choice(8, size=k, replace=False)
        assert meb(pts[sub]).radius <= meb(pts).radius + 1e-12


# ---------------------------------------------------------------------------
# scalar Welzl kernel against the numpy Welzl it replaced

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


def ref_meb(points):
    """(radius, support, boundary): numpy Welzl with the library's shuffle
    and support certificate; `boundary` is every point the certificate
    accepts as on the sphere, in its order."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n == 1:
        return 0.0, (0,), [0]
    order = list(range(n))
    random.Random(0x5EB1).shuffle(order)
    shuffled = [pts[i] for i in order]
    center, radius = shuffled[0].copy(), 0.0
    for i, p in enumerate(shuffled):
        if not _ref_covers(center, radius, p):
            center, radius = _ref_welzl(shuffled[:i], [p], d)
    dists = np.linalg.norm(pts - center, axis=1)
    boundary = [
        int(i) for i in np.argsort(-dists) if abs(dists[i] - radius) <= radius * TAU_GEOM + 1e-12
    ]
    return radius, tuple(sorted(boundary[: d + 1])), boundary


def assert_same_meb(res, ref, d):
    """Radius within 1e-12 relative and the same support.  When more than
    d+1 points lie on the sphere the certificate keeps d+1 of them in
    distance order, which a last-bit change of the center can permute;
    then the support must be d+1 of the same boundary points."""
    radius, support, boundary = ref
    assert res.radius == pytest.approx(radius, rel=1e-12, abs=1e-15)
    if len(boundary) <= d + 1:
        assert res.support == support
    else:
        assert len(res.support) == d + 1 and set(res.support) <= set(boundary)


def _lattice_corner_sets(rng, count):
    """Corner sets of a few random cells in R^2 and R^3, mixed heights:
    lattice points with exactly collinear and co-circular triples."""
    for _ in range(count):
        d = int(rng.integers(2, 4))
        cells = [
            Cell(int(rng.integers(-1, 2)), tuple(int(i) for i in rng.integers(0, 4, size=d)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        yield np.unique(np.concatenate([c.corners() for c in cells]), axis=0)


def test_scalar_welzl_matches_numpy_welzl():
    rng = np.random.default_rng(41)
    clouds = [random_cloud(rng, int(rng.integers(1, 11)), d) for d in range(1, 7) for _ in range(8)]
    clouds += list(_lattice_corner_sets(rng, 40))
    for pts in clouds:
        res = meb(pts)
        assert_same_meb(res, ref_meb(pts), pts.shape[1])
        if len(pts) <= 10:
            assert res.radius == pytest.approx(meb_radius_bruteforce(pts), rel=1e-9, abs=1e-12)


def test_circumball_closed_forms_match_numpy_solve(monkeypatch):
    # Random boundaries of 1-3 points, then every triple of some lattice
    # corner sets.  Welzl never hands `circumball` a collinear triple (no
    # sphere passes through one), so the lattice triples are what drive
    # the det == 0 fallback to numpy; a spy on `np.linalg.solve` sees it.
    rng = np.random.default_rng(43)
    boundaries = [
        rng.uniform(size=(int(rng.integers(1, 4)), int(rng.integers(2, 7)))) for _ in range(60)
    ]
    for pts in _lattice_corner_sets(rng, 10):
        boundaries += [np.array(t) for t in itertools.combinations(pts, 3)]
    singular_fallbacks = []
    solve = np.linalg.solve

    def spy(G, b):
        if G.shape == (2, 2):  # only a det == 0 three-point boundary gets here
            singular_fallbacks.append(1)
        return solve(G, b)

    for pts in boundaries:
        monkeypatch.setattr(np.linalg, "solve", spy)
        c, r = circumball(pts.tolist())
        monkeypatch.undo()
        oc, orad = _ref_circumball(pts)
        assert isinstance(c, tuple) and len(c) == pts.shape[1]
        assert np.allclose(c, oc, rtol=1e-12, atol=1e-12)
        assert r == pytest.approx(orad, rel=1e-12)
    assert singular_fallbacks


# ---------------------------------------------------------------------------
# diam

def test_diam_triangle():
    assert diam(TRIANGLE) == pytest.approx(2.0, abs=1e-12)


def test_diam_single_point():
    assert diam([[7.0, 7.0]]) == 0.0


def test_diam_unit_vectors():
    assert diam(np.eye(3)[:2]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_rad_diam_sandwich():
    rng = np.random.default_rng(17)
    for _ in range(25):
        pts = random_cloud(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        r, dm = meb(pts).radius, diam(pts)
        assert r <= dm + 1e-12
        assert dm <= 2.0 * r + 1e-12


# ---------------------------------------------------------------------------
# expand

def test_expand_scales_radius():
    b = expand(Ball((1.0, 2.0), 2.0), 1.5)
    assert b.center == (1.0, 2.0)
    assert b.radius == 3.0


def test_expand_identity():
    b = Ball((0.0, 0.0), 0.7)
    assert expand(b, 1.0) == b


def test_expand_negative_factor():
    with pytest.raises(InvalidInput):
        expand(Ball((0.0,), 1.0), -1.0)


def test_offset_box_containment():
    # A box of diameter <= lam * r touching the ball fits in the
    # (1 + lam)-expansion; sampled over random ball/box pairs.
    rng = np.random.default_rng(31)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        center = rng.uniform(-5, 5, size=d)
        r = rng.uniform(0.1, 3.0)
        lam = rng.uniform(0.05, 2.0)
        side = lam * r / math.sqrt(d) * rng.uniform(0.2, 1.0)
        # A point on or inside the ball that the box will contain.
        x = rng.standard_normal(d)
        x = center + x * rng.uniform(0.0, r) / max(np.linalg.norm(x), 1e-12)
        lo = x - side * rng.uniform(0.0, 1.0, size=d)
        big = expand(Ball(tuple(center), r), 1.0 + lam)
        for m in range(1 << d):
            corner = lo + side * np.array([(m >> a) & 1 for a in range(d)])
            assert big.contains(corner)


# ---------------------------------------------------------------------------
# meb of cell unions

def test_meb_of_single_cell():
    cell = Cell(1, (0, 0))  # side 2 square at origin
    res = meb_of_cells([cell])
    assert np.allclose(res.center, [1.0, 1.0])
    assert res.radius == pytest.approx(2.0 * math.sqrt(2.0) / 2.0, abs=1e-9)


def test_meb_of_duplicate_cells():
    cell = Cell(0, (2, 5))
    assert meb_of_cells([cell, cell]).radius == pytest.approx(
        meb_of_cells([cell]).radius, abs=1e-12
    )


def test_meb_of_two_separated_squares():
    # Unit squares with lower-left corners (0,0) and (3,0): the corner
    # set spans [0,4]x[0,1], giving radius sqrt(17)/2.
    res = meb_of_cells([Cell(0, (0, 0)), Cell(0, (3, 0))])
    assert res.radius == pytest.approx(math.sqrt(17.0) / 2.0, abs=1e-9)


def test_meb_of_cells_empty():
    with pytest.raises(InvalidInput):
        meb_of_cells([])


def test_min_pairwise_distance():
    assert min_pairwise_distance([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]]) == pytest.approx(1.0)
    with pytest.raises(InvalidInput):
        min_pairwise_distance([[0.0, 0.0]])


def _corners_loop(cell):
    # the per-corner loop `Cell.corners` used to run
    d = cell.d
    lo = cell.lo
    out = np.empty((1 << d, d))
    for m in range(1 << d):
        for a in range(d):
            out[m, a] = lo[a] + cell.side if (m >> a) & 1 else lo[a]
    return out


def test_cell_corners_match_per_corner_loop():
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        cell = Cell(int(rng.integers(-3, 4)), tuple(int(i) for i in rng.integers(-5, 6, size=d)))
        assert np.array_equal(cell.corners(), _corners_loop(cell))


@pytest.mark.parametrize("d,n,seed", [(2, 10, 3), (2, 12, 4), (3, 8, 5), (3, 9, 6)])
def test_meb_of_cells_matches_unique_corner_oracle(d, n, seed):
    pts = random_cloud(np.random.default_rng(seed), n, d)
    qt = quadtree.build(quadtree.normalize(pts))
    dec = wssd.build_wssd(qt, 0.25, 2)
    mixed = 0
    for k in (1, 2):
        for t in dec.gamma(k):
            mixed += len({c.height for c in t.cells}) > 1
            corners = np.unique(np.concatenate([c.corners() for c in t.cells]), axis=0)
            assert_same_meb(meb_of_cells(t.cells), ref_meb(corners), d)
    assert mixed
