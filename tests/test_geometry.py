"""Minimum enclosing balls, diameters, and ball expansion."""

import itertools
import math
import random
import signal

import numpy as np
import pytest

from cechkit import quadtree, wssd
from cechkit.errors import InvalidInput
from cechkit.geometry import (
    TAU_GEOM,
    Ball,
    _row_distances,
    circumball,
    diam,
    expand,
    meb,
    meb_of_cells,
    min_pairwise_distance,
)
from cechkit.quadtree import Cell

from conftest import TRIANGLE, cell_lo, random_cloud


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
    """(radius, support, boundary): numpy Welzl with the fixed-seed shuffle
    that `meb` ran before its pivot loop, and the library's support
    certificate; `boundary` is every point the certificate accepts as on
    the sphere, in its order."""
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
    boundary = [i for i in range(n) if abs(dists[i] - radius) <= radius * TAU_GEOM + 1e-12]
    return radius, tuple(boundary[: d + 1]), boundary


def assert_same_meb(res, ref):
    """Radius within 1e-12 relative and exactly the same support: the d+1
    lowest indices on the sphere, however many points lie on it."""
    radius, support, _ = ref
    assert res.radius == pytest.approx(radius, rel=1e-12, abs=1e-15)
    assert res.support == support


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
        assert_same_meb(res, ref_meb(pts))
        if len(pts) <= 10:
            assert res.radius == pytest.approx(meb_radius_bruteforce(pts), rel=1e-9, abs=1e-12)


def test_meb_support_canonical_on_cospherical_sets():
    # More than d+1 lattice points on the sphere: the support is the d+1
    # lowest indices on it, also after shifts that change the last bits
    # of the center.
    cases = [
        ([[0, 0], [0, 1], [1, 0], [1, 1]], (0, 1, 2)),
        ([[0, 0], [1, 2], [2, 1], [-1, 2], [2, -1], [1, -2], [-2, 1], [-1, -2], [-2, -1]], (1, 2, 3)),
        ([list(c) for c in itertools.product((0, 1), repeat=3)], (0, 1, 2, 3)),
        ([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], (1, 2, 3, 4)),
    ]
    for pts, support in cases:
        for shift in (0.0, 0.1, 1.0 / 3.0, -7.77, 1e3 + 0.7):
            res = meb(np.array(pts, dtype=float) + shift)
            assert res.support == support
            assert res.support == ref_meb(np.array(pts, dtype=float) + shift)[1]


def test_pivot_meb_matches_shuffled_welzl_on_larger_clouds():
    # Gaussian clouds, lattice points with many collinear and co-spherical
    # subsets, points on a sphere (all of them on the boundary), and the
    # cross-polytope; the oracle's cost grows fast with d, so n shrinks
    # above d = 9.
    rng = np.random.default_rng(53)
    for d in range(2, 13):
        n = 60 if d <= 9 else 24
        sphere = rng.standard_normal((n, d))
        clouds = [
            rng.standard_normal((n, d)),
            np.unique(rng.integers(0, 3, size=(n, d)), axis=0).astype(float),
            sphere / np.linalg.norm(sphere, axis=1, keepdims=True) + 0.3,
            np.concatenate([np.eye(d), -np.eye(d)]) * 1.5 + 0.25,
        ]
        for pts in clouds:
            assert_same_meb(meb(pts), ref_meb(pts))


def test_meb_returns_on_far_offset_tiny_spread_clouds():
    # A 1e-6 spread at a 1e6 offset keeps only a few bits of the spread,
    # so the farthest point can stay just outside the ball of a support
    # that already holds it; the loop must stop there instead of
    # spinning (in R^1 it did on about one cloud in two).  The support
    # must still name at least one and at most d+1 points on the sphere,
    # whose distances there round at the scale of the 1e6 offset.
    def timed_out(signum, frame):
        raise TimeoutError("meb did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        rng = np.random.default_rng(59)
        for _ in range(300):
            n, d = int(rng.integers(2, 21)), int(rng.integers(1, 13))
            pts = 1e6 + 1e-6 * rng.standard_normal((n, d))
            res = meb(pts)
            dists = np.linalg.norm(pts - res.center, axis=1)
            assert (dists <= res.radius * (1.0 + 1e-3)).all()
            assert 1 <= len(res.support) <= d + 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_distances_and_meb_scale_far_from_one(scale):
    # Squared coordinates under- and overflow at these scales.
    pts = scale * RIGHT_TRIANGLE
    assert min_pairwise_distance(pts) == pytest.approx(scale, rel=1e-15)
    assert diam(pts) == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)
    res = meb(pts)
    assert res.radius == pytest.approx(math.sqrt(0.5) * scale, rel=1e-15)
    assert np.allclose(res.center, [0.5 * scale, 0.5 * scale], rtol=1e-15, atol=0.0)
    assert res.support == (0, 1, 2)


@pytest.mark.parametrize("scale", [1e-200, 3e-81, 1e77, 1e200])
def test_circumball_and_meb_of_triangles_far_from_unit_scale(scale):
    # The Gram entries of squared offsets under- and overflow at 1e+-200;
    # at 1e77 and 3e-81 only the closed form's determinant does (inf for
    # the right triangle, subnormal for the equilateral one).  The ball
    # must be the unit triangle's times the scale.
    for tri in (TRIANGLE, RIGHT_TRIANGLE):
        unit, res = meb(tri), meb(scale * tri)
        for center, radius in (circumball((scale * tri).tolist()), (res.center, res.radius)):
            assert radius == pytest.approx(unit.radius * scale, rel=1e-12)
            assert np.allclose(center, np.array(unit.center) * scale, rtol=0.0, atol=1e-12 * scale)
        assert res.support == unit.support == (0, 1, 2)


def test_meb_support_far_below_unit_scale():
    # Point 0 is interior; an absolute on-sphere slack took it in at 1e-100.
    pts = np.array([[0.1, 0.1], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for scale in (1.0, 1e-100, 1e-200):
        assert meb(scale * pts).support == (1, 2, 3)


def test_row_distances_are_the_plain_norms_at_ordinary_scales():
    # Power-of-two scaling is exact, so nothing moves where the plain
    # norm neither under- nor overflows.
    rng = np.random.default_rng(67)
    for _ in range(100):
        n, d = int(rng.integers(2, 20)), int(rng.integers(1, 8))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-100, 100)
        for i, row in enumerate(_row_distances(pts)):
            assert row.tolist() == np.linalg.norm(pts[i + 1 :] - pts[i], axis=1).tolist()


def _corners_loop(cell):
    # the per-corner loop `Cell.corners` used to run
    d = cell.d
    lo = cell_lo(cell)
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
            assert_same_meb(meb_of_cells(t.cells), ref_meb(corners))
    assert mixed
