"""Well-separated simplicial decompositions: construction, covering,
tuple property, height bounds."""

import itertools
import math

import numpy as np
import pytest

from cechkit import wssd
from cechkit.diagram import perfect_matching
from cechkit.errors import InvalidInput
from cechkit.geometry import Ball, meb
from cechkit.quadtree import Cell, build, normalize
from cechkit.wspd import build_wspd
from cechkit.wssd import (
    WSSD,
    WST,
    build_wssd,
    grid_height_for,
    heights_bounded,
    is_covering,
    simplices_of,
    wst_ball_property_check,
)

from conftest import TRIANGLE, contains_point, random_cloud


def covers(t, vertex_points):
    """Permutation test: does the tuple cover the simplex on these points?

    `vertex_points` holds the k+1 vertex coordinates of the simplex.
    """
    pts = np.asarray(vertex_points, dtype=float)
    if pts.shape[0] != len(t.cells):
        raise InvalidInput(
            f"simplex arity {pts.shape[0]} does not match tuple arity {len(t.cells)}"
        )
    allowed = [[j for j, cell in enumerate(t.cells) if contains_point(cell, p)] for p in pts]
    return perfect_matching(allowed, len(t.cells)) is not None


def removable_point_check(points):
    """Index of a point p with |p - center(P \\ p)| <= c(d) * rad(P \\ p).

    The bound c(d) = (1 + 1/d) / sqrt(1 - 1/d^2) is at most 2 for d >= 2.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise InvalidInput("need at least 3 points")
    d = pts.shape[1]
    factor = (1.0 + 1.0 / d) / math.sqrt(1.0 - 1.0 / d**2) if d >= 2 else 2.0
    for i in range(pts.shape[0]):
        rest = np.delete(pts, i, axis=0)
        res = meb(rest)
        dist = float(np.linalg.norm(pts[i] - res.center))
        if dist <= factor * res.radius * (1.0 + 1e-9) + 1e-12:
            return i
    raise InvalidInput("no removable point found (violates the removal lemma)")


def covered_simplices(qt, tuples, k):
    """All k-simplices covered by the given (k+1)-tuples (oracle).

    Enumerates one point per cell instead of testing each simplex
    against each tuple; equivalent by the permutation semantics.
    """
    out = set()
    for t in tuples:
        pools = [qt.points_in(c) for c in t.cells]
        for choice in itertools.product(*pools):
            if len(set(choice)) == k + 1:
                out.add(tuple(sorted(choice)))
    return out


# ---------------------------------------------------------------------------
# grid heights

def test_grid_height_for_bracketing():
    eps, d = 0.5, 2
    unit = 2.0 * math.sqrt(d) / eps  # r with eps*r/(2 sqrt(d)) = 1
    assert grid_height_for(8.0 * unit, eps, d) == 3
    assert grid_height_for(1.0 * unit, eps, d) == 0
    assert grid_height_for(0.3 * unit, eps, d) == -2
    with pytest.raises(InvalidInput):
        grid_height_for(0.0, eps, d)


def test_grid_height_double_inequality():
    rng = np.random.default_rng(41)
    for _ in range(200):
        r = float(rng.uniform(1e-3, 1e3))
        eps = float(rng.uniform(0.05, 0.95))
        d = int(rng.integers(1, 7))
        h = grid_height_for(r, eps, d)
        x = eps * r / (2.0 * math.sqrt(d))
        assert 2.0**h <= x * (1 + 1e-12)
        assert x <= 2.0 ** (h + 1) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# construction

def test_build_wssd_triangle_covers_everything():
    qt = build(normalize(TRIANGLE))
    dec = build_wssd(qt, 0.5, 2)
    assert covered_simplices(qt, dec.gamma(1), 1) == set(simplices_of(3, 1))
    assert covered_simplices(qt, dec.gamma(2), 2) == {(0, 1, 2)}


def test_build_wssd_random_covering_and_tuple_property():
    rng = np.random.default_rng(42)
    for trial in range(4):
        n = int(rng.integers(4, 11))
        qt = build(normalize(random_cloud(rng, n, 2)))
        dec = build_wssd(qt, 0.5, 2)
        for k in (1, 2):
            assert covered_simplices(qt, dec.gamma(k), k) >= set(simplices_of(n, k))
        for i, t in enumerate(dec.all_tuples()):
            if i % 25 == 0:  # sampled; the acceptance suite does all of them
                assert wst_ball_property_check(t, 0.5, trials=200, seed=i)


def test_build_wssd_validation():
    qt = build(normalize(TRIANGLE))
    with pytest.raises(InvalidInput):
        build_wssd(qt, 0.5, 3)  # kmax > d
    with pytest.raises(InvalidInput):
        build_wssd(qt, 1.5, 2)


def eager_gammas(qt, eps, kmax):
    """Gamma_1 ... Gamma_kmax built at once, as `build_wssd` built them
    before it deferred the build to the first read (oracle)."""
    base = build_wspd(qt, eps / 2.0)
    gammas = [[WST((p.q, p.q2)) for p in base.pairs]]
    for _k in range(2, kmax + 1):
        out = {}
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


@pytest.mark.parametrize("d, n", [(2, 12), (3, 8)])
@pytest.mark.parametrize("eps", [0.5, 0.25, 0.5 / 12])
def test_gamma_keys_match_the_eager_build(d, n, eps):
    rng = np.random.default_rng([47, d, int(eps * 1200)])
    for _ in range(2):
        qt = build(normalize(random_cloud(rng, n, d)))
        want = eager_gammas(qt, eps, d)
        dec = build_wssd(qt, eps, d)
        assert dec.kmax == d
        for k in range(1, d + 1):
            assert sorted(t.key() for t in dec.gamma(k)) == sorted(t.key() for t in want[k - 1])


def test_gamma_is_built_on_first_read_and_kept(monkeypatch):
    calls = []

    def wspd_spy(qt, eps):
        calls.append(eps)
        return build_wspd(qt, eps)

    monkeypatch.setattr(wssd, "build_wspd", wspd_spy)
    qt = build(normalize(random_cloud(np.random.default_rng(48), 8, 2)))
    dec = build_wssd(qt, 0.25, 2)
    assert (dec.epsilon, dec.kmax, calls) == (0.25, 2, [])
    first = dec.gamma(2)
    assert calls == [0.125]
    assert dec.gamma(2) is first and list(dec.all_tuples()) == dec.gammas[0] + first
    assert calls == [0.125]


def test_wspd_error_is_raised_on_first_read():
    # eps and kmax are checked at once; a WSPD grid too fine for the
    # cloud shows only when Gamma is built.
    qt = build(normalize(TRIANGLE))
    dec = build_wssd(qt, 1e-320, 2)
    with pytest.raises(InvalidInput, match="eps=5e-321 is too small: grid height .* is too fine"):
        dec.gamma(1)


def test_height_bound_exact():
    rng = np.random.default_rng(43)
    qt = build(normalize(random_cloud(rng, 9, 2)))
    eps = 0.4
    dec = build_wssd(qt, eps, 2)
    for t in dec.all_tuples():
        rho = t.rad
        for c in t.cells:
            assert 2.0**c.height <= eps * rho / math.sqrt(2) * (1 + 1e-9)


def test_covered_simplices_matches_permutation_test():
    # The point-choice enumeration against `covers` on every simplex, for
    # each Gamma_k and for its first half only.
    rng = np.random.default_rng(45)
    qt = build(normalize(random_cloud(rng, 9, 2)))
    dec = build_wssd(qt, 0.5, 2)
    for k in (1, 2):
        for tuples in (dec.gamma(k), dec.gamma(k)[: len(dec.gamma(k)) // 2]):
            want = {
                s
                for s in simplices_of(9, k)
                if any(covers(t, qt.cloud.points[list(s)]) for t in tuples)
            }
            assert wssd.covered_simplices(qt, tuples, k) == want
    assert is_covering(qt, dec)


def test_is_covering_fails_without_one_gamma2_tuple():
    qt = build(normalize(TRIANGLE))
    dec = build_wssd(qt, 0.5, 2)
    assert is_covering(qt, dec)
    # Drop a tuple that alone covers some triangle.
    gamma2 = dec.gamma(2)
    sole = [
        j
        for j, t in enumerate(gamma2)
        if covered_simplices(qt, [t], 2)
        - covered_simplices(qt, gamma2[:j] + gamma2[j + 1 :], 2)
    ]
    assert sole
    j = sole[0]
    assert not is_covering(qt, WSSD(dec.epsilon, [dec.gamma(1), gamma2[:j] + gamma2[j + 1 :]]))


def test_heights_bounded_fails_for_a_parent_cell():
    rng = np.random.default_rng(46)
    qt = build(normalize(random_cloud(rng, 9, 2)))
    dec = build_wssd(qt, 0.5, 2)
    assert heights_bounded(dec, 2)
    # The cell closest to the bound, swapped for its parent, doubles its side.
    _, k, j, m = max(
        (2.0**c.height / t.rad, k, j, m)
        for k in (1, 2)
        for j, t in enumerate(dec.gamma(k))
        for m, c in enumerate(t.cells)
    )
    cells = dec.gamma(k)[j].cells
    parent = qt.cell_containing(qt.rep(cells[m]), cells[m].height + 1)
    swapped = WST(cells[:m] + (parent,) + cells[m + 1 :])
    gammas = [list(dec.gamma(1)), list(dec.gamma(2))]
    gammas[k - 1][j] = swapped
    assert not heights_bounded(WSSD(dec.epsilon, gammas), 2)


def test_gamma1_matches_half_eps_wspd():
    from cechkit.wspd import build_wspd

    rng = np.random.default_rng(44)
    qt = build(normalize(random_cloud(rng, 8, 2)))
    dec = build_wssd(qt, 0.6, 1)
    w = build_wspd(qt, 0.3)
    assert sorted(t.key() for t in dec.gamma(1)) == sorted(
        (p.key()[0], p.key()[1]) for p in w.pairs
    )


# ---------------------------------------------------------------------------
# covers

def test_covers_in_order():
    cells = (Cell(0, (0, 0)), Cell(0, (4, 0)))
    t = WST(cells)
    assert covers(t, [[0.5, 0.5], [4.5, 0.5]])


def test_covers_needs_permutation():
    # Vertices listed against the cell order; only a matching finds it.
    cells = (Cell(0, (0, 0)), Cell(0, (4, 0)), Cell(0, (0, 4)))
    t = WST(cells)
    pts = [[0.2, 4.1], [0.3, 0.3], [4.9, 0.9]]  # cells 2, 0, 1 in order
    assert covers(t, pts)


def test_covers_negative_and_arity():
    t = WST((Cell(0, (0, 0)), Cell(0, (4, 0))))
    assert not covers(t, [[0.5, 0.5], [9.0, 9.0]])
    with pytest.raises(InvalidInput):
        covers(t, [[0.5, 0.5]])


# ---------------------------------------------------------------------------
# removable point

def test_removable_point_triangle():
    idx = removable_point_check(TRIANGLE)
    rest = np.delete(TRIANGLE, idx, axis=0)
    res = meb(rest)
    assert np.linalg.norm(TRIANGLE[idx] - res.center) <= 2.0 * res.radius + 1e-9


def test_removable_point_interior():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0], [2.0, 1.0]])
    idx = removable_point_check(pts)
    rest = np.delete(pts, idx, axis=0)
    res = meb(rest)
    factor = (1.0 + 1.0 / 2.0) / math.sqrt(1.0 - 0.25)
    assert np.linalg.norm(pts[idx] - res.center) <= factor * res.radius * (1 + 1e-9)


def test_removable_point_random_scan():
    rng = np.random.default_rng(45)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 2, d + 7))
        pts = random_cloud(rng, n, d)
        idx = removable_point_check(pts)
        assert 0 <= idx < n
    with pytest.raises(InvalidInput):
        removable_point_check(np.zeros((2, 3)))
