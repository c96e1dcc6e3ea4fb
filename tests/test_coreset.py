"""Radius- and meb-coresets, subset radii, Jung-type inequalities."""

import itertools
import math

import numpy as np
import pytest

from cechkit import coreset as coreset_module
from cechkit.coreset import (
    delta,
    is_meb_coreset,
    is_radius_coreset,
    jung_check,
    meb_coreset,
    r_k,
    radius_coreset_greedy,
    radius_coreset_min,
    telescoping_identity,
)
from cechkit.errors import InvalidInput
from cechkit.geometry import meb

from conftest import TRIANGLE, random_cloud


# ---------------------------------------------------------------------------
# delta

def test_delta_examples():
    assert delta(1.0) == 2
    assert delta(0.25) == 3
    assert delta(0.1) == 6
    # 1/(2e + e^2) + 1 is exactly 2 at e = sqrt(2) - 1
    assert delta(math.sqrt(2.0) - 1.0) == 2
    with pytest.raises(InvalidInput):
        delta(0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_delta_rejects_non_finite_eps(eps):
    with pytest.raises(InvalidInput):
        delta(eps)


def test_delta_at_least_two_for_large_eps():
    # 1/(2e + e^2) + 1 > 1 always; the ceiling slack must not round it to 1.
    for eps in (3.2e4, 1e5, 1e150):
        assert delta(eps) == 2


def test_delta_monotone():
    values = [delta(e) for e in np.linspace(0.02, 1.0, 60)]
    assert values == sorted(values, reverse=True)


# ---------------------------------------------------------------------------
# subset radii

def test_r_k_on_standard_simplex():
    pts = np.eye(6)
    for k in range(2, 7):
        assert r_k(pts, k) == pytest.approx(math.sqrt((k - 1.0) / k), abs=1e-9)


def test_r_k_validation():
    pts = np.eye(3)
    with pytest.raises(InvalidInput):
        r_k(pts, 1)
    with pytest.raises(InvalidInput):
        r_k(pts, 4)
    with pytest.raises(InvalidInput):
        r_k(np.zeros((20, 2)), 2)


def test_r2_is_half_diameter():
    rng = np.random.default_rng(91)
    pts = random_cloud(rng, 9, 3)
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    assert r_k(pts, 2) == pytest.approx(dmat.max() / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# greedy radius-coreset

def test_greedy_simplex_r8():
    res = radius_coreset_greedy(np.eye(8), 0.1)
    assert res.size == 6
    assert res.achieved_factor == pytest.approx(
        math.sqrt((7.0 / 8.0) / (5.0 / 6.0)), abs=1e-9
    )
    assert res.achieved_factor <= 1.1
    assert is_radius_coreset(np.eye(8), res.subset, 0.1)


def test_greedy_collinear():
    pts = np.array([[0.0], [1.0], [2.0]])
    res = radius_coreset_greedy(pts, 1.0)
    assert res.subset == (0, 2)
    assert res.achieved_factor == pytest.approx(1.0)


def test_greedy_undersized():
    res = radius_coreset_greedy(np.eye(2), 0.05)
    assert res.undersized_input
    assert res.subset == (0, 1)


def test_greedy_always_within_factor():
    rng = np.random.default_rng(92)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(2, 5))
        eps = float(rng.uniform(0.15, 0.8))
        pts = random_cloud(rng, n, d)
        res = radius_coreset_greedy(pts, eps)
        if not res.undersized_input:
            assert res.size == delta(eps)
        assert is_radius_coreset(pts, res.subset, eps)


def _ref_greedy(pts, eps):
    """The greedy removal with one meb solve per candidate in every round."""
    n, dlt = pts.shape[0], delta(eps)
    full_rad = meb(pts).radius
    if n < dlt:
        return tuple(range(n)), 1.0, True
    current = list(range(n))
    while len(current) > dlt:
        best_rad, best_drop = -1.0, None
        for drop in current:
            rad = meb(pts[[i for i in current if i != drop]]).radius
            if rad > best_rad * (1.0 + 1e-12):
                best_rad, best_drop = rad, drop
        current.remove(best_drop)
    core_rad = meb(pts[current]).radius
    return tuple(current), full_rad / core_rad if core_rad > 0 else 1.0, False


def _greedy_clouds():
    rng = np.random.default_rng(93)
    for _ in range(12):
        yield random_cloud(rng, int(rng.integers(2, 11)), int(rng.integers(1, 6)))
    yield np.eye(8)
    yield np.vstack([np.eye(5), np.full((1, 5), 0.2)])
    # Lattice points: many points on the ball's sphere, and ties.
    yield np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=2)))
    yield np.round(rng.normal(size=(10, 3)))


def test_greedy_matches_solve_every_candidate_route():
    for pts in _greedy_clouds():
        for eps in (0.1, 0.25, 0.5, math.sqrt(2.0) - 1.0, 1.0):
            res = radius_coreset_greedy(pts, eps)
            subset, factor, undersized = _ref_greedy(pts, eps)
            assert res.subset == subset
            assert res.achieved_factor == factor
            assert res.undersized_input == undersized


def test_greedy_skips_solves_for_interior_points(monkeypatch):
    # The centroid of the standard simplex in R^4 comes first and lies
    # strictly inside the ball: round 1 removes it without a solve.  The
    # four vertices then need 4 and 3 candidate solves.  One solve for the
    # whole set (it also serves round 1) and one after the interior
    # removal make 1 + 1 + 4 + 3 = 9 calls: a boundary winner's candidate
    # solve is the next round's ball.  A solve per candidate makes 14.
    # The whole set goes through `meb`, the rest through its pivot loop.
    calls = []

    def spy(solve):
        def counted(points, *args):
            calls.append(len(points))
            return solve(points, *args)

        return counted

    pts = np.vstack([np.full((1, 4), 0.25), np.eye(4)])
    monkeypatch.setattr(coreset_module, "meb", spy(meb))
    monkeypatch.setattr(coreset_module, "_pivot", spy(coreset_module._pivot))
    res = radius_coreset_greedy(pts, 0.45)
    assert res.subset == _ref_greedy(pts, 0.45)[0] == (3, 4)
    assert len(calls) == 9
    assert calls == [5, 4] + [3] * 4 + [2] * 3


# ---------------------------------------------------------------------------
# exhaustive minimum radius-coreset

def test_min_coreset_triangle():
    res = radius_coreset_min(TRIANGLE, 0.16)
    assert res.subset == (0, 1)
    assert res.achieved_factor == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-9)


def test_min_coreset_simplex_formula():
    # For the standard simplex the minimum size is
    # ceil((1+e)^2 / ((1+e)^2 - (d-1)/d)).
    for d in (4, 8):
        eps = 0.25
        want = math.ceil((1 + eps) ** 2 / ((1 + eps) ** 2 - (d - 1) / d))
        assert radius_coreset_min(np.eye(d), eps).size == want
    assert radius_coreset_min(np.eye(4), 0.25).size == 2
    assert radius_coreset_min(np.eye(8), 0.25).size == 3


def test_min_coreset_never_larger_than_delta():
    rng = np.random.default_rng(93)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        eps = float(rng.uniform(0.15, 1.0))
        pts = random_cloud(rng, n, d)
        res = radius_coreset_min(pts, eps)
        assert res.size <= min(delta(eps), n)
        assert is_radius_coreset(pts, res.subset, eps)


# ---------------------------------------------------------------------------
# meb-coresets

def test_meb_coreset_triangle_needs_all_points():
    # {0, 1} approximates the radius but not the ball itself.
    assert is_radius_coreset(TRIANGLE, (0, 1), 0.2)
    assert not is_meb_coreset(TRIANGLE, (0, 1), 0.2)
    res = meb_coreset(TRIANGLE, 0.2)
    assert res.subset == (0, 1, 2)


def test_meb_coreset_covering_invariant():
    rng = np.random.default_rng(94)
    for _ in range(10):
        pts = random_cloud(rng, int(rng.integers(5, 20)), int(rng.integers(2, 5)))
        eps = float(rng.uniform(0.05, 0.5))
        res = meb_coreset(pts, eps)
        assert is_meb_coreset(pts, res.subset, eps)
        assert res.achieved_factor <= 1.0 + eps + 1e-9


def test_meb_coreset_validation():
    with pytest.raises(InvalidInput):
        meb_coreset(TRIANGLE, 0.0)
    assert meb_coreset([[1.0, 1.0]], 0.5).subset == (0,)


def _ref_meb_coreset(pts, eps):
    """The farthest-point loop `meb_coreset` ran on its own: a full meb
    of the subset every round, the farthest point outside it next."""
    n = pts.shape[0]
    if n == 1:
        return (0,), 1.0
    p1 = int(np.argmax(np.linalg.norm(pts - pts[0], axis=1)))
    current = [0, p1] if p1 != 0 else [0]
    while True:
        res = meb(pts[current])
        dists = np.linalg.norm(pts - res.center, axis=1)
        cover = (1.0 + eps) * res.radius
        if (dists <= cover * (1.0 + 1e-12)).all():
            full_rad = meb(pts).radius
            return tuple(sorted(current)), full_rad / res.radius if res.radius > 0 else 1.0
        far = int(np.argmax(np.where(np.isin(np.arange(n), current), -1.0, dists)))
        current.append(far)


def test_meb_coreset_matches_farthest_point_oracle():
    # Gaussian, 3-level lattice (duplicates and many exact ties) and
    # uniform clouds.  The two loops measure distances differently
    # (`math.dist` against `np.linalg.norm`), so on a lattice an exact
    # tie may go either way; both subsets must then be meb-coresets.
    rng = np.random.default_rng(96)
    lattice_ties = 0
    for trial in range(300):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 9))
        eps = float(rng.uniform(0.05, 1.0))
        kind = trial % 3
        if kind == 0:
            pts = rng.standard_normal((n, d))
        elif kind == 1:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            pts = rng.uniform(size=(n, d))
        res = meb_coreset(pts, eps)
        subset, factor = _ref_meb_coreset(pts, eps)
        if kind == 1 and res.subset != subset:
            lattice_ties += 1
            assert is_meb_coreset(pts, res.subset, eps)
            assert is_meb_coreset(pts, subset, eps)
            continue
        assert res.subset == subset
        assert res.achieved_factor == factor
    assert lattice_ties <= 3


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_is_meb_coreset_far_from_unit_scale(scale):
    # Squared distances under- and overflow at these scales.
    right = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert is_meb_coreset(right, (1, 2), 0.1)  # the hypotenuse's ball
    assert not is_meb_coreset(right, (0, 1), 0.1)


# ---------------------------------------------------------------------------
# Jung-type inequalities

def test_jung_on_random_clouds():
    rng = np.random.default_rng(95)
    for _ in range(8):
        pts = random_cloud(rng, int(rng.integers(4, 10)), int(rng.integers(2, 5)))
        assert jung_check(pts).ok


def test_jung_check_needs_two_points():
    with pytest.raises(InvalidInput):
        jung_check([[0.5, 0.5]])


def test_jung_equality_on_simplex():
    # The standard simplex is the extremal case: every pairwise bound is tight.
    report = jung_check(np.eye(5))
    assert report.ok
    for (i, j), (lhs, bound, slack) in report.pairwise.items():
        assert lhs == pytest.approx(bound, rel=1e-9)


def test_telescoping_identity():
    for j in range(2, 10):
        for i in range(j, 12):
            prod, closed = telescoping_identity(j, i)
            assert prod == pytest.approx(closed, rel=1e-12)
    assert telescoping_identity(2, 2) == (1.0, 1.0)
