"""Filtrations, completion complexes, and the sandwich property."""

import itertools
import math

import numpy as np
import pytest

from cechkit.complexes import (
    Filtration,
    cech_filtration,
    check_completion_sandwich,
    completion,
    rips_filtration,
)
from cechkit.errors import InvalidInput
from cechkit.geometry import TAU_GEOM, circumball, covers, meb

from conftest import TRIANGLE, is_face_monotone, random_cloud


def test_cech_filtration_triangle():
    filt = cech_filtration(TRIANGLE, 2)
    vals = filt.value_of()
    assert len(vals) == 7
    for v in ((0,), (1,), (2,)):
        assert vals[v] == 0.0
    assert vals[(0, 1)] == pytest.approx(1.0)
    assert vals[(0, 1, 2)] == pytest.approx(1.1547005, abs=1e-6)


def _cech_values_oracle(pts):
    """Per-simplex meb radius over every subset, the route without reuse."""
    n = pts.shape[0]
    return {
        s: 0.0 if k == 0 else meb(pts[list(s)]).radius
        for k in range(n)
        for s in itertools.combinations(range(n), k + 1)
    }


def _oracle_clouds():
    rng = np.random.default_rng(59)
    for _ in range(24):
        yield random_cloud(rng, int(rng.integers(4, 10)), int(rng.integers(1, 7)))
    # Grid-snapped: many collinear, co-circular and repeated-distance subsets.
    snapped = np.unique(np.round(rng.uniform(size=(9, 3)) * 3.0) / 3.0, axis=0)
    assert snapped.shape[0] >= 4
    yield snapped
    # Co-circular points in the plane, and on a circle inside R^3.
    angles = rng.uniform(0.0, 2.0 * math.pi, size=7)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    yield circle
    yield np.column_stack([circle, np.zeros(7)])


def test_cech_filtration_matches_per_simplex_meb_oracle():
    # Facet inheritance and circumball solves must reproduce the plain
    # per-simplex meb radii over the full simplex.
    for pts in _oracle_clouds():
        n = pts.shape[0]
        filt = cech_filtration(pts, n - 1)
        values = filt.value_of()
        oracle = _cech_values_oracle(pts)
        assert values.keys() == oracle.keys()
        for s, v in oracle.items():
            assert values[s] == pytest.approx(v, rel=1e-12, abs=0.0)
        assert is_face_monotone(filt)


# ---------------------------------------------------------------------------
# one completion rule: the three builders against their per-family routes

def _ref_rips(pts, kmax):
    """Diameter of each simplex from an n x n distance tensor."""
    n = pts.shape[0]
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    entries = []
    for k in range(min(kmax, n - 1) + 1):
        for s in itertools.combinations(range(n), k + 1):
            idx = list(s)
            entries.append((s, 0.0 if k == 0 else float(dist[np.ix_(idx, idx)].max())))
    return Filtration(entries)


def _ref_completion(filt, i, kmax):
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


def _ref_cech(pts, kmax):
    """Facet-ball inheritance in every dimension, with a circumball solve
    for k <= d and a Welzl fallback (also for k > d)."""
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
                if k <= d:
                    center, radius = circumball(vertices)
                    nearest = min(math.dist(center, v) for v in vertices)
                    if radius - nearest <= radius * TAU_GEOM + 1e-12:
                        ball = (center, radius)
                if ball is None:
                    res = meb(vertices)
                    ball = (res.ball.center, res.radius)
            value = max(ball[1], max(prev[f][1] for f in facets))
            balls[s] = (ball[0], value)
            entries.append((s, value))
    return Filtration(entries)


def _builder_clouds():
    rng = np.random.default_rng(61)
    for _ in range(12):
        yield rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 5))))
    # Lattice-rounded: ties among distances and radii.
    yield np.round(rng.normal(size=(8, 3)) * 2.0) / 2.0
    # Co-circular in the plane and on a circle inside R^3.
    angles = rng.uniform(0.0, 2.0 * math.pi, size=7)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    yield circle
    yield np.column_stack([circle, np.zeros(7)])
    # An integer grid with coincident points, and a nearly flat cloud.
    yield rng.integers(0, 2, size=(8, 2)).astype(float)
    flat = rng.normal(size=(7, 3))
    flat[:, -1] *= 1e-6
    yield flat


def test_builders_match_per_family_routes_bit_for_bit():
    # Entry lists compare values with float ==, so a last-bit
    # difference fails.
    for pts in _builder_clouds():
        n, d = pts.shape
        full = cech_filtration(pts, n - 1)
        for kmax in sorted({0, 1, 2, 3, d, d + 1, n - 1}):
            cech = cech_filtration(pts, kmax)
            assert cech.entries == _ref_cech(pts, kmax).entries
            assert rips_filtration(pts, kmax).entries == _ref_rips(pts, kmax).entries
            for i in (1, 2, 3):
                if i <= kmax:
                    want = _ref_completion(cech, i, kmax).entries
                    assert completion(cech, i, kmax).entries == want
                want = _ref_completion(full, i, kmax).entries
                assert completion(full, i, kmax).entries == want


def test_rips_filtration_triangle():
    vals = rips_filtration(TRIANGLE, 2).value_of()
    assert vals[(0, 1)] == pytest.approx(2.0)
    assert vals[(0, 1, 2)] == pytest.approx(2.0)


def test_filtration_sorted_and_face_monotone():
    rng = np.random.default_rng(51)
    pts = random_cloud(rng, 7, 3)
    for filt in (cech_filtration(pts, 3), rips_filtration(pts, 3)):
        assert is_face_monotone(filt)
        keys = [(v, len(s), s) for s, v in filt.entries]
        assert keys == sorted(keys)


def test_cech_rips_interleaving():
    # rad <= diam <= 2 * rad, edge values equal.
    rng = np.random.default_rng(52)
    pts = random_cloud(rng, 8, 2)
    cv = cech_filtration(pts, 2).value_of()
    rv = rips_filtration(pts, 2).value_of()
    for s, v in cv.items():
        if len(s) == 2:
            assert rv[s] == pytest.approx(2.0 * v, rel=1e-12)
        assert v <= rv[s] + 1e-12
        assert rv[s] <= 2.0 * v + 1e-12


def test_completion_order_one_is_rips_radius_convention():
    # M_1 of a Cech filtration enters a simplex at its largest edge
    # radius, i.e. half the Rips value.
    rng = np.random.default_rng(53)
    pts = random_cloud(rng, 7, 2)
    comp = completion(cech_filtration(pts, 1), 1, 6).value_of()
    rips = rips_filtration(pts, 6).value_of()
    for s, v in comp.items():
        assert v == pytest.approx(rips[s] / 2.0, rel=1e-12, abs=1e-12)


def test_completion_exact_for_high_orders():
    # In R^d, Cech values are determined by (d+1)-wise mebs (Helly), so
    # completion at order i >= d reproduces the Cech filtration.
    rng = np.random.default_rng(54)
    for d in (1, 2):
        pts = random_cloud(rng, 7, d)
        cech = cech_filtration(pts, 6)
        comp = completion(cech, d, 6).value_of()
        for s, v in cech.value_of().items():
            assert comp[s] == pytest.approx(v, rel=1e-9, abs=1e-12)


def test_completion_idempotent_and_monotone_in_order():
    rng = np.random.default_rng(55)
    pts = random_cloud(rng, 6, 3)
    cech = cech_filtration(pts, 5)
    prev = None
    for i in (1, 2, 3):
        comp = completion(cech, i, 5)
        again = completion(comp, i, 5)
        assert comp.value_of() == again.value_of()
        vals = comp.value_of()
        if prev is not None:
            for s, v in prev.items():
                assert v <= vals[s] + 1e-12  # higher order enters later
        prev = vals
    with pytest.raises(InvalidInput):
        completion(cech, 0, 5)


def test_completion_requires_full_skeleton():
    missing = "missing part of its i-skeleton"
    filt = Filtration([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0)])
    with pytest.raises(InvalidInput, match=missing):
        completion(filt, 1, 2)
    # A missing face below dimension i is rejected too.
    no_vertex = Filtration(
        [((0,), 0.0), ((1,), 0.0)] + [(e, 1.0) for e in ((0, 1), (0, 2), (1, 2))]
    )
    with pytest.raises(InvalidInput, match=missing):
        completion(no_vertex, 1, 2)
    # So is a missing i-simplex when every lower face is there.
    no_triangle = cech_filtration(np.vstack([TRIANGLE, [0.0, 0.5]]), 2)
    with pytest.raises(InvalidInput, match=missing):
        completion(Filtration([e for e in no_triangle.entries if e[0] != (0, 1, 3)]), 2, 3)


def test_sandwich_at_sqrt2_minus_one():
    rng = np.random.default_rng(56)
    eps = math.sqrt(2.0) - 1.0
    for _ in range(3):
        pts = random_cloud(rng, 7, 3)
        report = check_completion_sandwich(pts, eps, [0.1, 0.3, 0.6, 1.0])
        assert report.ok, report.violations[:3]
        assert report.delta == 2


def test_sandwich_small_eps():
    rng = np.random.default_rng(57)
    pts = random_cloud(rng, 8, 2)
    report = check_completion_sandwich(pts, 0.25, [0.2, 0.5])
    assert report.ok, report.violations[:3]


def test_complex_at_threshold():
    filt = Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 0.5)])
    assert filt.complex_at(0.4) == {(0,), (1,)}
    assert filt.complex_at(0.5) == {(0,), (1,), (0, 1)}
