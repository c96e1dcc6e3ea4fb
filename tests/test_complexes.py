"""Filtrations, completion complexes, and the sandwich property."""

import itertools
import math

import numpy as np
import pytest

from cechkit import complexes
from cechkit.complexes import (
    Filtration,
    cech_filtration,
    check_completion_sandwich,
    completion,
    rips_filtration,
)
from cechkit.errors import InvalidInput
from cechkit.geometry import meb

from conftest import TRIANGLE, is_face_monotone, random_cloud, ref_cech, ref_completion


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
    # Nine points of the grid {0, 1, 2}^3: many of their tetrahedra are
    # coplanar (a singular Gram system) and many co-spherical.
    grid = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)
    yield grid[np.sort(rng.choice(len(grid), size=9, replace=False))]


def assert_matches_ref_cech(cech, ref):
    """Same simplices, face-monotone; vertices and edges bit for bit (an
    edge is valued math.dist / 2 on both routes), every other value
    within 1e-12 relative: the batched solves round unlike the scalar
    ones."""
    got, want = cech.value_of(), ref.value_of()
    assert got.keys() == want.keys()
    for s, v in want.items():
        if len(s) <= 2:
            assert got[s] == v, s
        else:
            assert got[s] == pytest.approx(v, rel=1e-12, abs=0.0), s
    assert is_face_monotone(cech)


def test_builders_match_per_family_routes_bit_for_bit():
    # Rips and the completions compare entry lists with float ==, so a
    # last-bit difference fails; Cech does so up to its edges.
    for pts in _builder_clouds():
        n, d = pts.shape
        full = cech_filtration(pts, n - 1)
        for kmax in sorted({0, 1, 2, 3, d, d + 1, n - 1}):
            cech = cech_filtration(pts, kmax)
            assert_matches_ref_cech(cech, ref_cech(pts, kmax))
            assert rips_filtration(pts, kmax).entries == _ref_rips(pts, kmax).entries
            for i in (1, 2, 3):
                if i <= kmax:
                    want = ref_completion(cech, i, kmax).entries
                    assert completion(cech, i, kmax).entries == want
                want = ref_completion(full, i, kmax).entries
                assert completion(full, i, kmax).entries == want


@pytest.mark.parametrize("block", [1, 7])
def test_layer_blocks_leave_every_filtration_unchanged(monkeypatch, block):
    # A layer is valued in blocks of at most complexes._BLOCK floats; a
    # block of one simplex, or of a few, must give the one-block values.
    def build(pts):
        n = pts.shape[0]
        cech = cech_filtration(pts, n - 1)
        rips = rips_filtration(pts, n - 1)
        return [cech.entries, rips.entries] + [completion(cech, i, n - 1).entries for i in (1, 2, 3)]

    clouds = list(_builder_clouds())
    want = [build(pts) for pts in clouds]
    monkeypatch.setattr(complexes, "_BLOCK", block)
    assert [build(pts) for pts in clouds] == want


def test_only_singular_and_off_sphere_solves_take_the_scalar_route(monkeypatch):
    # numpy refuses a stack of Gram systems that holds a singular one (the
    # square's, coplanar); the others must still be solved in the batch.
    # Moving one corner by 2^-26 leaves the system regular but so badly
    # conditioned that its circumcenter misses a vertex by 5e-9 relative.
    rng = np.random.default_rng(63)
    square = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]
    skewed = square[:3] + [(1.0, 1.0 + 2.0**-26, 0.0)]
    P = np.concatenate(
        [rng.normal(size=(5, 4, 3)), [square], rng.normal(size=(6, 4, 3)), [skewed]]
    )
    scalar_route, scalar = [], complexes._all_support_ball

    def spy(vertices):
        scalar_route.append(vertices)
        return scalar(vertices)

    monkeypatch.setattr(complexes, "_all_support_ball", spy)
    centers, radii = complexes._all_support_balls(P)
    assert scalar_route == [square, skewed]
    for simplex, center, radius in zip(P, centers, radii):
        want_center, want_radius = scalar([tuple(p) for p in simplex.tolist()])
        assert radius == pytest.approx(want_radius, rel=1e-12)
        assert center == pytest.approx(np.array(want_center), rel=1e-9, abs=1e-12)
    assert radii[5] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert radii[-1] == pytest.approx(meb(np.array(skewed)).radius, rel=1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_cech_far_from_unit_scale_in_higher_dimensions(scale):
    # Squared offsets under- and overflow at these scales (numpy's warning
    # is an error here); each value must be the unscaled one times the scale.
    rng = np.random.default_rng(64)
    for d in (3, 4, 5, 6):
        for n in (6, 7, 8):
            pts = rng.normal(size=(n, d))
            unit = cech_filtration(pts, n - 1).value_of()
            far = cech_filtration(pts * scale, n - 1).value_of()
            assert far.keys() == unit.keys()
            for s, v in unit.items():
                assert far[s] == pytest.approx(v * scale, rel=1e-12, abs=0.0), (d, n, s)


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
