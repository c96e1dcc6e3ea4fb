"""Normalization, quadtree levels, ancestors, grid queries."""

import itertools
import math
import sys

import numpy as np
import pytest

from cechkit.errors import DegenerateInput, InvalidInput
from cechkit.geometry import Ball
from cechkit.quadtree import Cell, build, cell_index_of, dyadic_height, normalize, qcell

from conftest import cell_lo, cells_at, contains_point, random_cloud


def cell_center(cell):
    return (np.asarray(cell.index, dtype=float) + 0.5) * cell.side


def to_normalized_length(cloud, r):
    return r * cloud.scale


def test_normalize_two_points():
    cloud = normalize([[0.0, 0.0], [1.0, 0.0]])
    assert cloud.scale == pytest.approx(1.0 / math.sqrt(2.0))
    dist = np.linalg.norm(cloud.points[0] - cloud.points[1])
    assert dist == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_normalize_three_collinear():
    cloud = normalize([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
    assert cloud.scale == pytest.approx((1.0 / math.sqrt(2.0)) / 2.0)
    # spread 10 * scale ~ 3.54, so the root cube has side 4
    assert cloud.L == 2
    assert (cloud.points >= 0).all() and (cloud.points < 2.0**cloud.L).all()


def test_normalize_single_point():
    cloud = normalize([[5.0, 5.0]])
    assert cloud.scale == 1.0
    assert cloud.L == 0
    assert np.allclose(cloud.points, 0.0)


def test_normalize_degenerate():
    with pytest.raises(DegenerateInput):
        normalize([[1.0, 1.0], [1.0, 1.0]])


def test_normalize_min_distance_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        pts = random_cloud(rng, int(rng.integers(2, 12)), d, box=rng.uniform(0.5, 20))
        cloud = normalize(pts)
        dmat = np.linalg.norm(
            cloud.points[:, None, :] - cloud.points[None, :, :], axis=2
        )
        mind = dmat[np.triu_indices(cloud.n, 1)].min()
        assert mind == pytest.approx(1.0 / math.sqrt(d), rel=1e-9)
        assert (cloud.points >= 0).all() and (cloud.points < 2.0**cloud.L).all()
        # round trip of lengths through the recorded transform
        assert cloud.to_original_length(to_normalized_length(cloud, 1.7)) == pytest.approx(1.7)


def test_build_single_point_chain():
    qt = build(normalize([[3.0, 1.0]]))
    for h in (0, 1, 2):
        cells = cells_at(qt, h)
        assert len(cells) == 1
        assert qt.rep(cells[0]) == 0


def test_build_two_points_opposite_quadrants():
    # Normalized points (0,0) and (~0.69, ~0.14) share the height-0
    # root and fall into different height -1 quadrants.
    qt = build(normalize([[0.0, 0.0], [1.0, 0.2]]))
    root = qt.root()
    kids = qt.children(root)
    assert len(kids) == 2
    assert sorted(qt.rep(c) for c in kids) == [0, 1]


def test_representative_heredity():
    rng = np.random.default_rng(9)
    qt = build(normalize(random_cloud(rng, 20, 2)))
    for h in range(0, qt.L + 1):
        for cell in cells_at(qt, h):
            kids = qt.children(cell) if h > 0 else []
            if kids:
                assert qt.rep(cell) in {qt.rep(c) for c in kids}
            assert contains_point(cell, qt.cloud.points[qt.rep(cell)])


def test_grid_partition_and_leaf_uniqueness():
    rng = np.random.default_rng(4)
    qt = build(normalize(random_cloud(rng, 15, 3)))
    for h in (-1, 0, 1, qt.L):
        lev = qt.level(h)
        ids = sorted(i for ids in lev.values() for i in ids)
        assert ids == list(range(15))
    # normalization gap exceeds the height-0 cell diameter at depth -1
    assert all(len(ids) == 1 for ids in qt.level(-1).values())


def _ref_bracket_pow2(x):
    """log2 and a correction loop: the rule dyadic_height replaced."""
    h = int(math.floor(math.log2(x)))
    while 2.0**h > x:
        h -= 1
    while 2.0 ** (h + 1) < x:
        h += 1
    return h


def test_dyadic_height_brackets_every_float():
    rng = np.random.default_rng(72)
    values = [math.ldexp(1.0, e) for e in range(-1070, 1020)]
    values += [math.nextafter(v, side) for v in values for side in (0.0, math.inf)]
    values += [5e-324, 2.2e-308] + list(np.exp(rng.uniform(-700, 700, 2000)))
    for x in values:
        h = dyadic_height(x)
        assert h == _ref_bracket_pow2(x), x
        assert math.ldexp(1.0, h) <= x < math.ldexp(1.0, h + 1), x
    assert dyadic_height(sys.float_info.max) == 1023
    for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInput):
            dyadic_height(bad)


def _ref_root_height(shifted):
    # the loop `normalize` ran before it read the root height off
    # `dyadic_height`
    extent = float(shifted.max())
    L = 0
    while 2.0**L < extent:
        L += 1
    if (shifted >= 2.0**L).any():
        L += 1
    return L


def test_normalize_root_height_is_one_above_the_extent_height():
    for e in range(-10, 61):
        for x in (math.nextafter(2.0**e, 0.0), 2.0**e, math.nextafter(2.0**e, math.inf)):
            assert max(0, dyadic_height(x) + 1) == _ref_root_height(np.array([0.0, x])), x
            if x >= 2.0:
                # gap 1 in R^1 keeps the scale at 1, so the extent is x
                cloud = normalize([[0.0], [1.0], [x]])
                assert float(cloud.points.max()) == x
                assert cloud.L == _ref_root_height(cloud.points), x
    rng = np.random.default_rng(73)
    for _ in range(200):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        cloud = normalize(random_cloud(rng, n, d, box=10.0 ** rng.uniform(-3, 3)))
        assert cloud.L == _ref_root_height(cloud.points)


def test_qcell_examples():
    q = Cell(0, (5, 3))
    assert qcell(q, 2) == Cell(2, (1, 0))
    assert qcell(q, 0) == q
    assert qcell(qcell(q, 1), 3) == qcell(q, 3)
    with pytest.raises(InvalidInput):
        qcell(q, -1)


def test_cell_geometry():
    c = Cell(-1, (1, 1))
    assert c.side == 0.5
    assert c.diam() == pytest.approx(0.5 * math.sqrt(2.0))
    assert contains_point(c, [0.5, 0.7])
    assert not contains_point(c, [1.0, 0.7])  # half-open upper face
    assert c.distance_to_cell(Cell(-1, (3, 1))) == pytest.approx(0.5)
    assert cell_index_of(np.array([0.5, 0.7]), -1) == (1, 1)


def test_nonempty_cells_intersecting_point_ball():
    rng = np.random.default_rng(13)
    qt = build(normalize(random_cloud(rng, 12, 2)))
    p = qt.cloud.points[5]
    cells = qt.nonempty_cells_intersecting(Ball(tuple(p), 0.0), 0)
    own = Cell(0, cell_index_of(p, 0))
    assert own in cells
    assert all(c.intersects_ball(Ball(tuple(p), 0.0)) for c in cells)


def test_nonempty_cells_intersecting_root_ball():
    rng = np.random.default_rng(14)
    qt = build(normalize(random_cloud(rng, 12, 2)))
    big = Ball(tuple(cell_center(qt.root())), 2.0 ** (qt.L + 2))
    assert qt.nonempty_cells_intersecting(big, 1) == cells_at(qt, 1)


def test_nonempty_cells_intersecting_matches_bruteforce():
    rng = np.random.default_rng(15)
    for d in (1, 2, 3, 4):
        for _ in range(3):
            qt = build(normalize(random_cloud(rng, int(rng.integers(2, 19)), d)))
            side = 2.0**qt.L
            for h in range(-3, qt.L + 2):
                for _ in range(6):
                    # centers up to half a root side outside the root cube
                    center = rng.uniform(-0.5 * side, 1.5 * side, size=d)
                    if rng.random() < 0.3:
                        center = qt.cloud.points[int(rng.integers(0, qt.cloud.n))]
                    radius = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, side))
                    ball = Ball(tuple(float(c) for c in center), radius)
                    got = qt.nonempty_cells_intersecting(ball, h)
                    want = [c for c in cells_at(qt, h) if c.intersects_ball(ball)]
                    assert got == want


def ref_children(qt, cell):
    """The 2^d probe loop `Quadtree.children` used before the bucket index."""
    h = cell.height - 1
    lev = qt.level(h)
    out = []
    base = tuple(2 * i for i in cell.index)
    for m in range(1 << qt.d):
        idx = tuple(base[a] + ((m >> a) & 1) for a in range(qt.d))
        if idx in lev:
            out.append(Cell(h, idx))
    return sorted(out)


def test_children_match_probe_loop():
    rng = np.random.default_rng(16)
    for d in (1, 2, 3):
        for n in (2, 9, 17):
            qt = build(normalize(random_cloud(rng, n, d)))
            for h in range(-3, qt.L + 3):
                for cell in cells_at(qt, h):
                    assert qt.children(cell) == ref_children(qt, cell)
                # an empty cell has no children
                assert qt.children(Cell(h, (-1,) * d)) == []


def test_near_matches_ancestor_bruteforce():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        qt = build(normalize(random_cloud(rng, 14, d)))
        for h in range(-2, qt.L + 1):
            for H in range(h, qt.L + 2):
                buckets = qt.buckets(h, H)
                assert qt.buckets(h, H) is buckets
                assert sorted(c for g in buckets.values() for c in g) == cells_at(qt, h)
                for a, group in buckets.items():
                    assert isinstance(group, tuple) and list(group) == sorted(group)
                    assert all(qcell(c, H).index == a for c in group)
                for _ in range(4):
                    top = 2 ** max(qt.L - H, 0)
                    anchor = Cell(H, tuple(int(i) for i in rng.integers(-1, top + 1, size=d)))
                    want = [
                        c for c in cells_at(qt, h)
                        if max(abs(i - j) for i, j in zip(qcell(c, H).index, anchor.index)) <= 1
                    ]
                    assert sorted(qt.near(anchor, h)) == want


def ref_near(qt, anchor, h):
    """`Quadtree.near` by its definition: the buckets at the 3^d offsets."""
    buckets = qt.buckets(h, anchor.height)
    return [
        c
        for o in itertools.product((-1, 0, 1), repeat=qt.d)
        for c in buckets.get(tuple(i + j for i, j in zip(anchor.index, o)), ())
    ]


def test_near_scan_of_few_buckets_matches_the_offset_probe():
    # With fewer nonempty buckets than 3^d, near scans the buckets instead
    # of probing the offsets; as sorted lists the two agree.
    rng = np.random.default_rng(18)
    scans = 0
    for d in range(1, 7):
        qt = build(normalize(random_cloud(rng, 10, d)))
        for h in range(-1, qt.L + 1):
            for H in range(h, qt.L + 2):
                scans += len(qt.buckets(h, H)) < 3**d
                anchors = [qcell(c, H) for c in cells_at(qt, h)[:3]]
                top = 2 ** max(qt.L - H, 0)
                anchors += [Cell(H, tuple(int(i) for i in rng.integers(-1, top + 1, size=d)))]
                for anchor in anchors:
                    assert sorted(qt.near(anchor, h)) == sorted(ref_near(qt, anchor, h))
    assert scans > 0


# numpy copies of the per-cell geometry before it moved to Python floats;
# the reference for the scalar versions below
def ref_lo_hi(cell):
    lo = np.asarray(cell.index, dtype=float) * cell.side
    return lo, lo + cell.side


def ref_distance_to_point(cell, x):
    lo, hi = ref_lo_hi(cell)
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(np.maximum(np.maximum(lo - x, x - hi), 0.0)))


def ref_distance_to_cell(cell, other):
    lo, hi = ref_lo_hi(cell)
    olo, ohi = ref_lo_hi(other)
    return float(np.linalg.norm(np.maximum(np.maximum(lo - ohi, olo - hi), 0.0)))


def ref_intersects_ball(cell, ball, tol=1e-12):
    return ref_distance_to_point(cell, ball.center) <= ball.radius + tol


def _probe_point(rng, cell):
    # per axis: a face, the middle, or a random spot up to two sides away,
    # so faces, edges and corners all come up
    lo, hi = ref_lo_hi(cell)
    out = []
    for a in range(cell.d):
        pick = int(rng.integers(0, 4))
        if pick == 0:
            out.append(float(lo[a]))
        elif pick == 1:
            out.append(float(hi[a]))
        else:
            out.append(float(rng.uniform(lo[a] - 2 * cell.side, hi[a] + 2 * cell.side)))
    return out


def test_cell_geometry_matches_numpy_reference():
    rng = np.random.default_rng(61)
    on_corner = 0
    for _ in range(400):
        d = int(rng.integers(1, 5))
        cell = Cell(int(rng.integers(-3, 5)), tuple(int(i) for i in rng.integers(-6, 7, size=d)))
        lo, hi = ref_lo_hi(cell)
        assert cell_lo(cell) == tuple(lo)
        for _ in range(6):
            x = _probe_point(rng, cell)
            on_corner += all(x[a] in (lo[a], hi[a]) for a in range(d))
            want = ref_distance_to_point(cell, x)
            assert abs(cell.distance_to_point(x) - want) <= 1e-12
            # power-of-two sides make floor(x / side) exact, so the index
            # test is the half-open box test on every axis
            inside = all(lo[a] <= x[a] < hi[a] for a in range(d))
            assert (cell_index_of(x, cell.height) == cell.index) == inside
            for radius in (want, 0.5 * want, 2.0 * want + 1e-3, 0.0):
                ball = Ball(tuple(x), radius)
                assert cell.intersects_ball(ball) == ref_intersects_ball(cell, ball)
            h = int(rng.integers(-3, 5))
            near = tuple(int(math.floor(v / 2.0**h)) + int(rng.integers(-2, 3)) for v in x)
            other = Cell(h, near)
            want = ref_distance_to_cell(cell, other)
            assert abs(cell.distance_to_cell(other) - want) <= 1e-12
            assert abs(other.distance_to_cell(cell) - want) <= 1e-12
    assert on_corner > 50


def test_cell_is_its_key():
    rng = np.random.default_rng(62)
    cells = [
        Cell(int(rng.integers(-3, 5)), tuple(int(i) for i in rng.integers(-3, 4, size=2)))
        for _ in range(60)
    ]
    for c in cells:
        key = (c.height, c.index)
        assert c == key and hash(c) == hash(key)
    assert sorted(cells) == sorted((c.height, c.index) for c in cells)
