"""Well-separated pair decompositions."""

import math

import numpy as np
import pytest

from cechkit.errors import InvalidInput
from cechkit.quadtree import Cell, build, normalize
from cechkit.wspd import build_wspd, is_well_separated
from cechkit.wssd import _expansion_sample_check

from conftest import random_cloud


def certificate(pair):
    """(larger cell diameter, cell distance) of a well-separated pair."""
    return max(pair.q.diam(), pair.q2.diam()), pair.q.distance_to_cell(pair.q2)


def wspd_ball_property_check(qt, pair, eps, trials, seed=0):
    """Randomized check of the expansion property of well-separated pairs:
    balls meeting both cells, (1 + 2*eps)-expanded, swallow both cells."""
    if not qt.points_in(pair.q) or not qt.points_in(pair.q2):
        raise InvalidInput("pair cells must be nonempty")
    return _expansion_sample_check((pair.q, pair.q2), 1.0 + 2.0 * eps, trials, seed)


def test_is_well_separated_arithmetic():
    # Unit cells, diam sqrt(2), box distance 3: sqrt(2) <= 0.5 * 3.
    q, q2 = Cell(0, (0, 0)), Cell(0, (4, 0))
    assert q.distance_to_cell(q2) == pytest.approx(3.0)
    assert is_well_separated(q, q2, 0.5)
    assert not is_well_separated(q, q2, 0.4)


def test_is_well_separated_adjacent_and_self():
    q, q2 = Cell(0, (0, 0)), Cell(0, (1, 0))
    assert not is_well_separated(q, q2, 0.99)
    assert not is_well_separated(q, q, 0.99)


def test_build_wspd_two_points():
    qt = build(normalize([[0.0, 0.0], [1.0, 0.0]]))
    w = build_wspd(qt, 0.5)
    assert len(w.pairs) == 1
    pair = w.pairs[0]
    ids = {qt.points_in(pair.q)[0], qt.points_in(pair.q2)[0]}
    assert ids == {0, 1}


def test_build_wspd_eps_validation():
    qt = build(normalize([[0.0, 0.0], [1.0, 0.0]]))
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(InvalidInput):
            build_wspd(qt, bad)


def _coverage_map(qt, w):
    cover = {}
    for pair in w.pairs:
        for i in qt.points_in(pair.q):
            for j in qt.points_in(pair.q2):
                if i != j:
                    key = (min(i, j), max(i, j))
                    cover[key] = cover.get(key, 0) + 1
    return cover


def test_wspd_exhaustive_coverage_and_separation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        qt = build(normalize(random_cloud(rng, n, 2)))
        w = build_wspd(qt, 0.5)
        for pair in w.pairs:
            assert is_well_separated(pair.q, pair.q2, 0.5)
            dmax, dist = certificate(pair)
            assert dmax <= 0.5 * dist * (1.0 + 1e-12)
        cover = _coverage_map(qt, w)
        assert set(cover) == {(i, j) for i in range(n) for j in range(i + 1, n)}


def test_wspd_coverage_larger_cloud():
    rng = np.random.default_rng(22)
    n = 120
    qt = build(normalize(random_cloud(rng, n, 2)))
    w = build_wspd(qt, 0.4)
    cover = _coverage_map(qt, w)
    assert len(cover) == n * (n - 1) // 2


def test_wspd_size_band_under_doubling():
    # Normalized pair counts stay within a factor-2 band as n doubles.
    ratios = []
    for n in (64, 128, 256):
        pts = random_cloud(np.random.default_rng(100), n, 2)
        qt = build(normalize(pts))
        ratios.append(len(build_wspd(qt, 0.5).pairs) / n)
    assert max(ratios) / min(ratios) < 2.0


def test_ball_property_meb_of_cross_pair():
    rng = np.random.default_rng(33)
    qt = build(normalize(random_cloud(rng, 10, 2)))
    w = build_wspd(qt, 0.3)
    for pair in w.pairs:
        assert wspd_ball_property_check(qt, pair, 0.3, trials=5, seed=7)


def test_ball_property_many_trials():
    rng = np.random.default_rng(34)
    qt = build(normalize(random_cloud(rng, 14, 2)))
    w = build_wspd(qt, 0.5)
    trials_left = 1000
    for k, pair in enumerate(w.pairs):
        t = min(20, trials_left)
        assert wspd_ball_property_check(qt, pair, 0.5, trials=t, seed=k)
        trials_left -= t
        if trials_left == 0:
            break
    assert trials_left == 0


def test_half_wspd_is_one_wssd():
    # The k=1 bridge: an (eps/2)-WSPD tuple passes the eps expansion test.
    from cechkit.wssd import WST, wst_ball_property_check

    rng = np.random.default_rng(35)
    qt = build(normalize(random_cloud(rng, 9, 2)))
    eps = 0.5
    w = build_wspd(qt, eps / 2.0)
    for k, pair in enumerate(w.pairs):
        assert wst_ball_property_check(WST((pair.q, pair.q2)), eps, trials=10, seed=k)


def test_deterministic_output():
    pts = random_cloud(np.random.default_rng(36), 30, 2)
    a = build_wspd(build(normalize(pts)), 0.5)
    b = build_wspd(build(normalize(pts)), 0.5)
    assert [p.key() for p in a.pairs] == [p.key() for p in b.pairs]
