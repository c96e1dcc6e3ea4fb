"""Multiplicative diagram comparison and log-bottleneck distance."""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from cechkit.complexes import cech_filtration
from cechkit.diagram import (
    _candidates,
    _compatible,
    _droppable,
    _feasible,
    bottleneck_log,
    is_c_approximation,
    perfect_matching,
)
from cechkit.errors import InvalidInput
from cechkit.homology import INF, PersistenceDiagram, persist_filtration

from conftest import bench_module, is_face_monotone, random_cloud


def dgm(p, pts):
    d = PersistenceDiagram()
    for b, death in pts:
        d.add(p, b, death)
    return d


def test_matched_within_factor():
    a = dgm(1, [(1.0, 2.0)])
    b = dgm(1, [(1.1, 1.9)])
    rep = is_c_approximation(a, b, 1.2)
    assert rep.matched
    assert rep.witness[1] == [((1.0, 2.0), (1.1, 1.9))]


def test_not_matched_far_point():
    a = dgm(1, [(1.0, 4.0)])
    b = dgm(1, [])
    assert not is_c_approximation(a, b, 1.5).matched
    # dropping requires death <= c^2 * birth: c = 2 suffices
    assert is_c_approximation(a, b, 2.0).matched


def test_bottleneck_pure_shift():
    a = dgm(1, [(1.0, 2.0)])
    b = dgm(1, [(1.0, 2.2)])
    assert bottleneck_log(a, b) == pytest.approx(math.log(1.1), abs=1e-12)


def test_bottleneck_identical_and_validation():
    a = dgm(0, [(0.0, INF), (0.0, 1.0)])
    assert bottleneck_log(a, a) == 0.0
    with pytest.raises(InvalidInput):
        is_c_approximation(a, a, 0.5)


def test_infinite_deaths_only_match_infinite():
    a = dgm(0, [(1.0, INF)])
    b = dgm(0, [(1.0, 100.0)])
    assert bottleneck_log(a, b) == INF


def test_zero_births_only_match_zero():
    a = dgm(0, [(0.0, 1.0)])
    b = dgm(0, [(0.5, 1.0)])
    assert bottleneck_log(a, b) == INF
    assert bottleneck_log(a, dgm(0, [(0.0, 1.3)])) == pytest.approx(math.log(1.3))


def test_bottleneck_symmetric():
    rng = np.random.default_rng(81)
    for _ in range(20):
        a = dgm(1, [(rng.uniform(0.5, 1), rng.uniform(1.5, 3)) for _ in range(3)])
        b = dgm(1, [(rng.uniform(0.5, 1), rng.uniform(1.5, 3)) for _ in range(3)])
        assert bottleneck_log(a, b) == pytest.approx(bottleneck_log(b, a), abs=1e-12)


def test_bottleneck_triangle_inequality():
    rng = np.random.default_rng(82)
    for _ in range(15):
        ds = [
            dgm(1, [(rng.uniform(0.5, 1), rng.uniform(1.5, 3)) for _ in range(2)])
            for _ in range(3)
        ]
        ab = bottleneck_log(ds[0], ds[1])
        bc = bottleneck_log(ds[1], ds[2])
        ac = bottleneck_log(ds[0], ds[2])
        assert ac <= ab + bc + 1e-9


def test_multiplicative_stability_of_cech_values():
    # Scaling every filtration value by a factor in [1/c, c] moves the
    # diagram by at most log c in the log-bottleneck distance.
    from cechkit.complexes import Filtration

    rng = np.random.default_rng(83)
    for _ in range(5):
        pts = random_cloud(rng, 7, 2)
        filt = cech_filtration(pts, 3)
        c = float(rng.uniform(1.05, 1.5))
        vals = {}
        for s, v in filt.entries:
            w = v * float(rng.uniform(1.0 / c, c))
            # keep face monotonicity so the perturbed object is a filtration
            w = max([w] + [vals[f] for f in _faces(s)])
            vals[s] = 0.0 if len(s) == 1 else w
        pert = Filtration([(s, vals[s]) for s, _ in filt.entries])
        assert is_face_monotone(pert)
        d1 = persist_filtration(filt, 2)
        d2 = persist_filtration(pert, 2)
        assert bottleneck_log(d1, d2) <= math.log(c) + 1e-9


def _faces(s):
    import itertools

    if len(s) == 1:
        return []
    return list(itertools.combinations(s, len(s) - 1))


def test_witness_covers_all_offdiagonal_points():
    a = dgm(1, [(1.0, 3.0), (1.0, 1.05)])
    b = dgm(1, [(1.1, 2.9)])
    rep = is_c_approximation(a, b, 1.3)
    assert rep.matched
    matched_left = {p for p, _ in rep.witness[1]}
    assert (1.0, 3.0) in matched_left  # the far point must be matched, not dropped


def ref_feasible(pts1, pts2, c):
    # the recursive Kuhn matcher `_feasible` ran before the explicit-stack
    # `perfect_matching`; kept as the reference for matchings and witnesses
    n1, n2 = len(pts1), len(pts2)
    size_a = n1 + n2
    size_b = n2 + n1

    def neighbors(a):
        if a < n1:
            for j in range(n2):
                if _compatible(pts1[a], pts2[j], c):
                    yield j
            if _droppable(pts1[a], c):
                yield n2 + a
        else:
            j = a - n1
            if _droppable(pts2[j], c):
                yield j
            for b in range(n2, size_b):
                yield b

    match_b = [-1] * size_b

    def augment(a, seen):
        for b in neighbors(a):
            if seen[b]:
                continue
            seen[b] = True
            if match_b[b] == -1 or augment(match_b[b], seen):
                match_b[b] = a
                return True
        return False

    matched = 0
    for a in range(size_a):
        if augment(a, [False] * size_b):
            matched += 1
    if matched != size_a:
        return None
    return [(match_b[b], b) for b in range(n2) if match_b[b] != -1 and match_b[b] < n1]


@pytest.mark.parametrize("npts", [10, 20, 40, 60, 80])
def test_feasible_matches_recursive_reference(npts):
    W = bench_module("workloads")
    rng = np.random.default_rng(npts)
    for _ in range(2):
        planted = float(rng.uniform(1.05, 1.5))
        a, b = W.planted_pair(rng, npts, planted)
        d1 = PersistenceDiagram.from_json_obj(a)
        d2 = PersistenceDiagram.from_json_obj(b)
        best = math.exp(bottleneck_log(d1, d2))
        outcomes = set()
        for p in d1.dims():
            pts1, pts2 = d1.dim(p), d2.dim(p)
            cands = _candidates(pts1, pts2)
            for c in [1.0, best * (1.0 - 1e-9), best, planted, cands[len(cands) // 2], cands[-1]]:
                got = _feasible(pts1, pts2, c)
                assert got == ref_feasible(pts1, pts2, c), (npts, p, c)
                outcomes.add(got is None)
        assert outcomes == {True, False}


def test_bottleneck_equal_large_diagrams_is_fast():
    # Equal dimensions are skipped: c = 1 always matches a list to itself.
    W = bench_module("workloads")
    a, _ = W.planted_pair(np.random.default_rng(0), 600, 1.2)
    d1, d2 = PersistenceDiagram.from_json_obj(a), PersistenceDiagram.from_json_obj(a)
    start = time.perf_counter()
    assert bottleneck_log(d1, d2) == 0.0
    assert time.perf_counter() - start < 1.0


def _brute_force_matchable(adj, n_right):
    return any(
        all(b in adj[a] for a, b in enumerate(perm))
        for perm in itertools.permutations(range(n_right), len(adj))
    )


def test_perfect_matching_agrees_with_brute_force():
    rng = np.random.default_rng(91)
    found = 0
    for _ in range(240):
        n_left, n_right = (int(x) for x in rng.integers(1, 8, size=2))
        density = float(rng.uniform(0.1, 0.7))
        adj = [
            [b for b in rng.permutation(n_right).tolist() if rng.random() < density]
            for _ in range(n_left)
        ]
        match = perfect_matching(adj, n_right)
        assert (match is not None) == _brute_force_matchable(adj, n_right), adj
        if match is not None:
            found += 1
            assert len(match) == n_right
            assert sorted(a for a in match if a != -1) == list(range(n_left))
            assert all(b in adj[a] for b, a in enumerate(match) if a != -1)
    assert 40 <= found <= 200


def test_perfect_matching_augments_past_the_recursion_limit():
    # Roots 0..n-2 take right vertex i; root n-1 can only take right 0,
    # which shifts every earlier root one place along the chain.
    n = max(3000, 3 * sys.getrecursionlimit())
    adj = [[i, i + 1] for i in range(n - 1)] + [[0]]
    match = perfect_matching(adj, n)
    assert match == [n - 1] + list(range(n - 1))
