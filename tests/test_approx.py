"""Grid approximation complexes and the maps connecting them."""

import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cechkit.approx as approx_module
from cechkit.approx import (
    ApproxComplex,
    build_A,
    build_tower,
    cech_complex_at,
    map_g,
    map_phi,
    map_psi,
    scale_params,
    theta_value,
    tower_scale_range,
)
from cechkit.complexes import Filtration, cech_filtration
from cechkit.diagram import bottleneck_log
from cechkit.errors import InvalidInput
from cechkit.geometry import meb, meb_of_cells
from cechkit.homology import (
    INF,
    PersistenceDiagram,
    SComplex,
    VertexMap,
    _coned_filtration,
    check_contiguous,
    persist_filtration,
    tower_diagram,
)
from cechkit.quadtree import Cell, build, normalize, qcell
from cechkit.wssd import build_wssd

from conftest import (
    TRIANGLE,
    ScaleTower,
    bench_module,
    cells_at,
    random_cloud,
    ref_coned_filtration,
)


def make(pts, eps, kmax=None):
    qt = build(normalize(pts))
    if kmax is None:
        kmax = qt.d
    return qt, build_wssd(qt, eps / 12.0, kmax)


def thetas(eps, ell_range):
    """theta_l for every l of the range."""
    return [theta_value(eps, ell) for ell in range(ell_range[0], ell_range[1] + 1)]


def complexes_at(tower, scales):
    """The complex of a grid tower at each scale: the simplices valued up
    to it in the last complex entered by then."""
    return [
        [K for K in tower.complexes if K.entries[0][1] <= theta][-1].complex_at(theta)
        for theta in scales
    ]


# ---------------------------------------------------------------------------
# the per-scale tower, kept as the oracle of build_tower: one ApproxComplex
# per scale, cut from its height's top, joined by map_g at every step


def ref_cut(top, params):
    """The complex at a scale of top's height and no larger theta_k: each
    simplex settled at that theta_k, faces first."""
    theta, values = params.theta_k, {}
    for s, bracket in top.values.items():
        if bracket[0] <= theta < bracket[1]:
            facets = [values.get(f) for f in itertools.combinations(s, len(s) - 1)]
            bracket = None if None in facets else approx_module._settle(s, bracket, theta, facets)
        elif theta < bracket[0]:
            bracket = None
        if bracket is not None:
            values[s] = bracket
    return ApproxComplex(params.alpha, params, SComplex(set(values)), values)


def ref_approx_complexes(qt, dec, eps, ell_range):
    """ApproxComplex at every scale: one build_A per height, cut below."""
    params = [approx_module._grid_params(qt, theta, eps) for theta in thetas(eps, ell_range)]
    out = []
    for _, run in itertools.groupby(params, key=lambda p: p.h_alpha):
        *below, last = run
        top = build_A(qt, dec, last.alpha, eps)
        out += [ref_cut(top, p) for p in below] + [top]
    return out


def ref_build_tower(qt, dec, eps, ell_range):
    """The tower at every scale; the first complex counts as entered at 0
    when it holds one vertex per point and nothing else."""
    a = ref_approx_complexes(qt, dec, eps, ell_range)
    left = a[0].complex.simplices
    return ScaleTower(
        [x.complex for x in a],
        [map_g(x, y) for x, y in zip(a, a[1:])],
        thetas(eps, ell_range),
        births_at_zero={len(s) for s in left} == {1} and len(left) == qt.cloud.n,
    )


# ---------------------------------------------------------------------------
# scale discretization

def test_scale_params_examples():
    p = scale_params(1.3, 0.5, 2)
    assert p.k_alpha == 1
    assert p.theta_k == pytest.approx(1.25)
    assert scale_params(1.0, 0.5, 2).k_alpha == 0
    assert scale_params(0.9, 0.5, 2).k_alpha == -1
    with pytest.raises(InvalidInput):
        scale_params(0.0, 0.5, 2)
    with pytest.raises(InvalidInput):
        scale_params(1.0, 1.5, 2)


def test_scale_params_at_the_largest_finite_theta():
    # theta_{k+1} overflows there, which puts it above alpha.
    top = theta_value(0.5, 3180)
    assert scale_params(top, 0.5, 2).k_alpha == 3180
    assert scale_params(1.7e308, 0.5, 2).k_alpha == 3180


def test_scale_params_interval_invariance():
    # All alphas in [theta_k, theta_{k+1}) share k and h.
    rng = np.random.default_rng(71)
    for _ in range(50):
        eps = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(-6, 7))
        lo, hi = theta_value(eps, k), theta_value(eps, k + 1)
        a = float(rng.uniform(lo, hi * (1 - 1e-12)))
        p = scale_params(a, eps, 2)
        assert p.k_alpha == k
        assert p.h_alpha == scale_params(lo, eps, 2).h_alpha


def test_scales_outside_float_range_are_rejected():
    # theta_l overflows above l = 3180 and underflows to 0 far below; the
    # message names the exponent.  A non-finite alpha is no scale either.
    for ell in (5000, -5000):
        with pytest.raises(InvalidInput, match=f"l={ell}"):
            theta_value(0.5, ell)
    for alpha in (math.inf, math.nan):
        with pytest.raises(InvalidInput, match="alpha"):
            scale_params(alpha, 0.5, 2)


def test_theta_bracket_for_height():
    p = scale_params(2.7, 0.4, 3)
    x = p.eps * p.theta_k / (3.0 * math.sqrt(3))
    assert 2.0**p.h_alpha <= x * (1 + 1e-12) <= 2.0 ** (p.h_alpha + 1) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# build_A

def test_build_A_tiny_scale_vertices_only():
    qt, dec = make(TRIANGLE, 0.5)
    a = build_A(qt, dec, 1e-4, 0.5)
    assert {len(s) for s in a.complex.simplices} == {1}
    assert len(a.complex.vertices()) == 3


def test_build_A_rejects_a_grid_too_fine_for_float_indices():
    # theta_-3300 is a subnormal float; its grid height is below -1024, so
    # a cell index of the normalized cloud would overflow.
    qt, dec = make(TRIANGLE, 0.5)
    with pytest.raises(InvalidInput, match="too fine"):
        build_A(qt, dec, theta_value(0.5, -3300), 0.5)


def test_build_A_huge_scale_contractible():
    rng = np.random.default_rng(72)
    qt, dec = make(random_cloud(rng, 6, 2), 0.5)
    lo, hi = tower_scale_range(qt, 0.5)
    t = build_tower(qt, dec, 0.5, (hi, hi))
    assert tower_diagram(t, 0).dim(0) == [(theta_value(0.5, hi), INF)]
    assert tower_diagram(t, 1).dim(1) == []


def test_build_A_closed_and_radius_bounded():
    rng = np.random.default_rng(73)
    qt, dec = make(random_cloud(rng, 7, 2), 0.5)
    a = build_A(qt, dec, 1.1, 0.5)
    assert a.complex.is_closed()
    for s in a.complex.simplices:
        if len(s) > 1:
            assert meb_of_cells(s).radius <= a.params.theta_k * (1 + 1e-9)


def test_build_A_wrong_wssd_parameter():
    qt = build(normalize(TRIANGLE))
    dec = build_wssd(qt, 0.1, 2)
    with pytest.raises(InvalidInput):
        build_A(qt, dec, 1.0, 0.5)


# ---------------------------------------------------------------------------
# connecting map g

def test_map_g_identity_on_equal_heights():
    qt, dec = make(TRIANGLE, 0.5)
    a1 = build_A(qt, dec, 1.0, 0.5)
    a2 = build_A(qt, dec, 1.01, 0.5)
    g = map_g(a1, a2)
    assert g.is_simplicial()
    if a1.h == a2.h:
        assert all(v == w for v, w in g.mapping.items())


def test_map_g_simplicial_and_composes():
    rng = np.random.default_rng(74)
    qt, dec = make(random_cloud(rng, 6, 2), 0.5)
    alphas = [0.3, 0.9, 2.7]
    a = [build_A(qt, dec, x, 0.5) for x in alphas]
    g01, g12 = map_g(a[0], a[1]), map_g(a[1], a[2])
    g02 = map_g(a[0], a[2])
    assert g01.is_simplicial() and g12.is_simplicial() and g02.is_simplicial()
    comp = g12.compose(g01)
    assert comp.mapping == g02.mapping
    with pytest.raises(InvalidInput):
        map_g(a[2], a[0])


def test_map_g_sends_cells_to_ancestors():
    rng = np.random.default_rng(75)
    qt, dec = make(random_cloud(rng, 5, 2), 0.5)
    a1 = build_A(qt, dec, 0.5, 0.5)
    a2 = build_A(qt, dec, 2.0, 0.5)
    g = map_g(a1, a2)
    for cell, img in g.mapping.items():
        assert img == qcell(cell, a2.h)


# ---------------------------------------------------------------------------
# cross maps phi and psi

def test_phi_and_psi_simplicial():
    rng = np.random.default_rng(76)
    for _ in range(3):
        qt, dec = make(random_cloud(rng, int(rng.integers(5, 9)), 2), 0.5)
        a = build_A(qt, dec, 1.0, 0.5)
        phi = map_phi(qt.cloud.points, a, 0.5)
        psi = map_psi(qt, a)
        assert phi.is_simplicial()
        assert psi.is_simplicial()


def test_phi_after_psi_is_g_on_vertices():
    # phi at alpha(1+eps) undoes psi at alpha, up to the ancestor map.
    rng = np.random.default_rng(77)
    qt, dec = make(random_cloud(rng, 7, 2), 0.5)
    eps = 0.5
    a1 = build_A(qt, dec, 1.0, eps)
    a2 = build_A(qt, dec, 1.0 * (1.0 + eps), eps)
    psi = map_psi(qt, a1)
    phi = map_phi(qt.cloud.points, a2, eps)
    g = map_g(a1, a2)
    for cell in a1.complex.vertices():
        assert phi.mapping[psi.mapping[cell]] == g.mapping[cell]


def test_psi_after_phi_contiguous_to_inclusion():
    from cechkit.homology import SComplex, VertexMap

    rng = np.random.default_rng(78)
    qt, dec = make(random_cloud(rng, 6, 2), 0.5)
    eps, alpha = 0.5, 1.2
    a = build_A(qt, dec, alpha, eps)
    phi = map_phi(qt.cloud.points, a, eps, kmax=qt.d)
    psi = map_psi(qt, a, kmax=2 * qt.d + 1)
    comp = psi.compose(phi)
    incl = VertexMap(phi.domain, psi.codomain, {v: v for v in phi.domain.vertices()})
    assert incl.is_simplicial()
    assert check_contiguous(comp, incl)


# ---------------------------------------------------------------------------
# towers

def test_tower_scale_range_spans_module():
    rng = np.random.default_rng(79)
    qt, dec = make(random_cloud(rng, 6, 2), 0.5)
    lo, hi = tower_scale_range(qt, 0.5)
    assert lo < hi
    a_lo = build_A(qt, dec, theta_value(0.5, lo), 0.5)
    assert {len(s) for s in a_lo.complex.simplices} == {1}


def test_build_tower_triangle_h0():
    qt, dec = make(TRIANGLE, 0.5)
    t = build_tower(qt, dec, 0.5, tower_scale_range(qt, 0.5))
    dgm = tower_diagram(t, 0)
    inf_classes = [b for b, d in dgm.dim(0) if d == INF]
    assert inf_classes == [0.0]
    assert [v for s, v in t.complexes[0].entries if len(s) == 1] == [0.0] * 3


def test_build_tower_empty_range():
    qt, dec = make(TRIANGLE, 0.5)
    with pytest.raises(InvalidInput):
        build_tower(qt, dec, 0.5, (3, 1))


def test_maps_and_tower_approximation_above_eps_one_half():
    # The module docstring's bound phi <= theta_k holds for eps <= 1/2
    # only; eps in (1/2, 1) is checked here, with the checks of
    # acceptance criteria 4 and 5 at eps = 0.9.
    rng = np.random.default_rng(1009)
    eps = 0.9
    for _ in range(40):
        qt, dec = make(random_cloud(rng, int(rng.integers(4, 11)), 2), eps)
        pts = qt.cloud.points
        alpha = float(rng.uniform(0.4, 1.5))
        a1 = build_A(qt, dec, alpha, eps)
        a2 = build_A(qt, dec, alpha * (1.0 + eps), eps)
        assert a1.complex.is_closed() and a2.complex.is_closed()
        g, psi1 = map_g(a1, a2), map_psi(qt, a1)
        for f in (g, map_phi(pts, a1, eps), psi1):
            assert f.is_simplicial()
        phi2 = map_phi(pts, a2, eps)
        for cell in a1.complex.vertices():
            assert phi2.mapping[psi1.mapping[cell]] == g.mapping[cell]
        psi2 = map_psi(qt, a1, kmax=2 * qt.d + 1)
        comp = psi2.compose(map_phi(pts, a1, eps, kmax=qt.d))
        incl = VertexMap(comp.domain, psi2.codomain, {v: v for v in comp.domain.vertices()})
        assert incl.is_simplicial() and check_contiguous(comp, incl)
        psi_big = map_psi(qt, a2, kmax=2 * qt.d + 1)
        right = VertexMap(a1.complex, psi_big.codomain, psi2.mapping)
        assert check_contiguous(psi_big.compose(g), right)

        tower = build_tower(qt, dec, eps, tower_scale_range(qt, eps))
        exact = persist_filtration(cech_filtration(pts, 2), 1)
        for p in (0, 1):
            log_c = bottleneck_log(
                PersistenceDiagram({p: tower_diagram(tower, p).dim(p)}),
                PersistenceDiagram({p: exact.dim(p)}),
            )
            assert log_c <= math.log(1.0 + eps) + 1e-9


def _two_clusters(rng, n, sigma=0.01):
    """Two planar Gaussian clusters 0.7 apart: a wide spread of scales."""
    centers = np.array([[0.15, 0.5], [0.85, 0.5]])
    return centers[np.arange(n) % 2] + sigma * rng.standard_normal((n, 2))


@pytest.mark.parametrize("kind", ["uniform", "clusters"])
@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_build_tower_shared_cache_matches_independent_build_A(kind, eps):
    # build_tower enumerates one complex per grid height and values each
    # simplex at the scale it enters; the complex at each scale must equal
    # a fresh build_A at the same theta.
    rng = np.random.default_rng([80, int(eps * 100), kind == "clusters"])
    for n in (8, 9):
        pts = random_cloud(rng, n, 2) if kind == "uniform" else _two_clusters(rng, n)
        qt, dec = make(pts, eps, kmax=2)
        scales = thetas(eps, tower_scale_range(qt, eps))
        tower = build_tower(qt, dec, eps, tower_scale_range(qt, eps))
        for theta, K in zip(scales, complexes_at(tower, scales)):
            assert K == build_A(qt, dec, theta, eps).complex.simplices


def test_build_tower_enumerates_once_per_height_and_solves_each_tuple_once(monkeypatch):
    import cechkit.approx as approx_module

    heights, solved = [], []
    build, solve = approx_module.build_A, approx_module.meb_of_cells

    def build_spy(qt, wssd, alpha, eps):
        heights.append(scale_params(alpha, eps, qt.d).h_alpha)
        return build(qt, wssd, alpha, eps)

    def solve_spy(cells):
        solved.append(cells)
        return solve(cells)

    monkeypatch.setattr(approx_module, "build_A", build_spy)
    monkeypatch.setattr(approx_module, "meb_of_cells", solve_spy)
    rng = np.random.default_rng(83)
    for pts, eps in ((random_cloud(rng, 9, 2), 0.25), (_two_clusters(rng, 8), 0.5)):
        heights.clear()
        qt, dec = make(pts, eps, kmax=2)
        scales = thetas(eps, tower_scale_range(qt, eps))
        tower = build_tower(qt, dec, eps, tower_scale_range(qt, eps))
        distinct = sorted({scale_params(s, eps, qt.d).h_alpha for s in scales})
        assert len(scales) > len(distinct)
        assert heights == distinct
        assert len(tower.complexes) == len(distinct)
    assert len(solved) == len(set(solved))


def test_one_complex_per_height_and_the_walk_match_the_per_scale_tower(monkeypatch):
    # On tower2d seeds 0-7 and the clouds of acceptance criterion 5: one
    # complex and one build_A per grid height, no map that fixes every
    # vertex, build_A's complex at every scale, no union solved twice, and
    # the per-scale tower's coned filtration, dict for dict.
    calls, solved = [], []
    build, solve = approx_module.build_A, approx_module.meb_of_cells

    def build_spy(*args):
        calls.append(args)
        return build(*args)

    def solve_spy(cells):
        solved.append(cells)
        return solve(cells)

    monkeypatch.setattr(approx_module, "build_A", build_spy)
    monkeypatch.setattr(approx_module, "meb_of_cells", solve_spy)
    wl = bench_module("workloads").WORKLOADS["tower2d"]
    cases = [wl.inputs(seed, index)[0] for seed in range(8) for index in range(len(wl.slots))]
    rng = np.random.default_rng(1005)
    for trial in range(10):
        eps = 0.25 if trial % 2 == 0 else 0.5
        cases.append({"points": random_cloud(rng, int(rng.integers(5, 11)), 2), "eps": eps})
    for args in cases:
        eps = args["eps"]
        qt, dec = make(args["points"], eps, 2)
        ell = tower_scale_range(qt, eps)
        scales = thetas(eps, ell)
        calls.clear()
        solved.clear()
        tower = build_tower(qt, dec, eps, ell)
        assert len(solved) == len(set(solved))
        heights = {scale_params(theta, eps, qt.d).h_alpha for theta in scales}
        assert len(tower.complexes) == len(calls) == len(heights)
        assert all(any(v != w for v, w in g.mapping.items()) for g in tower.maps)
        want = [build(qt, dec, theta, eps).complex.simplices for theta in scales]
        assert complexes_at(tower, scales) == want
        coned = ref_coned_filtration(ref_build_tower(qt, dec, eps, ell))
        for pmax in (0, 1):
            want = {s: v for s, v in coned.items() if len(s) <= pmax + 2}
            assert _coned_filtration(tower, pmax) == want, pmax


def ref_entry_scales(top, thetas):
    """Simplex of `top` -> the first of `thetas`, the scales of its height
    in ascending order, at which `_settle` admits it once its facets are
    in: a second pass over the simplices `build_A` enumerated."""
    settle = approx_module._settle
    first = {}  # simplex -> index into thetas
    for s, bracket in top.values.items():  # faces first
        if len(s) == 1:
            first[s] = 0
            continue
        facets = list(itertools.combinations(s, len(s) - 1))
        j = bisect.bisect_left(thetas, bracket[0], max([first[f] for f in facets]))
        brackets = [top.values[f] for f in facets]
        while thetas[j] < bracket[1] and settle(s, bracket, thetas[j], brackets) is None:
            j += 1
        first[s] = j
    return {s: thetas[j] for s, j in first.items()}


def ref_tower_filtrations(qt, dec, eps, ell_range):
    """build_tower's filtrations from one build_A per run of a height's
    scales in the range, each simplex valued over the run's scales alone;
    the first run's vertices enter at 0 when, one per point, they alone
    are in at its first scale."""
    params = [approx_module._grid_params(qt, theta, eps) for theta in thetas(eps, ell_range)]
    entries = []
    for _, run in itertools.groupby(params, key=lambda p: p.h_alpha):
        run = list(run)
        top = build_A(qt, dec, run[-1].alpha, eps)
        entries.append(ref_entry_scales(top, [p.theta_k for p in run]))
    first = entries[0]
    vertices = [s for s in first if len(s) == 1]
    if len(vertices) == qt.cloud.n and all(
        v > params[0].theta_k for s, v in first.items() if len(s) > 1
    ):
        first.update(dict.fromkeys(vertices, 0.0))
    return [Filtration(list(e.items())).entries for e in entries]


def test_entry_scales_recorded_by_build_A_match_the_second_pass():
    # On tower2d seeds 0-7, the clouds of acceptance criterion 5, clouds
    # in R^3, and ranges that start inside a height (where only the
    # first run's values are raised to its first scale): every filtration
    # equals the one valued over each run's scales after the build.
    wl = bench_module("workloads").WORKLOADS["tower2d"]
    cases = [wl.inputs(seed, index)[0] for seed in range(8) for index in range(len(wl.slots))]
    rng = np.random.default_rng(1005)
    for trial in range(10):
        eps = 0.25 if trial % 2 == 0 else 0.5
        cases.append({"points": random_cloud(rng, int(rng.integers(5, 11)), 2), "eps": eps})
    rng = np.random.default_rng(86)
    for eps in (0.25, 0.5):
        cases += [{"points": random_cloud(rng, 8, 3), "eps": eps} for _ in range(2)]
    inside = 0
    for args in cases:
        eps = args["eps"]
        qt, dec = make(args["points"], eps)
        lo, hi = tower_scale_range(qt, eps)
        for ell_min in range(lo, hi + 1, 3):
            tower = build_tower(qt, dec, eps, (ell_min, hi))
            assert [K.entries for K in tower.complexes] == ref_tower_filtrations(
                qt, dec, eps, (ell_min, hi)
            ), (ell_min, hi)
            below, at = (scale_params(theta_value(eps, l), eps, qt.d) for l in (ell_min - 1, ell_min))
            inside += below.h_alpha == at.h_alpha
    assert inside > len(cases)


@st.composite
def equal_height_tuples(draw):
    """A sorted tuple of 2 to d+1 distinct nearby cells of one height, d <= 4."""
    d = draw(st.integers(1, 4))
    h = draw(st.integers(-40, 10))
    base = draw(st.tuples(*[st.integers(-(2**20), 2**20)] * d))
    offsets = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=2, max_size=d + 1, unique=True)
    )
    return tuple(sorted(Cell(h, tuple(b + o for b, o in zip(base, off))) for off in offsets))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(equal_height_tuples())
def test_cell_tuple_brackets_hold_the_union_radius(t):
    # A pair's closed form is meb_of_cells's radius to the bit; a larger
    # tuple's bracket, built from its faces' brackets, holds that radius
    # and is no wider than s (sqrt(d) - 1)/2 plus its margins.
    half = 0.5 * t[0].side
    half_diag = half * math.sqrt(t[0].d)
    brackets = {(c,): (0.0, 0.0) for c in t}
    for size in range(2, len(t) + 1):
        for s in itertools.combinations(t, size):
            facets = [brackets[f] for f in itertools.combinations(s, size - 1)]
            brackets[s] = approx_module._bracket(s, facets, half, half_diag)
    radius = meb_of_cells(t).radius
    lo, hi = brackets[t]
    if len(t) == 2:
        assert lo == hi == radius
    else:
        assert lo <= radius <= hi
        assert hi - lo <= t[0].side * (math.sqrt(t[0].d) - 1.0) / 2.0 + 1e-8 * hi


def test_build_tower_solves_only_tuples_whose_bracket_holds_a_scale(monkeypatch):
    # Every union build_tower solves has three or more cells, and a scale
    # of its height lies in [r_c + s/2, r_c + s sqrt(d)/2] (r_c the meb
    # radius of the cell centres), the bracket before its facets raise it.
    solved = []
    solve = approx_module.meb_of_cells

    def solve_spy(cells):
        solved.append(cells)
        return solve(cells)

    monkeypatch.setattr(approx_module, "meb_of_cells", solve_spy)
    rng = np.random.default_rng(85)
    clouds = [(random_cloud(rng, 9, 2), 0.25) for _ in range(4)]
    clouds += [(_two_clusters(rng, 9), 0.5), (random_cloud(rng, 8, 3), 0.5)]
    total = 0
    for pts, eps in clouds:
        solved.clear()
        qt, dec = make(pts, eps)
        build_tower(qt, dec, eps, tower_scale_range(qt, eps))
        params = [scale_params(s, eps, qt.d) for s in thetas(eps, tower_scale_range(qt, eps))]
        for t in solved:
            assert len(t) >= 3
            side = t[0].side
            r_c = meb([(np.array(c.index) + 0.5) * side for c in t]).radius
            lo = (r_c + side / 2.0) * (1.0 - 1e-6)
            hi = (r_c + side * math.sqrt(qt.d) / 2.0) * (1.0 + 1e-6)
            assert any(p.h_alpha == t[0].height and lo <= p.theta_k < hi for p in params), t
        total += len(solved)
    assert total > 0


@st.composite
def lattice_triples(draw):
    """Three distinct cells of one height in d = 2..5, with a tag: index
    triangles that are collinear, right-angled at the first cell (integer
    offsets u, w with u.w == 0), obtuse there (u.w < 0), or any."""
    d = draw(st.integers(2, 5))
    h = draw(st.integers(-40, 10))
    coords = st.tuples(*[st.integers(-6, 6)] * d).filter(any)
    base = draw(st.tuples(*[st.integers(-64, 64)] * d))
    kind = draw(st.sampled_from(["collinear", "right", "obtuse", "any"]))
    u = draw(coords)
    if kind == "collinear":
        k1, k2 = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=2, max_size=2, unique=True))
        offsets = [(0,) * d, tuple(k1 * x for x in u), tuple(k2 * x for x in u)]
    elif kind == "right":
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        if u[i] == u[j] == 0:
            u = tuple(1 if m == i else x for m, x in enumerate(u))
        w = [0] * d
        w[i], w[j] = u[j], -u[i]
        offsets = [(0,) * d, u, tuple(w)]
    else:
        w = draw(coords.filter(lambda w: w != u))
        if kind == "obtuse" and sum(a * b for a, b in zip(u, w)) >= 0:
            w = tuple(-x for x in w)
        offsets = [(0,) * d, u, w]
    if kind == "obtuse":
        assume(sum(a * b for a, b in zip(u, w)) < 0 and len(set(offsets)) == 3)
    cells = tuple(Cell(h, tuple(b + o for b, o in zip(base, off))) for off in offsets)
    return kind, cells


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(lattice_triples())
def test_three_cell_centre_radius_is_the_meb_of_the_centres(case):
    # The closed form reads the exact integer squared sides x <= y <= z of
    # the index triangle; right angles (z == x + y) take the diametral ball.
    kind, t = case
    a, b, c = (np.array(cell.index) for cell in t)
    x, y, z = sorted(int(v @ v) for v in (a - b, b - c, a - c))
    if kind == "right":
        assert z == x + y
    elif kind != "any":
        assert z > x + y
    side = t[0].side
    r_c = approx_module._centre_radius(t)
    assert r_c == pytest.approx(meb([(v + 0.5) * side for v in (a, b, c)]).radius, rel=1e-12)


def test_tower2d_brackets_solve_no_centre_ball(monkeypatch):
    # tower2d is planar with kmax 2, so every tuple has at most three cells
    # and every centre radius is the closed form, not the pivot loop.
    calls = []
    pivot = approx_module._pivot

    def pivot_spy(rows):
        calls.append(rows)
        return pivot(rows)

    monkeypatch.setattr(approx_module, "_pivot", pivot_spy)
    W = bench_module("workloads")
    wl = W.WORKLOADS["tower2d"]
    sizes = []
    for index in range(len(wl.slots) * 8):
        args, _ = wl.inputs(1, index)
        tower = W.op_tower(**args)[1]
        sizes.append(max(len(s) for K in tower.complexes for s in K.simplices))
    assert max(sizes) == 3
    assert calls == []


def _bracket_oracle(t, facets, half, half_diag):
    """`approx._bracket` as it was before the per-height half side was
    hoisted out of it: side, half side and sqrt(d) read off the tuple per
    call, facet brackets unpacked through generators."""
    if len(t) == 2:
        a, b = t
        radius = 0.5 * a.side * math.sqrt(sum((abs(i - j) + 1) ** 2 for i, j in zip(a.index, b.index)))
        return radius, radius
    side = t[0].side
    r_c = approx_module._centre_radius(t)
    lo = max(r_c + 0.5 * side, *(f[0] for f in facets)) * (1.0 - 1e-9)
    hi = max(r_c + 0.5 * side * math.sqrt(t[0].d), *(f[1] for f in facets)) * (1.0 + 1e-9)
    return lo, hi


def _tower_values(qt, dec, eps):
    """ApproxComplex.values at every scale of the tower."""
    return [a.values for a in ref_approx_complexes(qt, dec, eps, tower_scale_range(qt, eps))]


def test_tower2d_brackets_equal_the_unhoisted_bracket(monkeypatch):
    # The per-height half side and facet loop change no bracket by a bit:
    # every simplex's (lo, hi) at every scale of the tower2d seeds equals
    # the one the oracle gives.
    wl = bench_module("workloads").WORKLOADS["tower2d"]
    towers = []
    for seed in range(4):
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(seed, index)
            towers.append(make(args["points"], args["eps"], 2) + (args["eps"],))
    got = [_tower_values(qt, dec, eps) for qt, dec, eps in towers]
    monkeypatch.setattr(approx_module, "_bracket", _bracket_oracle)
    want = [_tower_values(qt, dec, eps) for qt, dec, eps in towers]
    assert any(len(s) == 3 for tower in got for values in tower for s in values)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a == b


# ---------------------------------------------------------------------------
# oracles: the paper's WSSD projection and brute-force D_alpha

def ref_build_A(qt, wssd, alpha, eps, rad_cache):
    """The paper's construction: every WST with all cells at height
    <= h_alpha is projected to the grid, and the projected tuple joins
    the complex if the meb radius of its cell union is <= theta_k."""
    params = scale_params(alpha, eps, qt.d)
    h, theta_k = params.h_alpha, params.theta_k
    simplices = {(c,) for c in cells_at(qt, h)}
    for t in wssd.all_tuples():
        if any(c.height > h for c in t.cells) or t.rad > theta_k:
            continue
        mapped = tuple(sorted({qcell(c, h) for c in t.cells}))
        if len(mapped) == 1 or mapped in simplices:
            continue
        if mapped not in rad_cache:
            rad_cache[mapped] = meb_of_cells(mapped).radius
        if rad_cache[mapped] <= theta_k:
            simplices.add(mapped)
    return ApproxComplex(alpha, params, SComplex(simplices))


def brute_D(qt, kmax, alpha, eps, rad_cache):
    """D_alpha by definition: every tuple of 2..kmax+1 nonempty
    height-h_alpha cells whose union has meb radius <= theta_k."""
    params = scale_params(alpha, eps, qt.d)
    cells = cells_at(qt, params.h_alpha)
    out = {(c,) for c in cells}
    for size in range(2, kmax + 2):
        for t in itertools.combinations(cells, size):
            if t not in rad_cache:
                rad_cache[t] = meb_of_cells(t).radius
            if rad_cache[t] <= params.theta_k:
                out.add(t)
    return out


def assert_tower_matches_oracles(pts, eps, kmax):
    qt, dec = make(pts, eps, kmax=kmax)
    lo, hi = tower_scale_range(qt, eps)
    tower = build_tower(qt, dec, eps, (lo, hi))
    ref_cache, brute_cache = {}, {}
    ref = [ref_build_A(qt, dec, theta, eps, ref_cache) for theta in thetas(eps, (lo, hi))]
    for ell, K, a in zip(range(lo, hi + 1), complexes_at(tower, thetas(eps, (lo, hi))), ref):
        assert K == a.complex.simplices, ell
        assert K == brute_D(qt, kmax, a.alpha, eps, brute_cache), ell
    return tower, ref


def test_tower2d_seeds_match_projection():
    # Seeds 0-7 of the benchmark's three tower2d slots: complexes at every
    # scale equal the projection's and D_alpha, the tower diagrams equal
    # the projection's, and one diagram call up to H1 gives the H0 of a
    # call for H0 alone.
    wl = bench_module("workloads").WORKLOADS["tower2d"]
    for seed in range(8):
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(seed, index)
            tower, ref = assert_tower_matches_oracles(args["points"], args["eps"], 2)
            maps = [map_g(a, b) for a, b in zip(ref, ref[1:])]
            scales = [a.alpha for a in ref]
            first = tower.complexes[0].entries[0][1]
            ref_tower = ScaleTower([a.complex for a in ref], maps, scales, first == 0.0).tower()
            dgm = tower_diagram(tower, 1)
            assert dgm == tower_diagram(ref_tower, 1), (seed, index)
            assert dgm.dim(0) == tower_diagram(tower, 0).dim(0), (seed, index)


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.9])
def test_planar_towers_match_projection_and_brute_force(eps):
    rng = np.random.default_rng([81, int(eps * 100)])
    for n in (6, 8, 9):
        assert_tower_matches_oracles(random_cloud(rng, n, 2), eps, 2)


def test_r3_towers_match_projection_and_brute_force():
    rng = np.random.default_rng(82)
    for _ in range(3):
        assert_tower_matches_oracles(random_cloud(rng, 8, 3), 0.5, 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=3, max_size=8, unique=True
    ),
    st.floats(0.1, 0.5),
)
def test_build_A_is_D_alpha_and_g_simplicial(grid_points, eps):
    qt, dec = make(np.array(grid_points, dtype=float), eps)
    tower = build_tower(qt, dec, eps, tower_scale_range(qt, eps))
    scales = thetas(eps, tower_scale_range(qt, eps))
    cache: dict = {}
    for theta, K in zip(scales, complexes_at(tower, scales)):
        assert K == brute_D(qt, 2, theta, eps, cache)
    assert all(g.is_simplicial() for g in tower.maps)


def test_cech_complex_at_threshold():
    K = cech_complex_at(TRIANGLE, 1.0, 2)
    assert (0, 1) in K.simplices
    assert (0, 1, 2) not in K.simplices
    K2 = cech_complex_at(TRIANGLE, 1.16, 2)
    assert (0, 1, 2) in K2.simplices
