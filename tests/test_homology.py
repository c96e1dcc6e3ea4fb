"""GF(2) persistence: filtrations, towers, and the rank-based tower route
kept as the oracle for the coned-filtration one."""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from cechkit import homology
from cechkit.approx import build_tower, tower_scale_range
from cechkit.complexes import Filtration, cech_filtration, completion, rips_filtration
from cechkit.coreset import delta
from cechkit.errors import InvalidInput
from cechkit.homology import (
    INF,
    PersistenceDiagram,
    SComplex,
    Tower,
    VertexMap,
    _coned_filtration,
    check_contiguous,
    filtration_tower,
    persist_filtration,
    tower_diagram,
)
from cechkit.quadtree import build, normalize
from cechkit.wssd import build_wssd

from conftest import (
    TRIANGLE,
    ScaleTower,
    bench_module,
    filtration_max_dim,
    per_scale,
    random_cloud,
    ref_cohomology,
    ref_coned_filtration,
    ref_persist,
)


def closure(simplices):
    """The complex of every face of the given sorted simplices."""
    out = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return SComplex(out)


def dim_simplices(K, p):
    """The p-simplices of K, sorted."""
    return sorted(s for s in K.simplices if len(s) == p + 1)


def euler_characteristic(K):
    return sum((-1) ** (len(s) - 1) for s in K.simplices)


def identity_map(K):
    return VertexMap(K, K, {v: v for v in K.vertices()})


def circle_complex(n, labels=None):
    """Boundary of an n-gon (a topological circle)."""
    labels = labels or list(range(n))
    simplices = {(labels[i],) for i in range(n)}
    for i in range(n):
        simplices.add(tuple(sorted((labels[i], labels[(i + 1) % n]))))
    return SComplex(simplices)


# ---------------------------------------------------------------------------
# persist_filtration

def test_persist_two_points():
    dgm = persist_filtration(cech_filtration([[0.0, 0.0], [2.0, 0.0]], 1), 1)
    assert dgm.dim(0) == [(0.0, 1.0), (0.0, INF)]
    assert dgm.dim(1) == []


def test_persist_triangle_h1():
    dgm = persist_filtration(cech_filtration(TRIANGLE, 2), 2)
    assert dgm.dim(1) == [pytest.approx((1.0, 1.1547005), abs=1e-6)]
    assert len([d for _, d in dgm.dim(0) if d == INF]) == 1


def test_persist_requires_monotone():
    bad = Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), -1.0)])
    with pytest.raises(InvalidInput):
        persist_filtration(bad, 1)
    # A bad entry above the (pmax+1)-skeleton is still rejected.
    bad_triangle = Filtration(
        [((v,), 0.0) for v in range(3)]
        + [(e, 1.0) for e in itertools.combinations(range(3), 2)]
        + [((0, 1, 2), 0.5)]
    )
    with pytest.raises(InvalidInput):
        persist_filtration(bad_triangle, 0)


def test_persist_checks_every_facet_above_the_cut():
    # At pmax 0 only vertices and edges get columns; the facet pass still
    # checks the triangles and the tetrahedron, with the same tolerance.
    base = [((v,), 0.0) for v in range(4)] + [
        (e, 1.0) for e in itertools.combinations(range(4), 2)
    ]
    triangles = [(t, 2.0) for t in itertools.combinations(range(4), 3)]
    tetra = ((0, 1, 2, 3), 3.0)
    assert persist_filtration(Filtration(base + triangles + [tetra]), 0).dim(0)
    missing = Filtration(base + triangles[1:] + [tetra])
    with pytest.raises(InvalidInput):
        persist_filtration(missing, 0)
    above = Filtration(base + triangles[:-1] + [((1, 2, 3), 3.5), tetra])
    with pytest.raises(InvalidInput):
        persist_filtration(above, 0)
    within = Filtration(base + triangles[:-1] + [((1, 2, 3), 3.0 + 1e-13), tetra])
    assert persist_filtration(within, 0) == persist_filtration(
        Filtration(base + triangles + [tetra]), 0
    )


def test_persist_drops_zero_length_pairs():
    rng = np.random.default_rng(61)
    dgm = persist_filtration(rips_filtration(random_cloud(rng, 6, 2), 3), 2)
    for p in dgm.dims():
        for b, d in dgm.dim(p):
            assert d > b


def test_persist_betti_matches_euler():
    # Alternating sum of Betti numbers at a fixed scale equals the
    # Euler characteristic of the complex at that scale.
    rng = np.random.default_rng(62)
    pts = random_cloud(rng, 7, 2)
    filt = cech_filtration(pts, 6)
    dgm = persist_filtration(filt, 6)
    for alpha in (0.2, 0.4, 0.8):
        K = SComplex(filt.complex_at(alpha))
        betti = []
        for p in range(7):
            alive = sum(1 for b, d in dgm.dim(p) if b <= alpha < d)
            betti.append(alive)
        assert sum((-1) ** p * bp for p, bp in enumerate(betti)) == euler_characteristic(K)


@pytest.mark.parametrize("seed", range(6))
def test_persist_cut_at_pmax_plus_one_keeps_low_dimensions(seed):
    # persist_filtration reduces only the (pmax+1)-skeleton; on full
    # filtrations every dimension <= pmax must match the uncut diagram.
    rng = np.random.default_rng([63, seed])
    n, d = 5 + seed % 5, 2 + seed % 3
    pts = random_cloud(rng, n, d)
    cech = cech_filtration(pts, n - 1)
    for filt in (cech, rips_filtration(pts, n - 1), completion(cech, 1 + seed % 3, n - 1)):
        full = persist_filtration(filt, filtration_max_dim(filt))
        for p in range(filtration_max_dim(filt) + 1):
            cut = persist_filtration(filt, p)
            assert cut.dims() == [q for q in full.dims() if q <= p]
            for q in range(p + 1):
                assert cut.dim(q) == full.dim(q)


# ---------------------------------------------------------------------------
# Betti numbers, collapses and maps, read off tower diagrams

def alive(dgm, p, a, b):
    """Rank of H_p(K_a) -> H_p(K_b): points born by a and alive past b."""
    return sum(1 for x, y in dgm.dim(p) if x <= a and y > b)


def scale_tower(complexes, maps, scales, births_at_zero=False):
    """The tower of the complexes, each whole at its scale."""
    return ScaleTower(complexes, maps, scales, births_at_zero).tower()


def single(K, scale=1.0):
    return scale_tower([K], [], [scale])


def test_basis_circle():
    t = single(circle_complex(5))
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF)]
    assert tower_diagram(t, 1).dim(1) == [(1.0, INF)]
    assert tower_diagram(t, 2).dim(2) == []


def test_basis_disk():
    t = single(SComplex({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}))
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF)]
    assert tower_diagram(t, 1).dim(1) == []


def test_basis_two_components():
    t = single(SComplex({(0,), (1,), (2,), (0, 1)}))
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF), (1.0, INF)]


def test_induced_identity():
    K = circle_complex(6)
    t = scale_tower([K, K], [identity_map(K)], [1.0, 2.0])
    assert tower_diagram(t, 1).dim(1) == [(1.0, INF)]


def test_induced_collapse_kills_h1():
    # Map a hexagon circle onto a triangle circle filled by a 2-simplex:
    # every fibre has two vertices.
    K = circle_complex(6)
    disk = SComplex({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)})
    f = VertexMap(K, disk, {i: i % 3 for i in range(6)})
    assert f.is_simplicial()
    t = scale_tower([K, disk], [f], [1.0, 2.0])
    assert tower_diagram(t, 1).dim(1) == [(1.0, 2.0)]
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF)]


def test_contiguous_maps_equal_on_homology():
    # Two contiguous subdivision collapses give the same tower diagrams.
    K = circle_complex(8)
    L = circle_complex(4)
    f = VertexMap(K, L, {i: i // 2 for i in range(8)})
    g = VertexMap(K, L, {i: -(-i // 2) % 4 for i in range(8)})
    assert f.is_simplicial() and g.is_simplicial()
    assert check_contiguous(f, g)
    for p in (0, 1):
        tf = tower_diagram(scale_tower([K, L], [f], [1.0, 2.0]), p)
        tg = tower_diagram(scale_tower([K, L], [g], [1.0, 2.0]), p)
        assert tf.dim(p) == tg.dim(p) == [(1.0, INF)]


def test_check_contiguous_negative():
    L = circle_complex(6)
    K = circle_complex(6)
    f = identity_map(K)
    f = VertexMap(K, L, f.mapping)
    g = VertexMap(K, L, {i: (i + 3) % 6 for i in range(6)})  # antipodal
    assert not check_contiguous(f, g)


def test_induced_functorial():
    # The rank of A -> C through B equals the rank of the composite map
    # A -> C, for a circle map and for one into a disk.
    A = circle_complex(8)
    B = circle_complex(4)
    disk = SComplex(
        {(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (0, 1, 2), (0, 2, 3)}
    )
    f = VertexMap(A, B, {i: i // 2 for i in range(8)})
    for C, rank in ((circle_complex(4), 1), (disk, 0)):
        g = VertexMap(B, C, identity_map(B).mapping)
        assert g.is_simplicial()
        through = tower_diagram(scale_tower([A, B, C], [f, g], [1.0, 2.0, 3.0]), 1)
        direct = tower_diagram(scale_tower([A, C], [g.compose(f)], [1.0, 3.0]), 1)
        assert alive(through, 1, 1.0, 3.0) == alive(direct, 1, 1.0, 3.0) == rank


def test_tower_collapse_keeps_the_larger_star():
    # Pendant vertex 0 collapses onto hub 5 of a star graph.  Coning the
    # pendant's star onto the hub adds nothing; the other way round would
    # add an edge and a triangle per leaf.
    K = closure([(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
    L = closure([(1, 5), (2, 5), (3, 5), (4, 5)])
    t = scale_tower([K, L], [VertexMap(K, L, {v: 5 if v == 0 else v for v in range(6)})], [1.0, 2.0])
    assert len(_coned_filtration(t, 1)) == len(K.simplices)
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF)]


def test_tower_rejects_non_simplicial_map():
    # The edge (0, 1) maps onto (0, 1) of a complex without that edge.
    K = SComplex({(0,), (1,), (0, 1)})
    L = SComplex({(0,), (1,)})
    t = scale_tower([K, L], [VertexMap(K, L, {0: 0, 1: 1})], [1.0, 2.0])
    for p in (0, 1):
        with pytest.raises(InvalidInput):
            tower_diagram(t, p)


def test_tower_checks_each_map_on_the_complex_it_maps():
    # The map's own domain is L, where the identity is simplicial; on the
    # tower's K it sends the edge (0, 1) to an edge that L lacks.
    K = SComplex({(0,), (1,), (0, 1)})
    L = SComplex({(0,), (1,)})
    t = scale_tower([K, L], [VertexMap(L, L, {0: 0, 1: 1})], [1.0, 2.0])
    for p in (0, 1):
        with pytest.raises(InvalidInput, match="not simplicial"):
            tower_diagram(t, p)


def test_tower_rejects_an_inclusion_that_drops_a_triangle():
    # Every vertex is fixed, so nothing collapses; the triangle the step
    # loses is above what a pmax 0 diagram reads, and is still checked.
    K = closure([(0, 1, 2)])
    L = SComplex(K.simplices - {(0, 1, 2)})
    t = scale_tower([K, L], [VertexMap(K, L, {0: 0, 1: 1, 2: 2})], [1.0, 2.0])
    with pytest.raises(InvalidInput, match="not simplicial"):
        tower_diagram(t, 0)


def test_tower_map_lands_where_its_complex_starts():
    # L holds the edge (0, 1), but only from 3.0 on; the map enters L at
    # its first value, 2.0, where the edge is not yet in.
    K = Filtration([((0,), 1.0), ((1,), 1.0), ((0, 1), 1.0)])
    late = Filtration([((0,), 2.0), ((1,), 2.0), ((0, 1), 3.0)])
    on_time = Filtration([((0,), 2.0), ((1,), 2.0), ((0, 1), 2.0), ((2,), 3.0)])
    f = VertexMap(SComplex(K.simplices), SComplex(late.simplices), {0: 0, 1: 1})
    with pytest.raises(InvalidInput, match="not simplicial"):
        tower_diagram(Tower([K, late], [f]), 0)
    assert tower_diagram(Tower([K, on_time], [f]), 0).dim(0) == [(1.0, INF), (3.0, INF)]


def test_tower_rejects_a_merge_onto_a_missing_edge():
    # 0 and 1 merge, so the path's edge (1, 2) lands on (0, 2): only the
    # complex after the collapse shows it, and the target lacks that edge.
    K = closure([(0, 1), (1, 2)])
    merge = {0: 0, 1: 0, 2: 2}
    L = SComplex({(0,), (2,)})
    with pytest.raises(InvalidInput, match="not simplicial"):
        tower_diagram(scale_tower([K, L], [VertexMap(K, L, merge)], [1.0, 2.0]), 0)
    L2 = SComplex({(0,), (2,), (0, 2)})
    t = scale_tower([K, L2], [VertexMap(K, L2, merge)], [1.0, 2.0])
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF)]


# ---------------------------------------------------------------------------
# towers

def test_tower_constant_circle():
    K = circle_complex(5)
    t = scale_tower([K, K], [identity_map(K)], [1.0, 2.0])
    assert tower_diagram(t, 1).dim(1) == [(1.0, INF)]
    assert tower_diagram(t, 0).dim(0) == [(1.0, INF)]


def test_tower_circle_circle_disk():
    # H1 class born at the first scale dies entering the disk.
    s0, s1, s2 = 0.5, 1.0, 2.0
    K0 = circle_complex(6)
    K1 = circle_complex(3)
    disk = SComplex({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)})
    f0 = VertexMap(K0, K1, {i: i // 2 for i in range(6)})
    f1 = VertexMap(K1, disk, {0: 0, 1: 1, 2: 2})
    t = scale_tower([K0, K1, disk], [f0, f1], [s0, s1, s2])
    assert tower_diagram(t, 1).dim(1) == [(s0, s2)]
    assert tower_diagram(t, 0).dim(0) == [(s0, INF)]


def test_tower_births_at_zero():
    K = circle_complex(4)
    t = scale_tower([K, K], [identity_map(K)], [0.3, 0.9], births_at_zero=True)
    assert tower_diagram(t, 1).dim(1) == [(0.0, INF)]


def test_tower_multiplicities_nonnegative_random():
    # The diagram must reproduce the persistent Betti ranks: the H1 points
    # born by scale i and dead after scale j number rank H1(K_i) -> H1(K_j),
    # computed here with the rank-based oracle below.
    rng = np.random.default_rng(63)
    pts = random_cloud(rng, 7, 2)
    filt = cech_filtration(pts, 3)
    dgm = tower_diagram(filtration_tower(filt), 1)
    t = per_scale(filtration_tower(filt))
    bases = [homology_basis(K, 1) for K in t.complexes]
    assert max(b.betti for b in bases) > 0
    for i, a in enumerate(t.scales):
        f = identity_map(t.complexes[i])
        for j in range(i, len(t.scales)):
            if j > i:
                f = t.maps[j - 1].compose(f)
            alive = sum(1 for b, d in dgm.dim(1) if b <= a and d > t.scales[j])
            assert alive == gf2_rank(induced_map(f, 1, bases[i], bases[j])), (i, j)


def test_tower_matches_filtration_persistence():
    rng = np.random.default_rng(64)
    for _ in range(3):
        pts = random_cloud(rng, 6, 2)
        filt = cech_filtration(pts, 3)
        dgm_f = persist_filtration(filt, 2)
        t = filtration_tower(filt)
        for p in (0, 1, 2):
            assert tower_diagram(t, p).dim(p) == dgm_f.dim(p)


def test_tower_validation():
    K = circle_complex(3)
    with pytest.raises(InvalidInput):
        scale_tower([K, K], [identity_map(K)], [2.0, 1.0])
    with pytest.raises(InvalidInput):
        scale_tower([K, K], [], [1.0, 2.0])


# ---------------------------------------------------------------------------
# rank-based tower diagrams: the route tower_diagram used before the coned
# filtration, kept here as its oracle (homology bases per complex, induced
# matrices, persistent Betti ranks, inclusion-exclusion of multiplicities)

def _top_bit(x):
    return x.bit_length() - 1


class _Echelon:
    """Incremental GF(2) echelon form with combination tracking."""

    def __init__(self):
        self.rows = {}  # pivot -> (vector, track)

    def add(self, vec, track=0):
        """Insert a vector; returns True if it increased the rank."""
        v, t = vec, track
        while v:
            b = _top_bit(v)
            if b not in self.rows:
                self.rows[b] = (v, t)
                return True
            rv, rt = self.rows[b]
            v ^= rv
            t ^= rt
        return False

    def express(self, vec):
        """Track combination reducing `vec` to zero, or None if outside span."""
        v, t = vec, 0
        while v:
            b = _top_bit(v)
            if b not in self.rows:
                return None
            rv, rt = self.rows[b]
            v ^= rv
            t ^= rt
        return t


@dataclass
class HomologyBasis:
    """Cycle representatives of H_p plus the data needed for coordinates."""

    p: int
    simplices: list
    index: dict
    cycles: list
    boundaries: list
    _coords: _Echelon = field(default=None, repr=False)

    @property
    def betti(self):
        return len(self.cycles)

    def coordinates(self, chain):
        if self._coords is None:
            ech = _Echelon()
            for b in self.boundaries:
                ech.add(b, 0)
            for i, z in enumerate(self.cycles):
                ech.add(z, 1 << i)
            self._coords = ech
        t = self._coords.express(chain)
        if t is None:
            return None
        return tuple((t >> i) & 1 for i in range(len(self.cycles)))

    def bits_to_chain(self, bits):
        return [self.simplices[i] for i in range(len(self.simplices)) if (bits >> i) & 1]


def _boundary_bits(simplex, index_lower):
    out = 0
    for f in itertools.combinations(simplex, len(simplex) - 1):
        out ^= 1 << index_lower[f]
    return out


def homology_basis(K, p):
    """Basis of H_p(K) over GF(2), cycles as bitsets over the p-simplices."""
    sp = dim_simplices(K, p)
    index = {s: i for i, s in enumerate(sp)}
    lower = {s: i for i, s in enumerate(dim_simplices(K, p - 1))} if p > 0 else {}
    kernel = []
    ech = _Echelon()
    for j, s in enumerate(sp):
        bnd = _boundary_bits(s, lower) if p > 0 else 0
        if bnd == 0:
            kernel.append(1 << j)
            continue
        v, t = bnd, 1 << j
        while v:
            b = _top_bit(v)
            if b not in ech.rows:
                ech.rows[b] = (v, t)
                break
            rv, rt = ech.rows[b]
            v ^= rv
            t ^= rt
        if v == 0:
            kernel.append(t)
    boundaries = []
    img = _Echelon()
    for s in dim_simplices(K, p + 1):
        bnd = _boundary_bits(s, index)
        if img.add(bnd):
            boundaries.append(bnd)
    quot = _Echelon()
    for b in boundaries:
        quot.add(b)
    cycles = [z for z in kernel if quot.add(z)]
    return HomologyBasis(p, sp, index, cycles, boundaries)


def induced_map(f, p, basis_dom, basis_cod):
    """Matrix of H_p(f) in the given bases."""
    if not f.is_simplicial():
        raise InvalidInput("map is not simplicial")
    M = np.zeros((basis_cod.betti, basis_dom.betti), dtype=np.uint8)
    for j, z in enumerate(basis_dom.cycles):
        image_bits = 0
        for s in basis_dom.bits_to_chain(z):
            t = f.apply(s)
            if len(t) == p + 1:  # degenerate images vanish in dimension p
                image_bits ^= 1 << basis_cod.index[t]
        coords = basis_cod.coordinates(image_bits)
        assert coords is not None, "image of a cycle is not a cycle"
        M[:, j] = coords
    return M


def gf2_rank(M):
    A = (np.array(M, dtype=np.uint8) % 2).copy()
    if A.size == 0:
        return 0
    rank = 0
    rows, cols = A.shape
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if A[r, c]), None)
        if pivot is None:
            continue
        A[[rank, pivot]] = A[[pivot, rank]]
        for r in range(rows):
            if r != rank and A[r, c]:
                A[r] ^= A[rank]
        rank += 1
    return rank


def ref_tower_diagram(tower, p):
    """Diagram of a per-scale tower via persistent Betti ranks of induced maps."""
    m = len(tower.complexes)
    dgm = PersistenceDiagram()
    if m == 0:
        return dgm
    bases = [homology_basis(K, p) for K in tower.complexes]
    mats = [induced_map(f, p, bases[i], bases[i + 1]) for i, f in enumerate(tower.maps)]
    beta = [[0] * m for _ in range(m)]  # rank of H_p(K_i) -> H_p(K_j), j >= i
    for i in range(m):
        beta[i][i] = bases[i].betti
        acc = np.eye(bases[i].betti, dtype=np.uint8)
        for j in range(i + 1, m):
            acc = (mats[j - 1] @ acc) % 2
            beta[i][j] = gf2_rank(acc)

    def b(i, j):
        return 0 if i < 0 or j < 0 else beta[i][j]

    birth = tower.values()
    for i in range(m):
        for j in range(i + 1, m):
            for _ in range(b(i, j - 1) - b(i, j) - b(i - 1, j - 1) + b(i - 1, j)):
                dgm.add(p, birth[i], tower.scales[j])
        for _ in range(b(i, m - 1) - b(i - 1, m - 1)):
            dgm.add(p, birth[i], INF)
    return dgm


def test_gf2_rank():
    assert gf2_rank(np.array([[1, 1], [1, 1]])) == 1
    assert gf2_rank(np.eye(3)) == 3
    assert gf2_rank(np.zeros((2, 2))) == 0
    assert gf2_rank(np.zeros((0, 4))) == 0


def test_ref_betti_numbers():
    disk = SComplex({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)})
    assert [homology_basis(circle_complex(5), p).betti for p in (0, 1, 2)] == [1, 1, 0]
    assert [homology_basis(disk, p).betti for p in (0, 1)] == [1, 0]
    assert homology_basis(SComplex({(0,), (1,), (2,), (0, 1)}), 0).betti == 2


def assert_matches_oracle(tower, dims=(0, 1)):
    for p in dims:
        assert tower_diagram(tower, p).dim(p) == ref_tower_diagram(per_scale(tower), p).dim(p), p


def hand_built_towers():
    """The towers built by hand in the tests above."""
    disk3 = SComplex({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)})
    disk4 = SComplex(
        {(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (0, 1, 2), (0, 2, 3)}
    )
    c3, c4, c5, c6, c8 = (circle_complex(n) for n in (3, 4, 5, 6, 8))
    half = VertexMap(c8, c4, {i: i // 2 for i in range(8)})
    return [
        single(c5),
        single(disk3),
        single(SComplex({(0,), (1,), (2,), (0, 1)})),
        scale_tower([c6, c6], [identity_map(c6)], [1.0, 2.0]),
        scale_tower([c6, disk3], [VertexMap(c6, disk3, {i: i % 3 for i in range(6)})], [1.0, 2.0]),
        scale_tower([c8, c4], [half], [1.0, 2.0]),
        scale_tower([c8, c4], [VertexMap(c8, c4, {i: -(-i // 2) % 4 for i in range(8)})], [1.0, 2.0]),
        scale_tower([c8, c4, disk4], [half, VertexMap(c4, disk4, identity_map(c4).mapping)], [1, 2, 3]),
        scale_tower([c5, c5], [identity_map(c5)], [1.0, 2.0]),
        scale_tower(
            [c6, c3, disk3],
            [VertexMap(c6, c3, {i: i // 2 for i in range(6)}), identity_map(disk3)],
            [0.5, 1.0, 2.0],
        ),
        scale_tower([c4, c4], [identity_map(c4)], [0.3, 0.9], births_at_zero=True),
    ]


def test_tower_matches_oracle_hand_built():
    for tower in hand_built_towers():
        assert_matches_oracle(tower, dims=(0, 1, 2))


def _random_complex(rng, labels, probs=(0.45, 0.12, 0.04)):
    """Random simplices over `labels`: each edge, triangle and tetrahedron
    kept with its probability, plus every vertex; then the closure."""
    simplices = {(v,) for v in labels}
    for k, prob in zip((2, 3, 4), probs):
        simplices.update(s for s in itertools.combinations(labels, k) if rng.random() < prob)
    return closure(simplices)


def random_vertex_map_tower(rng, births_at_zero, inclusions=False):
    """Tower of 2-5 complexes on at most 8 vertices whose maps send each
    complex onto fewer vertices (fibres of one to several vertices) and
    whose next complex adds random simplices and fresh vertices to the
    image.  With `inclusions`, about half the steps instead fix every
    vertex and add fresh vertices labelled below the old ones."""
    labels = list(range(int(rng.integers(3, 9))))
    K = _random_complex(rng, labels)
    complexes, maps, scales = [K], [], [float(rng.uniform(0.1, 1.0))]
    for step in range(int(rng.integers(1, 5))):
        verts = K.vertices()
        base = 100 * (step + 1)
        if inclusions and rng.random() < 0.5:
            mapping = {x: x for x in verts}
            fresh = [-base - j for j in range(int(rng.integers(0, 3)))]
        else:
            targets = [base + j for j in range(int(rng.integers(1, len(verts) + 1)))]
            mapping = {x: targets[int(rng.integers(len(targets)))] for x in verts}
            fresh = [base + 50 + j for j in range(int(rng.integers(0, 3)))]
        image = {tuple(sorted({mapping[x] for x in s})) for s in K.simplices}
        extra = _random_complex(rng, sorted({*mapping.values(), *fresh}), (0.25, 0.1, 0.03))
        L = SComplex(image | extra.simplices)
        maps.append(VertexMap(K, L, mapping))
        complexes.append(L)
        scales.append(scales[-1] + float(rng.uniform(0.1, 1.0)))
        K = L
    return scale_tower(complexes, maps, scales, births_at_zero=births_at_zero)


def test_tower_matches_oracle_random_vertex_maps():
    rng = np.random.default_rng(65)
    collapses = 0
    for trial in range(60):
        tower = random_vertex_map_tower(rng, births_at_zero=trial % 2 == 0)
        assert all(f.is_simplicial() for f in tower.maps)
        collapses += sum(len(f.domain.vertices()) - len(set(f.mapping.values())) for f in tower.maps)
        assert_matches_oracle(tower, dims=(0, 1, 2))
    assert collapses >= 100


def test_tower_matches_oracle_tower2d_workload():
    # Seeds 0-7 of each of the three slots of the benchmark's tower2d workload.
    W = bench_module("workloads")
    wl = W.WORKLOADS["tower2d"]
    for seed in range(8):
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(seed, index)
            _, tower, _ = W.op_tower(**args)
            assert_matches_oracle(tower)


def oracle_towers():
    """tower2d seeds 0-2, inclusion towers of seeded Cech and Rips
    filtrations, and seeded random vertex-map towers."""
    W = bench_module("workloads")
    wl = W.WORKLOADS["tower2d"]
    for seed in range(3):
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(seed, index)
            yield W.op_tower(**args)[1]
    rng = np.random.default_rng(66)
    for trial in range(12):
        pts = random_cloud(rng, 4 + trial % 4, 2 + trial % 2)
        build = cech_filtration if trial % 2 else rips_filtration
        yield filtration_tower(build(pts, 2 + trial % 2))
    for trial in range(60):
        yield random_vertex_map_tower(rng, births_at_zero=trial % 2 == 0)
    for trial in range(30):
        yield random_vertex_map_tower(rng, births_at_zero=trial % 2 == 0, inclusions=True)


def sorted_points(dgm):
    """Each dimension's points as a sorted list, keyed by the dimensions
    that have points: the diagram up to the order pairs were found in."""
    return {p: sorted(pts) for p, pts in dgm.points.items()}


def test_tower_walk_and_readout_match_their_two_pass_versions():
    # The walk at pmax emits the oracle's simplices of dimension <= pmax+1.
    for tower in oracle_towers():
        ref = ref_coned_filtration(per_scale(tower))
        filt = Filtration(list(ref.items()))
        for pmax in (0, 1, 2):
            coned = _coned_filtration(tower, pmax)
            assert coned == {s: v for s, v in ref.items() if len(s) <= pmax + 2}, pmax
            want = sorted_points(ref_persist(filt, pmax))
            assert sorted_points(tower_diagram(tower, pmax)) == want, pmax


def ref_coned_scan(tower, pmax):
    """`_coned_filtration` before its star index: each collapse scans the
    whole current complex for its two stars and cones every face of the
    smaller star, repeats included."""
    value, ids, fresh, current = {}, {}, itertools.count(), set()
    for i, K in enumerate(tower.complexes):
        scale = K.entries[0][1] if K.entries else 0.0
        mapping = tower.maps[i - 1].mapping if i > 0 else {}
        fibres = {}
        for x in sorted(ids):
            fibres.setdefault(mapping[x], []).append(ids[x])
        ids = {}
        for w, (v, *rest) in fibres.items():
            for u in rest:
                star_u = [s for s in current if u in s]
                star_v = [s for s in current if v in s]
                if len(star_u) > len(star_v):
                    u, v, star_u = v, u, star_v
                for s in star_u:
                    for k in range(1, min(len(s), pmax + 1) + 1):
                        for face in itertools.combinations(s, k):
                            value.setdefault(tuple(sorted({*face, v})), scale)
                current.difference_update(star_u)
                current.update(tuple(sorted({v if x == u else x for x in s})) for s in star_u)
            ids[w] = v
        for x in sorted({x for s, _ in K.entries for x in s}.difference(ids)):
            ids[x] = next(fresh)
        new = {tuple(sorted(ids[x] for x in s)): v for s, v in K.entries}
        if any(new.get(s, INF) > scale for s in current):
            raise InvalidInput("map is not simplicial")
        current = set(new)
        for s, v in new.items():
            if len(s) <= pmax + 2:
                value.setdefault(s, v)
    return value


def many_member_fibre_towers(rng):
    """Towers whose one map sends most vertices of a complex to one vertex,
    so many collapses rename a simplex onto one the complex already holds:
    the 2-skeleton of the 8-simplex, and random complexes on 6 to 10
    vertices with stars of unequal sizes."""
    complexes = [closure(itertools.combinations(range(9), 3))]
    complexes += [_random_complex(rng, list(range(n))) for n in (6, 8, 10, 10)]
    for K in complexes:
        verts = K.vertices()
        mapping = {x: 100 if x < len(verts) - 1 else 101 for x in verts}
        image = {tuple(sorted({mapping[x] for x in s})) for s in K.simplices}
        L = SComplex(image | {(102,), (101, 102)})
        yield scale_tower([K, L], [VertexMap(K, L, mapping)], [0.5, 1.0])


def test_star_index_walk_matches_the_scan_walk():
    # The walk's star index and deduplicated cones give the filtration of
    # the walk that scans the whole complex for each star, dict for dict.
    W = bench_module("workloads")
    wl = W.WORKLOADS["tower2d"]
    towers = list(oracle_towers())
    for seed in range(8):
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(seed, index)
            towers.append(W.op_tower(**args)[1])
    rng = np.random.default_rng(3)
    angles = rng.uniform(0.0, 2.0 * np.pi, 128)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    qt = build(normalize(circle + 0.02 * rng.standard_normal((128, 2))))
    towers.append(build_tower(qt, build_wssd(qt, 0.5 / 12.0, 2), 0.5, tower_scale_range(qt, 0.5)))
    towers += many_member_fibre_towers(np.random.default_rng(69))
    for tower in towers:
        for pmax in (0, 1, 2):
            assert _coned_filtration(tower, pmax) == ref_coned_scan(tower, pmax), pmax


@pytest.mark.parametrize("seed", range(4))
def test_persist_readout_matches_the_two_loop_version(seed):
    rng = np.random.default_rng([67, seed])
    pts = random_cloud(rng, 5 + seed, 2 + seed % 2)
    cech = cech_filtration(pts, 3)
    for filt in (cech, rips_filtration(pts, 3), completion(cech, 1, 3)):
        for pmax in range(3):
            want = sorted_points(ref_persist(filt, pmax))
            assert sorted_points(persist_filtration(filt, pmax)) == want


@pytest.mark.parametrize("seed", range(3))
def test_persist_matches_the_bitset_oracle_on_completion_hd(seed):
    # Both filtrations of each completion_hd op: Cech on every simplex and
    # its (delta-1)-completion, read at pmax 2 as the op reads them.
    W = bench_module("workloads")
    wl = W.WORKLOADS["completion_hd"]
    for index in range(len(wl.slots)):
        args, _ = wl.inputs(seed, index)
        pts = args["points"]
        cech = cech_filtration(pts, len(pts) - 1)
        comp = completion(cech, delta(args["eps"]) - 1, len(pts) - 1)
        for filt in (cech, comp):
            assert sorted_points(persist_filtration(filt, 2)) == sorted_points(ref_persist(filt, 2))


@pytest.mark.parametrize("n", [32, 64])
def test_persist_matches_the_bitset_oracle_on_planar_cech(n):
    filt = cech_filtration(np.random.default_rng([68, n]).random((n, 2)), 2)
    assert sorted_points(persist_filtration(filt, 1)) == sorted_points(ref_persist(filt, 1))


# ---------------------------------------------------------------------------
# the layered engine against the entry-list engine it replaced


def assert_matches_ref_cohomology(filt, pmaxes):
    for pmax in pmaxes:
        want = sorted_points(ref_cohomology(filt, pmax))
        assert sorted_points(persist_filtration(filt, pmax)) == want, pmax


def assert_entries_in_todays_order(filt):
    """`entries` is the (value, dimension, simplex) sort of the pairs."""
    key = lambda e: (e[1], len(e[0]), e[0])  # noqa: E731
    assert filt.entries == sorted(filt.value_of().items(), key=key)


@pytest.mark.parametrize("seed", range(4))
def test_layered_engine_matches_the_entry_engine_on_completion_hd(seed):
    # Both filtrations of each op, every simplex on n points, read at pmax 2.
    W = bench_module("workloads")
    wl = W.WORKLOADS["completion_hd"]
    for index in range(len(wl.slots)):
        args, _ = wl.inputs(seed, index)
        pts = args["points"]
        cech = cech_filtration(pts, len(pts) - 1)
        comp = completion(cech, delta(args["eps"]) - 1, len(pts) - 1)
        for filt in (cech, comp):
            assert_entries_in_todays_order(filt)
            assert_matches_ref_cohomology(filt, (2,))


@pytest.mark.parametrize("n", [32, 64])
def test_layered_engine_matches_the_entry_engine_on_planar_cech_and_rips(n):
    pts = np.random.default_rng([70, n]).random((n, 2))
    for filt in (cech_filtration(pts, 2), rips_filtration(pts, 2)):
        assert_entries_in_todays_order(filt)
        assert_matches_ref_cohomology(filt, (0, 1))


def test_layered_engine_matches_the_entry_engine_on_coned_tower2d():
    # Seeds 0-7 of each slot of the tower2d workload: the coned filtration
    # comes in as entries, in the walk's order.
    W = bench_module("workloads")
    wl = W.WORKLOADS["tower2d"]
    for seed in range(8):
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(seed, index)
            _, tower, _ = W.op_tower(**args)
            for pmax in (0, 1):
                filt = Filtration(list(_coned_filtration(tower, pmax).items()))
                assert_matches_ref_cohomology(filt, (pmax,))


def shuffled(rng, entries):
    return [entries[j] for j in rng.permutation(len(entries))]


def test_layered_engine_matches_the_entry_engine_on_heavy_ties():
    # Values rounded up to one of 3 levels (a monotone map, so still
    # face-monotone): most columns tie, and lexicographic order decides.
    # Completing the shuffled entries puts full layers over given ones.
    rng = np.random.default_rng(71)
    for trial in range(12):
        pts = random_cloud(rng, 6 + trial % 4, 2 + trial % 3)
        for build in (cech_filtration, rips_filtration):
            values = build(pts, 3).value_of()
            top = max(values.values())
            tied = [(s, math.ceil(3.0 * v / top) / 3.0) for s, v in values.items()]
            filt = Filtration(shuffled(rng, tied))
            for f in (filt, completion(filt, 1, 3), completion(filt, 2, 4)):
                assert_entries_in_todays_order(f)
                assert_matches_ref_cohomology(f, (0, 1, 2))


def test_layered_engine_matches_the_entry_engine_on_subcomplexes():
    # Closed subcomplexes that are not full in any layer above the
    # vertices, given as entries in random order.
    rng = np.random.default_rng(72)
    for trial in range(12):
        pts = random_cloud(rng, 7 + trial % 3, 2)
        values = cech_filtration(pts, 3).value_of()
        K = _random_complex(rng, list(range(len(pts))), probs=(0.6, 0.3, 0.2))
        filt = Filtration(shuffled(rng, [(s, values[s]) for s in K.simplices]))
        assert_matches_ref_cohomology(filt, (0, 1, 2))


def test_filtration_rejects_a_repeated_simplex():
    with pytest.raises(InvalidInput, match=r"\(0,\)"):
        Filtration([((0,), 0.0), ((0,), 1.0), ((1,), 0.0), ((0, 1), 2.0)])
    with pytest.raises(InvalidInput, match=r"\(0, 1\)"):
        Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 2.0), ((0, 1), 3.0)])
    with pytest.raises(InvalidInput):
        Filtration([((0,), 0.0), ((), 1.0)])


def test_persist_checks_layers_above_the_cut_to_1e_12():
    # A planted violation in dimension 4, far above pmax + 1 = 2, through
    # the entries route and through a builder's facet table.
    pts = random_cloud(np.random.default_rng(73), 7, 3)
    cech = cech_filtration(pts, 6)
    values = cech.value_of()
    s = (0, 1, 2, 3, 4)
    facet_max = max(values[f] for f in itertools.combinations(s, 4))
    for gap, ok in ((1e-9, False), (1e-13, True)):
        planted = dict(values)
        planted[s] = facet_max - gap
        by_entries = Filtration(list(planted.items()))
        by_layers = cech_filtration(pts, 6)
        layer = by_layers._layers[4]
        layer.values = layer.values.copy()
        layer.values[list(layer.simplices).index(s)] = facet_max - gap
        for filt in (by_entries, by_layers):
            if ok:
                assert persist_filtration(filt, 1) == persist_filtration(cech, 1)
            else:
                with pytest.raises(InvalidInput, match="face-monotone"):
                    persist_filtration(filt, 1)


def test_missing_facet_raises_from_persist_not_from_the_constructor():
    # Edge (1, 3) of a triangle, above the cut at pmax 0, or vertex 3.
    vertices = [((v,), 0.0) for v in range(4)]
    edges = [(e, 1.0) for e in itertools.combinations(range(4), 2)]
    no_edge = Filtration(vertices + [e for e in edges if e[0] != (1, 3)] + [((0, 1, 3), 2.0)])
    no_vertex = Filtration(vertices[:-1] + edges)
    for filt, pmax in ((no_edge, 0), (no_edge, 1), (no_vertex, 0)):
        with pytest.raises(InvalidInput, match="face-monotone"):
            persist_filtration(filt, pmax)


def test_persist_refuses_a_large_skeleton_before_reading_a_facet(monkeypatch):
    def no_facets(self, k):
        raise AssertionError("a facet table was read")

    pts = random_cloud(np.random.default_rng(74), 8, 2)
    cech = cech_filtration(pts, 3)
    monkeypatch.setattr(homology, "MAX_ENTRIES", 8 + 28 + 56 - 1)
    monkeypatch.setattr(Filtration, "layer", no_facets)
    for filt in (cech, Filtration(cech.entries)):
        with pytest.raises(InvalidInput, match="above the limit"):
            persist_filtration(filt, 1)
    monkeypatch.setattr(homology, "MAX_ENTRIES", 8 + 28 + 56)
    with pytest.raises(AssertionError):
        persist_filtration(cech, 1)


class Unordered:
    """A vertex label that hashes but refuses every comparison."""

    def __init__(self, i):
        self.i = i

    def __hash__(self):
        return hash(self.i)

    def __eq__(self, other):
        return isinstance(other, Unordered) and other.i == self.i

    def __lt__(self, other):
        raise AssertionError("a simplex was compared")

    __gt__ = __le__ = __ge__ = __lt__


def test_tower_heights_are_never_sorted():
    # A height is read for its span, size and values, never ordered.
    a, b, c = map(Unordered, range(3))
    K = Filtration([((a,), 0.0), ((b,), 0.0), ((a, b), 1.0)])
    L = Filtration([((c,), 2.0), ((a,), 2.0), ((a, c), 3.0), ((b,), 2.5)])
    tower = Tower([K, L], [VertexMap(SComplex(K.simplices), SComplex(L.simplices), {a: a, b: c})])
    assert [len(M) for M in tower.complexes] == [3, 4]
    assert K.span() == (0.0, 1.0) and L.span() == (2.0, 3.0)
    assert L.value_of() == {(c,): 2.0, (a,): 2.0, (a, c): 3.0, (b,): 2.5}
    assert L.complex_at(2.0) == {(c,), (a,)}


# ---------------------------------------------------------------------------
# diagrams as data

def test_diagram_json_round_trip():
    dgm = PersistenceDiagram()
    dgm.add(0, 0.0, INF)
    dgm.add(1, 1.0, 2.5)
    back = PersistenceDiagram.from_json_obj(dgm.to_json_obj())
    assert back == dgm


def test_diagram_equality_is_multiset():
    a = PersistenceDiagram({0: [(0.0, 1.0), (0.0, 2.0)]})
    b = PersistenceDiagram({0: [(0.0, 2.0), (0.0, 1.0)]})
    assert a == b
    assert a != PersistenceDiagram({0: [(0.0, 1.0)]})
