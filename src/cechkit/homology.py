"""GF(2) persistent homology.

One engine, ``persist_filtration``: persistent cohomology with clearing
(de Silva, Morozov and Vejdemo-Johansson 2011; Bauer 2021), which reduces
the coboundaries of each dimension in reverse filtration order, as sparse
sets of cofacet positions, and gives the pairs of homology.  It reads a
`Filtration` layer by layer, as Ripser reads its combinatorial number
system: each dimension's values, put in filtration order by one stable
sort, and its facet table, against which one comparison checks the whole
layer face-monotone and from which the coboundaries of the dimension
below are grouped.  A diagram up to dimension pmax reads only the
(pmax+1)-skeleton, so that is all it reduces; above ``MAX_ENTRIES``
entries in it, it refuses before reading any facet table.  Running
backwards, it needs the whole filtration before it starts.  A tower is a
sequence of filtrations, each giving every simplex of one complex the
scale at which it enters, linked by simplicial vertex maps.
``tower_diagram`` turns it into one filtration with the same diagram by
coning off each vertex collapse of each map, reading the two stars of a
collapse from a vertex -> star index; the same walk checks each map on the
complex it relabels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import Filtration
from .errors import InvalidInput

INF = math.inf

# Most entries `persist_filtration` reduces.  Its facet tables hold one
# position per facet, and the coboundaries grouped from them as many again,
# so it grows with the filtration it is given: `cech --pmax 1` on 128 and
# 181 planar points (`default_rng(3)`; 349632 and 988441 entries) peaks at
# 122 and 278 MB resident, the filtration included.
MAX_ENTRIES = 1_000_000


# ---------------------------------------------------------------------------
# complexes and maps

@dataclass
class SComplex:
    """Finite simplicial complex; simplices are sorted tuples of labels."""

    simplices: set

    def is_closed(self) -> bool:
        for s in self.simplices:
            if len(s) == 1:
                continue
            for f in itertools.combinations(s, len(s) - 1):
                if f not in self.simplices:
                    return False
        return True

    def vertices(self) -> list:
        return sorted({v for s in self.simplices for v in s})


@dataclass
class VertexMap:
    """Vertex map between complexes, extended simplexwise."""

    domain: SComplex
    codomain: SComplex
    mapping: dict

    def apply(self, simplex) -> tuple:
        return tuple(sorted({self.mapping[v] for v in simplex}))

    def is_simplicial(self) -> bool:
        return all(self.apply(s) in self.codomain.simplices for s in self.domain.simplices)

    def compose(self, other: "VertexMap") -> "VertexMap":
        """self after other (other's codomain feeds self's domain)."""
        return VertexMap(
            other.domain,
            self.codomain,
            {v: self.mapping[w] for v, w in other.mapping.items()},
        )


def check_contiguous(f: VertexMap, g: VertexMap) -> bool:
    """Do f and g jointly span a simplex on every simplex of the domain?"""
    if f.domain.simplices != g.domain.simplices or f.codomain.simplices != g.codomain.simplices:
        raise InvalidInput("contiguity requires identical domain and codomain")
    for s in f.domain.simplices:
        joint = tuple(sorted({f.mapping[v] for v in s} | {g.mapping[v] for v in s}))
        if joint not in f.codomain.simplices:
            return False
    return True


# ---------------------------------------------------------------------------
# persistence diagrams

@dataclass
class PersistenceDiagram:
    """Per-dimension multiset of (birth, death) pairs; death may be inf."""

    points: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    def add(self, p: int, birth: float, death: float):
        self.points.setdefault(p, []).append((birth, death))

    def dim(self, p: int) -> list[tuple[float, float]]:
        return sorted(self.points.get(p, []))

    def dims(self) -> list[int]:
        return sorted(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        dims = set(self.points) | set(other.points)
        return all(sorted(self.points.get(p, [])) == sorted(other.points.get(p, [])) for p in dims)

    def to_json_obj(self) -> list:
        out = []
        for p in self.dims():
            pts = [[b, "inf" if d == INF else d] for b, d in self.dim(p)]
            out.append({"p": p, "points": pts})
        return out

    @staticmethod
    def from_json_obj(obj) -> "PersistenceDiagram":
        """The inverse of `to_json_obj`; a dimension that is not an integer
        >= 0, a NaN coordinate, a negative or non-finite birth or a death
        before its birth raises ValueError."""
        dgm = PersistenceDiagram()
        for block in obj:
            p = block["p"]
            if not (isinstance(p, int) or isinstance(p, float) and p.is_integer()) or p < 0:
                raise ValueError(f"dimension {p!r} is not an integer >= 0")
            for b, d in block["points"]:
                birth, death = float(b), INF if d == "inf" else float(d)
                if not 0.0 <= birth < INF or math.isnan(death):
                    raise ValueError(f"point {[b, d]!r} has a NaN or a negative or infinite birth")
                if death < birth:
                    raise ValueError(f"point {[b, d]!r} dies before it is born")
                dgm.add(int(p), birth, death)
        return dgm


def persist_filtration(filt, pmax: int) -> PersistenceDiagram:
    """Diagram in every dimension <= pmax: persistent cohomology with
    clearing over the (pmax+1)-skeleton, which holds every pair of those
    dimensions.  Each layer is put in filtration order by a stable sort of
    its values, its lexicographic order breaking ties, so the columns come
    in (value, dimension, simplex) order.  For p = 0 .. pmax the
    coboundary of each p-simplex, grouped from the facet table of layer
    p+1, is reduced in reverse filtration order, its pivot the earliest
    cofacet; a p-simplex that was a pivot at p-1 would reduce to zero and
    is skipped (clearing).  The pairs equal those of homology.  Every
    layer is checked face-monotone (up to 1e-12) against its facet table.
    A skeleton of more than MAX_ENTRIES entries raises InvalidInput
    before any facet table is read."""
    top = max(pmax + 1, 0)
    sizes = filt.layer_sizes
    size = sum(sizes[: top + 1])
    if size > MAX_ENTRIES:
        raise InvalidInput(
            f"the {top}-skeleton to reduce has {size} filtration entries, "
            f"above the limit of {MAX_ENTRIES}"
        )
    values, facets = [], []
    for k in range(len(sizes)):
        v, F = filt.layer(k)
        if k and (values[k - 1][F].max(axis=1) > v + 1e-12).any():
            raise InvalidInput("filtration is not face-monotone")
        values.append(v)
        facets.append(F)

    dgm = PersistenceDiagram()
    cleared: dict = {}
    order = values[0].argsort(kind="stable") if values else None
    for p in range(min(pmax + 1, len(values))):
        births = values[p][order].tolist()
        lex = order.tolist()
        cof, start = [], [0] * (len(lex) + 1)
        if p + 1 < len(values):
            order = values[p + 1].argsort(kind="stable")
            deaths = values[p + 1][order].tolist()
            cof, start = _cofacets(facets[p + 1], order, len(lex))
        pivots: dict = {}  # cofacet position -> the reduced column whose pivot it is
        points = []
        for i in range(len(lex) - 1, -1, -1):
            if i in cleared:
                continue
            s = lex[i]
            birth = births[i]
            col = cof[start[s] : start[s + 1]]
            if col:
                low = col[0]
                if low in pivots:
                    col = set(col)
                    while True:
                        col.symmetric_difference_update(pivots[low])
                        if not col:
                            break
                        low = min(col)
                        if low not in pivots:
                            break
            if col:
                pivots[low] = col
                death = deaths[low]
                if birth < death:
                    points.append((birth, death))
            else:
                points.append((birth, INF))
        if points:
            dgm.points[p] = points
        cleared = pivots
    return dgm


def _cofacets(facets: np.ndarray, order: np.ndarray, count: int) -> tuple[list, list]:
    """The coboundaries of the `count` simplices below a layer with facet
    table `facets`, whose filtration order is `order`:
    cof[start[s]:start[s + 1]] lists the cofacets of the simplex at
    lexicographic position s by increasing filtration position."""
    keys = facets[order].ravel()
    start = [0, *np.bincount(keys, minlength=count).cumsum().tolist()]
    return (keys.argsort(kind="stable") // facets.shape[1]).tolist(), start


# ---------------------------------------------------------------------------
# towers

@dataclass
class Tower:
    """Complexes linked by simplicial vertex maps.

    Each complex is a `Filtration` that gives every simplex of the
    complex the scale at which it enters.  `maps[i]` sends complex i
    into complex i+1 at that complex's first value, so its image must
    lie in the simplices entering there, and each complex enters after
    the one before it is whole.
    """

    complexes: list[Filtration]
    maps: list[VertexMap]

    def __post_init__(self):
        if len(self.maps) != max(len(self.complexes) - 1, 0):
            raise InvalidInput("need exactly one map per consecutive pair")
        for K, L in zip(self.complexes, self.complexes[1:]):
            if not (len(K) and len(L) and K.span()[1] < L.span()[0]):
                raise InvalidInput("each complex must enter after the one before")


def _coned_filtration(tower: Tower, pmax: int) -> dict:
    """Simplex -> value of a filtration with the persistence of `tower`
    in every dimension <= pmax: the simplices of dimension <= pmax+1.

    Each map is split into elementary collapses u -> v, one per extra
    vertex of a fibre, and each collapse is simulated by adding the cone
    v * cl(St u) at the map's scale before u is renamed to v in the
    current complex (Dey, Fan and Wang 2014); the vertex with the larger
    star survives, which keeps the filtration near-linear in the tower's
    size (Kerber and Schreiber 2019).  Only faces of dimension <= pmax
    are coned, each face once however many simplices of the star hold
    it, since a cone over a k-face is a (k+1)-simplex.  Before a map's
    collapses the stars in the current complex of every vertex whose fibre
    has more than one member are indexed, and each collapse reads its two
    stars there and renames u to v in the complex and the index, so it
    costs the size of its stars, not of the complex.  The next complex is
    then relabelled to integers, a dimension at a time (`_relabelled`):
    an image vertex takes the id of its fibre's survivor, and each new
    vertex of its vertex layer, in order, a fresh id, so no later vertex
    reuses the id of a removed one; a simplex with a vertex that is not a
    0-simplex raises InvalidInput, as the engine refuses a filtration
    that misses a face.  The collapsed complex is the map's
    image, so the map is simplicial iff that image lies in the part of
    the relabelled complex that enters at the map's scale; the current
    complex keeps every simplex, whatever pmax, for that check.  Each
    simplex then enters at its own value, unless a cone put it in first.
    """
    value: dict = {}
    ids: dict = {}  # vertex of the last complex walked -> its integer id
    fresh = itertools.count()
    current: set = set()  # the last complex walked, relabelled
    for i, K in enumerate(tower.complexes):
        scale = K.span()[0] if len(K) else 0.0
        mapping = tower.maps[i - 1].mapping if i > 0 else {}
        fibres: dict = {}
        for x in sorted(ids):
            fibres.setdefault(mapping[x], []).append(ids[x])
        ids = {}
        # vertex of a fibre of more than one member -> its star in current
        star = {x: set() for f in fibres.values() if len(f) > 1 for x in f}
        if star:
            for s in current:
                for x in s:
                    if x in star:
                        star[x].add(s)
        for w, (v, *rest) in fibres.items():
            for u in rest:
                if len(star[u]) > len(star[v]):
                    u, v = v, u
                star_u = star.pop(u)
                faces = {
                    face
                    for s in star_u
                    for k in range(1, min(len(s), pmax + 1) + 1)
                    for face in itertools.combinations(s, k)
                }
                for face in faces:
                    value.setdefault(tuple(sorted({*face, v})), scale)
                star_v = star[v]
                for s in star_u:
                    t = tuple(sorted({v if x == u else x for x in s}))
                    current.discard(s)
                    current.add(t)
                    star_v.add(t)
                    for x in s:
                        if x != u and x in star:
                            star[x].discard(s)
                            star[x].add(t)
            ids[w] = v
        layers = K.values_by_dim()
        for (x,) in sorted(s for layer in layers[:1] for s in layer if s[0] not in ids):
            ids[x] = next(fresh)
        try:
            new = _relabelled(layers, ids)
        except KeyError:  # a vertex of a simplex is not a 0-simplex
            raise InvalidInput("filtration is not face-monotone") from None
        merged = {}
        for layer in new:
            merged.update(layer)
        if any(merged.get(s, INF) > scale for s in current):
            raise InvalidInput("map is not simplicial")
        current = set(merged)
        for layer in new[: pmax + 2]:
            for s, v in layer.items():
                if s not in value:
                    value[s] = v
    return value


def _relabelled(layers: list[dict], ids: dict) -> list[dict]:
    """Each simplex -> value dict of `layers` with its vertices renamed
    by `ids`, which must be one to one on them: a vertex is one lookup, a
    pair one comparison, a triangle at most three, and only larger
    simplices go through `sorted`."""
    get = ids.__getitem__
    new = [{(get(x),): v for (x,), v in layer.items()} for layer in layers[:1]]
    if len(layers) > 1:
        pairs = {}
        for (x, y), v in layers[1].items():
            a, b = get(x), get(y)
            pairs[(a, b) if a < b else (b, a)] = v
        new.append(pairs)
    if len(layers) > 2:
        triangles = {}
        for (x, y, z), v in layers[2].items():
            a, b, c = get(x), get(y), get(z)
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            triangles[a, b, c] = v
        new.append(triangles)
    new += [{tuple(sorted(map(get, s))): v for s, v in layer.items()} for layer in layers[3:]]
    return new


def tower_diagram(tower: Tower, pmax: int) -> PersistenceDiagram:
    """Diagram of a tower in every dimension <= pmax, by column reduction
    of its coned filtration up to dimension pmax+1."""
    return persist_filtration(Filtration(list(_coned_filtration(tower, pmax).items())), pmax)


def filtration_tower(filt) -> Tower:
    """The tower of one filtration, with no map."""
    return Tower([filt], [])
