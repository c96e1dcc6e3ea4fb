"""Well-separated pair decomposition over quadtree cells.

The construction is the classical split-the-bigger-cell recursion on
the compressed quadtree.  Singleton cells are split toward the single
point they contain, so the recursion always terminates: the cell
diameter shrinks geometrically while the pair distance stays fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput
from .quadtree import Cell, Quadtree


def is_well_separated(q: Cell, q2: Cell, eps: float) -> bool:
    """True iff max(diam(q), diam(q2)) <= eps * d(q, q2)."""
    dist = q.distance_to_cell(q2)
    if dist <= 0.0:
        return False
    return max(q.diam(), q2.diam()) <= eps * dist


@dataclass(frozen=True)
class WSPair:
    q: Cell
    q2: Cell

    def key(self):
        return (self.q, self.q2) if self.q <= self.q2 else (self.q2, self.q)


@dataclass
class WSPD:
    epsilon: float
    pairs: list[WSPair]


def _node_diam(qt: Quadtree, cell: Cell) -> float:
    """Diameter for separation tests: singleton subtrees act as points.

    This is the compressed-quadtree view; without it the pair count
    picks up a spread-dependent factor from long singleton chains.
    """
    return 0.0 if len(qt.points_in(cell)) == 1 else cell.diam()


def _node_dist(qt: Quadtree, u: Cell, v: Cell) -> float:
    pu = qt.points_in(u)
    pv = qt.points_in(v)
    if len(pu) == 1 and len(pv) == 1:
        return math.dist(qt.cloud.points[pu[0]], qt.cloud.points[pv[0]])
    if len(pu) == 1:
        return v.distance_to_point(qt.cloud.points[pu[0]])
    if len(pv) == 1:
        return u.distance_to_point(qt.cloud.points[pv[0]])
    return u.distance_to_cell(v)


_MATERIALIZE_CAP = 80


def _materialize(qt: Quadtree, u: Cell, v: Cell, eps: float) -> WSPair | None:
    """Shrink singleton cells until the emitted pair is well separated.

    A singleton passed the separation test with point semantics; its
    actual cell is taken deep enough that the cell-level certificate
    max(diam) <= eps * d(box, box) holds exactly.
    """
    single_u = len(qt.points_in(u)) == 1
    single_v = len(qt.points_in(v)) == 1
    if not (single_u or single_v):
        return WSPair(u, v)

    dist = _node_dist(qt, u, v)
    # Not quadtree.dyadic_height: log2 rounds a value one ulp below a power
    # of two up to it, which at a normalized cloud's closest pair is the
    # exact-arithmetic height, and the pair keys depend on that start.
    start = math.floor(math.log2(eps * dist / (2.0 * math.sqrt(qt.d))))
    if start < qt.L - 1024:  # cell indices below 2^(L-h) must stay finite floats
        raise InvalidInput(f"WSPD eps={eps!r} is too small: grid height {start} is too fine")
    for h in range(start, max(start - _MATERIALIZE_CAP, qt.L - 1025), -1):
        cu = qt.cell_containing(qt.points_in(u)[0], min(h, u.height)) if single_u else u
        cv = qt.cell_containing(qt.points_in(v)[0], min(h, v.height)) if single_v else v
        if is_well_separated(cu, cv, eps):
            return WSPair(cu, cv)
    return None


def build_wspd(qt: Quadtree, eps: float) -> WSPD:
    """eps-WSPD of the quadtree's point set."""
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"eps must be in (0,1), got {eps}")

    out: dict[tuple, WSPair] = {}
    root = qt.root()
    if qt.cloud.n < 2:
        return WSPD(eps, [])

    stack: list[tuple[Cell, Cell]] = [(root, root)]
    while stack:
        u, v = stack.pop()
        nu, nv = len(qt.points_in(u)), len(qt.points_in(v))
        if u == v:
            if nu < 2:
                continue
            cs = qt.children(u)
            for i in range(len(cs)):
                for j in range(i, len(cs)):
                    stack.append((cs[i], cs[j]))
            continue
        dist = _node_dist(qt, u, v)
        if dist > 0.0 and max(_node_diam(qt, u), _node_diam(qt, v)) <= eps * dist:
            pair = _materialize(qt, u, v, eps)
            if pair is not None:
                out.setdefault(pair.key(), pair)
                continue
        # Split the non-singleton side with the larger height.
        split_u = (nu > 1) and (nv == 1 or u.height >= v.height)
        if split_u:
            for c in qt.children(u):
                stack.append((c, v))
        else:
            for c in qt.children(v):
                stack.append((u, c))

    pairs = [out[k] for k in sorted(out)]
    return WSPD(eps, pairs)
