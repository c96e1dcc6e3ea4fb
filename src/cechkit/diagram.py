"""Multiplicative comparison of persistence diagrams.

A diagram is a c-approximation of another if a bijection moves every
point by at most a factor c in each coordinate; points close enough to
the diagonal (death <= c^2 * birth) may be dropped instead of matched.
Births equal to zero only match births equal to zero, and infinite
deaths only match infinite deaths; this is the right convention for the
Cech-style filtrations produced here, where all 0-dimensional classes
are born exactly at scale 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidInput
from .homology import INF, PersistenceDiagram

_REL = 1e-12  # slack absorbing floating-point noise in ratio comparisons


def _ratio(a: float, b: float) -> float:
    """The factor between a and b, max(a/b, b/a): 1 when they are equal,
    inf when they are not and one of them is 0 or inf."""
    if a == b:
        return 1.0
    if a in (0.0, INF) or b in (0.0, INF):
        return INF
    return a / b if a >= b else b / a


def _ratio_ok(a: float, b: float, c: float) -> bool:
    """Is b within [a/c, a*c], multiplicatively?"""
    r = _ratio(a, b)
    return r < INF and r <= c * (1.0 + _REL)


def _compatible(p1, p2, c: float) -> bool:
    return _ratio_ok(p1[0], p2[0], c) and _ratio_ok(p1[1], p2[1], c)


def _droppable(pt, c: float) -> bool:
    birth, death = pt
    if death == INF:
        return False
    if birth == 0.0:
        return death == 0.0
    return death <= c * c * birth * (1.0 + _REL)


def perfect_matching(adj: list[list[int]], n_right: int) -> list[int] | None:
    """Kuhn's augmenting paths on a bipartite graph, depth-first with an
    explicit stack.

    Left vertex a may take any right vertex in adj[a], tried in list
    order.  Returns the left partner of each right vertex when every
    left vertex is matched, else None.
    """
    match = [-1] * n_right
    for root in range(len(adj)):
        seen = [False] * n_right
        lefts = [root]  # the left vertex of each open frame
        frames = [iter(adj[root])]
        path: list[int] = []  # the right vertex each frame is trying
        while frames:
            for b in frames[-1]:
                if not seen[b]:
                    seen[b] = True
                    break
            else:
                lefts.pop()
                frames.pop()
                if path:
                    path.pop()
                continue
            path.append(b)
            if match[b] == -1:
                for a, r in zip(lefts, path):
                    match[r] = a
                break
            lefts.append(match[b])
            frames.append(iter(adj[match[b]]))
        else:
            return None
    return match


def _feasible(pts1, pts2, c: float):
    """Perfect matching with per-point diagonal partners; returns the
    matching as a list of (i, j) index pairs or None."""
    n1, n2 = len(pts1), len(pts2)
    # Left: pts1, then the diagonal partners of pts2.  Right: pts2, then
    # the diagonal partners of pts1.  Diagonal partners match each other.
    diagonal = list(range(n2, n2 + n1))
    adj = []
    for a, p1 in enumerate(pts1):
        row = [j for j, p2 in enumerate(pts2) if _compatible(p1, p2, c)]
        if _droppable(p1, c):
            row.append(n2 + a)
        adj.append(row)
    for j, p2 in enumerate(pts2):
        adj.append([j] + diagonal if _droppable(p2, c) else diagonal)
    match = perfect_matching(adj, n2 + n1)
    if match is None:
        return None
    return [(match[b], b) for b in range(n2) if match[b] < n1]


@dataclass
class ApproxReport:
    c: float
    matched: bool
    witness: dict = field(default_factory=dict)


def is_c_approximation(d1: PersistenceDiagram, d2: PersistenceDiagram, c: float) -> ApproxReport:
    """Feasibility of a c-bounded bijection between the two diagrams."""
    if c < 1.0:
        raise InvalidInput(f"approximation factor must be >= 1, got {c}")
    witness = {}
    for p in sorted(set(d1.dims()) | set(d2.dims())):
        pts1, pts2 = d1.dim(p), d2.dim(p)
        match = _feasible(pts1, pts2, c)
        if match is None:
            return ApproxReport(c, False, {"failed_dimension": p})
        witness[p] = [(pts1[i], pts2[j]) for i, j in match]
    return ApproxReport(c, True, witness)


def _candidates(pts1, pts2) -> list[float]:
    cands = {1.0}
    for pt in pts1 + pts2:
        birth, death = pt
        if death != INF and birth > 0.0 and death > 0.0:
            cands.add(math.sqrt(death / birth))
    for p1 in pts1:
        for p2 in pts2:
            cands.update((_ratio(p1[0], p2[0]), _ratio(p1[1], p2[1])))
    return sorted(x for x in cands if 1.0 <= x < INF)


def bottleneck_log(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """log of the smallest c for which the diagrams are c-approximations.

    Candidate values of c come from coordinate ratios (a finite set), so
    the result is exact up to floating point.  Returns +inf when no c
    works (e.g. mismatched counts of infinite or zero-birth points).
    """
    worst = 0.0
    for p in sorted(set(d1.dims()) | set(d2.dims())):
        pts1, pts2 = d1.dim(p), d2.dim(p)
        if pts1 == pts2:  # c = 1 matches a list to itself
            continue
        cands = _candidates(pts1, pts2)
        if _feasible(pts1, pts2, cands[-1]) is None:
            return INF
        lo, hi = 0, len(cands) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if _feasible(pts1, pts2, cands[mid]) is None:
                lo = mid + 1
            else:
                hi = mid
        worst = max(worst, math.log(cands[lo]))
    return worst
