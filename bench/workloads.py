"""Seeded inputs, one op and one output check per benchmark workload.

Every op makes the same public library calls as the matching CLI
command (`approx`, `wssd`, `completion`, `compare`), in-process, and
reaches them through module attributes (`quadtree.normalize`, not a
name imported into this file), so the traced run can wrap them.

Op ``i`` of a run uses slot ``i % len(slots)`` for its sizes and a
generator seeded with ``(seed, i)`` for its coordinates; the same seed
always gives the same inputs.  Point clouds are drawn with a minimum
pairwise gap, so their spread (and with it the number of tower scales)
is a stated workload parameter rather than an accident of the seed.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cechkit import approx, complexes, coreset, diagram, homology, quadtree, wssd

PersistenceDiagram = homology.PersistenceDiagram
INF = math.inf
TOL = 1e-9


# ---------------------------------------------------------------------------
# point generators


def _hard_core(rng, n: int, gap: float, draw) -> np.ndarray:
    """n points from `draw`, pairwise at least `gap` apart, the first two
    exactly `gap` apart: the minimum distance, and with it the spread,
    is fixed by the workload rather than by the seed."""
    first = draw()
    direction = rng.standard_normal(first.shape[0])
    pts = [first, first + gap * direction / np.linalg.norm(direction)]
    while len(pts) < n:
        x = draw()
        if all(np.linalg.norm(x - p) >= gap for p in pts):
            pts.append(x)
    return np.array(pts[:n])


def spaced_uniform(rng, n: int, d: int) -> np.ndarray:
    """n uniform points in the unit cube, minimum distance 0.5 n^(-1/d)."""
    return _hard_core(rng, n, 0.5 * n ** (-1.0 / d), lambda: rng.uniform(size=d))


def two_clusters(rng, n: int, sigma: float = 0.01) -> np.ndarray:
    """Two planar Gaussian clusters (sd sigma) 0.7 apart, minimum distance
    sigma/2: spread near 140, against about 2 for uniform clouds."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    offset = 0.35 * np.array([np.cos(theta), np.sin(theta)])
    centers = [0.5 - offset, 0.5 + offset]
    count = [0]

    def draw():
        count[0] += 1
        return centers[count[0] % 2] + sigma * rng.standard_normal(2)

    return _hard_core(rng, n, 0.5 * sigma, draw)


def planted_pair(rng, npts: int, c: float) -> tuple[list, list]:
    """Diagram JSON objects a, b with b a c-bounded perturbation of a.

    Dimension 0 holds zero-birth points plus one essential class,
    dimension 1 holds finite points plus one essential class; each
    side also gets near-diagonal points (death <= c^2 birth) that only
    it has.  Every other finite, nonzero coordinate of b is a's times a
    factor in [1/c, c], so the log-bottleneck is at most log c.
    """
    n_diag = max(2, npts // 10)
    n0 = (npts - n_diag) // 2
    n1 = npts - n_diag - n0
    dim0 = [(0.0, INF)] + [(0.0, float(x)) for x in np.exp(rng.uniform(-1.0, 0.0, n0 - 1))]
    dim1 = [(float(np.exp(rng.uniform(-2.0, -1.0))), INF)]
    for _ in range(n1 - 1):
        b = float(np.exp(rng.uniform(-1.5, -1.0)))
        dim1.append((b, b * c * c * float(np.exp(rng.uniform(0.1, 1.0)))))

    def jitter(x: float) -> float:
        if x == 0.0 or x == INF:
            return x
        return x * float(c ** rng.uniform(-1.0, 1.0))

    def near_diagonal(k: int) -> list:
        out = []
        for _ in range(k):
            b = float(np.exp(rng.uniform(-1.5, -1.0)))
            out.append((b, b * float(c ** rng.uniform(0.2, 2.0))))
        return out

    a = {0: dim0, 1: dim1 + near_diagonal(n_diag)}
    b = {
        0: [(0.0, jitter(dth)) for _, dth in dim0],
        1: [(jitter(bth), jitter(dth)) for bth, dth in dim1] + near_diagonal(n_diag),
    }

    def as_json(points: dict) -> list:
        return [
            {"p": p, "points": [[x, "inf" if y == INF else y] for x, y in pts]}
            for p, pts in sorted(points.items())
        ]

    return as_json(a), as_json(b)


# ---------------------------------------------------------------------------
# ops: the CLI command paths


def op_tower(points: np.ndarray, eps: float):
    """`cechkit approx --pmax 1`: grid tower diagram of a planar cloud."""
    cloud = quadtree.normalize(points)
    qt = quadtree.build(cloud)
    dec = wssd.build_wssd(qt, eps / 12.0, min(qt.d, 2))
    ell = approx.tower_scale_range(qt, eps)
    tower = approx.build_tower(qt, dec, eps, ell)
    dgm = PersistenceDiagram()
    for p in (0, 1):
        for b, d_ in homology.tower_diagram(tower, p).dim(p):
            dgm.add(p, b, d_)
    return cloud, tower, dgm


def op_wssd(points: np.ndarray, eps: float, kmax: int):
    """`cechkit wssd` without tuple dump: the decomposition and its sizes."""
    cloud = quadtree.normalize(points)
    qt = quadtree.build(cloud)
    if kmax > qt.d:
        raise ValueError(f"kmax {kmax} exceeds dimension {qt.d}")
    dec = wssd.build_wssd(qt, eps, kmax)
    sizes = {f"gamma_{k}": len(dec.gamma(k)) for k in range(1, kmax + 1)}
    return cloud, dec, sizes


def op_completion(points: np.ndarray, eps: float):
    """`cechkit completion --pmax 2` plus the radius coreset of the cloud."""
    n = points.shape[0]
    filt = complexes.cech_filtration(points, n - 1)
    comp = complexes.completion(filt, coreset.delta(eps) - 1, n - 1)
    dgm = homology.persist_filtration(comp, 2)
    base = homology.persist_filtration(filt, 2)
    log_c = diagram.bottleneck_log(dgm, base)
    core = coreset.radius_coreset_greedy(points, eps)
    return log_c, core


def op_compare(json_a: list, json_b: list):
    """`cechkit compare`: log-bottleneck, then feasibility at that factor."""
    d1 = PersistenceDiagram.from_json_obj(json_a)
    d2 = PersistenceDiagram.from_json_obj(json_b)
    log_c = diagram.bottleneck_log(d1, d2)
    c = math.exp(log_c) if log_c != INF else INF
    report = diagram.is_c_approximation(d1, d2, c if c != INF else 1.0)
    return d1, d2, log_c, bool(report.matched) if c != INF else False


def exact_cech_diagram(points: np.ndarray) -> PersistenceDiagram:
    """`cechkit cech --kmax 2 --pmax 1`: the exact reference diagram."""
    return homology.persist_filtration(complexes.cech_filtration(points, 2), 1)


# ---------------------------------------------------------------------------
# output checks (run outside the timed region)


def tower_log_error(tower_dgm: PersistenceDiagram, exact: PersistenceDiagram) -> float:
    """Largest per-dimension log-bottleneck between tower and exact diagrams."""
    return max(
        diagram.bottleneck_log(
            PersistenceDiagram({p: tower_dgm.dim(p)}), PersistenceDiagram({p: exact.dim(p)})
        )
        for p in (0, 1)
    )


def check_tower(exact: PersistenceDiagram, tower_dgm: PersistenceDiagram, eps: float):
    """(ok, log-error / log(1+eps)); ok iff within log(1+eps) + 1e-9."""
    err = tower_log_error(tower_dgm, exact)
    return err <= math.log1p(eps) + TOL, err / math.log1p(eps)


def size_vs_cech(tower, n: int) -> float:
    """Largest approximation complex over the size of the Cech 2-skeleton."""
    cech_size = n + math.comb(n, 2) + math.comb(n, 3)
    return max(len(K.simplices) for K in tower.complexes) / cech_size


def check_completion(points: np.ndarray, eps: float, log_c: float, core) -> tuple[bool, float]:
    ok = log_c <= math.log1p(eps) + TOL
    ok = ok and coreset.is_radius_coreset(points, core.subset, eps)
    ok = ok and (core.undersized_input or core.size <= coreset.delta(eps))
    return ok, log_c / math.log1p(eps)


def _in_cell(p: np.ndarray, cell) -> bool:
    side = 2.0 ** cell.height
    return all(math.floor(x / side) == i for x, i in zip(p, cell.index))


def covered_by(cells, vertex_points) -> bool:
    return any(
        all(_in_cell(p, cell) for p, cell in zip(vertex_points, perm))
        for perm in itertools.permutations(cells)
    )


def check_wssd(points: np.ndarray, dec, eps: float, simplices) -> bool:
    """Height bound on Gamma_1, and each given simplex covered by a tuple.

    Coverage is point-in-cell matching: some assignment of the simplex's
    vertices to the tuple's cells puts every vertex inside its cell.
    Candidate tuples are those holding a cell that contains vertex 0.
    """
    d = points.shape[1]
    for t in dec.gamma(1):
        bound = eps * t.rad / math.sqrt(d) * (1.0 + TOL)
        if any(2.0 ** c.height > bound for c in t.cells):
            return False
    for k in {len(s) - 1 for s in simplices}:
        tuples = dec.gamma(k)
        by_cell: dict = {}
        for j, t in enumerate(tuples):
            for c in t.cells:
                by_cell.setdefault((c.height, c.index), []).append(j)
        heights = sorted({h for h, _ in by_cell})
        for s in (s for s in simplices if len(s) == k + 1):
            vp = points[list(s)]
            cands = set()
            for h in heights:
                side = 2.0 ** h
                key = (h, tuple(int(math.floor(x / side)) for x in vp[0]))
                cands.update(by_cell.get(key, ()))
            if not any(covered_by(tuples[j].cells, vp) for j in cands):
                return False
    return True


def sample_simplices(rng, n: int, count: int) -> list[tuple[int, ...]]:
    """`count` random pairs and `count` random triangles over n points."""
    out = []
    for k in (2, 3):
        for _ in range(count):
            out.append(tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False))))
    return out


def check_compare(d1, d2, planted_c: float, log_c: float, matched: bool) -> bool:
    """At most log of the planted factor, feasible there and not below."""
    if not matched or not log_c <= math.log(planted_c) + TOL:
        return False
    c = math.exp(log_c)
    if not diagram.is_c_approximation(d1, d2, c).matched:
        return False
    lower = c * (1.0 - 1e-6)
    return lower < 1.0 or not diagram.is_c_approximation(d1, d2, lower).matched


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Result:
    ok: bool
    approx_ratio: float | None = None
    size_ratio: float | None = None
    ref_s: float | None = None  # time of the exact reference route, if computed


@dataclass(frozen=True)
class Workload:
    """Sizes per slot; `make` draws (op arguments, facts only the check sees)."""

    name: str
    slots: tuple[dict, ...]
    make: Callable  # (rng, slot) -> (args, expect)
    op: Callable  # (**args) -> output
    check: Callable  # (rng, args, expect, output) -> Result

    def inputs(self, seed: int, index: int) -> tuple[dict, dict]:
        slot = self.slots[index % len(self.slots)]
        return self.make(np.random.default_rng([seed, index]), slot)

    def check_output(self, seed: int, index: int, args: dict, expect: dict, out) -> Result:
        return self.check(np.random.default_rng([seed, index, 1]), args, expect, out)


def _make_tower(rng, slot):
    n = slot["n"]
    pts = spaced_uniform(rng, n, 2) if slot["kind"] == "uniform" else two_clusters(rng, n)
    return {"points": pts, "eps": slot["eps"]}, {}


def _check_tower(rng, args, expect, out):
    cloud, tower, dgm = out
    t0 = time.perf_counter()
    exact = exact_cech_diagram(cloud.points)
    ref_s = time.perf_counter() - t0
    ok, ratio = check_tower(exact, dgm, args["eps"])
    return Result(ok, ratio, size_vs_cech(tower, cloud.n), ref_s)


def _make_wssd(rng, slot):
    return {"points": spaced_uniform(rng, slot["n"], slot["d"]), "eps": 0.5, "kmax": 2}, {}


def _check_wssd(rng, args, expect, out):
    cloud, dec, _ = out
    sample = sample_simplices(rng, cloud.n, 12)
    return Result(check_wssd(cloud.points, dec, args["eps"], sample))


def _make_completion(rng, slot):
    return {"points": spaced_uniform(rng, slot["n"], slot["d"]), "eps": slot["eps"]}, {}


def _check_completion(rng, args, expect, out):
    ok, ratio = check_completion(args["points"], args["eps"], *out)
    return Result(ok, ratio)


def _make_compare(rng, slot):
    c = float(rng.uniform(1.05, 1.5))
    a, b = planted_pair(rng, slot["points"], c)
    return {"json_a": a, "json_b": b}, {"planted_c": c}


def _check_compare(rng, args, expect, out):
    d1, d2, log_c, matched = out
    return Result(check_compare(d1, d2, expect["planted_c"], log_c, matched))


_EPS_CYCLE = (0.1, 0.25, 0.5, math.sqrt(2.0) - 1.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tower2d",
            tuple(
                {"n": n, "eps": e, "kind": k}
                for n, e, k in ((8, 0.5, "clusters"), (8, 0.25, "uniform"), (9, 0.5, "uniform"))
            ),
            _make_tower,
            op_tower,
            _check_tower,
        ),
        Workload(
            "wssd_scale",
            tuple({"n": n, "d": d} for n, d in ((24, 3), (32, 3), (48, 2))),
            _make_wssd,
            op_wssd,
            _check_wssd,
        ),
        Workload(
            "completion_hd",
            tuple(
                {"n": n, "d": d, "eps": _EPS_CYCLE[i % 4]}
                for i, (n, d) in enumerate(((8, 6), (9, 3), (9, 5), (10, 2), (10, 4)))
            ),
            _make_completion,
            op_completion,
            _check_completion,
        ),
        Workload(
            "compare",
            tuple({"points": m} for m in (40, 50, 60, 70, 80)),
            _make_compare,
            op_compare,
            _check_compare,
        ),
    )
}
