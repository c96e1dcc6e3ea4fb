"""Checks of the output checkers: each must pass a good output and reject
a planted bad one, so a silently broken checker cannot pass every op."""

from __future__ import annotations

import dataclasses

import numpy as np

import workloads as W
from cechkit import wssd


def _tower():
    args, _ = W._make_tower(np.random.default_rng(0), {"n": 8, "eps": 0.25, "kind": "uniform"})
    cloud, _, dgm = W.op_tower(**args)
    exact = W.exact_cech_diagram(cloud.points)
    # Doubling the latest-dying finite 0-class puts its death beyond every
    # exact death by more than 1+eps, and a zero-birth point cannot be
    # dropped, so no matching within log(1+eps) exists.
    pts0 = dgm.dim(0)
    worst = max((p for p in pts0 if p[1] != W.INF), key=lambda p: p[1])
    bad = W.PersistenceDiagram({0: list(pts0), 1: dgm.dim(1)})
    bad.points[0].remove(worst)
    bad.points[0].append((2.0 * worst[0], 2.0 * worst[1]))
    eps = args["eps"]
    return W.check_tower(exact, dgm, eps)[0], W.check_tower(exact, bad, eps)[0]


def _wssd():
    pts = W.spaced_uniform(np.random.default_rng(0), 12, 2)
    cloud, dec, _ = W.op_wssd(pts, 0.5, 2)
    simplex = (0, 1, 2)
    vp = cloud.points[list(simplex)]
    kept = [t for t in dec.gamma(2) if not W.covered_by(t.cells, vp)]
    bad = wssd.WSSD(dec.epsilon, [dec.gamma(1), kept])
    check = lambda d: W.check_wssd(cloud.points, d, dec.epsilon, [simplex])
    return check(dec), check(bad)


def _completion():
    args, _ = W.WORKLOADS["completion_hd"].inputs(0, 0)
    log_c, core = W.op_completion(**args)
    single = dataclasses.replace(core, subset=(0,))
    check = lambda c: W.check_completion(args["points"], args["eps"], log_c, c)[0]
    return check(core), check(single)


def _compare():
    args, expect = W.WORKLOADS["compare"].inputs(0, 0)
    d1, d2, log_c, matched = W.op_compare(**args)
    c = expect["planted_c"]
    return W.check_compare(d1, d2, c, log_c, matched), W.check_compare(
        d1, d2, c, 1.1 * log_c, matched
    )


_PLANTED = {
    "tower2d": ("tower diagram with one point scaled by 2", _tower),
    "wssd_scale": ("uncovered simplex", _wssd),
    "completion_hd": ("one-point radius coreset", _completion),
    "compare": ("matching result scaled up by 1.1", _compare),
}


def self_check(workload: str) -> tuple[bool, str]:
    """(ok, description): ok iff the good output passes and the bad one fails."""
    what, fn = _PLANTED[workload]
    good, bad = fn()
    ok = good and not bad
    return ok, f"{workload}: good output {'passes' if good else 'FAILS'}, {what} {'rejected' if not bad else 'NOT rejected'}"
