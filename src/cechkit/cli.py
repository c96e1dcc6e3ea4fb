"""Batch command-line front-end.

Input point files: one point per line, whitespace- or comma-separated
reals, `#` comments; the dimension is inferred from the first data
line.  All reports are JSON; exit codes: 0 ok, 2 parse failure, 3
infeasible configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from . import approx, complexes, coreset, diagram, homology, quadtree, wssd
from .errors import CechkitError, InvalidInput, ParseError


def load_points(path: str) -> np.ndarray:
    rows = []
    d = None
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split()
                try:
                    row = [float(t) for t in parts]
                except ValueError:
                    raise ParseError(f"{path}:{ln}: cannot parse point") from None
                if d is None:
                    d = len(row)
                elif len(row) != d:
                    raise ParseError(f"{path}:{ln}: expected {d} coordinates")
                rows.append(row)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no points (line 1)")
    return np.asarray(rows, dtype=float)


def load_diagram(path: str) -> homology.PersistenceDiagram:
    """A bare diagram list, or the `diagram` field of a command's report."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj["diagram"]
        return homology.PersistenceDiagram.from_json_obj(obj)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"{path}: cannot read a diagram: {exc}") from None


def _strict(obj):
    """The report with every infinite float written "inf", as diagrams do."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict(v) for v in obj]
    return "inf" if obj == math.inf else obj


def _write_report(obj, out_path):
    text = json.dumps(_strict(obj), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_entries(n: int, pmax: int):
    """Reject a filtration of every simplex up to dimension pmax+1 on n
    points above `homology.MAX_ENTRIES`, before any is built."""
    entries = sum(math.comb(n, k + 1) for k in range(min(pmax + 1, n - 1) + 1))
    if entries > homology.MAX_ENTRIES:
        raise InvalidInput(
            f"{n} points at pmax={pmax} make {entries} filtration entries, "
            f"above the limit of {homology.MAX_ENTRIES}"
        )


def cmd_filtration(args) -> dict:
    """`cech` and `rips`: the diagram of the named filtration."""
    pts = load_points(args.input)
    _check_entries(pts.shape[0], args.pmax)
    build = {"cech": complexes.cech_filtration, "rips": complexes.rips_filtration}
    filt = build[args.command](pts, args.pmax + 1)
    dgm = homology.persist_filtration(filt, args.pmax)
    return {"command": args.command, "n": int(pts.shape[0]), "diagram": dgm.to_json_obj()}


def cmd_completion(args) -> dict:
    """Cech's (delta-1)-completion, from Cech up to dimension min(delta-1, pmax+1) only:
    Rips at half the edge lengths at delta = 2 (eps >= sqrt(2)-1), Cech at delta-1 >= pmax+1."""
    pts = load_points(args.input)
    _check_entries(pts.shape[0], args.pmax)
    dlt, top = coreset.delta(args.eps), args.pmax + 1
    i = min(dlt - 1, top)
    comp = complexes.completion(complexes.cech_filtration(pts, i), i, top)
    dgm = homology.persist_filtration(comp, args.pmax)
    return {"command": "completion", "delta": dlt, "diagram": dgm.to_json_obj()}


def cmd_wssd(args) -> dict:
    pts = load_points(args.input)
    cloud = quadtree.normalize(pts)
    qt = quadtree.build(cloud)
    decomposition = wssd.build_wssd(qt, args.eps, args.kmax)
    stats = {
        f"gamma_{k}": len(decomposition.gamma(k)) for k in range(1, args.kmax + 1)
    }
    report = {
        "command": "wssd",
        "n": int(pts.shape[0]),
        "eps": args.eps,
        "sizes": stats,
    }
    if args.dump_tuples:
        report["tuples"] = [
            {
                "k": t.k,
                "cells": [[c.height, list(c.index)] for c in t.cells],
                "rad": t.rad,
            }
            for t in decomposition.all_tuples()
        ]
    return report


def cmd_approx(args) -> dict:
    pts = load_points(args.input)
    cloud = quadtree.normalize(pts)
    qt = quadtree.build(cloud)
    if not 0 <= args.pmax < qt.d:
        raise InvalidInput(f"approx needs 0 <= pmax < d={qt.d}, got pmax={args.pmax}")
    decomposition = wssd.build_wssd(qt, args.eps / 12.0, args.pmax + 1)
    lo, hi = approx.tower_scale_range(qt, args.eps)
    rng = (
        lo if args.ell_min is None else args.ell_min,
        hi if args.ell_max is None else args.ell_max,
    )
    tower = approx.build_tower(qt, decomposition, args.eps, rng)
    dgm = homology.tower_diagram(tower, args.pmax)
    # The tower lives in the normalized cloud; report in input units.
    unit = cloud.to_original_length
    dgm = homology.PersistenceDiagram(
        {p: [(unit(b), unit(d)) for b, d in pts] for p, pts in dgm.points.items()}
    )
    return {
        "command": "approx",
        "eps": args.eps,
        "ell_range": list(rng),
        "scales": [unit(approx.theta_value(args.eps, ell)) for ell in range(rng[0], rng[1] + 1)],
        "diagram": dgm.to_json_obj(),
    }


def cmd_compare(args) -> dict:
    d1, d2 = load_diagram(args.dgm_a), load_diagram(args.dgm_b)
    log_c = diagram.bottleneck_log(d1, d2)
    c = math.exp(log_c)
    report = diagram.is_c_approximation(d1, d2, c if c != math.inf else 1.0)
    return {
        "command": "compare",
        "log_bottleneck": log_c,
        "c": c,
        "matched_at_c": bool(report.matched) if c != math.inf else False,
    }


def cmd_coreset(args) -> dict:
    pts = load_points(args.input)
    if args.kind == "radius":
        res = coreset.radius_coreset_greedy(pts, args.eps)
    else:
        res = coreset.meb_coreset(pts, args.eps)
    return {
        "command": "coreset",
        "kind": res.kind,
        "subset": list(res.subset),
        "size": res.size,
        "factor": res.achieved_factor,
    }


def cmd_validate(args) -> dict:
    """Run the lemma suite on one input cloud and report pass/fail flags."""
    pts = load_points(args.input)
    rng = random.Random(args.seed)
    out: dict = {"command": "validate", "checks": {}}

    cloud = quadtree.normalize(pts)
    qt = quadtree.build(cloud)
    kmax = min(qt.d, 2)
    decomposition = wssd.build_wssd(qt, args.eps, kmax)

    out["checks"]["wssd_covering"] = wssd.is_covering(qt, decomposition)
    out["checks"]["height_bound"] = wssd.heights_bounded(decomposition, qt.d)

    if pts.shape[0] <= 12:
        report = complexes.check_completion_sandwich(
            pts, args.eps, [rng.uniform(0.1, 2.0) for _ in range(5)]
        )
        out["checks"]["completion_sandwich"] = report.ok
    if 2 <= pts.shape[0] <= 16:
        out["checks"]["jung"] = coreset.jung_check(pts).ok
    out["ok"] = all(out["checks"].values())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cechkit")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--eps": dict(type=float, default=0.5),
        "--kmax": dict(type=int, default=2),
        "--pmax": dict(type=int, default=1),
        "--seed": dict(type=int, default=0),
        "--dump-tuples": dict(action="store_true"),
        "--kind": dict(choices=["radius", "meb"], default="radius"),
        "--ell-min": dict(type=int, default=None),
        "--ell-max": dict(type=int, default=None),
    }
    for name, fn, names in [
        ("cech", cmd_filtration, ["--pmax"]),
        ("rips", cmd_filtration, ["--pmax"]),
        ("completion", cmd_completion, ["--eps", "--pmax"]),
        ("wssd", cmd_wssd, ["--eps", "--kmax", "--dump-tuples"]),
        ("approx", cmd_approx, ["--eps", "--pmax", "--ell-min", "--ell-max"]),
        ("coreset", cmd_coreset, ["--eps", "--kind"]),
        ("validate", cmd_validate, ["--eps", "--seed"]),
    ]:
        p = sub.add_parser(name)
        p.add_argument("input")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("compare")
    p.add_argument("dgm_a")
    p.add_argument("dgm_b")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("cech", "rips", "completion") and args.pmax < 0:
            raise InvalidInput(f"pmax must be >= 0, got pmax={args.pmax}")
        report = args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CechkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_report(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
