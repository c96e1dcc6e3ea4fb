"""In-memory span tracer that wraps cechkit's public functions from outside.

`Tracer.install` replaces every binding of each target function in every
loaded cechkit module, including names other modules imported (`meb` as
bound in `wssd`, `approx` and `complexes`), and the target methods on
their classes.  `uninstall` restores the originals.  No library file
changes, and an untraced run never installs anything.

A span is (id, layer, op, parent id, start, end), stored as a tuple so
the garbage collector soon stops scanning it.  A layer's self time is
its span's duration minus its child spans' durations; calls nest on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from cechkit import approx, complexes, coreset, diagram, geometry, homology, quadtree, wspd, wssd


def _count_wspd(args, kwargs, result):
    return {"wspd.pairs": len(result.pairs)}


def _count_wssd(args, kwargs, result):
    gammas = [len(g) for g in result.gammas]
    out = {"wssd.gamma1": gammas[0], "wssd.gamma2": gammas[1] if len(gammas) > 1 else 0}
    out["wssd.gamma2_per_n"] = out["wssd.gamma2"] / args[0].cloud.n
    return out


def _count_build_a(args, kwargs, result):
    # Computed from sizes: build_A scans every tuple of the WSSD once.
    return {
        "approx.tuples_scanned": sum(len(g) for g in args[1].gammas),
        "approx.simplices": len(result.complex.simplices),
    }


def _count_cech(args, kwargs, result):
    return {"complexes.cech_entries": len(result.entries)}


def _count_completion(args, kwargs, result):
    return {"complexes.completion_entries": len(result.entries)}


def _count_persist(args, kwargs, result):
    return {"homology.columns": len(args[0].entries)}


def _count_bottleneck(args, kwargs, result):
    return {"diagram.points": sum(len(d.dim(p)) for d in args[:2] for p in d.dims())}


def _count_coreset(args, kwargs, result):
    return {"coreset.size": result.size}


# Every name a counter above can record; a layer that does not run on a
# workload reports 0 for its counters.
COUNTER_NAMES = (
    "wspd.pairs",
    "wssd.gamma1",
    "wssd.gamma2",
    "wssd.gamma2_per_n",
    "approx.tuples_scanned",
    "complexes.cech_entries",
    "complexes.completion_entries",
    "homology.columns",
    "diagram.points",
    "coreset.size",
)


# (layer name, owner, attribute, counter) for every wrapped call.
TARGETS = (
    ("geometry.meb", geometry, "meb", None),
    ("geometry.meb_of_cells", geometry, "meb_of_cells", None),
    ("quadtree.normalize", quadtree, "normalize", None),
    ("quadtree.build", quadtree, "build", None),
    ("quadtree.ball_query", quadtree.Quadtree, "nonempty_cells_intersecting", None),
    ("wspd.build", wspd, "build_wspd", _count_wspd),
    ("wssd.build", wssd, "build_wssd", _count_wssd),
    ("approx.tower_scale_range", approx, "tower_scale_range", None),
    ("approx.build_tower", approx, "build_tower", None),
    ("approx.build_A", approx, "build_A", _count_build_a),
    ("complexes.cech_filtration", complexes, "cech_filtration", _count_cech),
    ("complexes.completion", complexes, "completion", _count_completion),
    ("homology.tower_diagram", homology, "tower_diagram", None),
    ("homology.persist_filtration", homology, "persist_filtration", _count_persist),
    ("diagram.bottleneck_log", diagram, "bottleneck_log", _count_bottleneck),
    ("diagram.is_c_approximation", diagram, "is_c_approximation", None),
    ("coreset.radius_coreset", coreset, "radius_coreset_greedy", _count_coreset),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # closed spans, in closing order
        self.counts: dict = defaultdict(lambda: defaultdict(list))  # op -> name -> values
        self._stack: list[tuple] = []  # open spans: (id, layer, parent, start)
        self._next_id = 0
        self._op = None
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cechkit"]
        for layer, owner, attr, counter in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _rebind(self, owner, key, original, wrapped) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapped)

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    self.counts[self._op][name].append(value)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next_id, layer, parent, time.perf_counter()))
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        sid, layer, parent, start = self._stack.pop()
        self.spans.append((sid, layer, self._op, parent, start, end))

    def begin_op(self, op: int) -> None:
        self._op = op
        self._open("op")

    def end_op(self) -> None:
        self._close()
        self._op = None

    # -- results --------------------------------------------------------------

    def per_op(self) -> dict:
        """op -> layer -> [calls, self seconds]."""
        child = [0.0] * self._next_id
        for sid, layer, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for sid, layer, op, parent, start, end in self.spans:
            acc = out[op][layer]
            acc[0] += 1
            acc[1] += end - start - child[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "layer", "op", "parent", "start", "end"], "spans": self.spans}, fh
            )
