import importlib.util
import itertools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cechkit.quadtree import Cell, cell_index_of

# Hypothesis caches the literals it finds in local source files under its
# storage directory, even with database=None; keep that cache out of the
# working tree, in a directory removed when the test run exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Equilateral triangle with circumradius sqrt(4/3); used all over the suite.
TRIANGLE = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, np.sqrt(3.0)]])


@pytest.fixture
def triangle():
    return TRIANGLE.copy()


def random_cloud(rng, n, d, box=1.0):
    """Uniform points in a box, resampled until pairwise distinct."""
    while True:
        pts = rng.uniform(0.0, box, size=(n, d))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        if n < 2 or dist[np.triu_indices(n, 1)].min() > 1e-6:
            return pts


def is_face_monotone(filt):
    """Every facet of every entry is present and enters no later than it,
    up to 1e-12 (the check `persist_filtration` makes)."""
    values = filt.value_of()
    for s, v in filt.entries:
        if len(s) == 1:
            continue
        for face in itertools.combinations(s, len(s) - 1):
            if face not in values or values[face] > v + 1e-12:
                return False
    return True


def filtration_max_dim(filt):
    """Largest simplex dimension of a filtration; -1 when it is empty."""
    return max((len(s) - 1 for s, _ in filt.entries), default=-1)


def cell_lo(cell):
    """Lower corner of a quadtree cell."""
    return tuple(i * cell.side for i in cell.index)


def contains_point(cell, x):
    """Is x in the cell's half-open box?"""
    return cell_index_of(x, cell.height) == cell.index


def cells_at(qt, h):
    """The nonempty height-h cells of a quadtree, sorted by index."""
    return [Cell(h, idx) for idx in sorted(qt.level(h))]


def bench_module(name):
    """bench/<name>.py, loaded by path under the name bench_<name>, so the
    tests can run the benchmark's own ops and checks without putting
    bench/ on sys.path."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]
