"""The benchmark's ops, output checks and tracer still fit the library.

bench/workloads.py and bench/tracing.py are loaded read-only and run
here, so a renamed or removed library name they use fails tier-1 rather
than a benchmark run.
"""

import sys

import pytest

from cechkit import coreset, diagram, homology

from conftest import bench_module, ref_cech, ref_completion


@pytest.mark.parametrize("name", ["tower2d", "wssd_scale", "completion_hd", "compare"])
def test_one_cycle_passes_output_checks(name):
    W = bench_module("workloads")
    wl = W.WORKLOADS[name]
    for index in range(len(wl.slots)):
        args, expect = wl.inputs(0, index)
        out = wl.op(**args)
        assert wl.check_output(0, index, args, expect, out).ok, (name, index)


@pytest.mark.parametrize("name", ["tower2d", "wssd_scale", "completion_hd", "compare"])
def test_self_check_passes_good_output_and_rejects_planted_bad(monkeypatch, name):
    # selfcheck imports bench/workloads.py as `workloads`, the name it has
    # when bench/ is the script directory.
    monkeypatch.setitem(sys.modules, "workloads", bench_module("workloads"))
    ok, what = bench_module("selfcheck").self_check(name)
    assert ok, what


def test_tracer_installs_on_every_target_and_uninstalls():
    W = bench_module("workloads")
    T = bench_module("tracing")
    original = homology.tower_diagram
    tracer = T.Tracer()
    tracer.install()  # getattr on every traced name: raises if one is gone
    try:
        assert homology.tower_diagram is not original
        args, _ = W.WORKLOADS["tower2d"].inputs(0, 0)
        tracer.begin_op(0)
        W.op_tower(**args)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert homology.tower_diagram is original
    layers = tracer.per_op()[0]
    for layer in ("approx.build_tower", "homology.tower_diagram", "homology.persist_filtration"):
        assert layers[layer][0] >= 1, layer


def test_traced_tower_ops_solve_few_cell_unions():
    # Cell tuples are settled by their radius brackets; a union is solved
    # only when a scale falls inside its bracket.  Count the meb_of_cells
    # spans under build_tower (the WSSD's own solves are not under it).
    W = bench_module("workloads")
    T = bench_module("tracing")
    wl = W.WORKLOADS["tower2d"]
    tracer = T.Tracer()
    tracer.install()
    try:
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(0, index)
            tracer.begin_op(index)
            W.op_tower(**args)
            tracer.end_op()
    finally:
        tracer.uninstall()
    layer_of, parent_of = {}, {}
    for sid, layer, op, parent, start, end in tracer.spans:
        layer_of[sid], parent_of[sid] = layer, parent
    solves = dict.fromkeys(range(len(wl.slots)), 0)
    for sid, layer, op, parent, start, end in tracer.spans:
        if layer != "geometry.meb_of_cells":
            continue
        while parent >= 0 and layer_of[parent] != "approx.build_tower":
            parent = parent_of[parent]
        solves[op] += parent >= 0
    assert max(solves.values()) <= 10, solves


def test_traced_tower_op_has_one_build_A_span_per_complex():
    # The per-layer view charges each height's enumeration and entry
    # scales to its approx.build_A span: one span per tower complex, whose
    # simplex counts add up to the tower's.
    W = bench_module("workloads")
    T = bench_module("tracing")
    tracer = T.Tracer()
    tracer.install()
    try:
        args, _ = W.WORKLOADS["tower2d"].inputs(0, 0)
        tracer.begin_op(0)
        tower = W.op_tower(**args)[1]
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert len(tower.complexes) > 1
    assert tracer.per_op()[0]["approx.build_A"][0] == len(tower.complexes)
    counts = tracer.counts[0]["approx.simplices"]
    assert sum(counts) == sum(len(K.entries) for K in tower.complexes)


@pytest.mark.parametrize("seed", range(4))
def test_completion_op_matches_the_per_simplex_routes(seed):
    # The op's distance from the completion to Cech is the one the scalar
    # per-simplex Cech and completion routes give, and its coreset is the
    # greedy one.
    W = bench_module("workloads")
    wl = W.WORKLOADS["completion_hd"]
    for index in range(len(wl.slots)):
        args, _ = wl.inputs(seed, index)
        points, eps = args["points"], args["eps"]
        n = points.shape[0]
        log_c, core = wl.op(**args)
        cech = ref_cech(points, n - 1)
        comp = ref_completion(cech, coreset.delta(eps) - 1, n - 1)
        want = diagram.bottleneck_log(
            homology.persist_filtration(comp, 2), homology.persist_filtration(cech, 2)
        )
        assert log_c == pytest.approx(want, rel=0.0, abs=1e-9), (seed, index)
        assert core.subset == coreset.radius_coreset_greedy(points, eps).subset


def test_traced_completion_op_has_one_span_per_builder_call():
    # The layer kernels run inside cech_filtration and completion: one
    # span each per call, counting every simplex of the n-1 skeleton.
    W = bench_module("workloads")
    T = bench_module("tracing")
    wl = W.WORKLOADS["completion_hd"]
    tracer = T.Tracer()
    tracer.install()
    try:
        for index in range(len(wl.slots)):
            args, _ = wl.inputs(0, index)
            tracer.begin_op(index)
            wl.op(**args)
            tracer.end_op()
    finally:
        tracer.uninstall()
    for index in range(len(wl.slots)):
        n = wl.inputs(0, index)[0]["points"].shape[0]
        layers, counts = tracer.per_op()[index], tracer.counts[index]
        assert layers["complexes.cech_filtration"][0] == 1
        assert layers["complexes.completion"][0] == 1
        assert counts["complexes.cech_entries"] == [2**n - 1]
        assert counts["complexes.completion_entries"] == [2**n - 1]
