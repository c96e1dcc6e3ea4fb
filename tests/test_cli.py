"""Command-line interface: parsing, reports, exit codes, determinism."""

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cechkit import complexes, coreset, diagram, homology, wssd
from cechkit.cli import load_points, main
from cechkit.errors import ParseError

from conftest import TRIANGLE, filtration_max_dim, random_cloud

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(
        "# equilateral triangle\n-1 0\n1, 0\n0 1.7320508075688772\n"
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)


# ---------------------------------------------------------------------------
# point parsing

def test_load_points_formats(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1 0  # trailing comment\n\n# blank above\n2,1\n")
    pts = load_points(str(path))
    assert pts.shape == (3, 2)
    assert pts[1].tolist() == [1.0, 0.0]


def test_load_points_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_points(str(empty))
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\noops 1\n")
    with pytest.raises(ParseError):
        load_points(str(bad))
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("0 0\n1 2 3\n")
    with pytest.raises(ParseError):
        load_points(str(ragged))
    with pytest.raises(ParseError):
        load_points(str(tmp_path / "missing.txt"))


# ---------------------------------------------------------------------------
# subcommands

def test_cech_triangle(capsys, triangle_file):
    code, rep = run(capsys, ["cech", triangle_file, "--pmax", "1"])
    assert code == 0
    h1 = next(b["points"] for b in rep["diagram"] if b["p"] == 1)
    assert len(h1) == 1
    assert h1[0][0] == pytest.approx(1.0)
    assert h1[0][1] == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-9)


def test_rips_triangle(capsys, triangle_file):
    code, rep = run(capsys, ["rips", triangle_file, "--pmax", "1"])
    assert code == 0
    h1 = next((b["points"] for b in rep["diagram"] if b["p"] == 1), [])
    assert h1 == []  # edges and triangle enter together


def test_completion_close_to_cech(capsys, tmp_path, triangle_file):
    cech, comp = tmp_path / "cech.json", tmp_path / "completion.json"
    assert main(["cech", triangle_file, "--out", str(cech)]) == 0
    assert main(["completion", triangle_file, "--eps", "0.5", "--out", str(comp)]) == 0
    assert json.loads(comp.read_text())["delta"] == 2
    code, rep = run(capsys, ["compare", str(comp), str(cech)])
    assert code == 0
    assert rep["log_bottleneck"] <= math.log(1.5) + 1e-9


def test_wssd_report_and_tuples(capsys, triangle_file):
    code, rep = run(
        capsys, ["wssd", triangle_file, "--eps", "0.5", "--kmax", "2", "--dump-tuples"]
    )
    assert code == 0
    assert set(rep["sizes"]) == {"gamma_1", "gamma_2"}
    assert rep["sizes"]["gamma_1"] >= 1
    for t in rep["tuples"]:
        assert set(t) == {"k", "cells", "rad"}
        assert len(t["cells"]) == t["k"] + 1
        for height, index in t["cells"]:
            assert isinstance(height, int) and len(index) == 2
        assert t["rad"] > 0


def test_approx_triangle(capsys, triangle_file):
    code, rep = run(capsys, ["approx", triangle_file, "--eps", "0.5", "--pmax", "1"])
    assert code == 0
    assert rep["scales"] == sorted(rep["scales"])
    h0 = next(b["points"] for b in rep["diagram"] if b["p"] == 0)
    assert [pt for pt in h0 if pt[1] == "inf"] == [[0.0, "inf"]]


def test_approx_builds_no_wspd(capsys, monkeypatch, tmp_path):
    # The tower reads only the WSSD's eps and kmax, so approx reports the
    # same with a WSPD that cannot be built.
    path = tmp_path / "cloud.txt"
    np.savetxt(path, random_cloud(np.random.default_rng(49), 9, 2))
    argv = ["approx", str(path), "--eps", "0.5", "--pmax", "1"]
    code, want = run(capsys, argv)
    assert code == 0

    def no_wspd(*args, **kwargs):
        raise AssertionError("approx built a WSPD")

    monkeypatch.setattr(wssd, "build_wspd", no_wspd)
    assert run(capsys, argv) == (0, want)


@pytest.mark.parametrize("command", ["wssd", "validate"])
def test_wspd_grid_too_fine_exits_3_when_gamma_is_read(capsys, triangle_file, command):
    # build_wssd leaves the WSPD to the first read of Gamma; its error
    # still ends the command with exit 3, naming the WSPD's eps.
    assert main([command, triangle_file, "--eps", "1e-320"]) == 3
    err = capsys.readouterr().err
    assert "WSPD eps=5e-321 is too small" in err and "too fine" in err


def test_approx_lone_ell_flag_replaces_its_own_end(capsys, triangle_file):
    code, rep = run(capsys, ["approx", triangle_file])
    assert code == 0
    lo, hi = rep["ell_range"]
    code, rep = run(capsys, ["approx", triangle_file, "--ell-min", str(lo + 2)])
    assert code == 0
    assert rep["ell_range"] == [lo + 2, hi]
    assert len(rep["scales"]) == hi - lo - 1
    code, rep = run(capsys, ["approx", triangle_file, "--ell-max", str(hi - 1)])
    assert code == 0
    assert rep["ell_range"] == [lo, hi - 1]
    code, rep = run(capsys, ["approx", triangle_file, "--ell-min", "0", "--ell-max", "3"])
    assert code == 0
    assert rep["ell_range"] == [0, 3]


@pytest.mark.parametrize("command", ["cech", "rips", "completion", "wssd", "coreset", "validate"])
def test_ell_flags_only_on_approx(capsys, triangle_file, command):
    for flag in ("--ell-min", "--ell-max"):
        with pytest.raises(SystemExit) as exc:
            main([command, triangle_file, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("cech", "--eps"), ("cech", "--seed"),
        ("rips", "--eps"), ("rips", "--seed"),
        ("completion", "--kmax"), ("completion", "--seed"),
        ("wssd", "--pmax"), ("wssd", "--seed"),
        ("approx", "--seed"),
        ("coreset", "--kmax"), ("coreset", "--pmax"), ("coreset", "--seed"),
        ("validate", "--kmax"), ("validate", "--pmax"),
    ],
)
def test_command_rejects_flags_it_does_not_read(capsys, triangle_file, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, triangle_file, flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def completion_reference(pts, eps, pmax):
    """`completion` report built over the whole 2^n-simplex Cech filtration,
    each diagram from an uncut reduction restricted to dimensions <= pmax."""
    n = pts.shape[0]
    cech = complexes.cech_filtration(pts, n - 1)
    comp = complexes.completion(cech, coreset.delta(eps) - 1, n - 1)

    def diagram_to_pmax(filt):
        full = homology.persist_filtration(filt, filtration_max_dim(filt))
        return homology.PersistenceDiagram({p: full.dim(p) for p in full.dims() if p <= pmax})

    return {
        "command": "completion",
        "delta": coreset.delta(eps),
        "diagram": diagram_to_pmax(comp).to_json_obj(),
    }


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("pmax", [0, 1, 2])
def test_completion_matches_full_filtration_reference(capsys, tmp_path, eps, pmax):
    rng = np.random.default_rng([71, pmax, int(eps * 100)])
    n, d = 8 + 2 * pmax, 2 + pmax
    path = tmp_path / "pts.txt"
    np.savetxt(path, random_cloud(rng, n, d))
    code, rep = run(capsys, ["completion", str(path), "--eps", str(eps), "--pmax", str(pmax)])
    assert code == 0
    ref = completion_reference(load_points(str(path)), eps, pmax)
    assert rep == json.loads(json.dumps(ref))


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("pmax", [0, 1, 2])
def test_completion_solves_cech_only_up_to_its_order(capsys, tmp_path, monkeypatch, eps, pmax):
    # The (delta-1)-completion cut at pmax+1 reads Cech values up to
    # dimension min(delta-1, pmax+1) only, and the report holds no
    # distance to Cech (`cech` and `compare` give that).
    kmaxes, solved = [], []
    cech_filtration, cech_layer = complexes.cech_filtration, complexes._cech_layer

    def spy_cech(points, kmax):
        kmaxes.append(kmax)
        return cech_filtration(points, kmax)

    def spy_layer(pts, k, *args):
        solved.append(k + 1)
        return cech_layer(pts, k, *args)

    def no_bottleneck(*args):
        raise AssertionError("completion computed a bottleneck distance")

    monkeypatch.setattr(complexes, "cech_filtration", spy_cech)
    monkeypatch.setattr(complexes, "_cech_layer", spy_layer)
    monkeypatch.setattr(diagram, "bottleneck_log", no_bottleneck)
    path = tmp_path / "pts.txt"
    np.savetxt(path, random_cloud(np.random.default_rng(73), 8, 4))
    code, rep = run(capsys, ["completion", str(path), "--eps", str(eps), "--pmax", str(pmax)])
    assert code == 0
    assert set(rep) == {"command", "delta", "diagram"}
    top = min(coreset.delta(eps), pmax + 2)  # vertices of the largest solved simplex
    assert kmaxes == [top - 1]
    assert max(solved) == top


def test_completion_polynomial_in_n(capsys, tmp_path):
    # 2^30 subsets at the full dimension; the 2-skeleton has 4525 simplices.
    path = tmp_path / "pts.txt"
    np.savetxt(path, random_cloud(np.random.default_rng(72), 30, 10))
    start = time.perf_counter()
    code, rep = run(capsys, ["completion", str(path), "--pmax", "1"])
    assert code == 0
    assert time.perf_counter() - start < 20.0
    assert {b["p"] for b in rep["diagram"]} == {0, 1}


@pytest.mark.parametrize("command", ["cech", "rips", "completion", "coreset", "approx"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_coordinate_exits_3(capsys, tmp_path, command, bad):
    path = tmp_path / "pts.txt"
    path.write_text(f"0 0\n1 {bad}\n2 1\n")
    assert main([command, str(path)]) == 3
    assert "non-finite coordinate" in capsys.readouterr().err


def test_coreset_kinds(capsys, triangle_file):
    code, rep = run(capsys, ["coreset", triangle_file, "--eps", "0.2", "--kind", "meb"])
    assert code == 0
    assert rep["size"] == 3
    code, rep = run(
        capsys, ["coreset", triangle_file, "--eps", "0.45", "--kind", "radius"]
    )
    assert code == 0
    assert rep["size"] == 2
    assert rep["factor"] <= 1.45 + 1e-9


def test_validate(capsys, triangle_file):
    code, rep = run(capsys, ["validate", triangle_file, "--eps", "0.5"])
    assert code == 0
    assert rep["ok"]
    assert rep["checks"]["wssd_covering"]


def test_validate_one_point_skips_jung(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("0.5 0.5\n")
    code, rep = run(capsys, ["validate", str(path)])
    assert code == 0
    assert "jung" not in rep["checks"]
    assert rep["ok"]


@pytest.mark.parametrize(
    "command, eps",
    [
        ("completion", "1e-320"),  # delta(eps) overflows
        ("coreset", "1e-320"),
        ("wssd", "1e-320"),  # the WSPD's grid is finer than float cell indices
        ("validate", "1e-320"),
        ("approx", "1e-320"),
        ("approx", "1e-200"),  # 1 + eps/2 rounds to 1: no scale steps
    ],
)
def test_tiny_eps_exits_3_naming_eps(capsys, triangle_file, command, eps):
    assert main([command, triangle_file, "--eps", eps]) == 3
    assert "eps=" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["completion", "coreset"])
def test_nan_eps_exits_3(capsys, triangle_file, command):
    assert main([command, triangle_file, "--eps", "nan"]) == 3
    assert "eps" in capsys.readouterr().err


def test_radius_coreset_for_huge_eps_has_two_points(capsys, triangle_file):
    code, rep = run(capsys, ["coreset", triangle_file, "--eps", "1e5"])
    assert code == 0
    assert rep["size"] == 2
    assert coreset.is_radius_coreset(TRIANGLE, rep["subset"], 1e5)


def test_validate_32_points_is_fast(capsys, tmp_path):
    # The covering check enumerates each tuple's point choices; testing
    # every simplex against every tuple took minutes at this size.
    path = tmp_path / "pts.txt"
    pts = random_cloud(np.random.default_rng(7), 32, 2)
    path.write_text("\n".join(" ".join(map(repr, p)) for p in pts.tolist()) + "\n")
    t0 = time.perf_counter()
    code, rep = run(capsys, ["validate", str(path), "--eps", "0.5"])
    assert time.perf_counter() - t0 < 60.0
    assert code == 0
    assert rep["checks"] == {"wssd_covering": True, "height_bound": True}
    assert rep["ok"]


def test_wssd_in_r12_is_fast(capsys, tmp_path):
    # A grid query probed all 3^12 neighbour buckets of its anchor, though
    # twelve points fill few of them: about a minute on a 2-core host.
    path = tmp_path / "pts.txt"
    np.savetxt(path, np.random.default_rng(5).standard_normal((12, 12)))
    t0 = time.perf_counter()
    code, rep = run(capsys, ["wssd", str(path)])
    assert time.perf_counter() - t0 < 15.0
    assert code == 0
    assert rep["sizes"]["gamma_1"] >= 1


def test_compare(capsys, tmp_path, triangle_file):
    for name, scale in (("a.json", 1.0), ("b.json", 1.1)):
        obj = [{"p": 1, "points": [[1.0 * scale, 2.0 * scale]]}]
        (tmp_path / name).write_text(json.dumps(obj))
    code, rep = run(
        capsys, ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    )
    assert code == 0
    assert rep["log_bottleneck"] == pytest.approx(math.log(1.1), abs=1e-9)
    assert rep["matched_at_c"]


@pytest.mark.parametrize("factor", [1000.0, 0.001])
def test_compare_reads_reports_and_approx_reports_input_units(capsys, tmp_path, factor):
    # `approx` must report in the input's units, as `cech` does, for the
    # two reports to be compared at all.
    pts = factor * random_cloud(np.random.default_rng(3), 9, 2)
    path = tmp_path / "cloud.txt"
    path.write_text("".join(f"{float(x)!r} {float(y)!r}\n" for x, y in pts))
    eps = 0.5
    for command, extra in (("cech", []), ("approx", ["--eps", str(eps)])):
        out = tmp_path / f"{command}.json"
        assert main([command, str(path), "--pmax", "1", "--out", str(out), *extra]) == 0
    code, rep = run(
        capsys, ["compare", str(tmp_path / "approx.json"), str(tmp_path / "cech.json")]
    )
    assert code == 0
    assert rep["log_bottleneck"] <= math.log(1.0 + eps) + 1e-9


@pytest.mark.parametrize("flag, value", [("--ell-max", "5000"), ("--ell-min", "-5000")])
def test_approx_ell_outside_float_range_exits_3(capsys, triangle_file, flag, value):
    assert main(["approx", triangle_file, flag, value]) == 3
    assert f"l={value}" in capsys.readouterr().err


def test_approx_ell_max_at_float_limit(capsys, triangle_file):
    # theta_3180 ~ 1.49e308 is finite; theta_3181 overflows and so lies
    # above every scale.  Scales beyond the float range in input units
    # are written "inf", as in diagrams, so the report stays JSON.
    assert main(["approx", triangle_file, "--ell-max", "3180"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ell_range"][1] == 3180
    assert rep["scales"][-1] == "inf"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["cech"],
        ["rips"],
        ["completion"],
        ["wssd", "--dump-tuples"],
        ["approx", "--ell-max", "3180"],
        ["coreset", "--kind", "meb"],
        ["validate"],
        ["compare"],
    ],
    ids=lambda argv: argv[0],
)
def test_reports_are_strict_json(capsys, tmp_path, triangle_file, argv):
    # Every infinite value, here an approx scale past the float range and
    # compare's c for one essential H0 class against two, reads "inf".
    if argv[0] == "compare":
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        one.write_text(json.dumps([{"p": 0, "points": [[0.0, "inf"]]}]))
        two.write_text(json.dumps([{"p": 0, "points": [[0.0, "inf"], [0.0, "inf"]]}]))
        argv = argv + [str(one), str(two)]
    else:
        argv = argv[:1] + [triangle_file] + argv[1:]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    if argv[0] == "compare":
        assert rep["c"] == rep["log_bottleneck"] == "inf"
        assert not rep["matched_at_c"]


def assert_scaled_diagram(got, want, scale):
    """The diagram `got` is `want` with every coordinate times `scale`."""
    assert len(got) == len(want)
    for block, ref in zip(got, want):
        assert block["p"] == ref["p"] and len(block["points"]) == len(ref["points"])
        for (b, d), (rb, rd) in zip(block["points"], ref["points"]):
            assert b == pytest.approx(rb * scale, rel=1e-12, abs=0.0)
            assert d == rd == "inf" or d == pytest.approx(rd * scale, rel=1e-12, abs=0.0)


def write_scaled_triangle(tmp_path, name, scale, equilateral=False):
    """The right triangle with legs `scale`, or the equilateral one with
    side 2 `scale`, as a point file."""
    rows = TRIANGLE if equilateral else [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    path = tmp_path / name
    path.write_text("".join(f"{float(x) * scale!r} {float(y) * scale!r}\n" for x, y in rows))
    return str(path)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_triangle_far_from_unit_scale(capsys, tmp_path, scale):
    # Squared coordinates under- and overflow at these scales; the
    # diagrams must be the unit triangle's times the scale.
    unit = write_scaled_triangle(tmp_path, "unit.txt", 1.0)
    scaled = write_scaled_triangle(tmp_path, "scaled.txt", scale)
    for command in ("rips", "cech"):
        _, want = run(capsys, [command, unit])
        code, got = run(capsys, [command, scaled])
        assert code == 0
        assert_scaled_diagram(got["diagram"], want["diagram"], scale)
    for command in ("approx", "wssd", "validate"):
        code, rep = run(capsys, [command, scaled])
        assert code == 0
    assert rep["ok"]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_equilateral_triangle_far_from_unit_scale(capsys, tmp_path, scale):
    # Its circumball's Gram system of squared offsets under- and
    # overflowed: the H1 class was lost and the radius-coreset factor read
    # NaN or 0.  Diagrams must be the unit triangle's times the scale.
    unit = write_scaled_triangle(tmp_path, "unit.txt", 1.0, equilateral=True)
    scaled = write_scaled_triangle(tmp_path, "scaled.txt", scale, equilateral=True)
    for command in ("cech", "completion"):
        _, want = run(capsys, [command, unit])
        code, got = run(capsys, [command, scaled])
        assert code == 0
        assert_scaled_diagram(got["diagram"], want["diagram"], scale)
    _, want = run(capsys, ["coreset", unit])
    code, got = run(capsys, ["coreset", scaled])
    assert code == 0 and got["subset"] == want["subset"]
    assert got["factor"] == pytest.approx(want["factor"], rel=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize(
    "argv",
    [
        ["cech"],
        ["rips"],
        ["completion"],
        ["wssd", "--dump-tuples"],
        ["approx"],
        ["coreset"],
        ["coreset", "--kind", "meb"],
        ["validate"],
        ["compare"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_reports_on_far_scaled_triangles_are_strict_json(capsys, tmp_path, argv, scale):
    # The equilateral triangle x1e+-200: no report may hold a NaN, which
    # is not JSON (`coreset` printed "factor": NaN at 1e200).
    path = write_scaled_triangle(tmp_path, "triangle.txt", scale, equilateral=True)
    if argv[0] == "compare":
        report = tmp_path / "cech.json"
        assert main(["cech", path, "--out", str(report)]) == 0
        argv = argv + [str(report), str(report)]
    else:
        argv = argv[:1] + [path] + argv[1:]
    assert main(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_meb_coreset_of_huge_triangle_returns(capsys, tmp_path):
    # Squared distances overflowed at 1e200, every point read as
    # uncovered, and the subset loop appended point 0 forever.
    def timed_out(signum, frame):
        raise TimeoutError("coreset did not return within 60 s")

    path = tmp_path / "huge.txt"
    path.write_text("0.0 0.0\n1e200 0.0\n0.0 1e200\n")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        code, rep = run(capsys, ["coreset", str(path), "--kind", "meb"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert rep["subset"] == [0, 1, 2]
    assert rep["factor"] == pytest.approx(1.0)


@pytest.fixture
def right_triangle_file(tmp_path):
    path = tmp_path / "right.txt"
    path.write_text("0 0\n1 0\n0 1\n")
    return str(path)


@pytest.mark.parametrize(
    "flags, count",
    [
        (["--eps", "1e-6"], 693156),
        (["--ell-min", "-1000000", "--ell-max", "1000000"], 2000001),
    ],
)
def test_approx_above_the_scale_limit_exits_3(capsys, right_triangle_file, flags, count):
    # Every scale and its grid parameters were listed before the first
    # complex was built: eps = 1e-6 took about 35 s on a right triangle.
    def timed_out(signum, frame):
        raise TimeoutError("approx did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        code = main(["approx", right_triangle_file, *flags])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    err = capsys.readouterr().err
    assert "eps=" in err and f"{count} scales" in err


def test_approx_below_the_scale_limit_runs(capsys, right_triangle_file):
    code, rep = run(capsys, ["approx", right_triangle_file, "--eps", "1e-4"])
    assert code == 0
    lo, hi = rep["ell_range"]
    assert len(rep["scales"]) == hi - lo + 1


def test_approx_far_negative_ell_min_names_the_exponent(capsys, triangle_file):
    # theta_-3300 is a positive subnormal, but its grid is too fine.
    assert main(["approx", triangle_file, "--ell-min", "-3300"]) == 3
    assert "l=-3300" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes

def test_exit_2_on_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nope\n")
    assert main(["cech", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_3_on_infeasible(capsys, triangle_file):
    assert main(["wssd", triangle_file, "--kmax", "3"]) == 3
    assert "error" in capsys.readouterr().err


def test_approx_kmax_above_dimension_exits_3(capsys, triangle_file):
    # The same check as `wssd`: no silent clamp to d.
    assert main(["approx", triangle_file, "--pmax", "2"]) == 3
    assert "d=2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cech", "rips", "completion"])
def test_negative_pmax_exits_3(capsys, triangle_file, command):
    assert main([command, triangle_file, "--pmax", "-1"]) == 3
    assert "pmax" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cech", "rips", "completion", "approx"])
@pytest.mark.parametrize("limit, code", [(6, 3), (7, 0)])
def test_filtration_entry_limit(capsys, monkeypatch, triangle_file, command, limit, code):
    # The triangle's 2-skeleton has 7 entries, and so has the coned
    # filtration of its approx tower at pmax 1.
    monkeypatch.setattr(homology, "MAX_ENTRIES", limit)
    assert main([command, triangle_file, "--pmax", "1"]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert "7 filtration entries" in err and "limit of 6" in err


@pytest.mark.parametrize("command", ["cech", "completion"])
def test_filtration_above_the_entry_limit_exits_before_building(tmp_path, command):
    # 80 points at pmax 2 make 1666980 entries, above the limit: the command
    # must refuse them before building any, so it exits well inside this cap.
    path = tmp_path / "g80.txt"
    np.savetxt(path, np.random.default_rng(3).standard_normal((80, 100)))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "cechkit.cli", command, str(path), "--pmax", "2"],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "1666980 filtration entries" in proc.stderr
    assert f"limit of {homology.MAX_ENTRIES}" in proc.stderr


def test_cech_past_the_old_entry_limit_gives_the_spanning_tree(capsys, tmp_path):
    # 100 planar points at pmax 1 make 166750 entries, above the 100,000 the
    # bitset engine took.  An edge enters Cech at half its length, so the H0
    # deaths are half the minimum spanning tree's edge lengths (Prim's).
    pts = np.random.default_rng(69).random((100, 2))
    path = tmp_path / "u100.txt"
    np.savetxt(path, pts)
    code, rep = run(capsys, ["cech", str(path), "--pmax", "1"])
    assert code == 0
    h0 = next(b["points"] for b in rep["diagram"] if b["p"] == 0)
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    reach, tree, left = dist[0].copy(), [], set(range(1, len(pts)))
    while left:
        v = min(left, key=reach.__getitem__)
        tree.append(reach[v])
        left.remove(v)
        reach = np.minimum(reach, dist[v])
    assert [d for b, d in h0 if d == "inf"] == ["inf"]
    assert all(b == 0.0 for b, _ in h0)
    deaths = sorted(d for _, d in h0 if d != "inf")
    assert deaths == pytest.approx(sorted(x / 2 for x in tree), rel=1e-12)


@pytest.mark.parametrize(
    "name, text",
    [
        ("missing.json", None),
        ("text.json", "not json\n"),
        ("coord.json", '[{"p": 0, "points": [["x", 1]]}]'),
        ("report.json", '{"command": "cech", "n": 3}'),
        ("nan.json", '[{"p": 1, "points": [[NaN, 2.0]]}]'),
        ("nan_string.json", '[{"p": 1, "points": [[1.0, "nan"]]}]'),
        ("inf_birth.json", '[{"p": 1, "points": [["inf", "inf"]]}]'),
        ("inverted.json", '[{"p": 1, "points": [[2.0, 1.0]]}]'),
        ("neg_inf_death.json", '[{"p": 1, "points": [[1.0, "-Infinity"]]}]'),
        ("negative_birth.json", '[{"p": 0, "points": [[-1.0, 2.0]]}]'),
        ("negative_p.json", '[{"p": -1, "points": [[1.0, 2.0]]}]'),
        ("fractional_p.json", '[{"p": 1.5, "points": [[1.0, 2.0]]}]'),
    ],
)
def test_compare_unreadable_diagram_exits_2(capsys, tmp_path, name, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps([{"p": 0, "points": [[0.0, "inf"]]}]))
    bad = tmp_path / name
    if text is not None:
        bad.write_text(text)
    for argv in (["compare", str(bad), str(good)], ["compare", str(good), str(bad)]):
        assert main(argv) == 2
        assert name in capsys.readouterr().err


def test_approx_line_with_pmax_0(capsys, tmp_path):
    # kmax = pmax+1 = 1 = d; the default pmax 1 would need kmax 2 > d.
    path = tmp_path / "line.txt"
    path.write_text("0\n1\n3\n7\n")
    code, rep = run(capsys, ["approx", str(path), "--pmax", "0"])
    assert code == 0
    assert [b["p"] for b in rep["diagram"]] == [0]


def test_out_file_and_determinism(tmp_path, triangle_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["wssd", triangle_file, "--dump-tuples", "--out", str(a)]) == 0
    assert main(["wssd", triangle_file, "--dump-tuples", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
