"""Command-line interface: parsing, reports, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from cechkit.cli import load_points, main
from cechkit.errors import ParseError

from conftest import TRIANGLE


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
    code, rep = run(capsys, ["cech", triangle_file, "--kmax", "2", "--pmax", "1"])
    assert code == 0
    h1 = next(b["points"] for b in rep["diagram"] if b["p"] == 1)
    assert len(h1) == 1
    assert h1[0][0] == pytest.approx(1.0)
    assert h1[0][1] == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-9)


def test_rips_triangle(capsys, triangle_file):
    code, rep = run(capsys, ["rips", triangle_file, "--kmax", "2", "--pmax", "1"])
    assert code == 0
    h1 = next((b["points"] for b in rep["diagram"] if b["p"] == 1), [])
    assert h1 == []  # edges and triangle enter together


def test_completion_close_to_cech(capsys, triangle_file):
    code, rep = run(capsys, ["completion", triangle_file, "--eps", "0.5"])
    assert code == 0
    assert rep["delta"] == 2
    assert rep["log_bottleneck_vs_cech"] <= math.log(1.5) + 1e-9


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


def test_out_file_and_determinism(tmp_path, triangle_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["wssd", triangle_file, "--dump-tuples", "--out", str(a)]) == 0
    assert main(["wssd", triangle_file, "--dump-tuples", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
