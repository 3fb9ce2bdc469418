"""Command line round trips: every subcommand, formats and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdspline import FLOAT, MDSpace, build_matrix_rki
from mdspline.cli import main
from mdspline.presets import PRESETS, preset_space


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def space_file(tmp_path, doc, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_preset(capsys):
    rc, out, _ = run(capsys, "validate", "--preset", "cox")
    assert rc == 0
    assert "K=43" in out and "K0=43" in out and "sections=1" in out


def test_validate_json_report(capsys):
    rc, out, _ = run(capsys, "validate", "--preset", "test1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dimension"] == 9
    assert doc["c0_dimension"] == 15
    assert doc["sections"] == 3
    assert len(doc["extended_partition_left"]) == 9


def test_validate_space_file(capsys, tmp_path):
    path = space_file(tmp_path, {"interval": [0.0, 2.0], "breakpoints": [1.0],
                                 "degrees": [2, 1], "continuities": [1]})
    rc, out, _ = run(capsys, "validate", "--space", path)
    assert rc == 0 and "K=3" in out


def test_exit_codes(capsys, tmp_path):
    rc, _, err = run(capsys, "validate", "--space", "/no/such/file.json")
    assert rc == 1 and "error" in err
    bad = space_file(tmp_path, {"interval": [0, 1], "breakpoints": [],
                                "degrees": [2], "continuities": [0]})
    rc, _, err = run(capsys, "validate", "--space", bad)
    assert rc == 1
    rc, _, err = run(capsys, "validate")
    assert rc == 1
    # every route builds a degree-0 space; abscissae need degree 1, and their
    # refusal is a runtime error, not a usage error
    deg0 = space_file(tmp_path, {"interval": [0, 2], "breakpoints": [1.0],
                                 "degrees": [0, 1], "continuities": [0]})
    for method in ("rki", "rde", "mixed", "derivative"):
        rc, _, err = run(capsys, "matrix", "--space", deg0, "--method", method)
        assert rc == 0 and err == "", method
    rc, out, err = run(capsys, "eval", "--space", deg0, "--greville")
    assert rc == 2 and out == "" and err.startswith("runtime error:")


@pytest.mark.parametrize("argv", [
    ["eval", "--preset", "cox", "--grid", "abc"],
    ["eval", "--preset", "cox", "--method", "newton"],
    [],
])
def test_a_usage_error_exits_1(capsys, argv):
    # argparse's own code 2 would read as "construction not applicable"
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == "" and "usage:" in err


def test_help_exits_0(capsys):
    rc, out, _ = run(capsys, "eval", "--help")
    assert rc == 0 and "--grid" in out


def test_the_module_process_exits_1_on_a_usage_error():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "mdspline.cli", "eval", "--preset", "cox",
                           "--grid", "abc"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1 and "invalid int value" in done.stderr


@pytest.mark.parametrize("doc", [
    {"interval": [0.0, float("inf")], "breakpoints": [1.0], "degrees": [2, 2],
     "continuities": [1]},
    {"interval": [0.0, 2.0], "breakpoints": [float("nan")], "degrees": [2, 2],
     "continuities": [1]},
    {"interval": [0.0, 2.0], "breakpoints": [1.0], "degrees": [3.7, 3],
     "continuities": [2]},
    {"interval": "01", "breakpoints": [], "degrees": [2], "continuities": []},
    {"interval": [0, 1, 7], "breakpoints": [], "degrees": [2], "continuities": []},
    {"interval": [0, 3], "breakpoints": [1, 2], "degrees": [True, 2, 3],
     "continuities": [1, 2]},
])
@pytest.mark.parametrize("command", [["validate"], ["matrix"], ["eval", "--grid", "3"]])
def test_bad_space_file_is_an_input_error(capsys, tmp_path, doc, command):
    path = space_file(tmp_path, doc)
    rc, out, err = run(capsys, *command, "--space", path)
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [["validate"], ["matrix"], ["eval", "--grid", "3"]])
def test_unknown_key_in_a_space_file_is_an_input_error(capsys, tmp_path, command):
    path = space_file(tmp_path, {"interval": [0.0, 3.0], "degrees": [3], "continuity": [2]})
    rc, out, err = run(capsys, *command, "--space", path)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "continuity" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, what", [
    ({"interval": [0, 10 ** 400], "degrees": [3]}, "double"),
    ({"interval": [0, 1e-320], "degrees": [3]}, "reciprocal"),
    ({"interval": [-1e308, 1e308], "degrees": [3]}, "span"),
    ({"interval": [0, 1], "breakpoints": {}, "degrees": [3]}, "breakpoints"),
])
@pytest.mark.parametrize("command", [["validate"], ["eval", "--grid", "2"]])
def test_a_space_a_double_cannot_hold_is_an_input_error(capsys, tmp_path, doc, what, command):
    # an integer too big for a double, a width whose reciprocal overflows and
    # a span that overflows are refused where they enter, in one line, not as
    # a traceback, NaN values or a point "nan" outside the interval
    path = space_file(tmp_path, doc)
    rc, out, err = run(capsys, *command, "--space", path)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and what in err and err.count("\n") == 1
    assert "nan" not in err


def test_integral_float_degrees_accepted(capsys, tmp_path):
    path = space_file(tmp_path, {"interval": [0.0, 2.0], "breakpoints": [1.0],
                                 "degrees": [3.0, 3], "continuities": [2.0]})
    rc, out, _ = run(capsys, "validate", "--space", path)
    assert rc == 0 and "(3_2 3)" in out


def test_matrix_csv_round_trip(capsys):
    rc, out, _ = run(capsys, "matrix", "--preset", "table7")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    meta = {r[0]: r[1] for r in rows if r[0].startswith("# ")}
    assert meta["# strategy"] == "rki"
    data = np.array([[float(v) for v in r] for r in rows if not r[0].startswith("# ")])
    want = build_matrix_rki(preset_space("table7"), FLOAT).matrix
    assert data.shape == (21, 40)
    assert np.array_equal(data, want)


def test_matrix_json_oracle(capsys, tmp_path):
    path = space_file(tmp_path, {"interval": [0.0, 2.0], "breakpoints": [1.0],
                                 "degrees": [2, 1], "continuities": [1]})
    rc, out, _ = run(capsys, "matrix", "--space", path, "--format", "json", "--oracle")
    assert rc == 0
    doc = json.loads(out)
    assert doc["matrix_exact"][1] == ["0", "1", "2/3", "0"]
    assert doc["oracle_error"] <= 1e-15
    assert np.array(doc["matrix"]).shape == (3, 4)


def test_matrix_oracle_needs_json(capsys, tmp_path):
    # the csv format has no place for the oracle output
    out_path = tmp_path / "m.csv"
    rc, out, err = run(capsys, "matrix", "--preset", "test1", "--oracle",
                       "--out", str(out_path))
    assert rc == 1 and out == "" and not out_path.exists()
    assert err.startswith("error:") and "--oracle" in err and "Traceback" not in err


def test_eval_grid_with_coeffs_and_abscissae(capsys, tmp_path):
    path = space_file(tmp_path, {"interval": [0.0, 2.0], "breakpoints": [1.0],
                                 "degrees": [2, 2], "continuities": [1]})
    cpath = tmp_path / "c.txt"
    cpath.write_text("1, 1, 1, 1\n")
    rc, out, _ = run(capsys, "eval", "--space", path, "--grid", "5",
                     "--coeffs", str(cpath), "--greville")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "greville" and len(rows[0]) == 5
    assert rows[1] == ["x", "N_1", "N_2", "N_3", "N_4", "spline"]
    for row in rows[2:]:
        vals = [float(v) for v in row]
        assert sum(vals[1:5]) == pytest.approx(1.0, abs=1e-14)
        assert vals[5] == pytest.approx(1.0, abs=1e-14)


def test_eval_abscissae_on_every_route(capsys, tmp_path):
    # the abscissae depend on the space only; the derivative route's joins keep
    # order 0, so its abscissae come from the rki build
    path = space_file(tmp_path, {"interval": [0.0, 3.0], "breakpoints": [1.0, 2.0],
                                 "degrees": [3, 2, 3], "continuities": [2, 1]})
    rows = {}
    for route in ("rki", "rde", "mixed", "derivative"):
        rc, out, err = run(capsys, "eval", "--space", path, "--grid", "3",
                           "--method", route, "--greville")
        assert rc == 0 and err == "", route
        rows[route] = next(csv.reader(io.StringIO(out)))
    assert rows["rki"][0] == "greville" and len(rows["rki"]) == 7
    assert all(row == rows["rki"] for row in rows.values())


def test_eval_explicit_points(capsys):
    rc, out, _ = run(capsys, "eval", "--preset", "cox", "--points", "11.0")
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][22]) == pytest.approx(2.926226872314347e-01, rel=1e-15)


def test_experiment_values_with_oracle(capsys):
    rc, out, _ = run(capsys, "experiment", "--preset", "test1",
                     "--methods", "greville", "--oracle")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "value_greville", "abs_err_greville", "rel_err_greville"]
    values = {float(r[0]): (float(r[1]), float(r[3])) for r in rows[1:4]}
    assert values[0.0][0] == pytest.approx(5.000083333610773e-01, rel=1e-14)
    assert all(rel <= 5e-15 for _, rel in values.values())


def test_experiment_matrix_table(capsys):
    rc, out, _ = run(capsys, "experiment", "--preset", "test6",
                     "--methods", "greville,derivative")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    errs = {r[0]: float(r[1]) for r in rows[1:]}
    assert errs["greville"] <= 5e-14
    assert errs["derivative"] > 1e3 * errs["greville"]


def test_experiment_table7(capsys):
    rc, out, _ = run(capsys, "experiment", "--preset", "table7",
                     "--methods", "greville,rde")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k1", "dimension", "matrix_error_greville", "matrix_error_rde"]
    assert len(rows) == 9
    for r in rows[1:]:
        assert int(r[1]) == 40 - int(r[0])
        assert float(r[2]) <= 5e-15 and float(r[3]) <= 5e-15


@pytest.mark.parametrize("argv, coeffs", [
    (["--points", "0.5,20000"], None),
    (["--points", "0.5,nan"], None),
    (["--grid", "3"], "1 1 1"),
])
def test_eval_bad_input_writes_nothing(capsys, tmp_path, argv, coeffs):
    # a point outside [a, b] or a wrong coefficient count is found before the
    # output file is opened
    out_path = tmp_path / "f.csv"
    if coeffs is not None:
        (tmp_path / "c.txt").write_text(coeffs)
        argv = argv + ["--coeffs", str(tmp_path / "c.txt")]
    rc, out, err = run(capsys, "eval", "--preset", "test1", *argv, "--out", str(out_path))
    assert rc == 1 and out == "" and not out_path.exists()
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("methods", [",", " , "])
def test_experiment_needs_a_method(capsys, methods):
    rc, out, err = run(capsys, "experiment", "--preset", "test3", "--methods", methods)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "--methods" in err


def test_experiment_unknown_preset_writes_nothing(capsys, tmp_path):
    out_path = tmp_path / "e.csv"
    rc, out, err = run(capsys, "experiment", "--preset", "nope", "--out", str(out_path))
    assert rc == 1 and out == "" and not out_path.exists()
    assert err.startswith("error: unknown preset 'nope'; choose from [") and "cox" in err


def test_experiment_unknown_method(capsys):
    rc, _, err = run(capsys, "experiment", "--preset", "test1",
                     "--methods", "newton")
    assert rc == 1 and "newton" in err


def test_matrix_out_file(capsys, tmp_path):
    out_path = tmp_path / "m.csv"
    rc, _, _ = run(capsys, "matrix", "--preset", "table7", "--out", str(out_path))
    assert rc == 0
    text = out_path.read_text()
    assert text.count("\n") >= 21


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_validate_out_file(capsys, tmp_path, flags):
    # the report goes to --out, in either format, and nothing to stdout
    _, want, _ = run(capsys, "validate", "--preset", "test1", *flags)
    out_path = tmp_path / "v.txt"
    rc, out, _ = run(capsys, "validate", "--preset", "test1", *flags, "--out", str(out_path))
    assert rc == 0 and out == ""
    assert out_path.read_bytes() == want.encode()


@pytest.mark.parametrize("argv", [
    ["eval", "--preset", "test1", "--grid", "5", "--greville"],
    ["eval", "--preset", "cox", "--points", "10.5,11.0"],
    ["experiment", "--preset", "test1", "--oracle"],
    ["experiment", "--preset", "table7", "--methods", "rki,rde"],
    ["matrix", "--preset", "test1", "--method", "mixed", "--format", "json"],
])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    _, want, _ = run(capsys, *argv)
    out_path = tmp_path / "f.csv"
    rc, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert rc == 0 and out == ""
    assert out_path.read_bytes() == want.encode()


def test_preset_listing_on_error(capsys):
    rc, _, err = run(capsys, "validate", "--preset", "nope")
    assert rc == 1 and "cox" in err
    assert err == f"error: unknown preset 'nope'; choose from {sorted(PRESETS)}\n"


def test_unknown_preset_raises_without_a_chained_cause():
    with pytest.raises(KeyError) as info:
        preset_space("nope")
    assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("grid", ["0", "1"])
def test_eval_grid_below_two_is_an_input_error(capsys, grid):
    rc, out, err = run(capsys, "eval", "--preset", "test1", "--grid", grid)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "--grid" in err and "Traceback" not in err


def test_eval_grid_two_gives_the_endpoints(capsys):
    rc, out, _ = run(capsys, "eval", "--preset", "test1", "--grid", "2")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [float(r[0]) for r in rows[1:]] == [-10000.0, 10000.0]


def test_eval_grid_ends_at_b_even_when_the_span_rounds_up(capsys, tmp_path):
    # -1.6 + (-0.4 - -1.6) is -0.3999999999999999, past b
    path = space_file(tmp_path, {"interval": [-1.6, -0.4], "degrees": [2]})
    rc, out, err = run(capsys, "eval", "--space", path, "--grid", "5")
    assert rc == 0 and err == ""
    xs = [float(r[0]) for r in list(csv.reader(io.StringIO(out)))[1:]]
    assert xs[0] == -1.6 and xs[-1] == -0.4 and xs == sorted(xs)


def test_experiment_accepts_route_names(capsys):
    rc, out, _ = run(capsys, "experiment", "--preset", "test6",
                     "--methods", "rki,greville")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    errs = {r[0]: r[1] for r in rows[1:]}
    assert errs["rki"] == errs["greville"] and float(errs["rki"]) <= 5e-14


@pytest.mark.parametrize("flag", ["--space", "--coeffs", "--out"])
def test_path_that_is_a_directory_is_an_input_error(capsys, tmp_path, flag):
    # opening a directory raises IsADirectoryError, not FileNotFoundError;
    # it exits 1 with one error line and writes nothing
    paths = {"--space": space_file(tmp_path, {"interval": [0.0, 2.0], "breakpoints": [1.0],
                                              "degrees": [2, 1], "continuities": [1]}),
             "--coeffs": str(tmp_path / "c.txt"),
             "--out": str(tmp_path / "f.csv")}
    (tmp_path / "c.txt").write_text("1 1 1")
    folder = tmp_path / "folder"
    folder.mkdir()
    paths[flag] = str(folder)
    argv = [item for pair in paths.items() for item in pair]
    rc, out, err = run(capsys, "eval", "--grid", "3", *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert list(folder.iterdir()) == [] and not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_coefficients(capsys, tmp_path, bad):
    out_path = tmp_path / "f.csv"
    (tmp_path / "c.txt").write_text(" ".join(["1"] * 4 + [bad] + ["1"] * 4))
    rc, out, err = run(capsys, "eval", "--preset", "test1", "--grid", "3",
                       "--coeffs", str(tmp_path / "c.txt"), "--out", str(out_path))
    assert rc == 1 and out == "" and not out_path.exists()
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err


def test_broken_pipe_exits_cleanly(capsys, monkeypatch):
    # a reader that closes the pipe early is not an error
    class Closed(io.StringIO):
        def write(self, _text):
            raise BrokenPipeError
    monkeypatch.setattr("sys.stdout", Closed())
    assert main(["validate", "--preset", "cox"]) == 0
