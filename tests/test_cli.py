"""Command-line interface: exit codes, JSON output, grid export."""

import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torichk import (ArrangementError, DifferentiationError, DomainEscapeError,
                     EvaluationError, NoConvergenceError, Point3n, SamplingError, catalog,
                     entry, eval_Phi, eval_metric, parse_arrangement, verify)
from torichk import cli, potential
from torichk.cli import GRID_BLOCK, run_cli


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_arrangement(tmp_path, doc, name="arr.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_catalog_entry(capsys):
    code, out, err = _run(capsys, "validate", "eguchi-hanson")
    assert code == 0
    doc = json.loads(out)
    assert doc["smooth"] is True


def test_validate_rejects_bad_normal(capsys, tmp_path):
    path = _write_arrangement(tmp_path, {
        "n": 1, "flats": [{"u": [2], "lambda": [0, 0, 0], "a": 1.0}]})
    code, out, err = _run(capsys, "validate", path)
    assert code == 2
    assert "normal not primitive (gcd 2)" in err


@pytest.mark.parametrize("field, flat", [
    ("u", {"u": [True], "lambda": [0, 0, 0], "a": 1.0}),
    ("lambda", {"u": [1], "lambda": [False, 0, 0], "a": 1.0}),
    ("a", {"u": [1], "lambda": [0, 0, 0], "a": True}),
])
def test_json_booleans_are_refused_where_numbers_are_due(capsys, tmp_path, field, flat):
    # bool is an int subclass: true used to read as 1 and false as 0
    with pytest.raises(ArrangementError, match=rf"^flats\[0\]\.{field} must hold numbers"):
        parse_arrangement({"n": 1, "flats": [flat]})
    code, out, err = _run(capsys, "validate", _write_arrangement(tmp_path, {
        "n": 1, "flats": [flat]}))
    assert code == 2 and out == ""
    assert f"flats[0].{field} must hold numbers, not booleans" in err


_GOOD_FLAT = {"u": [1], "lambda": [1, 0, 0], "a": 1.0}


@pytest.mark.parametrize("doc, field, what", [
    ({"n": 1, "flats": [{"u": ["1"], "lambda": [0, 0, 0], "a": 1.0}]}, "flats[0].u", "got '1'"),
    ({"n": 1, "flats": [{"u": [1], "lambda": [0, "0", 0], "a": 1.0}]},
     "flats[0].lambda", "got '0'"),
    ({"n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0], "a": "1e0"}]}, "flats[0].a", "got '1e0'"),
    ({"n": 1, "flats": [_GOOD_FLAT, {"u": ["1"], "lambda": ["-1", "0", "0"], "a": "1e0"}]},
     "flats[1].u", "got '1'"),
    ({"n": 1, "flats": [_GOOD_FLAT], "B": [["1"]]}, 'field "B"', "got '1'"),
    ({"n": 1, "flats": [_GOOD_FLAT], "B": [[True]]}, 'field "B"', "not booleans"),
])
def test_json_strings_and_booleans_in_b_are_refused(capsys, tmp_path, doc, field, what):
    # float("1e0") and int("1") used to read a string as the number it spells,
    # and B was read with numpy, where true is 1.0
    message = f"{field} must hold numbers, {what}"
    with pytest.raises(ArrangementError) as exc:
        parse_arrangement(doc)
    assert str(exc.value) == message
    code, out, err = _run(capsys, "classify", _write_arrangement(tmp_path, doc))
    assert code == 2 and out == ""
    assert message in err


def test_validate_missing_file(capsys):
    code, out, err = _run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_validate_rejects_malformed_shape(capsys, tmp_path):
    # catalog summary records carry "flats" as a count; feeding one in
    # directly must fail cleanly, not with a traceback
    path = _write_arrangement(tmp_path, {"n": 1, "flats": 2, "name": "x"})
    code, out, err = _run(capsys, "validate", path)
    assert code == 2
    assert 'field "flats" must be a list' in err


@pytest.mark.parametrize("cmd, doc, message", [
    # a misspelt "B" used to be dropped: the unit flat classified as flat H
    ("classify", {"n": 1, "flats": [_GOOD_FLAT], "b": [[1.0]]},
     'unknown field "b"; known: "n", "flats", "B"'),
    ("validate", {"n": 1, "flats": [_GOOD_FLAT, dict(_GOOD_FLAT, u=[-1], m=5)]},
     'flats[1]: unknown field "m"; known: "u", "lambda", "a"'),
])
def test_unknown_fields_are_refused(capsys, tmp_path, cmd, doc, message):
    with pytest.raises(ArrangementError) as exc:
        parse_arrangement(doc)
    assert str(exc.value) == message
    code, out, err = _run(capsys, cmd, _write_arrangement(tmp_path, doc))
    assert code == 2 and out == ""
    assert message in err


def _file(text):
    """An argv item: the path of a file holding text, written under the test's tmp_path."""
    def write(tmp_path):
        path = tmp_path / "arr.json"
        path.write_text(text)
        return str(path)
    return write


def _doc(doc):
    return _file(json.dumps(doc))


_FLAT2 = {"u": [1, 0], "lambda": [0, 0, 0], "a": 1.0}
_EXPORT = ["export-grid", "flat-H", "--out", "-"]


@pytest.mark.parametrize("argv, field", [
    (["classify", _file("[1, 2]")], "top level must be a JSON object"),
    (["validate", _file('{"n": 1,')], "arr.json: invalid JSON at line 1"),
    (["classify", str], "cannot read"),
    (["verify", _doc({"flats": []})], 'missing field "n"'),
    (["classify", _doc({"n": 0})], 'field "n" must be a positive integer, got 0'),
    (["classify", _doc({"n": 1.5})], 'field "n" must be a positive integer, got 1.5'),
    (["classify", _doc({"n": True})], 'field "n" must be a positive integer, got True'),
    (["validate", _doc({"n": 1, "flats": [[1, 0, 0]]})], "flats[0] must be an object"),
    (["validate", _doc({"n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0]}]})],
     'flats[0] missing field "a"'),
    (["eval", _doc({"n": 2, "flats": [_GOOD_FLAT]}), "--point", "0,0,0,0,0,0"],
     "flats[0].u must be a length-2"),
    (["classify", _doc({"n": 1, "flats": [dict(_GOOD_FLAT, **{"lambda": [0, 0]})]})],
     "flats[0].lambda must be a length-3"),
    (["verify", _file('{"n": 1, "flats": [{"u": [1], "lambda": [1e999, 0, 0], "a": 1}]}')],
     "flats[0]: offsets must be three finite reals"),
    (["classify", _doc({"n": 1, "flats": [dict(_GOOD_FLAT, a=0)]})],
     "flats[0]: mass must be positive"),
    (["validate", _doc({"n": 2, "flats": [dict(_FLAT2, u=[2, 4])]})],
     "flats[0]: normal not primitive"),
    (["classify", _doc({"n": 1, "flats": [_GOOD_FLAT, _GOOD_FLAT]})],
     "flats[0] and flats[1] are identical"),
    (["classify", _doc({"n": 2, "flats": [_FLAT2], "B": [[1, 0], [0]]})],
     'field "B" must be a 2x2 matrix'),
    (["classify", _doc({"n": 2, "flats": [_FLAT2], "B": [[1, 0, 0], [0, 1, 0]]})],
     'field "B" must be 2x2, got shape (2, 3)'),
    (["eval", _doc({"n": 2, "flats": [_FLAT2], "B": [[1, 0.5], [0, 1]]}),
      "--point", "1,0,0,0,0,0"], 'field "B": deformation matrix must be symmetric'),
    (["verify", _doc({"n": 2, "flats": [_FLAT2], "B": [[1, 0], [0, -1]]})],
     'field "B": deformation matrix not positive semidefinite'),
    (_EXPORT + ["--axis", "x2", "--range=0:1:3"], "--axis 'x2': expected x<i>"),
    (_EXPORT + ["--axis", "x01", "--range=0:1:3"], "--axis 'x01': expected x<i>"),
    (_EXPORT + ["--axis", "x1", "--range=0:1"], "--range '0:1': expected START:STOP:COUNT"),
    (_EXPORT + ["--axis", "x1", "--range=0:b:3"], "--range '0:b:3': could not convert"),
    (_EXPORT + ["--axis", "x1", "--range=0:1:0"], "--range '0:1:0': COUNT must be positive"),
    (_EXPORT + ["--axis", "x1", "--axis", "rez1", "--range=0:1:3"],
     "each --axis needs a matching --range"),
    (_EXPORT + ["--axis", "x1", "--range=0:1:3", "--axis", "x1", "--range=0:1:3"],
     "--axis: swept axes must be distinct"),
    (["growth", "flat-H", "--radii", "1,a"], "--radii: could not convert"),
], ids=["top-level-list", "invalid-json", "directory", "no-n", "n-0", "n-1.5", "n-true",
        "flat-not-object", "flat-no-a", "u-length", "lambda-length", "lambda-1e999",
        "mass-0", "non-primitive", "identical-flats", "B-ragged", "B-shape",
        "B-asymmetric", "B-not-psd", "axis-x2-at-n-1", "axis-x01", "range-two-parts",
        "range-not-a-number", "range-count-0", "axis-without-range", "axis-repeated",
        "radii-not-a-number"])
def test_a_bad_input_exits_two_with_one_error_line_naming_it(capsys, tmp_path, argv, field):
    # str stands for tmp_path itself, a directory
    code, out, err = _run(capsys, *(a(tmp_path) if callable(a) else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert field in err


@pytest.mark.parametrize("text, message", [
    ('{"n": 100000000000}', 'field "n" must be at most 64, got 100000000000'),
    ('{"n": 5000}', 'field "n" must be at most 64, got 5000'),
    ('{"n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0], "a": 1e999}]}',
     "flats[0]: mass must be finite"),
], ids=["n-1e11", "n-5000", "mass-1e999"])
def test_validate_names_a_huge_n_or_mass_at_once(capsys, tmp_path, text, message):
    # refused at the boundary: no n x n matrix is built, and the overflowed
    # mass is named for what it is, not as a nonpositive one
    path = tmp_path / "arr.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_validate_nonsmooth_exit_one(capsys):
    code, out, err = _run(capsys, "validate", "n2-nonsmooth")
    assert code == 1
    doc = json.loads(out)
    assert doc["smooth"] is False
    assert doc["failing_stratum"]["active"] == [0, 1]
    assert doc["invariant_factors"] == [1, 2]


def test_classify_fields(capsys):
    code, out, err = _run(capsys, "classify", "taub-nut")
    assert code == 0
    doc = json.loads(out)
    assert doc["volume_growth_exponent"] == 3
    assert doc["taub_nut_order"] == 1
    assert doc["ale_label"] is None
    assert isinstance(doc["strata"], list)


def test_eval_point(capsys):
    code, out, err = _run(capsys, "eval", "flat-H", "--point", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["phi"][0][0] == pytest.approx(0.25, abs=1e-14)
    assert doc["F"] == pytest.approx(np.log(2.0) - 1.0, abs=1e-14)
    assert len(doc["metric"]) == 4
    assert len(doc["quotient_metric"]) == 3


def test_eval_keeps_the_sign_of_zero(capsys):
    code, out, err = _run(capsys, "eval", "flat-H", "--point=1,-0.0,-0.0")
    assert code == 0
    point = json.loads(out)["point"]
    assert point == [1.0, 0.0, 0.0]
    assert np.signbit(point).tolist() == [False, True, True]


def test_eval_on_flat_exits_two(capsys):
    code, out, err = _run(capsys, "eval", "flat-H", "--point", "0,0,0")
    assert code == 2
    assert "error:" in err


def test_eval_rejects_malformed_point(capsys):
    code, out, err = _run(capsys, "eval", "flat-H", "--point", "1,2")
    assert code == 2


def test_verify_subset_passes(capsys):
    code, out, err = _run(capsys, "verify", "flat-cylinder",
                          "--checks", "phi-fd,roundtrip", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert [r["check"] for r in doc["reports"]] == ["phi-fd", "roundtrip"]
    for r in doc["reports"]:
        assert r["pass"] is True
        assert "wall_time_s" in r


def test_verify_unknown_check(capsys):
    code, out, err = _run(capsys, "verify", "flat-H", "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("checks", [",", " , ", ""])
def test_verify_with_no_check_selected_exits_two(capsys, checks):
    # a certification with no check in it is refused, not passed
    code, out, err = _run(capsys, "verify", "eguchi-hanson", "--checks", checks)
    assert code == 2 and out == ""
    assert err.startswith("error: no check selected; known: phi-fd, ")


def test_verify_with_a_repeated_check_exits_two(capsys):
    # the same check twice would print two identical reports
    code, out, err = _run(capsys, "verify", "flat-H", "--checks", "phi-fd,phi-fd")
    assert code == 2 and out == ""
    assert err == "error: check 'phi-fd' is selected more than once\n"


def test_verify_classification_of_a_file_without_expectations_exits_two(capsys, tmp_path):
    # an arrangement file carries no expected values, so nothing would be compared
    path = _write_arrangement(tmp_path, {
        "n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0], "a": 1.0}]})
    code, out, err = _run(capsys, "verify", path, "--checks", "classification")
    assert code == 2 and out == ""
    assert err == "error: check 'classification' compares expected values; none given\n"


def test_verify_deterministic_modulo_wall_time(capsys):
    def strip(doc):
        for r in doc["reports"]:
            r.pop("wall_time_s")
        return doc

    code1, out1, _ = _run(capsys, "verify", "eguchi-hanson",
                          "--checks", "phi-fd,polyharmonic,roundtrip",
                          "--seed", "11")
    code2, out2, _ = _run(capsys, "verify", "eguchi-hanson",
                          "--checks", "phi-fd,polyharmonic,roundtrip",
                          "--seed", "11")
    assert code1 == code2 == 0
    assert strip(json.loads(out1)) == strip(json.loads(out2))


def test_growth_command(capsys):
    code, out, err = _run(capsys, "growth", "taub-nut",
                          "--radii", "60,120,240,480,960",
                          "--samples", "1024", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent"] == pytest.approx(3.0, abs=0.2)
    assert len(doc["volumes"]) == 5


def test_growth_samples_default_to_the_growth_checks_count(capsys):
    code, out, err = _run(capsys, "growth", "taub-nut", "--radii", "60,120,240,480,960")
    assert code == 0
    assert json.loads(out)["samples"] == 512


def test_growth_insufficient_exits_one(capsys):
    code, out, err = _run(capsys, "growth", "eguchi-hanson",
                          "--radii", "4.6,5.2", "--samples", "32",
                          "--seed", "210")
    assert code == 1
    assert err == ("check failed: growth-exponent standard error 3.406 exceeds 0.200; "
                   "increase samples or radii\n")


def test_growth_samples_below_one_per_batch_exit_two(capsys):
    for samples in ("4", "0", "-3"):
        code, out, err = _run(capsys, "growth", "eguchi-hanson",
                              "--radii", "60,120,240", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"error: samples must be at least 8 (one per batch), got {samples}\n"


@pytest.mark.parametrize("argv, error", [
    (["export-grid", "flat-H", "--axis", "x1", "--axis", "rez1", "--range=0:1:100000",
      "--range=0:1:100000", "--out", "-"],
     "error: --range: the grid would hold 60000000000 values (points times 3n + n^2 + 2 "
     f"columns), more than {cli.GRID_VALUES}"),
    (["growth", "flat-H", "--radii", "60,120", "--samples", "10000000000"],
     f"error: samples must be at most {verify.GROWTH_MAX_SAMPLES}, got 10000000000"),
], ids=["export-grid", "growth"])
def test_a_count_past_what_memory_holds_is_refused_before_any_array(argv, error):
    # these asked numpy for 74.5 GiB and 224 GiB and ended in its traceback;
    # the child runs under a 1 GiB address-space limit, so an array built
    # before the check fails there alone
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "torichk.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [error]


@pytest.mark.parametrize("radii", ["60,nan,960", "60,120,inf"])
def test_growth_rejects_non_finite_radii(capsys, radii):
    code, out, err = _run(capsys, "growth", "taub-nut", "--radii", radii)
    assert code == 2 and out == ""
    assert err == ("error: radii must be a strictly increasing sequence of finite "
                   "positive numbers\n")


def test_growth_nan_std_error_exits_one(capsys, monkeypatch):
    def nan_fit(arr, B, base, radii, samples=4096, rng=None):
        return verify.GrowthFit(exponent=4.0, std_error=float("nan"),
                                radii=np.asarray(radii), volumes=np.ones(len(radii)),
                                samples=samples)

    monkeypatch.setattr(verify, "growth_fit", nan_fit)
    code, out, err = _run(capsys, "growth", "flat-H", "--radii", "60,120")
    assert code == 1
    assert err == ("check failed: growth-exponent standard error nan exceeds 0.200; "
                   "increase samples or radii\n")


_VERIFY = (["verify", "--seed", "1"], "60 to 960")
_GROWTH = (["growth", "--radii", "60,240", "--samples", "64"], "60 to 240")


@pytest.mark.parametrize("argv, radii, b", [
    (*_VERIFY, 1e300), (*_GROWTH, 1e300), (*_VERIFY, 1e303), (*_GROWTH, 1e303),
], ids=["verify", "growth", "verify-1e303", "growth-1e303"])
def test_growth_below_the_fiber_scale_names_the_radius(tmp_path, argv, radii, b):
    # a fresh interpreter with every warning an error: at B = 1e300 the ball
    # volume past the largest radius exceeds float64, at B = 1e303 so does
    # det Phi t^(3n-1) there, and a RuntimeWarning on the way would end the
    # command with a traceback instead of this line
    path = _write_arrangement(
        tmp_path, {"n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0], "a": 1}], "B": [[b]]})
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "torichk.cli", argv[0], path, *argv[1:]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2 and proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: radius 60 (radii {radii}) is below the start of every "
                      "sampled ray (its first node's distance proxy); increase radii"]


@pytest.mark.parametrize("b, error", [
    (1e306, "error: radius 60 (radii 60 to 960) is below the start of every sampled ray "
            "(its first node's distance proxy); increase radii"),
    (1e307, "error: finite-difference Laplacian overflows at step 0.0005: the stencil "
            "values are finite (up to 3.312e+307) but their combination is not"),
    (2e307, "error: finite-difference Richardson Hessian overflows at step 0.001: the "
            "stencil values are finite (up to 8.000e+307) but their combination is not"),
    (5e307, "error: master potential F overflows at a finite point: with B up to "
            "5.000e+307, its value exceeds float64"),
    (8e307, "error: master potential F overflows at a finite point: with B up to "
            "8.000e+307, its value exceeds float64"),
], ids=["1e306", "1e307", "2e307", "5e307", "8e307"])
def test_a_finite_difference_overflow_is_one_error_line(tmp_path, b, error):
    # at B = 1e307 the polyharmonic check's 7-point Laplacian combined finite
    # values of F past float64, at B = 2e307 phi-fd's Richardson pair of
    # Hessians did, and at B = 5e307 and 8e307 2 x^T B x in F itself did:
    # under -W error the overflow warning ended verify with a traceback, and
    # without it the check went on with inf
    path = _write_arrangement(
        tmp_path, {"n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0], "a": 1}], "B": [[b]]})
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "torichk.cli", "verify", path, "--seed", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [error]


@pytest.mark.parametrize("argv", [["validate"], ["classify"], ["verify", "--seed", "1"]],
                         ids=["validate", "classify", "verify"])
def test_a_deformation_matrix_whose_symmetric_part_overflows_is_an_input_error(tmp_path, argv):
    # B + B^T exceeds float64 at B = 1e308: under -W error the overflow
    # warning of the symmetrization ended the command with a traceback, and
    # without it validate called an infinite B valid
    path = _write_arrangement(
        tmp_path, {"n": 1, "flats": [{"u": [1], "lambda": [0, 0, 0], "a": 1}], "B": [[1e308]]})
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "torichk.cli", argv[0], path, *argv[1:]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: field \"B\": deformation matrix too large: its symmetric part overflows"]


@pytest.mark.parametrize("argv", [
    ["verify", "flat-H"],
    ["growth", "flat-H", "--radii", "60,120"],
], ids=["verify", "growth"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in err


def test_a_seed_that_is_not_an_integer_is_a_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "flat-H", "--seed", "abc")
    assert code == 2 and out == ""
    assert "argument --seed: expected a non-negative integer, got 'abc'" in err


def test_local_models_check_is_gone(capsys):
    code, out, err = _run(capsys, "verify", "flat-H", "--checks", "local-models")
    assert code == 2 and out == ""
    assert "unknown check 'local-models'" in err
    code, out, err = _run(capsys, "verify", "flat-H", "--local-models")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --local-models" in err


def test_export_grid(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, err = _run(capsys, "export-grid", "flat-H",
                          "--axis", "x1", "--range=-1:1:5",
                          "--axis", "rez1", "--range=0.5:1.5:3",
                          "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["x1", "rez1", "imz1"]
    assert "det_phi" in header and "det_g" in header
    assert len(lines) == 1 + 5 * 3
    # every grid point keeps rez1 >= 0.5, safely off the flat
    for line in lines[1:]:
        assert "nan" not in line.lower()


def test_export_grid_nan_on_flat(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, err = _run(capsys, "export-grid", "flat-H",
                          "--axis", "x1", "--range=-1:1:3",
                          "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    # x1 = 0, z = 0 is on the flat and x1 = -1, z = 0 on the branch cut:
    # both rows are kept with NaN values; x1 = +1 evaluates cleanly
    for row in (rows[0], rows[1]):
        assert any(tok == "nan" for tok in row.split(",")[3:])
    assert "nan" not in rows[2].lower()
    assert float(rows[2].split(",")[0]) == 1.0


def _reference_grid_csv(arr, B, axes, fixed=None):
    """export-grid's CSV for `axes` (name, start, stop, count) with the other
    coordinates at `fixed` (3n floats, default 0), built point by point from
    the scalar evaluators."""
    n = arr.dimension
    header = ([f"x{i+1}" for i in range(n)] + [f"rez{i+1}" for i in range(n)]
              + [f"imz{i+1}" for i in range(n)]
              + [f"phi{i+1}{j+1}" for i in range(n) for j in range(n)]
              + ["det_phi", "det_g"])
    prefixes = [name.rstrip("0123456789") for name, *_ in axes]
    cols = [{"x": 0, "rez": 1, "imz": 2}[prefix] * n + int(name[len(prefix):]) - 1
            for prefix, (name, *_) in zip(prefixes, axes)]
    mesh = np.meshgrid(*[np.linspace(a, b, c) for _, a, b, c in axes], indexing="ij")
    lines = [",".join(header)]
    for k in range(mesh[0].size):
        w = np.zeros(3 * n) if fixed is None else np.array(fixed, dtype=float)
        for col, m in zip(cols, mesh):
            w[col] = m.reshape(-1)[k]
        p = Point3n.from_coords(w)
        try:
            phi = eval_Phi(arr, B, p)
            g = eval_metric(arr, B, p)
            vals = (list(w) + [phi[i, j] for i in range(n) for j in range(n)]
                    + [float(np.linalg.det(phi)), float(np.linalg.det(g))])
        except EvaluationError:
            vals = list(w) + [float("nan")] * (n * n + 2)
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


# an n = 2 grid over two blocks, so coordinate values repeat from one block to
# the next, with x2 at -0.0, a value repr needs 17 digits for, a tiny one and
# a negative one
_N2_TWO_BLOCKS = ("n2-unimodular",
                  [("x1", -1.0, 1.0, 65), ("imz2", -0.5, 0.5, GRID_BLOCK // 65 + 2)],
                  (0.0, -0.0, 0.30000000000000004, 1e-300, -0.7, 0.0))


def _grid_cases():
    # every grid at the origin's unswept coordinates passes through flats
    # (offsets on the grid lines, z = 0) and through the branch cuts on their
    # negative side
    n1 = [("x1", -3.0, 3.0, 25), ("imz1", -1.0, 1.0, 9)]
    n2 = [("x1", -1.0, 1.0, 9), ("x2", -1.0, 1.0, 9), ("imz2", -0.5, 0.5, 3)]
    for e in catalog():
        yield pytest.param(e.name, n1 if e.arrangement.dimension == 1 else n2, None,
                           id=e.name)
    side = 65
    yield pytest.param("flat-H", [("x1", -3.0, 3.0, side),
                                  ("rez1", -2.0, 2.0, GRID_BLOCK // side + 2)], None,
                       id="flat-H-larger-than-a-block")
    # unswept coordinates whose text a careless formatter would change: -0.0
    # (x blocks keep its sign), a value repr needs 17 digits for, a tiny one
    # and a negative one
    yield pytest.param("eguchi-hanson", [("imz1", -1.0, 1.0, 9)],
                       (-0.0, 0.30000000000000004, 1e-300), id="eguchi-hanson-fixed")
    yield pytest.param("multi-EH-3", [("rez1", -1.0, 1.0, 9)],
                       (-0.0, 5.0, -1e-300), id="multi-EH-3-fixed")
    yield pytest.param(*_N2_TWO_BLOCKS, id="n2-unimodular-fixed-two-blocks")


def _grid_argv(name, axes, fixed=None):
    argv = ["export-grid", name]
    for ax, start, stop, count in axes:
        argv += ["--axis", ax, f"--range={start!r}:{stop!r}:{count}"]
    if fixed is not None:
        argv.append("--fixed=" + ",".join(map(repr, fixed)))
    return argv + ["--out", "-"]


@pytest.mark.parametrize("name, axes, fixed", _grid_cases())
def test_export_grid_matches_pointwise_reference(capsys, name, axes, fixed):
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    code, out, err = _run(capsys, *_grid_argv(name, axes, fixed))
    assert code == 0 and err == ""
    assert out == _reference_grid_csv(arr, B, axes, fixed)
    nan_rows = sum(line.endswith(",nan") for line in out.splitlines())
    if len(arr.flats) and fixed is None:
        assert 0 < nan_rows < len(out.splitlines()) - 1


def test_grid_rows_keep_the_sign_of_zero():
    # -0.0 and 0.0 are equal but print differently, in one column and one block
    e = entry("flat-H")
    w = np.array([[-0.0, 1.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 2.0, 0.5], [0.0, 1.0, -0.0]])
    rows = cli._grid_rows(e.arrangement, e.deformation, w)
    assert [row.split(",")[:3] for row in rows] == [list(map(repr, p)) for p in w.tolist()]


def test_export_grid_formats_each_distinct_coordinate_once(capsys, monkeypatch):
    # per block, one repr per distinct coordinate bit pattern in each column
    # and one per value cell (n^2 Phi entries, det Phi, det g) in each row
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    name, axes, fixed = _N2_TWO_BLOCKS
    n = entry(name).arrangement.dimension
    mesh = np.meshgrid(*[np.linspace(a, b, c) for _, a, b, c in axes], indexing="ij")
    w = np.tile(fixed, (mesh[0].size, 1))
    w[:, 0], w[:, 5] = mesh[0].reshape(-1), mesh[1].reshape(-1)
    blocks = [w[k:k + GRID_BLOCK] for k in range(0, len(w), GRID_BLOCK)]
    assert len(blocks) == 2
    distinct = sum(len({v.hex() for v in col}) for b in blocks for col in b.T.tolist())

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    code, out, err = _run(capsys, *_grid_argv(name, axes, fixed))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + len(w)
    assert len(calls) == distinct + len(w) * (n * n + 2)


def test_export_grid_evaluates_phi_once_per_block(capsys, monkeypatch):
    # Phi is read from the metric's first diagonal block, so each block runs
    # one eval_Phi, counted through every module's binding of it
    calls = []

    def counting_eval_Phi(arr, B, p):
        calls.append(len(p.x))
        return eval_Phi(arr, B, p)

    for module in (potential, cli):
        monkeypatch.setattr(module, "eval_Phi", counting_eval_Phi)
    name, axes, fixed = _N2_TWO_BLOCKS
    code, out, err = _run(capsys, *_grid_argv(name, axes, fixed))
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(calls) == -(-len(rows) // GRID_BLOCK) == 2
    # the points the domain rule refuses are not evaluated
    assert sum(calls) == sum(not row.endswith(",nan") for row in rows)


def test_export_grid_without_flats_or_deformation_exits_two(capsys, tmp_path):
    path = _write_arrangement(tmp_path, {"n": 1, "flats": []})
    out_path = tmp_path / "grid.csv"
    code, out, err = _run(capsys, "export-grid", path, "--axis", "x1",
                          "--range=-1:1:3", "--out", str(out_path))
    assert code == 2
    assert err == "error: Phi is not positive definite at this point; metric undefined\n"
    assert not out_path.exists()


def test_export_grid_out_into_missing_directory_exits_two(capsys, tmp_path):
    out_path = tmp_path / "missing" / "grid.csv"
    code, out, err = _run(capsys, "export-grid", "flat-H", "--axis", "x1",
                          "--range=1:3:3", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: --out: cannot write {out_path}: No such file or directory\n"
    assert not out_path.parent.exists()


@pytest.mark.parametrize("value", ["nan:1:3", "0:inf:3", "-inf:1:1", "0:NaN:3",
                                   "-1e308:1e308:3"])
def test_range_rejects_non_finite_values(capsys, value):
    code, out, err = _run(capsys, "export-grid", "flat-H", "--axis", "x1",
                          f"--range={value}", "--out", "-")
    assert code == 2 and out == ""
    assert err == f"error: --range {value!r}: every grid value must be finite\n"


@pytest.mark.parametrize("argv, flag", [
    (["eval", "flat-H"], "--point"),
    (["export-grid", "flat-H", "--axis", "x1", "--range=1:3:3", "--out", "-"], "--fixed"),
    (["growth", "flat-H", "--radii", "60,240", "--samples", "64"], "--base"),
], ids=["point", "fixed", "base"])
def test_point_parse_error_names_its_option(capsys, argv, flag):
    code, out, err = _run(capsys, *argv, f"{flag}=0,abc,0")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: could not convert string to float: 'abc'")
    # 1e999 parses, to inf
    for value in ("inf", "nan", "1e999"):
        code, out, err = _run(capsys, *argv, f"{flag}=0,{value},0")
        assert code == 2 and out == ""
        assert err == f"error: {flag}: coordinates must be finite, got {value!r}\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["export-grid", "flat-H", "--axis", "x1", "--out", "-"], "--range", "-3:3:5"),
    (["export-grid", "flat-H", "--axis", "x1", "--range=1:3:3", "--out", "-"],
     "--fixed", "-1,0.5,0"),
    (["eval", "flat-H"], "--point", "-1,0.5,0"),
    (["growth", "flat-H", "--radii", "60,240", "--samples", "64", "--seed", "3"],
     "--base", "-.5,1,0"),
], ids=["range", "fixed", "point", "base"])
def test_option_value_may_start_with_minus(capsys, argv, flag, value):
    joined = _run(capsys, *argv, f"{flag}={value}")
    spaced = _run(capsys, *argv, flag, value)
    assert spaced[0] == 0
    assert spaced == joined


def test_sampling_failure_exits_two(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise SamplingError("rejection sampling failed to reach the requested count")

    monkeypatch.setattr(verify, "sample_points", fail)
    code, out, err = _run(capsys, "verify", "flat-H", "--checks", "phi-fd")
    assert code == 2
    assert out == ""
    assert err == "error: rejection sampling failed to reach the requested count\n"


@pytest.mark.parametrize("error", [
    NoConvergenceError(2.796e-10, 200),
    DomainEscapeError("line search blocked by the domain boundary"),
    DifferentiationError("chart derivative did not stabilize"),
], ids=lambda exc: type(exc).__name__)
def test_solver_failure_exits_two(capsys, monkeypatch, error):
    # a failed solve ends with one error line, as an evaluation error does
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(verify, "run_checks", fail)
    code, out, err = _run(capsys, "verify", "flat-H", "--checks", "roundtrip")
    assert code == 2
    assert out == ""
    assert err == f"error: {error}\n"


def test_catalog_listing_roundtrips(capsys):
    code, out, err = _run(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)
    names = [e["name"] for e in entries]
    assert "eguchi-hanson" in names and "n2-nonsmooth" in names
    for e in entries:
        arr, B = parse_arrangement(e["arrangement"])
        assert arr.dimension == e["n"]
        assert len(arr.flats) == e["flats"]
        assert B.order == e["taub_nut_order"]


def test_no_command_shows_usage(capsys):
    code, out, err = _run(capsys, "--help")
    assert code == 0


def test_run_cli_builds_one_parser_per_process(capsys):
    cli._parser.cache_clear()
    for argv in (["validate", "flat-H"], ["classify", "taub-nut"], ["catalog"]):
        _run(capsys, *argv)
    assert cli._parser.cache_info().misses == 1
    assert cli._parser() is cli._parser()


_GRID = ["export-grid", "multi-EH-3", "--axis", "x1", "--range", "-1:1:3",
         "--axis", "rez1", "--range=0.5:1:2", "--out", "-"]


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch):
    sequence = [_GRID, ["export-grid", "flat-H", "--axis", "x2", "--out", "-"],
                ["--help"], _GRID]
    reused = [_run(capsys, *argv) for argv in sequence]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._parser.__wrapped__)
        fresh = [_run(capsys, *argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert len(reused[0][1].splitlines()) == 1 + 3 * 2
    # append options start from their default on every parse
    args = cli._parser().parse_args(cli._attach_signed_values(_GRID))
    assert args.axis == ["x1", "rez1"] and args.ranges == ["-1:1:3", "0.5:1:2"]


def _nulled(value):
    """value with every non-finite float inside it replaced by None: what the
    CLI printed by giving json.dumps this copy."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v) for v in value]
    return value


_TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
_INTS = st.integers() | st.sampled_from([2 ** 64, -2 ** 64 - 1, 3 ** 200])
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308, 0.1, 1e16, 1e-7])


def _documents(floats):
    scalars = st.none() | st.booleans() | _INTS | floats | _EDGE_FLOATS | _TEXT
    return st.recursive(scalars, lambda kids: (
        st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
        | st.lists(floats | _EDGE_FLOATS, max_size=5)
        | st.dictionaries(_TEXT, kids, max_size=5)), max_leaves=20)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_documents(st.floats(allow_nan=False, allow_infinity=False)))
@example([1.7976931348623157e308, 1.7976931348623157e308])  # finite rows, infinite sum
@example({"a": [1, True, 2], "b": (False, None, 1.0)})
def test_the_emitter_writes_what_json_dumps_writes(doc):
    assert cli._json(doc) == _dumps(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_documents(st.floats()))
@example({"x": [[float("inf"), 1.5], {"y": float("nan")}], "z": -float("inf")})
@example(float("nan"))
def test_the_emitter_writes_a_non_finite_float_as_null_at_any_depth(doc):
    assert cli._json(doc) == _dumps(_nulled(doc))


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1, 2}],
                         ids=["int64", "bool_", "set"])
def test_the_emitter_refuses_what_json_dumps_refuses(bad):
    for doc in (bad, [1.0, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dumps(doc)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json(doc)
    # numpy's float64 is a float, and prints as one
    assert cli._json([np.float64(0.1), np.float64(-0.0)]) == _dumps([0.1, -0.0])
