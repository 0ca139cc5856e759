"""Command-line interface: exit codes, JSON output, grid export."""

import json

import numpy as np
import pytest

from torichk import (ArrangementError, DifferentiationError, DomainEscapeError,
                     EvaluationError, NoConvergenceError, Point3n, SamplingError, catalog,
                     entry, eval_Phi, eval_metric, parse_arrangement, verify)
from torichk import cli
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


def test_growth_insufficient_exits_one(capsys):
    code, out, err = _run(capsys, "growth", "eguchi-hanson",
                          "--radii", "4.6,5.2", "--samples", "32",
                          "--seed", "210")
    assert code == 1
    assert "check failed" in err


def test_growth_samples_below_one_per_batch_exit_two(capsys):
    for samples in ("4", "0", "-3"):
        code, out, err = _run(capsys, "growth", "eguchi-hanson",
                              "--radii", "60,120,240", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"error: samples must be at least 8 (one per batch), got {samples}\n"


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
    assert "check failed" in err


@pytest.mark.parametrize("argv", [
    ["verify", "flat-H"],
    ["growth", "flat-H", "--radii", "60,120"],
], ids=["verify", "growth"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in err


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


def _reference_grid_csv(arr, B, axes):
    """export-grid's CSV for `axes` (name, start, stop, count) with the other
    coordinates at 0, built point by point from the scalar evaluators."""
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
        w = np.zeros(3 * n)
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


def _grid_cases():
    # every grid passes through flats (offsets on the grid lines, z = 0) and
    # through the branch cuts on their negative side
    n1 = [("x1", -3.0, 3.0, 25), ("imz1", -1.0, 1.0, 9)]
    n2 = [("x1", -1.0, 1.0, 9), ("x2", -1.0, 1.0, 9), ("imz2", -0.5, 0.5, 3)]
    for e in catalog():
        yield pytest.param(e.name, n1 if e.arrangement.dimension == 1 else n2, id=e.name)
    side = 65
    yield pytest.param("flat-H", [("x1", -3.0, 3.0, side),
                                  ("rez1", -2.0, 2.0, GRID_BLOCK // side + 2)],
                       id="flat-H-larger-than-a-block")


@pytest.mark.parametrize("name, axes", _grid_cases())
def test_export_grid_matches_pointwise_reference(capsys, name, axes):
    e = entry(name)
    arr, B = e.arrangement, e.deformation
    argv = ["export-grid", name]
    for ax, start, stop, count in axes:
        argv += ["--axis", ax, f"--range={start!r}:{stop!r}:{count}"]
    code, out, err = _run(capsys, *argv, "--out", "-")
    assert code == 0 and err == ""
    assert out == _reference_grid_csv(arr, B, axes)
    nan_rows = sum(line.endswith(",nan") for line in out.splitlines())
    if len(arr.flats):
        assert 0 < nan_rows < len(out.splitlines()) - 1


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
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


_GRID = ["export-grid", "multi-EH-3", "--axis", "x1", "--range", "-1:1:3",
         "--axis", "rez1", "--range=0.5:1:2", "--out", "-"]


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch):
    sequence = [_GRID, ["export-grid", "flat-H", "--axis", "x2", "--out", "-"],
                ["--help"], _GRID]
    reused = [_run(capsys, *argv) for argv in sequence]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [_run(capsys, *argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert len(reused[0][1].splitlines()) == 1 + 3 * 2
    # append options start from their default on every parse
    args = cli._parser().parse_args(cli._attach_signed_values(_GRID))
    assert args.axis == ["x1", "rez1"] and args.ranges == ["-1:1:3", "0.5:1:2"]
