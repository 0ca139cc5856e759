"""The benchmark's layer tracer still sees every layer it requires.

perfbench/layers.py wraps package functions by name and its self-test
requires some of their counters to be non-zero on each workload.  A
change that stops calling a traced name from where the tracer expects it
makes a traced benchmark run fail; this test catches that in the suite.
It only reads perfbench/.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import torichk.cli

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, name", [("verify-n1", "eguchi-hanson"),
                                            ("verify-n2", "n2-unimodular")])
def test_traced_run_checks_passes_the_tracer_self_test(workload, name):
    layers = _layers()
    e = torichk.entry(name)
    with layers.Tracer(torichk) as tracer:
        torichk.verify.run_checks(e.arrangement, e.deformation, seed=7,
                                  expected=e.expected_values())
    assert layers.self_test(workload, layers.layer_metrics(tracer.stats, 1)) == []


def test_traced_export_grid_passes_the_tracer_self_test(capsys):
    # eval_Phi is reached only through eval_metric, and still counted
    layers = _layers()
    with layers.Tracer(torichk) as tracer:
        code = torichk.cli.run_cli(["export-grid", "n2-unimodular", "--axis", "x1",
                                    "--range=-1:1:5", "--axis", "imz2",
                                    "--range=-0.5:0.5:3", "--out", "-"])
    assert code == 0
    capsys.readouterr()
    assert layers.self_test("export-grid", layers.layer_metrics(tracer.stats, 1)) == []


def test_traced_classify_and_validate_pass_the_tracer_self_test(capsys, tmp_path):
    layers = _layers()
    e = torichk.entry("n2-unimodular")
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(torichk.dump_arrangement(e.arrangement, e.deformation)))
    with layers.Tracer(torichk) as tracer:
        codes = [torichk.cli.run_cli([cmd, str(path)]) for cmd in ("classify", "validate")]
    assert codes == [0, 0]
    capsys.readouterr()
    assert layers.self_test("classify-strata", layers.layer_metrics(tracer.stats, 1)) == []
