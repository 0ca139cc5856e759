"""The benchmark's layer tracer still sees every layer it requires.

perfbench/layers.py wraps package functions by name and its self-test
requires some of their counters to be non-zero on the verify workloads.  A
change that stops calling a traced name from where the tracer expects it
makes a traced benchmark run fail; this test catches that in the suite.
It only reads perfbench/.
"""

import importlib.util
from pathlib import Path

import pytest

import torichk

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
