"""Pinned CLI output: sha256 digests of verify (at seeds 7 and 3), classify,
validate, eval at one point, a 5 x 5 export-grid and growth from an
off-origin base per catalog entry.

A refactor must leave these outputs byte-identical.  A change that moves an
output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_digests.py

and says which digests moved and why.
"""

import functools
import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from torichk import entry, entry_names
from torichk.cli import run_cli

DIGESTS = os.path.join(os.path.dirname(__file__), "cli_digests.json")
SEEDS = ("7", "3")
# per dimension n: the eval point, and the export-grid --fixed point, which
# puts some rows of the x1-rez1 sweep on a flat or a branch cut (NaN rows)
POINTS = {1: "0.37,-0.21,0.13", 2: "0.37,-0.58,-0.21,0.44,0.13,-0.09"}
GRID_FIXED = {1: "0,0,0", 2: "0,0.1,0,0.5,0,0"}
# the growth base point; 600 samples are a full 512-direction chunk and a
# partial one of 88
GROWTH_BASE = {1: "0.3,-0.2,0.1", 2: "0.3,-0.2,0.1,0.25,-0.15,0.05"}


def _cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(list(argv))
    return code, buf.getvalue()


@functools.cache
def _verify(name, seed):
    """(exit code, stdout) of verify; both tests of this file read it."""
    return _cli("verify", name, "--seed", seed)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _sha(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def _digests(name):
    """{command: digest}; verify's wall_time_s is the one unreproducible field."""
    out = {}
    for seed in SEEDS:
        code, text = _verify(name, seed)
        doc = json.loads(text)
        for rep in doc["reports"]:
            del rep["wall_time_s"]
        out[f"verify --seed {seed}"] = _sha(code, json.dumps(doc, sort_keys=True, indent=2))
    for cmd in ("classify", "validate"):
        out[cmd] = _sha(*_cli(cmd, name))
    n = entry(name).arrangement.dimension
    out["eval"] = _sha(*_cli("eval", name, "--point", POINTS[n]))
    out["export-grid"] = _sha(*_cli(
        "export-grid", name, "--axis", "x1", "--range", "-1:1:5", "--axis", "rez1",
        "--range", "-1:1:5", "--fixed", GRID_FIXED[n], "--out", "-"))
    out["growth"] = _sha(*_cli("growth", name, "--radii", "60,120,240,480,960",
                               "--samples", "600", "--base", GROWTH_BASE[n]))
    return out


def _pinned():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_catalog_entry_is_pinned():
    assert sorted(_pinned()) == sorted(entry_names())


@pytest.mark.parametrize("name", entry_names())
def test_verify_output_is_strict_json(name):
    # Infinity and NaN are not JSON: jq and JSON.parse refuse them
    for seed in SEEDS:
        json.loads(_verify(name, seed)[1], parse_constant=_refuse_constant)


@pytest.mark.parametrize("name", entry_names())
def test_cli_output_matches_the_pinned_digests(name):
    assert _digests(name) == _pinned()[name]


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({name: _digests(name) for name in entry_names()}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")
