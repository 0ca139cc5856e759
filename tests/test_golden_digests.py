"""Pinned CLI output: sha256 digests of verify, classify and validate per catalog entry.

A refactor must leave these outputs byte-identical.  A change that moves an
output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_digests.py

and says which digests moved and why.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from torichk import entry_names
from torichk.cli import run_cli

DIGESTS = os.path.join(os.path.dirname(__file__), "cli_digests.json")
SEED = "7"


def _cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(list(argv))
    return code, buf.getvalue()


def _sha(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def _digests(name):
    """{command: digest}; verify's wall_time_s is the one unreproducible field."""
    code, text = _cli("verify", name, "--seed", SEED)
    doc = json.loads(text)
    for rep in doc["reports"]:
        del rep["wall_time_s"]
    out = {"verify": _sha(code, json.dumps(doc, sort_keys=True, indent=2))}
    for cmd in ("classify", "validate"):
        out[cmd] = _sha(*_cli(cmd, name))
    return out


def _pinned():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_catalog_entry_is_pinned():
    assert sorted(_pinned()) == sorted(entry_names())


@pytest.mark.parametrize("name", entry_names())
def test_cli_output_matches_the_pinned_digests(name):
    assert _digests(name) == _pinned()[name]


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({name: _digests(name) for name in entry_names()}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")
