"""The public surface: every exported name resolves and is exported once."""

import importlib
import pkgutil

import pytest

import torichk

MODULES = sorted(m.name for m in pkgutil.iter_modules(torichk.__path__))


@pytest.mark.parametrize("name", ["torichk"] + [f"torichk.{m}" for m in MODULES])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
