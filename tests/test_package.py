"""The public surface: every exported name resolves and is exported once,
and every private module-level function or class is used somewhere."""

import ast
import importlib
import pathlib
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


def test_every_private_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))}
    private = {(file, node.name) for file, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    # a definition is a node of its own, so any Name, attribute or imported
    # alias carrying the name is a reference from elsewhere
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(f"{file}:{name}" for file, name in private if name not in used) == []
