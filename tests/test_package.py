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


def test_tolerances_are_one_table_without_a_per_call_knob():
    # every function reads config.DEFAULT; none takes a cfg override, and
    # config builds no adjusted copies
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))}
    takes_cfg = sorted(
        f"{file}:{getattr(node, 'name', '<lambda>')}:{node.lineno}"
        for file, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "cfg" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)})
    assert takes_cfg == []
    assert [getattr(node, "name", "<lambda>") for node in ast.walk(trees["config.py"])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))] == []


def test_per_flat_data_and_the_domain_rule_have_one_owner():
    # t = s + r is computed only by the FlatArrangement kernel (svr, sr), and
    # only the potential module applies the domain thresholds
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))}
    kernel = {id(node) for node in ast.walk(trees["arrangement.py"])
              if isinstance(node, ast.ClassDef) and node.name == "FlatArrangement"
              for node in ast.walk(node)}
    s_plus_r = sorted(
        f"{file}:{node.lineno}" for file, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and {getattr(node.left, "id", None), getattr(node.right, "id", None)} == {"s", "r"}
        and id(node) not in kernel)
    assert s_plus_r == []
    thresholds = sorted(
        f"{file}:{node.lineno}" for file in ("cli.py", "verify.py")
        for node in ast.walk(trees[file])
        if isinstance(node, ast.Attribute) and node.attr in ("on_flat", "branch")
        and getattr(node.value, "id", None) == "DEFAULT")
    assert thresholds == []


def test_the_check_skeleton_has_one_owner():
    # every check is a row of verify._CHECKS: only run_checks draws a check's
    # rng and builds its report
    tree = ast.parse((pathlib.Path(torichk.__file__).parent / "verify.py")
                     .read_text(encoding="utf-8"))
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called.count("_rng_for") == 1
    assert called.count("_report") + called.count("ResidualReport") == 1
