"""The public surface: every exported name resolves and is exported once,
and every private module-level function or class is used somewhere."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import re
import sys
import tomllib

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
    # t = s + r is computed only by the return of arrangement._per_flat, the
    # kernel of FlatArrangement.svr and svr_by_flat, and only the potential
    # module applies the domain thresholds
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))}
    svr_return = [node.lineno for fn in trees["arrangement.py"].body
                  if getattr(fn, "name", None) == "_per_flat"
                  for node in ast.walk(fn) if isinstance(node, ast.Return)]
    s_plus_r = sorted(
        f"{file}:{node.lineno}" for file, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and {getattr(node.left, "id", None), getattr(node.right, "id", None)} == {"s", "r"})
    assert len(svr_return) == 1
    assert s_plus_r == [f"arrangement.py:{svr_return[0]}"]
    # the offsets come off in _per_flat alone, where they are plain names:
    # no difference elsewhere takes a frame's l1 or lc as it stands
    offsets_off = sorted(
        f"{file}:{node.lineno}" for file, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and getattr(node.right, "attr", None) in ("l1", "lc"))
    assert offsets_off == []
    thresholds = sorted(
        f"{file}:{node.lineno}" for file in ("cli.py", "verify.py")
        for node in ast.walk(trees[file])
        if isinstance(node, ast.Attribute) and node.attr in ("on_flat", "branch")
        and getattr(node.value, "id", None) == "DEFAULT")
    assert thresholds == []


def test_every_tolerance_field_is_read():
    # a threshold or step that no code reads as DEFAULT.<field> outlived
    # whatever used it
    read = {node.attr
            for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "DEFAULT"}
    assert [f.name for f in dataclasses.fields(torichk.Tolerances) if f.name not in read] == []


def test_the_check_skeleton_has_one_owner():
    # every check is a row of verify._CHECKS: only run_checks draws a check's
    # rng and builds its report
    tree = ast.parse((pathlib.Path(torichk.__file__).parent / "verify.py")
                     .read_text(encoding="utf-8"))
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called.count("_rng_for") == 1
    assert called.count("_report") + called.count("ResidualReport") == 1


def test_the_chart_stencils_have_one_newton_call():
    # every chart stencil is solved through one helper: a second copy of the
    # broadcast, flatten, solve and reshape glue would call _newton again
    tree = ast.parse((pathlib.Path(torichk.__file__).parent / "verify.py")
                     .read_text(encoding="utf-8"))
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called.count("_newton") == 1


def test_no_module_rebinds_a_global():
    # a value built once is cached with functools.cache, as the catalog,
    # DeformationMatrix.zero and the CLI parser are; no module rebinds a global
    globals_ = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global))
    assert globals_ == []


def test_every_reexport_is_public_in_its_module():
    # torichk re-exports a name of a module with an __all__ only if that
    # __all__ lists it
    tree = ast.parse(pathlib.Path(torichk.__file__).read_text(encoding="utf-8"))
    unlisted = sorted(
        f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in getattr(importlib.import_module(f"torichk.{node.module}"),
                                     "__all__", [alias.name]))
    assert unlisted == []


def test_no_module_starts_threads_or_processes():
    # torichk is a single-process tool: to use more cores, run more processes
    banned = {"threading", "concurrent", "multiprocessing", "_thread"}
    imports = sorted(
        f"{path.name}:{node.lineno}:{name}"
        for path in sorted(pathlib.Path(torichk.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if name.split(".")[0] in banned)
    assert imports == []


def test_every_third_party_import_of_the_tests_is_declared():
    # an environment built from .[test] must collect every test file: each
    # top-level module the tests import is the standard library, torichk,
    # or a distribution of dependencies or of the test extra
    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    imported = {name.split(".")[0]
                for path in sorted((root / "tests").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                             else [node.module] if isinstance(node, ast.ImportFrom)
                             and node.level == 0 else [])}
    third_party = imported - set(sys.stdlib_module_names) - {"torichk"}
    assert sorted(third_party - declared) == []
