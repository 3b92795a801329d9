"""Package surface: every exported name resolves, one rule refuses a
block, and every definition has a caller in the package."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path as FsPath

import pytest

import phjb

MODULES = sorted(m.name for m in pkgutil.iter_modules(phjb.__path__, "phjb."))


def test_every_module_is_listed():
    assert "phjb.value" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_only_group_rows_catches_a_refusal():
    """`paths.Refused` is caught in `paths.group_rows` alone, which runs a
    refused block again path by path; every other reader, `dynamics.step_rows`
    among them, lets a refusal through as it is."""
    catchers = set()
    for name in MODULES:
        todo = [(ast.parse(inspect.getsource(importlib.import_module(name))), None)]
        while todo:
            node, fn = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "Refused" in ast.unparse(node.type):
                    catchers.add((name, fn))
            todo += [(child, fn) for child in ast.iter_child_nodes(node)]
    assert catchers == {("phjb.paths", "group_rows")}


def test_the_command_line_holds_no_check_logic():
    """`phjb.cli` defines only `execute` and the click plumbing, imports no
    numpy, and builds a `CheckRecord` only for a check that ran out of
    budget; every other record is built by its check."""
    tree = ast.parse(inspect.getsource(importlib.import_module("phjb.cli")))
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert defined == {"execute", "_common", "main", "_command"}
    imported = {
        alias.name for n in ast.walk(tree) if isinstance(n, ast.Import) for alias in n.names
    } | {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not any(m and m.split(".")[0] == "numpy" for m in imported)
    builders = []
    todo = [(tree, ())]
    while todo:
        node, where = todo.pop()
        if isinstance(node, ast.FunctionDef):
            where += (node.name,)
        if isinstance(node, ast.ExceptHandler):
            where += (ast.unparse(node.type),)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "CheckRecord":
            builders.append(where)
        todo += [(child, where) for child in ast.iter_child_nodes(node)]
    assert builders == [("execute", "BudgetExceeded")]


def _traced_names() -> set:
    """The function, class and method names that perfbench/spans.py traces,
    its TARGETS loaded by path as test_bench_tracer.py loads them."""
    path = FsPath(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr.split(".")[-1] for _, _, attr in spans.TARGETS}


def test_every_src_function_has_a_src_caller():
    """Every function, class and method that `phjb` defines (dunders
    aside) is named somewhere in the package outside its own definition,
    unless the benchmark's tracer wraps it or it is the `phjb` command's
    entry point, `cli.main`; one-path forms that only tests call live in
    tests/conftest.py. Names are matched by spelling: a load of a name or
    an attribute counts, an import or an `__all__` entry does not."""
    defined = []  # (module, definition node)
    refs = []  # (name, the definition nodes it sits in)
    for name in MODULES:
        todo = [(ast.parse(inspect.getsource(importlib.import_module(name))), ())]
        while todo:
            node, inside = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((name, node))
                inside += (node,)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, inside))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.append((node.attr, inside))
            todo += [(child, inside) for child in ast.iter_child_nodes(node)]
    exempt = _traced_names() | {"main"}
    uncalled = sorted(
        f"{module}.{node.name}"
        for module, node in defined
        if node.name not in exempt
        and not any(ref == node.name and node not in inside for ref, inside in refs)
    )
    assert uncalled == []
