"""Package surface: every exported name resolves, and one rule refuses a
block."""

import ast
import importlib
import inspect
import pkgutil

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
