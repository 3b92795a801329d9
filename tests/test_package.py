"""Package surface: every exported name resolves, one rule refuses a
block, and every definition has a caller in the package."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
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


def _nodes_by_function():
    """(module, name of the innermost enclosing function or None, node) for
    every syntax node of every `phjb` module."""
    for name in MODULES:
        todo = [(ast.parse(inspect.getsource(importlib.import_module(name))), None)]
        while todo:
            node, fn = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            yield name, fn, node
            todo += [(child, fn) for child in ast.iter_child_nodes(node)]


def test_only_group_rows_catches_a_refusal():
    """`paths.Refused` is caught in `paths.group_rows` alone, which runs a
    refused block again path by path; every other reader, `dynamics.step_rows`
    among them, lets a refusal through as it is."""
    catchers = {
        (name, fn)
        for name, fn, node in _nodes_by_function()
        if isinstance(node, ast.ExceptHandler) and node.type is not None and "Refused" in ast.unparse(node.type)
    }
    assert catchers == {("phjb.paths", "group_rows")}


def test_no_reader_branches_on_a_net():
    """A `paths.Net` is the one collection of paths that every block reader
    takes, and `Net.of` the one place where a list of paths becomes one: no
    module asks whether it was given a net, but `viscosity_check`, which
    refuses anything else, and `phjb.paths` groups no list by node count."""
    branches = {
        (name, fn)
        for name, fn, node in _nodes_by_function()
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
        and re.search(r"\bNet\b", ast.unparse(node.args[1]))
    }
    assert branches == {("phjb.checks", "viscosity_check")}
    paths = importlib.import_module("phjb.paths")
    assert not hasattr(paths, "node_count_groups") and not hasattr(paths, "group_protos")


def test_only_a_net_groups_blocks_by_node_count():
    """`paths._grouped` is called once, inside `Net.__init__`: a net groups
    its blocks when it is made, and every other reader prices its own blocks
    through `group_rows` as they are."""
    callers = [
        (name, fn)
        for name, fn, node in _nodes_by_function()
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_grouped"
    ]
    assert callers == [("phjb.paths", "__init__")]
    paths = importlib.import_module("phjb.paths")
    assert "_grouped(" in inspect.getsource(paths.Net.__init__)


def test_the_config_names_no_perturbation_kind():
    """The perturbation kinds are stated once, in `checks.PERTURBATIONS`,
    which `phjb.config` validates against: no tuple, list, set or dict
    literal there names a kind."""
    kinds = set(importlib.import_module("phjb.checks").PERTURBATIONS)
    tree = ast.parse(inspect.getsource(importlib.import_module("phjb.config")))
    named = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict))
        and any(isinstance(c, ast.Constant) and c.value in kinds for c in ast.walk(node))
    ]
    assert not named


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
