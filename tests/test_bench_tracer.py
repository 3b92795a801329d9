"""The benchmark's span tracer finds every callable it wraps.

perfbench/spans.py names its targets by module and attribute path, so a
refactor that renames or moves one of them would break `run.py --trace 1`
only when that mode runs; these tests load the tracer by path, as
test_report_fingerprints.py loads run.py, and check it against the package.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path as FsPath

import pytest

from phjb import cli, dynamics
from phjb.checks import build_net
from phjb.config import load_config
from phjb.paths import Net
from phjb.scenarios import touching_points

BENCH = FsPath(__file__).resolve().parent.parent / "perfbench"
CONFIGS = BENCH.parent / "configs"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    for name, modname, attr in spans.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert isinstance(cls, type), name
            # install() wraps the method where the class itself defines it
            assert callable(vars(cls).get(meth)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_installed_tracer_records_a_run_and_uninstall_restores(spans):
    original = dynamics.step_once
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dynamics.step_once is not original
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.execute(str(CONFIGS / "eikonal.json"), checks=("value",), grid=4, seed=0)
    finally:
        tracer.uninstall()
    assert code == 0
    assert dynamics.step_once is original
    names = {span[1] for span in tracer.spans}
    assert {"cli.execute", "value.ValueTable", "value.entry", "dynamics.step_once"} <= names
    _, _, memos = tracer.take_pass()
    assert len(memos) == 1 and memos[0][1] > 0


def test_net_counts_are_the_sizes_of_the_nets(spans):
    """`checks.net_paths` counts each net built once and the scanned paths
    behind `checks.viscosity_check.us_per_net_path` count it once a side,
    both by the length of the `Net` that build_net returns."""
    sc = load_config(str(CONFIGS / "runmax.json"), grid_steps=4, seed=0).scenario
    nets = [build_net(sc.coefficients, tp.point, sc.grid, seed=0) for tp in touching_points(sc)]
    assert nets and all(isinstance(net, Net) for net in nets)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.execute(str(CONFIGS / "runmax.json"), checks=("viscosity",), grid=4, seed=0)
    finally:
        tracer.uninstall()
    assert code == 0
    run_spans, side, memos = tracer.take_pass()
    total = sum(map(len, nets))
    assert side["net_paths"] == total and side["scanned_paths"] == 2 * total
    metrics = spans.aggregate(run_spans, side, memos, {None: ("viscosity", "certify")}, ("certify",))
    assert metrics["checks.build_net.calls"][0] == len(nets)
    assert metrics["checks.net_paths"][0] == total
    per_path = metrics["checks.viscosity_check.us_per_net_path"][0]
    assert per_path == pytest.approx(1e6 * metrics["checks.viscosity_check.s"][0] / (2 * total))
