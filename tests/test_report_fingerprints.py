"""Reports stay byte-identical: one benchmark pass per workload is hashed and
compared with the fingerprint recorded in perfbench/baseline.json, so a
refactor that changes any number in any report fails here."""

import importlib.util
import json
import sys
from pathlib import Path as FsPath

import pytest

from phjb.cli import execute

BENCH = FsPath(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, seed",
    [
        pytest.param("sample", 0, id="sample"),
        # a second seed's draws, since the bp pair gauges are grouped by node count
        pytest.param("sample", 7, id="sample-seed7"),
        pytest.param("tree-certify", 0, id="tree-certify"),
        # a second seed's nets, since the value recursion orders its work by node count
        pytest.param("tree-certify", 7, id="tree-certify-seed7"),
    ],
)
def test_reports_match_the_recorded_fingerprint(bench, workload, seed):
    recorded = json.loads((BENCH / "baseline.json").read_text())
    _, cells = bench.run_pass(execute, bench.cells_of(workload), seed)
    assert bench.fingerprint(cells) == recorded["fingerprints"][workload][str(seed)]
