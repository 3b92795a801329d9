"""Reports stay byte-identical beyond the benchmark's cells: every shipped
config, each check alone, at grids 1, 2, 3, 4, 6 and 8 and seed 0, each
sampling check (the checks of the benchmark's `sample` workload) also at
grids 5, 7, 12 and 16, the checks that solve trajectories from many start
node counts, and bp, whose anchors gauge the net's node-count groups, at
every grid from 9 to 15 and at grid 16 under seeds 3 and 7, the two
certificate checks, which scan nets at touching points, on eikonal and
runmax at grids 5, 7 and 9 to 16, and on runmax at grid 16 under seeds 3
and 7, classical, whose kink flags are read off finite differences, on
eikonal and runmax at every grid from 9 to 15, the checks that read the
value recursion and its DPP enumeration (value, dpp and regularity) on every
config at grids 5, 7 and 9 to 11, except feedback regularity, pinned at
grids 5, 7 and 9 only, plus dpp on every config at grids 12 to 16, where
its enumeration is largest (12 to 14) or refused by the budget (13 to 16),
plus feedback stability at grids 5, 7 and 9 to 11, plus one feedback run whose small budget turns two checks into budget
records, plus regularity on eikonal and runmax at grid 8 under seeds 3
and 7, plus runmax viscosity at grid 8 under a budget that the memo runs
out of partway through the touching points' nets, one eikonal run at
grid 4 whose budget turns regularity and viscosity into budget records,
and the default run of every shipped config (every check it lists, on one
shared value table) at grids 4 and 8, where a check reads the memo that the
checks before it filled.
Each cell pins its exit code and the sha256 of its JSON report
(without the timestamp subtree) and of its CSV report, or the type and
message of what it raised. A cell at a seed other than 0 names its seed.

Re-record the digests with

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path as FsPath

import pytest

from phjb.cli import execute

ROOT = FsPath(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DIGESTS = FsPath(__file__).resolve().parent / "report_digests.json"

CHECKS = (
    "hypothesis", "estimates", "value", "dpp", "regularity", "ito",
    "gauge", "viscosity", "classical", "stability", "bp",
)
GRIDS = (1, 2, 3, 4, 6, 8)
# the checks that draw random paths and read no value table, and the grids
# past 8 where their blocks are larger
SAMPLING_CHECKS = ("hypothesis", "estimates", "ito", "gauge", "classical", "bp")
SAMPLING_GRIDS = (5, 7, 12, 16)
# the checks whose trajectories start at many node counts, and bp, whose
# anchors read the net from many node counts: the grids between 8 and 16 and
# the seeds past 0 where they are also pinned
SOLVING_CHECKS = ("estimates", "ito", "gauge", "bp")
SOLVING_GRIDS = (9, 10, 11, 13, 14, 15)
SOLVING_SEEDS = (3, 7)
# the checks that scan a net at each touching point, the configs that have
# touching points, and the grids past 4 and seeds past 0 where they are also
# pinned (feedback has no touching points: its config refuses viscosity)
CERTIFICATE_CHECKS = ("viscosity", "stability")
CERTIFICATE_GRIDS = (5, 7, 9, 10, 11, 12, 13, 14, 15, 16)
CERTIFICATE_SEEDS = (3, 7)
# the grids between 8 and 16 where classical, whose kink flags are read off
# finite differences, is also pinned on the configs with a classical candidate
CLASSICAL_GRIDS = (9, 10, 11, 13, 14, 15)
# the checks that read the value recursion and its DPP enumeration, and the
# grids past 4 where they are also pinned on every config; feedback, whose
# memo key rarely repeats, pins regularity (2.6 s at grids 10-11) only at
# the first three of them, and pins stability, which has no certificate cells
# there, at all of them
VALUE_CHECKS = ("value", "dpp", "regularity")
VALUE_GRIDS = (5, 7, 9, 10, 11)
FEEDBACK_VALUE_GRIDS = {**dict.fromkeys(VALUE_CHECKS, VALUE_GRIDS), "regularity": VALUE_GRIDS[:3], "stability": VALUE_GRIDS}
# the grids past 11 where dpp is also pinned on every config: 12 to 14 hold
# its largest enumerations, and 13 to 16 its budget refusals
DPP_GRIDS = (12, 13, 14, 15, 16)
# feedback with a memo budget that dpp and regularity run out of
BUDGET_DOC = {"budget": 50, "checks": ["value", "dpp", "regularity", "stability"]}
# the seeds past 0 where regularity, which values its samples, their bumps
# and their extensions together, is also pinned at grid 8
REGULARITY_SEEDS = (3, 7)
# runmax with a memo budget that runs out partway through the nets of its
# touching points at grid 8, and eikonal with one that regularity and
# viscosity run out of at grid 4
RUNMAX_BUDGET = 4000
EIKONAL_BUDGET = 300
# the grids where the default run of every config is pinned
RUN_GRIDS = (4, 8)


def _cells() -> list:
    """(label, config document, checks, grid, seed) for each cell."""
    cells = []
    for name in ("eikonal", "runmax", "feedback"):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        cells += [(f"{name}@{g}/{c}", doc, (c,), g, 0) for c in CHECKS for g in GRIDS]
        cells += [(f"{name}@{g}/{c}", doc, (c,), g, 0) for c in SAMPLING_CHECKS for g in SAMPLING_GRIDS]
        cells += [(f"{name}@{g}/{c}", doc, (c,), g, 0) for c in SOLVING_CHECKS for g in SOLVING_GRIDS]
        cells += [(f"{name}@16/{c}/seed{s}", doc, (c,), 16, s) for c in SOLVING_CHECKS for s in SOLVING_SEEDS]
        value_grids = FEEDBACK_VALUE_GRIDS if name == "feedback" else dict.fromkeys(VALUE_CHECKS, VALUE_GRIDS)
        cells += [(f"{name}@{g}/{c}", doc, (c,), g, 0) for c, grids in value_grids.items() for g in grids]
        cells += [(f"{name}@{g}/dpp", doc, ("dpp",), g, 0) for g in DPP_GRIDS]
    for name in ("eikonal", "runmax"):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        cells += [(f"{name}@{g}/{c}", doc, (c,), g, 0) for c in CERTIFICATE_CHECKS for g in CERTIFICATE_GRIDS]
        cells += [(f"{name}@{g}/classical", doc, ("classical",), g, 0) for g in CLASSICAL_GRIDS]
    cells += [(f"runmax@16/{c}/seed{s}", doc, (c,), 16, s) for c in CERTIFICATE_CHECKS for s in CERTIFICATE_SEEDS]
    cells.append((f"runmax@8/viscosity/budget-{RUNMAX_BUDGET}", {**doc, "budget": RUNMAX_BUDGET}, ("viscosity",), 8, 0))
    for name in ("eikonal", "runmax"):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        cells += [(f"{name}@8/regularity/seed{s}", doc, ("regularity",), 8, s) for s in REGULARITY_SEEDS]
    doc = {**json.loads((CONFIGS / "eikonal.json").read_text()), "budget": EIKONAL_BUDGET}
    cells.append((f"eikonal@4/budget-{EIKONAL_BUDGET}", doc, None, 4, 0))
    doc = {**json.loads((CONFIGS / "feedback.json").read_text()), **BUDGET_DOC}
    cells.append(("feedback@4/budget-50", doc, None, 4, 0))
    for name in ("eikonal", "runmax", "feedback"):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        cells += [(f"{name}@{g}/run", doc, None, g, 0) for g in RUN_GRIDS]
    return cells


def _digest(doc, checks, grid, seed, fmt, tmp) -> dict:
    path = tmp / "cfg.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = execute(str(path), checks=checks, grid=grid, seed=seed, fmt=fmt)
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}"}
    text = out.getvalue()
    if fmt == "json" and text:
        payload = json.loads(text)
        payload.pop("timestamp")
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return {"exit": code, fmt: hashlib.sha256(text.encode()).hexdigest()}


def _cell_digest(doc, checks, grid, seed, tmp) -> dict:
    as_json = _digest(doc, checks, grid, seed, "json", tmp)
    if "raised" in as_json:
        return as_json
    return {**as_json, **_digest(doc, checks, grid, seed, "csv", tmp)}


_CELLS = _cells()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("label, doc, checks, grid, seed", _CELLS, ids=[c[0] for c in _CELLS])
def test_report_bytes_match_the_recorded_digest(recorded, tmp_path, label, doc, checks, grid, seed):
    assert _cell_digest(doc, checks, grid, seed, tmp_path) == recorded[label]


def test_every_cell_is_recorded(recorded):
    assert sorted(recorded) == sorted(c[0] for c in _CELLS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        table = {label: _cell_digest(*cell, FsPath(d)) for label, *cell in _CELLS}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    codes = [v.get("exit", "raised") for v in table.values()]
    print({c: codes.count(c) for c in set(codes)}, file=sys.stderr)
