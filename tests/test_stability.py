"""Value response to coefficient shifts, with exact oracles where they exist."""

from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from phjb import checks
from phjb.checks import PERTURBATIONS, perturbed, stability_experiment
from phjb.config import load_config
from phjb.paths import Net, Path
from phjb.scenarios import eikonal, feedback, runmax
from phjb.value import ValueTable

from conftest import random_prefix

CONFIGS = sorted((FsPath(__file__).resolve().parent.parent / "configs").glob("*.json"))


def _table(sc):
    return ValueTable(sc.coefficients, sc.grid)


def _points(sc):
    g0 = sc.initial
    g1 = Path(sc.space, sc.grid.step, np.tile(sc.initial.endpoint * 0.8, (3, 1)))
    return [g0, g1]


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_terminal_shift_moves_value_by_exactly_eps(build):
    sc = build()
    rep = stability_experiment(_table(sc), "phi_shift", (0.1, 0.05), _points(sc))
    assert rep.passed
    for row in rep.rows:
        assert abs(row["gap"] - row["eps"]) <= 1e-9


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
def test_running_shift_scales_with_time_to_go(build):
    sc = build()
    rep = stability_experiment(_table(sc), "q_shift", (0.1, 0.02), _points(sc))
    assert rep.passed
    for row in rep.rows:
        assert row["oracle"] == pytest.approx(row["eps"] * (1.0 - row["horizon"]))
        assert abs(row["gap"] - row["oracle"]) <= 1e-9


@pytest.mark.parametrize("build", [eikonal, feedback])
def test_drift_shift_within_gronwall_envelope_and_monotone(build):
    sc = build()
    rep = stability_experiment(
        _table(sc), "drift_shift", (0.1, 0.05, 0.025), _points(sc)
    )
    assert rep.passed
    assert rep.summary["monotone_ok"]
    L, T = sc.coefficients.lipschitz_L, sc.grid.T
    for row in rep.rows:
        assert abs(row["gap"]) <= np.exp(L * T) * row["eps"] + 1e-9


def test_eikonal_drift_shift_from_origin_is_exact():
    # from the lattice x=0.5 the shifted optimum still parks on the lattice;
    # the +eps drift leaks eps*T into the terminal distance
    sc = eikonal()
    g = Path.constant(sc.space, sc.grid.step, np.array([0.5]), horizon=0.0)
    for eps in (0.1, 0.05):
        v0 = _table(sc).value(g)
        v1 = ValueTable(perturbed(sc.coefficients, "drift_shift", eps), sc.grid).value(g)
        assert v1 - v0 == pytest.approx(eps * sc.grid.T, abs=1e-12)


def test_perturbed_declares_enlarged_constant():
    sc = runmax()
    for kind in ("phi_shift", "q_shift", "drift_shift"):
        p = perturbed(sc.coefficients, kind, 0.25)
        assert p.lipschitz_L == sc.coefficients.lipschitz_L + 0.25
        assert p.name != sc.coefficients.name


def test_unknown_perturbation_kind_rejected():
    sc = eikonal()
    with pytest.raises(ValueError):
        perturbed(sc.coefficients, "noise", 0.1)


def test_each_table_values_the_points_in_one_call(monkeypatch):
    tables = []
    values = ValueTable.values

    def counting(self, paths):
        tables.append(self)
        return values(self, paths)

    monkeypatch.setattr(ValueTable, "values", counting)
    monkeypatch.setattr(ValueTable, "entry", None)  # no path is valued alone
    sc = feedback()
    base = _table(sc)
    rep = stability_experiment(base, "q_shift", (0.1, 0.02), _points(sc))
    assert rep.passed
    assert len(tables) == 3 and tables[0] is base and len(set(map(id, tables))) == 3


def _row_by_row(base_table, kind, epsilons, points, *, tol=1e-9):
    """`stability_experiment` as a loop over its rows, with the gaps in a
    dict keyed by (point, eps) and a branch on kind for every row: the
    reference that the one (eps, point) array pass must reproduce."""
    coeffs, grid = base_table.c, base_table.grid
    epsilons = tuple(float(e) for e in epsilons)
    rows = []
    ok = True
    gaps = {}
    net = Net.of(points)
    base = base_table.values(net).tolist()
    for eps in epsilons:
        table = ValueTable(checks.perturbed(coeffs, kind, eps), grid, budget=base_table.budget)
        for i, (g, v0, v1) in enumerate(zip(points, base, table.values(net).tolist())):
            gap = v1 - v0
            gaps[(i, eps)] = gap
            row = {"eps": eps, "point": i, "gap": gap, "horizon": g.horizon}
            if kind == "phi_shift":
                row["oracle"] = eps
                row["ok"] = abs(gap - eps) <= tol
            elif kind == "q_shift":
                row["oracle"] = eps * (grid.T - g.horizon)
                row["ok"] = abs(gap - row["oracle"]) <= tol
            else:
                row["bound"] = float(np.exp(coeffs.lipschitz_L * grid.T)) * eps
                row["ok"] = abs(gap) <= row["bound"] + tol
            ok = ok and row["ok"]
            rows.append(row)
    monotone_ok = True
    if kind == "drift_shift":
        order = sorted(epsilons, reverse=True)
        for i in range(len(points)):
            for big, small in zip(order, order[1:]):
                if abs(gaps[(i, small)]) > abs(gaps[(i, big)]) + tol:
                    monotone_ok = False
    return rows, {"kind": kind, "monotone_ok": monotone_ok}, ok and monotone_ok


def _same(a, b) -> bool:
    """Equal with ==, of one type, NaN equal to NaN."""
    return type(a) is type(b) and (a == b or (isinstance(a, float) and np.isnan(a) and np.isnan(b)))


def _assert_as_row_by_row(rec, ref):
    rows, summary, passed = ref
    assert len(rec.rows) == len(rows)
    for row, want in zip(rec.rows, rows):
        assert list(row) == list(want)
        assert all(_same(row[key], want[key]) for key in want), (row, want)
    assert rec.summary == summary and type(rec.summary["monotone_ok"]) is bool
    assert rec.passed is passed


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("grid", range(2, 9))
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_the_array_pass_gives_the_rows_of_the_row_by_row_loop(path, grid, seed):
    """On every shipped config at grids 2-8, for each kind, at the config's
    initial path and three seeded random prefixes, the one array pass gives
    every row field, the summary and `passed` of the row-by-row loop."""
    cfg = load_config(str(path), grid_steps=grid, seed=seed)
    sc = cfg.scenario
    rng = np.random.default_rng(seed)
    points = [sc.initial] + [random_prefix(rng, sc.space, sc.grid) for _ in range(3)]
    table = ValueTable(sc.coefficients, sc.grid, budget=cfg.budget)
    for kind in PERTURBATIONS:
        rec = stability_experiment(table, kind, cfg.epsilons, points)
        _assert_as_row_by_row(rec, _row_by_row(table, kind, cfg.epsilons, points))


def test_a_nan_gap_fails_its_row_and_leaves_the_monotone_statistic(monkeypatch):
    """A shifted family whose value is NaN at one point, under a list of
    epsilons with a repeated value: the array pass gives the loop's rows,
    the NaN rows fail, and `monotone_ok` stays true, for every kind."""

    def nan_far_out(coeffs, kind, eps, shift=perturbed):
        p = shift(coeffs, kind, eps)
        return replace(p, terminal_cost=lambda S: np.where(S[:, -1, 0] > 5.0, np.nan, p.terminal_cost(S)))

    monkeypatch.setattr(checks, "perturbed", nan_far_out)
    sc = eikonal()
    far = Path(sc.space, sc.grid.step, np.full((sc.grid.n_steps + 1, 1), 6.0))  # at T, out of reach of the initial path
    points, epsilons = [sc.initial, far], (0.1, 0.05, 0.1, 0.025)
    table = _table(sc)
    for kind in PERTURBATIONS:
        rec = stability_experiment(table, kind, epsilons, points)
        _assert_as_row_by_row(rec, _row_by_row(table, kind, epsilons, points))
        assert [np.isnan(row["gap"]) for row in rec.rows] == [False, True] * len(epsilons)
        assert [row["ok"] for row in rec.rows] == [True, False] * len(epsilons)
        assert rec.summary["monotone_ok"] and not rec.passed
