"""Value response to coefficient shifts, with exact oracles where they exist."""

import numpy as np
import pytest

from phjb.checks import perturbed, stability_experiment
from phjb.paths import Path
from phjb.scenarios import eikonal, feedback, runmax
from phjb.value import ValueTable


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
