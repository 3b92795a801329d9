"""Value response to coefficient shifts, with exact oracles where they exist."""

import numpy as np
import pytest

from phjb.checks import perturbed, stability_experiment
from phjb.paths import Path
from phjb.scenarios import eikonal, feedback, runmax
from phjb.value import value_dpp


def _points(sc):
    g0 = sc.initial
    g1 = Path(sc.space, sc.grid.step, np.tile(sc.initial.endpoint * 0.8, (3, 1)))
    return [g0, g1]


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_terminal_shift_moves_value_by_exactly_eps(build):
    sc = build()
    rep = stability_experiment(
        sc.coefficients, sc.grid, "phi_shift", (0.1, 0.05), _points(sc)
    )
    assert rep.passed
    for row in rep.rows:
        assert abs(row["gap"] - row["eps"]) <= 1e-9


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
def test_running_shift_scales_with_time_to_go(build):
    sc = build()
    rep = stability_experiment(
        sc.coefficients, sc.grid, "q_shift", (0.1, 0.02), _points(sc)
    )
    assert rep.passed
    for row in rep.rows:
        assert row["oracle"] == pytest.approx(row["eps"] * (1.0 - row["horizon"]))
        assert abs(row["gap"] - row["oracle"]) <= 1e-9


@pytest.mark.parametrize("build", [eikonal, feedback])
def test_drift_shift_within_gronwall_envelope_and_monotone(build):
    sc = build()
    rep = stability_experiment(
        sc.coefficients, sc.grid, "drift_shift", (0.1, 0.05, 0.025), _points(sc)
    )
    assert rep.passed
    assert rep.monotone_ok
    L, T = sc.coefficients.lipschitz_L, sc.grid.T
    for row in rep.rows:
        assert abs(row["gap"]) <= np.exp(L * T) * row["eps"] + 1e-9


def test_eikonal_drift_shift_from_origin_is_exact():
    # from the lattice x=0.5 the shifted optimum still parks on the lattice;
    # the +eps drift leaks eps*T into the terminal distance
    sc = eikonal()
    g = Path.constant(sc.space, sc.grid.step, np.array([0.5]), horizon=0.0)
    for eps in (0.1, 0.05):
        v0 = value_dpp(sc.coefficients, g, sc.grid)
        v1 = value_dpp(perturbed(sc.coefficients, "drift_shift", eps), g, sc.grid)
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
