"""Integrator and hypothesis-validation tests.

Closed-form oracles: the free flow (F = 0) is the semigroup; with zero
generator and constant drift the scheme integrates exactly; the scalar
linear problem X' = -X + 1 has X(t) = 1 - e^{-t} from zero.
"""

import numpy as np
import pytest

from phjb.dynamics import (
    Coefficients,
    ControlSignal,
    mild_solve,
    random_prefix,
    step_once,
    validate_hypothesis,
    verify_state_estimates,
)
from phjb.paths import Path, TimeGrid
from phjb.scenarios import eikonal, feedback, runmax

from conftest import make_space


def _const_coeffs(dim, drift, name="test", L=2.0, q=None, phi=None):
    return Coefficients(
        name=name,
        control_set=(0.0, 1.0),
        drift=drift,
        running_cost=q or (lambda g, u: 0.0),
        terminal_cost=phi or (lambda g: 0.0),
        lipschitz_L=L,
    )


# integrator oracles ----------------------------------------------------


def test_zero_drift_reproduces_semigroup():
    space = make_space([-2.0, -0.5])
    c = _const_coeffs(2, lambda g, u: np.zeros(2))
    x0 = np.array([1.0, -3.0])
    g = Path.constant(space, 0.125, x0, horizon=0.0)
    u = ControlSignal.constant(0.0, 0.0, 1.0, 0.125)
    X = mild_solve(c, g, u)
    for k, t in enumerate(X.times):
        expected = x0 * np.exp(space.eigenvalues * t)
        assert np.allclose(X.samples[k], expected, atol=1e-12, rtol=0.0)


def test_flat_space_constant_drift_is_exact():
    space = make_space([0.0])
    c = _const_coeffs(1, lambda g, u: np.array([0.75]))
    g = Path.constant(space, 0.25, np.array([0.5]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, 0.25)
    X = mild_solve(c, g, u)
    for k, t in enumerate(X.times):
        assert X.samples[k, 0] == pytest.approx(0.5 + 0.75 * t, abs=1e-13)


def test_linear_ode_value_at_horizon():
    # X' = -X + 1 from 0: X(1) = 1 - e^{-1}, within 1e-3 at step 1/64
    space = make_space([-1.0])
    c = _const_coeffs(1, lambda g, u: np.array([u]))
    h = 1.0 / 64
    g = Path.constant(space, h, np.array([0.0]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, h)
    X = mild_solve(c, g, u)
    assert abs(X.endpoint[0] - (1.0 - np.exp(-1.0))) < 1e-3


def test_integrator_refinement_rate_is_second_order():
    space = make_space([-1.0])
    c = _const_coeffs(1, lambda g, u: np.array([np.cos(float(g.endpoint[0]))]))
    errs = []
    # reference at a much finer grid stands in for the true solution
    ref = None
    for n in (512, 16, 32, 64):
        h = 1.0 / n
        g = Path.constant(space, h, np.array([0.2]), horizon=0.0)
        u = ControlSignal.constant(1.0, 0.0, 1.0, h)
        end = mild_solve(c, g, u).endpoint[0]
        if ref is None:
            ref = end
        else:
            errs.append(abs(end - ref))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(rates) > 1.8


def test_flow_property_is_bit_exact():
    space = make_space([-1.5, -0.25])
    c = _const_coeffs(2, lambda g, u: np.array([u, -float(g.endpoint[0])]))
    g = Path.constant(space, 0.125, np.array([0.4, -0.2]), horizon=0.0)
    whole = mild_solve(c, g, ControlSignal.constant(1.0, 0.0, 1.0, 0.125))
    half = mild_solve(c, g, ControlSignal.constant(1.0, 0.0, 0.5, 0.125))
    glued = mild_solve(c, half, ControlSignal.constant(1.0, 0.5, 1.0, 0.125))
    assert np.array_equal(whole.samples, glued.samples)


def test_stepped_path_is_read_only_and_keeps_its_prefix():
    space = make_space([-1.5, -0.25])
    c = _const_coeffs(2, lambda g, u: np.array([u, -float(g.endpoint[0])]))
    g = mild_solve(
        c,
        Path.constant(space, 0.125, np.array([0.4, -0.2]), horizon=0.0),
        ControlSignal.constant(1.0, 0.0, 0.5, 0.125),
    )
    nxt = step_once(c, g, 0.0)
    assert nxt.samples.shape == (g.n_nodes + 1, 2)
    assert nxt.samples.dtype == np.float64
    assert not nxt.samples.flags.writeable
    assert np.array_equal(nxt.samples[: g.n_nodes], g.samples)
    with pytest.raises(ValueError):
        nxt.samples[0, 0] = 1.0


def test_finite_drift_that_overflows_the_sample_is_refused():
    space = make_space([0.0])
    c = _const_coeffs(1, lambda g, u: np.array([1e308]))
    g = Path.constant(space, 0.25, np.array([1e308]), horizon=0.0)
    # the predictor 1.25e308 is finite; the corrected sample overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        step_once(c, g, 0.0)


def test_step_alignment_rejected():
    space = make_space([0.0])
    c = _const_coeffs(1, lambda g, u: np.zeros(1))
    g = Path.constant(space, 0.25, np.array([0.0]), horizon=0.25)
    with pytest.raises(ValueError):
        mild_solve(c, g, ControlSignal.constant(0.0, 0.5, 1.0, 0.25))


def test_drift_shape_and_finiteness_diagnostics():
    space = make_space([0.0, 0.0])
    bad_shape = _const_coeffs(2, lambda g, u: np.zeros(3))
    g = Path.constant(space, 0.25, np.zeros(2), horizon=0.0)
    with pytest.raises(ValueError, match="shape"):
        step_once(bad_shape, g, 0.0)
    bad_nan = _const_coeffs(2, lambda g, u: np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        step_once(bad_nan, g, 0.0)


def test_control_signal_constant_end():
    u = ControlSignal.constant(1.0, 0.25, 1.0, 0.25)
    assert u.values == (1.0, 1.0, 1.0)
    assert u.end == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ControlSignal.constant(1.0, 0.0, 1.0, 0.3)


def test_random_prefix_respects_grid():
    rng = np.random.default_rng(0)
    space = make_space([-1.0, 0.0])
    grid = TimeGrid(1.0, 0.25)
    for _ in range(50):
        g = random_prefix(rng, space, grid)
        assert 1 <= g.n_nodes <= grid.n_steps + 1
        assert g.step == grid.step


# hypothesis validation -------------------------------------------------


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
def test_scenarios_satisfy_growth_and_lipschitz(build):
    sc = build()
    rep = validate_hypothesis(sc.coefficients, sc.space, sc.grid, n_pairs=150, seed=7)
    assert rep.passed, rep.ratios


def test_understated_constant_is_caught():
    sc = feedback()
    from dataclasses import replace

    weak = replace(sc.coefficients, lipschitz_L=0.4)
    rep = validate_hypothesis(weak, sc.space, sc.grid, n_pairs=100, seed=7)
    assert not rep.passed
    name, ratio = rep.worst()
    assert ratio > 1.0


def test_hypothesis_report_is_seed_stable():
    sc = eikonal()
    a = validate_hypothesis(sc.coefficients, sc.space, sc.grid, n_pairs=60, seed=3)
    b = validate_hypothesis(sc.coefficients, sc.space, sc.grid, n_pairs=60, seed=3)
    assert a.ratios == b.ratios


# solution-map estimates ------------------------------------------------


@pytest.mark.parametrize("build", [eikonal, feedback])
def test_state_estimates_within_gronwall(build):
    sc = build()
    rep = verify_state_estimates(sc.coefficients, sc.space, sc.grid, n_samples=80, seed=1)
    assert rep.passed, rep.constants
    assert all(np.isfinite(v) for v in rep.constants.values())


def test_state_estimates_on_decaying_space():
    space = make_space([-3.0, -1.0])
    c = _const_coeffs(2, lambda g, u: np.array([u, 0.5 * np.tanh(float(g.endpoint[1]))]))
    rep = verify_state_estimates(c, space, TimeGrid(1.0, 0.125), n_samples=60, seed=2)
    assert rep.constants["lip_initial"] <= 1.05 * rep.gronwall_bound
