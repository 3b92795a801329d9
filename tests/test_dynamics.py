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
    step_level,
    step_once,
    validate_hypothesis,
    verify_state_estimates,
)
from phjb.checks import perturbed
from phjb.paths import Path, TimeGrid
from phjb.scenarios import eikonal, feedback, runmax

from conftest import make_space, random_path


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


# level stepping ----------------------------------------------------------


def _decaying_coeffs():
    return Coefficients(
        name="decaying",
        control_set=(-1.0, 0.0, 1.0),
        drift=lambda g, u: np.array(
            [u, -np.sin(g.endpoint[0]), 0.5 * np.tanh(g.endpoint[2]) - u]
        ),
        running_cost=lambda g, u: 0.0,
        terminal_cost=lambda g: 0.0,
        lipschitz_L=2.0,
    )


def _level_case(name):
    """(coefficients, space, step) of one stepping case."""
    if name == "decaying":
        return _decaying_coeffs(), make_space([-0.5, -2.0, -4.5]), 0.125
    if name == "feedback+F":
        sc = feedback()
        return perturbed(sc.coefficients, "drift_shift", 0.3), sc.space, sc.grid.step
    sc = {"eikonal": eikonal, "runmax": runmax, "feedback": feedback}[name]()
    return sc.coefficients, sc.space, sc.grid.step


@pytest.mark.parametrize("name", ["eikonal", "runmax", "feedback", "decaying", "feedback+F"])
@pytest.mark.parametrize("n_prefixes", [1, 5])
def test_level_children_equal_step_once_bit_for_bit(name, n_prefixes):
    c, space, step = _level_case(name)
    rng = np.random.default_rng(11)
    prefixes = [
        random_path(rng, space, step=step, min_nodes=3, max_nodes=3)
        for _ in range(n_prefixes)
    ]
    before = [p.samples.copy() for p in prefixes]
    children = step_level(c, prefixes, c.control_set)
    expected = [step_once(c, p, u) for p in prefixes for u in c.control_set]
    assert len(children) == len(expected) == n_prefixes * len(c.control_set)
    for child, want in zip(children, expected):
        assert child.samples.tobytes() == want.samples.tobytes()
        assert child.space is want.space and child.step == want.step
        assert child.samples.shape == want.samples.shape
        assert not child.samples.flags.writeable
        with pytest.raises(ValueError):
            child.samples[0, 0] = 1.0
    for p, old in zip(prefixes, before):
        assert p.samples.tobytes() == old.tobytes()


def _spoiled(spoil):
    """2-D coefficients whose drift is spoil(g, u) wherever that is not None."""

    def drift(g, u):
        out = spoil(g, u)
        return np.array([u, -0.5 * float(g.endpoint[1])]) if out is None else out

    return _const_coeffs(2, drift)


def _starts_at(g, x):
    return float(g.samples[0, 0]) == x


# each spoils the middle prefix, which starts at 1.5e308, under control 1
_SPOILS = {
    "shape": lambda g, u: np.zeros(3) if _starts_at(g, 1.5e308) and u == 1.0 else None,
    # the predictor of the middle prefix refuses first in child order, although
    # the last prefix's own drift, which a block computes earlier, refuses too
    "non-finite": lambda g, u: (
        np.array([np.nan, 0.0])
        if (_starts_at(g, 1.5e308) and g.n_nodes == 4 and u == 1.0)
        or (_starts_at(g, 0.3) and g.n_nodes == 3 and u == 0.0)
        else None
    ),
    # x + h f = 1.5e308 + 0.25 * 1.5e308 overflows
    "predictor": lambda g, u: (
        np.array([1.5e308, 0.0]) if _starts_at(g, 1.5e308) and u == 1.0 else None
    ),
    # the predictor 1.75e308 is finite; the corrected sample overflows
    "sample": lambda g, u: (
        np.array([1e308, 0.0]) if _starts_at(g, 1.5e308) and u == 1.0 else None
    ),
}


@pytest.mark.parametrize("kind", sorted(_SPOILS))
def test_level_refusals_are_those_of_the_scalar_stepper(kind):
    c = _spoiled(_SPOILS[kind])
    space = make_space([0.0, 0.0])
    prefixes = [
        Path.constant(space, 0.25, np.array([x, 0.0]), horizon=0.5)
        for x in (0.1, 1.5e308, 0.3)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as scalar:
            [step_once(c, p, u) for p in prefixes for u in c.control_set]
        with pytest.raises(ValueError) as level:
            step_level(c, prefixes, c.control_set)
    assert str(level.value) == str(scalar.value)


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
