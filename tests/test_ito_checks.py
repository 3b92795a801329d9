"""Functional chain rule, gauge dissipation margins, classical residuals."""

from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from phjb import checks, dynamics
from phjb.checks import (
    GaugeMarginResult,
    classical_check,
    ito_residual,
    perturbed,
    upsilon_margin,
)
from phjb.config import load_config
from phjb.dynamics import Coefficients, ControlSignal, mild_solve
from phjb.gauge import eval_upsilon
from phjb.paths import Path, TimeGrid, extend_semigroup, row_dots
from phjb.scenarios import classical_candidate, eikonal, feedback, runmax
from phjb.testfn import TestFunctionPhi

from conftest import (
    control_column,
    grad_upsilon,
    make_space,
    out_of_block_order,
    random_prefix,
    row_value,
    row_vector,
    spoil_drift,
)

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"


def _coeffs(dim, drift, name="ito"):
    return Coefficients(
        name=name,
        control_set=(-1.0, 1.0),
        drift=drift,
        running_cost=lambda S, U: np.zeros(len(S)),
        terminal_cost=lambda S: np.zeros(len(S)),
        lipschitz_L=2.0,
    )


def _margin(c, M, g, eta, u) -> GaugeMarginResult:
    """The margin of one case."""
    return upsilon_margin(c, [(M, g, eta, u)])[0]


# functional chain rule --------------------------------------------------


def test_quadratic_flat_space_residual_is_machine_zero():
    space = make_space([0.0])
    c = _coeffs(1, lambda S, U: control_column(U))
    phi = TestFunctionPhi.quadratic_endpoint()
    g = Path.constant(space, 1.0 / 32, np.array([0.3]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, 1.0 / 32)
    (res,) = ito_residual(c, [phi], g, u)
    # endpoint is affine in t, so phi(X) is quadratic: trapezoid is exact
    assert abs(res.residual) <= 1e-12


def test_linear_flat_space_residual_is_machine_zero():
    space = make_space([0.0, 0.0])
    c = _coeffs(2, lambda S, U: np.stack([U, np.full(len(U), -0.5)], axis=1))
    phi = TestFunctionPhi.linear_endpoint(np.array([1.0, 2.0]))
    g = Path.constant(space, 0.125, np.array([0.1, -0.2]), horizon=0.0)
    u = ControlSignal.constant(-1.0, 0.0, 1.0, 0.125)
    (res,) = ito_residual(c, [phi], g, u)
    assert abs(res.residual) <= 1e-12


def test_linear_phi_with_generator_converges_at_second_order():
    space = make_space([-1.0, -0.3])
    c = _coeffs(2, lambda S, U: np.stack([U, S[:, -1, 0]], axis=1))
    phi = TestFunctionPhi.linear_endpoint(np.array([1.5, -0.7]))
    errs = []
    for n in (16, 32, 64):
        h = 1.0 / n
        g = Path.constant(space, h, np.array([0.4, 0.1]), horizon=0.0)
        u = ControlSignal.constant(1.0, 0.0, 1.0, h)
        errs.append(abs(ito_residual(c, [phi], g, u)[0].residual))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(rates) >= 1.8, (errs, rates)


def test_refuses_discontinuous_adjoint_gradient():
    space = make_space([-1.0])
    c = _coeffs(1, lambda S, U: control_column(U))
    phi = TestFunctionPhi(
        rows=lambda proto, S: S[:, -1, 0],
        dt=lambda proto, S: np.zeros(len(S)),
        dx=lambda proto, S: np.ones((len(S), 1)),
        a_star_dx_continuous=False,
    )
    g = Path.constant(space, 0.25, np.array([0.0]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="continuous"):
        ito_residual(c, [phi], g, u)


def test_ito_refuses_a_drift_of_the_wrong_shape_at_the_horizon():
    # the mild solve never reads the drift at the trajectory's last prefix;
    # the compensator reads it there as a one-row block
    space = make_space([-1.0])
    g = Path.constant(space, 0.25, np.array([0.4]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, 0.25)
    end = mild_solve(_coeffs(1, lambda S, U: -S[:, -1]), g, u).endpoint[0]
    c = _coeffs(
        1, lambda S, U: -S[:, -1] if S[0, -1, 0] != end else np.zeros((len(S), 2))
    )
    with pytest.raises(ValueError, match="drift returned shape"):
        ito_residual(c, [TestFunctionPhi.linear_endpoint(np.ones(1))], g, u)


@pytest.mark.parametrize("name", ["eikonal", "runmax", "feedback"])
def test_an_ito_cell_solves_each_grid_once(name, monkeypatch):
    """`ito_record` solves one trajectory on the grid and one on the grid at
    half its step, and reads both functionals along each: two `solve_rows`
    calls per cell, not one per functional and grid."""
    steps = []  # the step of each solve
    solve_rows = dynamics.solve_rows

    def counted(c, proto, B, first, signals):
        steps.append(proto.step)
        return solve_rows(c, proto, B, first, signals)

    monkeypatch.setattr(dynamics, "solve_rows", counted)
    cfg = load_config(str(CONFIGS / f"{name}.json"), grid_steps=16, seed=0)
    rec = checks.ito_record(cfg, None)
    assert [row["phi"] for row in rec.rows] == ["quad", "linear"]
    assert steps == [1.0 / 16, 1.0 / 32]


# gauge dissipation ------------------------------------------------------


def _reference_ito_integral(c, phi, traj, first, u) -> float:
    """The compensator integral with both ends of every step evaluated
    afresh, the node between two steps twice."""
    h, total = traj.step, 0.0

    def integrand(prefix, ctrl):
        dx = row_vector(phi.dx, prefix)
        adj = float(traj.space.adjoint_apply(dx) @ prefix.endpoint)
        drive = float(dx @ c.drift(prefix.samples[None], np.array([ctrl]))[0])
        return row_value(phi.dt, prefix) + adj + drive

    for k, ctrl in enumerate(u.values):
        t = (first - 1 + k) * h
        total += 0.5 * h * (integrand(traj.prefix(t), ctrl) + integrand(traj.prefix(t + h), ctrl))
    return total


@pytest.mark.parametrize("switching", [False, True])
def test_ito_differentiates_each_node_once_and_drives_it_once_per_control(monkeypatch, switching):
    space = make_space([-1.0, -0.4])
    c = _coeffs(
        space.dim,
        lambda S, U: np.concatenate([control_column(U), 0.3 * np.tanh(S[:, -1, :-1])], axis=1),
    )
    quad = TestFunctionPhi.quadratic_endpoint()
    calls = {"dx": 0, "drift": 0}

    def dx(proto, S):
        calls["dx"] += 1
        return quad.dx(proto, S)

    drift_rows_of_checks = checks._drift_rows

    def drift_rows(*args):
        calls["drift"] += 1
        return drift_rows_of_checks(*args)

    monkeypatch.setattr(checks, "_drift_rows", drift_rows)
    phi = replace(quad, dx=dx)
    g = Path(space, 0.125, [[0.3, -0.1], [0.2, 0.0], [0.25, 0.1]])
    u = ControlSignal(g.horizon, g.step, [(-1.0) ** k if switching else 1.0 for k in range(6)])
    (res,) = ito_residual(c, [phi], g, u)
    n = res.n_steps
    assert n == 6
    assert calls == {"dx": n + 1, "drift": 2 * n if switching else n + 1}
    assert res.integral == _reference_ito_integral(c, quad, mild_solve(c, g, u), g.n_nodes, u)


def test_margin_rejects_small_exponent_and_mismatched_horizons():
    space = make_space([-1.0])
    c = _coeffs(1, lambda S, U: control_column(U))
    g = Path.constant(space, 0.25, np.array([0.2]), horizon=0.25)
    eta = Path.constant(space, 0.25, np.array([0.1]), horizon=0.25)
    u = ControlSignal.constant(1.0, 0.25, 1.0, 0.25)
    with pytest.raises(ValueError):
        _margin(c, 1.5, g, eta, u)
    eta_short = Path.constant(space, 0.25, np.array([0.1]), horizon=0.0)
    with pytest.raises(ValueError):
        _margin(c, 2.0, g, eta_short, u)


def test_margins_of_no_cases_are_an_empty_list():
    assert upsilon_margin(feedback().coefficients, []) == []


def test_margin_rejects_a_nan_exponent():
    space = make_space([-1.0])
    c = _coeffs(1, lambda S, U: control_column(U))
    g = Path.constant(space, 0.25, np.array([0.2]), horizon=0.25)
    eta = Path.constant(space, 0.25, np.array([0.1]), horizon=0.25)
    u = ControlSignal.constant(1.0, 0.25, 1.0, 0.25)
    with pytest.raises(ValueError, match="M must be >= 2, got nan"):
        _margin(c, float("nan"), g, eta, u)


@pytest.mark.parametrize("M", [2.0, 5.0])
def test_margin_batch_stays_above_discretization_floor(M):
    # c0 floor calibrated once on a pilot batch (seed 999): worst margin
    # observed was > -0.12 * step; 2.0 leaves wide slack
    c0 = 2.0
    space = make_space([-1.0, -0.4])
    c = _coeffs(2, lambda S, U: np.stack([U, 0.3 * np.tanh(S[:, -1, 0])], axis=1))
    grid = TimeGrid(1.0, 0.125)
    rng = np.random.default_rng(42)
    worst = np.inf
    for _ in range(200):
        g = random_prefix(rng, space, grid)
        eta = random_prefix(rng, space, grid, min_nodes=g.n_nodes)
        eta = eta.prefix(g.horizon)
        u = ControlSignal.constant(
            float(rng.choice(c.control_set)), g.horizon, grid.T, grid.step
        )
        m = _margin(c, M, g, eta, u).margin
        worst = min(worst, m)
    assert worst >= -c0 * grid.step, worst


def test_margin_mean_positive_under_strict_decay():
    space = make_space([-1.0, -1.0])
    c = _coeffs(2, lambda S, U: np.zeros((len(S), 2)))
    grid = TimeGrid(1.0, 0.125)
    rng = np.random.default_rng(5)
    margins = []
    for _ in range(50):
        g = random_prefix(rng, space, grid)
        eta = random_prefix(rng, space, grid, min_nodes=g.n_nodes).prefix(g.horizon)
        u = ControlSignal.constant(1.0, g.horizon, grid.T, grid.step)
        margins.append(_margin(c, 2.0, g, eta, u).margin)
    assert np.mean(margins) > 0.0
    assert min(margins) > -1e-9  # no drift: dissipation is clean


def reference_margin(coeffs, M, g, eta, u):
    """The margin with every prefix copied and every difference rebuilt."""
    traj = mild_solve(coeffs, g, u)
    h = g.step
    start = g.n_nodes - 1
    n = traj.n_nodes - g.n_nodes

    def x_at(k):
        return Path(traj.space, traj.step, traj.samples[: start + k + 1])

    def y_at(k):
        return x_at(k) - extend_semigroup(eta, (start + k) * h)

    def coupling(k, ctrl):
        f = coeffs.drift(x_at(k).samples[None], np.array([ctrl]))[0]
        return float(grad_upsilon(M, y_at(k)) @ f)

    base = eval_upsilon(M, y_at(0))
    lhs = eval_upsilon(M, y_at(n))
    total = 0.0
    for k in range(n):
        ctrl = u.values[k]
        total += 0.5 * h * (coupling(k, ctrl) + coupling(k + 1, ctrl))
    return GaugeMarginResult(margin=base + total - lhs, lhs=lhs, base=base, integral=total)


@pytest.mark.parametrize("M", [2.0, 5.0])
@pytest.mark.parametrize(
    "eigenvalues", [[-1.0, -0.4], [0.0, 0.0], list(np.linspace(-2.0, 0.0, 12))]
)
def test_margin_is_bit_exact_against_the_copying_reference(M, eigenvalues):
    space = make_space(eigenvalues)
    c = _coeffs(
        space.dim,
        lambda S, U: np.concatenate([control_column(U), 0.3 * np.tanh(S[:, -1, :-1])], axis=1),
    )
    grid = TimeGrid(1.0, 0.125)
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_prefix(rng, space, grid)
        eta = random_prefix(rng, space, grid)
        # eta of any length, cut or extended to g's horizon
        eta = eta.prefix(g.horizon) if eta.horizon >= g.horizon else (
            extend_semigroup(eta, g.horizon)
        )
        u = ControlSignal.constant(
            float(rng.choice(c.control_set)), g.horizon, grid.T, grid.step
        )
        assert _margin(c, M, g, eta, u) == reference_margin(c, M, g, eta, u)


def _gauge_cases(c, space, grid, seed, n=100):
    """Cases (M, g, eta, u) drawn as the gauge check of the CLI draws them."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        n_nodes = int(rng.integers(1, grid.n_steps + 1))
        g, eta = (random_walk(rng, space, grid.step, n_nodes) for _ in range(2))
        u = c.control_set[int(rng.integers(len(c.control_set)))]
        sig = ControlSignal.constant(u, g.horizon, grid.T, grid.step)
        cases.append((2.0 if i % 2 == 0 else 5.0, g, eta, sig))
    return cases


def random_walk(rng, space, step, n_nodes):
    start = rng.normal(0.0, 1.0, size=(1, space.dim))
    steps = rng.normal(0.0, np.sqrt(step), size=(n_nodes - 1, space.dim))
    return Path(space, step, np.vstack([start, start + np.cumsum(steps, axis=0)]))


def _scenario_coefficients(name, n_steps):
    sc = {"eikonal": eikonal, "runmax": runmax, "feedback": feedback}[name.split("+")[0]](
        step=1.0 / n_steps
    )
    c = perturbed(sc.coefficients, "drift_shift", 0.3) if "+F" in name else sc.coefficients
    return c, sc.space, sc.grid


@pytest.mark.parametrize("name", ["eikonal", "runmax", "feedback", "feedback+F"])
@pytest.mark.parametrize("n_steps", [4, 7, 16])
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_margins_equal_the_per_case_loop(name, n_steps, seed):
    c, space, grid = _scenario_coefficients(name, n_steps)
    cases = _gauge_cases(c, space, grid, seed, n=60)
    got = upsilon_margin(c, cases)
    want = [reference_margin(c, *case) for case in cases]
    assert got == want
    assert np.array([r.margin for r in got]).tobytes() == np.array([r.margin for r in want]).tobytes()


def test_margins_under_signals_of_unequal_length_equal_the_per_case_loop():
    c, space, grid = _scenario_coefficients("feedback", 7)
    rng = np.random.default_rng(8)
    cases = []
    for M, g, eta, sig in _gauge_cases(c, space, grid, 4, n=40):
        k = int(rng.integers(1, len(sig.values) + 1))  # signals end before T too
        cases.append((M, g, eta, ControlSignal(g.horizon, grid.step, sig.values[:k])))
    assert upsilon_margin(c, cases) == [reference_margin(c, *case) for case in cases]


@pytest.mark.parametrize("eigenvalues", [[-1.0, -0.4], list(np.linspace(-2.0, -0.1, 3))])
@pytest.mark.parametrize("n_steps", [4, 7, 16])
def test_margins_under_controls_that_change_every_step_equal_the_per_case_loop(
    eigenvalues, n_steps
):
    """Every signal switches control at every step, on a nonzero generator,
    so an interval's left-end drift is never the right end before it."""
    space = make_space(eigenvalues)
    c = _coeffs(
        space.dim,
        lambda S, U: np.concatenate([control_column(U), 0.3 * np.tanh(S[:, -1, :-1])], axis=1),
    )
    grid = TimeGrid(1.0, 1.0 / n_steps)
    rng = np.random.default_rng(n_steps)
    cases = []
    for M, g, eta, sig in _gauge_cases(c, space, grid, n_steps, n=60):
        first = c.control_set[int(rng.integers(2))]
        values = [first * (-1.0) ** k for k in range(len(sig.values))]
        cases.append((M, g, eta, ControlSignal(g.horizon, grid.step, values)))
    got = upsilon_margin(c, cases)
    assert got == [reference_margin(c, *case) for case in cases]
    assert any(len(u.values) > 1 for *_, u in cases)


def test_batched_margins_refuse_at_the_first_case_in_order():
    c, space, grid = _scenario_coefficients("feedback", 7)
    cases = _gauge_cases(c, space, grid, 1, n=60)
    starts = [g for _, g, _, _ in cases]
    first, later = out_of_block_order(starts)
    bad = spoil_drift(c, first, later)
    with pytest.raises(ValueError) as one_by_one:
        [reference_margin(bad, *case) for case in cases]
    assert f"endpoint {first.endpoint!r}" in str(one_by_one.value)
    with pytest.raises(ValueError) as batched:
        upsilon_margin(bad, cases)
    assert str(batched.value) == str(one_by_one.value)
    # and a case refused before its flow is solved, inside a block
    invalid = list(cases)
    invalid[starts.index(later)] = (1.5,) + cases[starts.index(later)][1:]
    with pytest.raises(ValueError, match="M must be >= 2"):
        upsilon_margin(c, invalid)


def test_a_case_on_another_step_than_the_first_is_solved_alone():
    """A case whose g is on another step than the block's first case is
    refused in the block, so it is solved alone: a signal that does not fit
    its own g raises `mild_solve`'s error, and cases that each fit their own
    signal get the per-case margins."""
    sc = feedback()
    c, sp = sc.coefficients, sc.space
    g1 = Path(sp, 0.25, [[0.1, 0.1], [0.2, 0.2]])
    eta1 = Path(sp, 0.25, [[0.0, 0.1], [0.1, -0.1]])
    g2 = Path(sp, 0.125, [[0.1, 0.1], [0.3, 0.3]])
    eta2 = Path(sp, 0.125, [[0.2, 0.0], [0.1, 0.2]])
    u = ControlSignal.constant(1.0, 0.25, 1.0, 0.25)
    with pytest.raises(ValueError) as alone:
        mild_solve(c, g2, u)
    with pytest.raises(ValueError) as batched:
        upsilon_margin(c, [(2.0, g1, eta1, u), (2.0, g2, eta2, u)])
    assert str(batched.value) == str(alone.value) == "control starts at 0.25, prefix ends at 0.125"
    cases = [(2.0, g1, eta1, u), (5.0, g2, eta2, ControlSignal.constant(-1.0, 0.125, 1.0, 0.125))]
    assert upsilon_margin(c, cases) == [reference_margin(c, *case) for case in cases]


# classical residuals ----------------------------------------------------


def transport_instance(space, weights, T: float) -> tuple:
    """Uncontrolled transport pair (coefficients, solution candidate).

    w(eta_s) = (weights, e^{(T-s)A} eta(s)) solves the equation with no
    drift and no running cost exactly, for any generator; its residual is
    a genuine exercise of the adjoint term.
    """
    c_vec = np.asarray(weights, dtype=float)
    lam = space.eigenvalues

    coeffs = Coefficients(
        name="transport",
        control_set=(0.0,),
        drift=lambda S, U: np.zeros((len(S), space.dim)),
        running_cost=lambda S, U: np.zeros(len(S)),
        terminal_cost=lambda S: S[:, -1] @ c_vec,
        lipschitz_L=float(np.linalg.norm(c_vec)) + 1.0,
    )

    def rows(proto: Path, S: np.ndarray) -> np.ndarray:
        return row_dots(S[:, -1], c_vec * np.exp((T - proto.horizon) * lam))

    def dt(proto: Path, S: np.ndarray) -> np.ndarray:
        return row_dots(S[:, -1], -lam * c_vec * np.exp((T - proto.horizon) * lam))

    def dx(proto: Path, S: np.ndarray) -> np.ndarray:
        return np.tile(c_vec * np.exp((T - proto.horizon) * lam), (len(S), 1))

    w = TestFunctionPhi(rows=rows, dt=dt, dx=dx, label="transport")
    return coeffs, w


def test_transport_solution_has_zero_residual_with_generator():
    space = make_space([-0.5, -2.0])
    coeffs, w = transport_instance(space, np.array([1.0, -0.8]), T=1.0)
    rng = np.random.default_rng(9)
    grid = TimeGrid(1.0, 0.25)
    pts = [random_prefix(rng, space, grid) for _ in range(10)]
    rep = classical_check(w, coeffs, pts, t_final=1.0)
    assert rep.passed
    assert rep.summary == {"max_residual": 0.0, "n_flagged": 0}


@pytest.mark.parametrize("build,expect_flagged", [(eikonal, 2), (runmax, 1)])
def test_candidate_kinks_are_flagged_not_scored(build, expect_flagged):
    sc = build()
    w, pts = classical_candidate(sc)
    rep = classical_check(w, sc.coefficients, pts, t_final=sc.grid.T)
    assert rep.passed, rep.rows
    assert rep.summary["n_flagged"] == expect_flagged
    assert rep.summary["max_residual"] <= 1e-9
    interior_ok = [r for r in rep.rows if r["kind"] == "interior"]
    assert len(interior_ok) >= 3


def test_terminal_rows_refuse_a_terminal_cost_that_is_not_a_one_row_block():
    sc = eikonal()
    w, pts = classical_candidate(sc)
    c = replace(sc.coefficients, terminal_cost=lambda S: float(abs(S[0, -1, 0])))
    with pytest.raises(ValueError, match="terminal_cost returned shape"):
        classical_check(w, c, pts, t_final=sc.grid.T)


def test_terminal_rows_compare_against_terminal_cost():
    sc = eikonal()
    w, pts = classical_candidate(sc)
    rep = classical_check(w, sc.coefficients, pts, t_final=sc.grid.T)
    terminal = [r for r in rep.rows if r["kind"] == "terminal"]
    assert terminal
    for r in terminal:
        assert r["gap"] <= 1e-9
