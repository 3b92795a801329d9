"""Integrator and hypothesis-validation tests.

Closed-form oracles: the free flow (F = 0) is the semigroup; with zero
generator and constant drift the scheme integrates exactly; the scalar
linear problem X' = -X + 1 has X(t) = 1 - e^{-t} from zero.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from phjb.dynamics import (
    Coefficients,
    ControlSignal,
    _step_block,
    mild_solve,
    solve_rows,
    step_once,
    validate_hypothesis,
    verify_state_estimates,
)
from phjb.checks import gauge_cases, perturbed, upsilon_margin
from phjb.paths import (
    GRID_TOL,
    Path,
    Refused,
    TimeGrid,
    Walks,
    carried,
    extend_semigroup,
    sup_norm,
)
from phjb.scenarios import eikonal, feedback, runmax
from phjb.value import ValueTable, verify_value_regularity

from conftest import (
    control_column,
    level_children,
    make_space,
    metric_d_infty,
    out_of_block_order,
    random_path,
    random_prefix,
    row_map,
    semigroup_apply,
    spoil_drift,
    value_at,
)


def _const_coeffs(dim, drift, name="test", L=2.0):
    return Coefficients(
        name=name,
        control_set=(0.0, 1.0),
        drift=drift,
        running_cost=lambda S, U: np.zeros(len(S)),
        terminal_cost=lambda S: np.zeros(len(S)),
        lipschitz_L=L,
    )


# integrator oracles ----------------------------------------------------


def test_zero_drift_reproduces_semigroup():
    space = make_space([-2.0, -0.5])
    c = _const_coeffs(2, lambda S, U: np.zeros((len(S), 2)))
    x0 = np.array([1.0, -3.0])
    g = Path.constant(space, 0.125, x0, horizon=0.0)
    u = ControlSignal.constant(0.0, 0.0, 1.0, 0.125)
    X = mild_solve(c, g, u)
    for k, t in enumerate(X.times):
        expected = x0 * np.exp(space.eigenvalues * t)
        assert np.allclose(X.samples[k], expected, atol=1e-12, rtol=0.0)


def test_flat_space_constant_drift_is_exact():
    space = make_space([0.0])
    c = _const_coeffs(1, lambda S, U: np.full((len(S), 1), 0.75))
    g = Path.constant(space, 0.25, np.array([0.5]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, 0.25)
    X = mild_solve(c, g, u)
    for k, t in enumerate(X.times):
        assert X.samples[k, 0] == pytest.approx(0.5 + 0.75 * t, abs=1e-13)


def test_linear_ode_value_at_horizon():
    # X' = -X + 1 from 0: X(1) = 1 - e^{-1}, within 1e-3 at step 1/64
    space = make_space([-1.0])
    c = _const_coeffs(1, lambda S, U: control_column(U))
    h = 1.0 / 64
    g = Path.constant(space, h, np.array([0.0]), horizon=0.0)
    u = ControlSignal.constant(1.0, 0.0, 1.0, h)
    X = mild_solve(c, g, u)
    assert abs(X.endpoint[0] - (1.0 - np.exp(-1.0))) < 1e-3


def test_integrator_refinement_rate_is_second_order():
    space = make_space([-1.0])
    c = _const_coeffs(1, lambda S, U: np.cos(S[:, -1, :1]))
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
    c = _const_coeffs(2, lambda S, U: np.stack([U, -S[:, -1, 0]], axis=1))
    g = Path.constant(space, 0.125, np.array([0.4, -0.2]), horizon=0.0)
    whole = mild_solve(c, g, ControlSignal.constant(1.0, 0.0, 1.0, 0.125))
    half = mild_solve(c, g, ControlSignal.constant(1.0, 0.0, 0.5, 0.125))
    glued = mild_solve(c, half, ControlSignal.constant(1.0, 0.5, 1.0, 0.125))
    assert np.array_equal(whole.samples, glued.samples)


def test_stepped_path_is_read_only_and_keeps_its_prefix():
    space = make_space([-1.5, -0.25])
    c = _const_coeffs(2, lambda S, U: np.stack([U, -S[:, -1, 0]], axis=1))
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
    c = _const_coeffs(1, lambda S, U: np.full((len(S), 1), 1e308))
    g = Path.constant(space, 0.25, np.array([1e308]), horizon=0.0)
    # the predictor 1.25e308 is finite; the corrected sample overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        step_once(c, g, 0.0)


# level stepping ----------------------------------------------------------


def _decaying_coeffs():
    return Coefficients(
        name="decaying",
        control_set=(-1.0, 0.0, 1.0),
        drift=lambda S, U: np.stack(
            [U, -np.sin(S[:, -1, 0]), 0.5 * np.tanh(S[:, -1, 2]) - U], axis=1
        ),
        running_cost=lambda S, U: np.zeros(len(S)),
        terminal_cost=lambda S: np.zeros(len(S)),
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
    children = level_children(c, prefixes)
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
    """2-D coefficients whose drift is spoil(s, u) on each row s (under u)
    where that is not None."""

    def drift(S, U):
        rows = []
        for s, u in zip(S, U.tolist()):
            out = spoil(s, u)
            rows.append(np.array([u, -0.5 * float(s[-1, 1])]) if out is None else out)
        return np.array(rows)

    return _const_coeffs(2, drift)


def _starts_at(s, x):
    return float(s[0, 0]) == x


# each spoils the middle prefix, which starts at 1.5e308, under control 1
_SPOILS = {
    # a row of three makes the drift's own np.array raise on the block
    "shape": lambda g, u: np.zeros(3) if _starts_at(g, 1.5e308) and u == 1.0 else None,
    # the predictor of the middle prefix refuses first in child order, although
    # the last prefix's own drift, which a block computes earlier, refuses too
    "non-finite": lambda g, u: (
        np.array([np.nan, 0.0])
        if (_starts_at(g, 1.5e308) and len(g) == 4 and u == 1.0)
        or (_starts_at(g, 0.3) and len(g) == 3 and u == 0.0)
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
            level_children(c, prefixes)
    if kind != "shape":
        assert str(level.value) == str(scalar.value)
        return
    # an error of the drift's own is the block's, raised as it is: not retried
    S = np.stack([p.samples for p in prefixes]).repeat(2, axis=0)
    with pytest.raises(ValueError) as own:
        c.drift(S, np.tile(c.control_set, len(prefixes)))
    assert (level.type, str(level.value)) == (own.type, str(own.value))
    assert str(scalar.value) == "drift returned shape (1, 3), expected (1, 2)"


def test_step_alignment_rejected():
    space = make_space([0.0])
    c = _const_coeffs(1, lambda S, U: np.zeros((len(S), 1)))
    g = Path.constant(space, 0.25, np.array([0.0]), horizon=0.25)
    with pytest.raises(ValueError):
        mild_solve(c, g, ControlSignal.constant(0.0, 0.5, 1.0, 0.25))


def test_drift_shape_and_finiteness_diagnostics():
    space = make_space([0.0, 0.0])
    bad_shape = _const_coeffs(2, lambda S, U: np.zeros((len(S), 3)))
    g = Path.constant(space, 0.25, np.zeros(2), horizon=0.0)
    with pytest.raises(ValueError, match="shape"):
        step_once(bad_shape, g, 0.0)
    bad_nan = _const_coeffs(2, lambda S, U: np.tile([np.nan, 0.0], (len(S), 1)))
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


# the random walks, one path at a time and as blocks


def one_path_prefix(rng, space, grid):
    """`random_prefix` as it drew one path: node count, steps, start, then
    the samples stacked from the start and the running sum."""
    n = int(rng.integers(1, grid.n_steps + 2))
    steps = rng.normal(0.0, np.sqrt(grid.step), size=(n - 1, space.dim))
    start = rng.normal(0.0, 1.0, size=(1, space.dim))
    return Path(space, grid.step, np.vstack([start, start + np.cumsum(steps, axis=0)]))


def one_path_walk(rng, space, step, n_nodes):
    """The gauge cases' walk as it drew one path: start, then steps."""
    start = rng.normal(0.0, 1.0, size=(1, space.dim))
    steps = rng.normal(0.0, np.sqrt(step), size=(n_nodes - 1, space.dim))
    return Path(space, step, np.vstack([start, start + np.cumsum(steps, axis=0)]))


_WALK_SPACES = {"flat-1": [0.0], "flat-2": [0.0, 0.0], "decaying-3": [-0.5, -2.0, -4.5]}


@pytest.mark.parametrize("space_name", sorted(_WALK_SPACES))
@pytest.mark.parametrize("n_steps", [4, 7, 16])
def test_block_draws_equal_the_one_path_draws_row_for_row(space_name, n_steps):
    """The block sampler takes every RNG call in the order of the one-path
    samplers, writes each walk's bytes into its row, and carries the row
    past the walk's horizon as `carried` carries the path."""
    space, grid = make_space(_WALK_SPACES[space_name]), TimeGrid(1.0, 1.0 / n_steps)
    n = grid.n_steps + 1
    block_rng, path_rng = np.random.default_rng(n_steps), np.random.default_rng(n_steps)
    walks = Walks(block_rng, 60, grid, space.dim, start_last=True)
    counts = [walks.prefix(i) for i in range(60)]
    for row, k in zip(walks.block(counts, space), counts):
        g = one_path_prefix(path_rng, space, grid)
        assert row[:k].tobytes() == g.samples.tobytes()
        assert row.tobytes() == carried(g, n).tobytes()
    assert block_rng.bit_generator.state == path_rng.bit_generator.state
    # random_prefix, the tests' one-path form, is the one-row case
    for _ in range(20):
        walks = Walks(block_rng, 1, grid, space.dim, start_last=True)
        k = walks.prefix(0)
        B = walks.block([k], space)
        assert not B.flags.writeable
        assert B[0, :k].tobytes() == random_prefix(path_rng, space, grid).samples.tobytes()
    assert block_rng.bit_generator.state == path_rng.bit_generator.state
    # the gauge cases' walk, start first
    walks = Walks(block_rng, 15, grid, space.dim)
    counts = [walks.draw(i, k) for i, k in enumerate([1, 2, n - 1] * 5)]
    for row, k in zip(walks.block(counts, space), counts):
        assert row[:k].tobytes() == one_path_walk(path_rng, space, grid.step, k).samples.tobytes()
    assert block_rng.bit_generator.state == path_rng.bit_generator.state


def test_a_negative_zero_draw_comes_out_positive():
    """Each draw z becomes 0.0 + scale * z, as `Generator.normal(0.0, scale)`
    makes it, so a -0.0 draw gives +0.0 samples, not the -0.0 of z or of
    scale * z."""

    class NegativeZeros:
        def standard_normal(self, out):
            out[...] = -0.0

        def integers(self, low, high):
            return high - 1

    space, grid = make_space([-1.0, 0.0]), TimeGrid(1.0, 0.25)
    for start_last in (True, False):
        walks = Walks(NegativeZeros(), 3, grid, space.dim, start_last=start_last)
        B = walks.block([walks.prefix(0), walks.draw(1, 1), walks.draw(2, 3)], space)
        assert not np.signbit(B).any() and not B.any()
    assert not np.signbit(0.0 + 0.5 * np.float64(-0.0)) and np.signbit(0.5 * np.float64(-0.0))


class _CountedRng:
    """A generator that counts the methods read from it, by name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, {}

    def __getattr__(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        return getattr(self.rng, name)


@pytest.fixture
def made_rngs(monkeypatch):
    """The generators `np.random.default_rng` makes during the test, each
    counted (`_CountedRng`); make the test's own with `np.random.Generator`."""
    made, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: made.append(_CountedRng(make(seed))) or made[-1])
    return made


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _one_path_estimates(rng, c, space, grid, n_samples):
    """The draws of `verify_state_estimates` one path at a time: g, a
    control, and, unless g ends at T, eta and a restart time."""
    drawn = []
    for _ in range(n_samples):
        drawn.append(one_path_prefix(rng, space, grid))
        rng.integers(len(c.control_set))
        if drawn[-1].horizon < grid.T - GRID_TOL:
            drawn.append(one_path_prefix(rng, space, grid))
            rng.integers(1, grid.n_steps - drawn[-2].n_nodes + 2)
    return drawn


def _one_path_gauge(rng, c, space, grid):
    drawn = []
    for _ in range(100):
        n_nodes = int(rng.integers(1, grid.n_steps + 1))
        drawn += [one_path_walk(rng, space, grid.step, n_nodes) for _ in range(2)]
        rng.integers(len(c.control_set))
    return drawn


@pytest.mark.parametrize("n_steps", [1, 2, 4, 16])
@pytest.mark.parametrize("name", ["eikonal", "runmax", "feedback"])
def test_sampling_checks_leave_the_rng_where_the_one_path_draws_do(made_rngs, name, n_steps):
    """Each sampling check consumes its stream call for call as the one-path
    samplers did, with one `standard_normal` call per walk and no `normal`
    call: at one and two steps `estimates` draws many g at T, whose eta it
    skips."""
    sc = {"eikonal": eikonal, "runmax": runmax, "feedback": feedback}[name](step=1.0 / n_steps)
    c, space, grid = sc.coefficients, sc.space, sc.grid
    runs = [
        (lambda: validate_hypothesis(c, space, grid, n_pairs=30, seed=5), lambda r: [one_path_prefix(r, space, grid) for _ in range(60)]),
        (lambda: verify_state_estimates(c, space, grid, n_samples=40, seed=5), lambda r: _one_path_estimates(r, c, space, grid, 40)),
        (lambda: gauge_cases(c, space, grid, seed=5), lambda r: _one_path_gauge(r, c, space, grid)),
    ]
    for check, one_path in runs:
        made_rngs.clear()
        check()
        oracle = _pcg(5)
        walks = len(one_path(oracle))
        (rng,) = made_rngs
        assert rng.rng.bit_generator.state == oracle.bit_generator.state
        assert rng.calls.get("standard_normal") == walks and "normal" not in rng.calls
    if n_steps <= 2:  # the skip branch was taken
        assert len(_one_path_estimates(_pcg(5), c, space, grid, 40)) < 80


def test_regularity_draws_its_prefixes_then_its_bumps(made_rngs):
    """`verify_value_regularity` draws 30 prefixes, one `standard_normal`
    call each, then one `normal` call per vertical bump."""
    sc = feedback(step=0.25)
    verify_value_regularity(ValueTable(sc.coefficients, sc.grid), sc.space, seed=3)
    oracle = _pcg(3)
    paths = [one_path_prefix(oracle, sc.space, sc.grid) for _ in range(30)]
    for _ in paths:
        oracle.normal(0.0, 1.0, size=sc.space.dim)
    (rng,) = made_rngs
    assert rng.rng.bit_generator.state == oracle.bit_generator.state
    assert (rng.calls["standard_normal"], rng.calls["normal"]) == (30, 30)


@pytest.mark.parametrize("space_name", sorted(_WALK_SPACES))
@pytest.mark.parametrize("n_steps", [4, 7, 16])
def test_gauge_cases_equal_the_case_by_case_draws(space_name, n_steps):
    """`gauge_cases` draws each case's g and eta from the block sampler with
    the bytes of the one-path walks, case by case."""
    space, grid = make_space(_WALK_SPACES[space_name]), TimeGrid(1.0, 1.0 / n_steps)
    c = _decaying_coeffs()
    rng = np.random.default_rng(9)
    for M, g, eta, u in gauge_cases(c, space, grid, seed=9):
        n_nodes = int(rng.integers(1, grid.n_steps + 1))
        for got in (g, eta):
            want = one_path_walk(rng, space, grid.step, n_nodes)
            assert got.samples.tobytes() == want.samples.tobytes() and got.step == want.step
        assert u == ControlSignal.constant(
            c.control_set[int(rng.integers(len(c.control_set)))], g.horizon, grid.T, grid.step
        )


# hypothesis validation -------------------------------------------------


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
def test_scenarios_satisfy_growth_and_lipschitz(build):
    sc = build()
    rep = validate_hypothesis(sc.coefficients, sc.space, sc.grid, n_pairs=150, seed=7)
    assert rep.passed, rep.rows


def test_understated_constant_is_caught():
    sc = feedback()
    weak = replace(sc.coefficients, lipschitz_L=0.4)
    rep = validate_hypothesis(weak, sc.space, sc.grid, n_pairs=100, seed=7)
    assert not rep.passed
    ratios = row_map(rep, "inequality", "ratio")
    assert rep.summary["worst_ratio"] == ratios[rep.summary["worst"]] > 1.0


def test_hypothesis_report_is_seed_stable():
    sc = eikonal()
    a = validate_hypothesis(sc.coefficients, sc.space, sc.grid, n_pairs=60, seed=3)
    b = validate_hypothesis(sc.coefficients, sc.space, sc.grid, n_pairs=60, seed=3)
    assert row_map(a, "inequality", "ratio") == row_map(b, "inequality", "ratio")


# solution-map estimates ------------------------------------------------


@pytest.mark.parametrize("build", [eikonal, feedback])
def test_state_estimates_within_gronwall(build):
    sc = build()
    rep = verify_state_estimates(sc.coefficients, sc.space, sc.grid, n_samples=80, seed=1)
    assert rep.passed, rep.rows
    assert all(np.isfinite(v) for v in row_map(rep, "estimate", "constant").values())


def test_state_estimates_on_decaying_space():
    space = make_space([-3.0, -1.0])
    c = _const_coeffs(2, lambda S, U: np.stack([U, 0.5 * np.tanh(S[:, -1, 1])], axis=1))
    rep = verify_state_estimates(c, space, TimeGrid(1.0, 0.125), n_samples=60, seed=2)
    lip = row_map(rep, "estimate", "constant")["lip_initial"]
    assert lip <= 1.05 * rep.summary["gronwall_bound"]


def test_lipschitz_constant_and_control_step_must_be_finite_and_positive():
    sc = eikonal()
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lipschitz_L must be finite and > 0"):
            replace(sc.coefficients, lipschitz_L=bad)
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            ControlSignal(0.0, bad, (1.0,))


# batched sampling checks against the one-path-at-a-time loops ------------


def _checked_drift(c, g, u):
    """The drift of one path under one control, refused as the
    path-at-a-time checks refused it."""
    f = np.asarray(c.drift(g.samples[None], np.array([u])), dtype=float)[0]
    if f.shape != (g.space.dim,):
        raise ValueError(f"drift returned shape {f.shape}, expected ({g.space.dim},)")
    if not np.isfinite(f).all():
        raise ValueError(
            f"non-finite drift at t={g.horizon} with control {u!r}, endpoint {g.endpoint!r}"
        )
    return f


def _one(fn, g, u=None):
    """A block formula on the one-row block of g, as a float."""
    S = g.samples[None]
    return float((fn(S) if u is None else fn(S, np.array([u])))[0])


def per_pair_hypothesis(c, space, grid, n_pairs, seed):
    """`validate_hypothesis` as it ran before it priced blocks: one pair,
    one control and one path at a time."""
    rng = np.random.default_rng(seed)
    L = c.lipschitz_L
    worst = {k: 0.0 for k in ["growth_F", "lip_F", "growth_q", "lip_q", "growth_phi", "lip_phi"]}

    def bump(name, lhs, rhs):
        if rhs > 1e-12:
            worst[name] = max(worst[name], lhs / rhs)

    for _ in range(n_pairs):
        g = random_prefix(rng, space, grid)
        h = random_prefix(rng, space, grid)
        d = metric_d_infty(g, h)
        ng = sup_norm(g)
        for u in c.control_set:
            fg = _checked_drift(c, g, u)
            fh = _checked_drift(c, h, u)
            qg = _one(c.running_cost, g, u)
            qh = _one(c.running_cost, h, u)
            bump("growth_F", float(fg @ fg), L**2 * (1.0 + ng**2))
            bump("lip_F", float(np.linalg.norm(fg - fh)), L * d)
            bump("growth_q", abs(qg), L * (1.0 + ng))
            bump("lip_q", abs(qg - qh), L * d)
        zg = extend_semigroup(g, grid.T)
        zh = extend_semigroup(h, grid.T)
        pg = _one(c.terminal_cost, zg)
        ph = _one(c.terminal_cost, zh)
        bump("growth_phi", abs(pg), L * (1.0 + sup_norm(zg)))
        bump("lip_phi", abs(pg - ph), L * sup_norm(zg - zh))
    return worst


def per_sample_estimates(c, space, grid, n_samples, seed):
    """`verify_state_estimates` as it ran before it solved blocks: one
    sample and one `mild_solve` at a time."""
    rng = np.random.default_rng(seed)
    consts = {k: 0.0 for k in ["bounded", "lip_initial", "near_initial", "time_shift"]}

    def solve_from(g, u):
        return mild_solve(c, g, ControlSignal.constant(u, g.horizon, grid.T, grid.step))

    for _ in range(n_samples):
        g = random_prefix(rng, space, grid)
        u = c.control_set[int(rng.integers(len(c.control_set)))]
        t = g.horizon
        ng = sup_norm(g)
        if t < grid.T - GRID_TOL:
            X = solve_from(g, u)
            consts["bounded"] = max(consts["bounded"], sup_norm(X) / (1.0 + ng))
            for s in [t + grid.step, min(grid.T, t + 2 * grid.step)]:
                free = semigroup_apply(space, s - t, g.endpoint)
                gap = float(np.linalg.norm(value_at(X, s) - free))
                consts["near_initial"] = max(consts["near_initial"], gap / ((1.0 + ng) * (s - t)))
            eta = random_prefix(rng, space, grid)
            eta = eta.prefix(t) if eta.n_nodes >= g.n_nodes else extend_semigroup(eta, t)
            Y = solve_from(eta, u)
            gap0 = sup_norm(g - eta)
            if gap0 > 1e-12:
                consts["lip_initial"] = max(consts["lip_initial"], sup_norm(X - Y) / gap0)
            tbar = t + grid.step * int(rng.integers(1, grid.n_steps - g.n_nodes + 2))
            if tbar < grid.T - GRID_TOL:
                Z = solve_from(extend_semigroup(g, tbar), u)
                denom = (1.0 + sup_norm(eta)) * (tbar - t) + sup_norm(g - eta)
                consts["time_shift"] = max(
                    consts["time_shift"], sup_norm(Z - Y) / denom if denom > 1e-12 else 0.0
                )
    return consts


def _bytes(d: dict) -> tuple:
    return sorted(d), np.array([d[k] for k in sorted(d)]).tobytes()


_SAMPLED = ["eikonal", "runmax", "feedback", "feedback+F", "decaying"]


def _sampled_case(name, n_steps):
    """(coefficients, space, grid) of a sampling case on a grid of n_steps."""
    if name == "decaying":
        return _decaying_coeffs(), make_space([-0.5, -2.0, -4.5]), TimeGrid(1.0, 1.0 / n_steps)
    sc = {"eikonal": eikonal, "runmax": runmax, "feedback": feedback}[name.split("+")[0]](
        step=1.0 / n_steps
    )
    c = perturbed(sc.coefficients, "drift_shift", 0.3) if "+F" in name else sc.coefficients
    return c, sc.space, sc.grid


@pytest.mark.parametrize("name", _SAMPLED)
@pytest.mark.parametrize("n_steps", [4, 7, 16])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_hypothesis_equals_the_per_pair_loop(name, n_steps, seed):
    c, space, grid = _sampled_case(name, n_steps)
    rep = validate_hypothesis(c, space, grid, n_pairs=40, seed=seed)
    ratios = row_map(rep, "inequality", "ratio")
    assert _bytes(ratios) == _bytes(per_pair_hypothesis(c, space, grid, 40, seed))


@pytest.mark.parametrize("name", _SAMPLED)
@pytest.mark.parametrize("n_steps", [4, 7, 16])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_estimates_equal_the_per_sample_loop(name, n_steps, seed):
    c, space, grid = _sampled_case(name, n_steps)
    rep = verify_state_estimates(c, space, grid, n_samples=30, seed=seed)
    constants = row_map(rep, "estimate", "constant")
    assert _bytes(constants) == _bytes(per_sample_estimates(c, space, grid, 30, seed))


def nan_cost(c):
    """c with a NaN running cost on the rows whose endpoint's first
    coordinate is positive, which `_costs` lets through."""
    base = c.running_cost

    def running_cost(S, U):
        q = np.array(base(S, U), dtype=float)
        q[S[:, -1, 0] > 0.0] = np.nan
        return q

    return replace(c, running_cost=running_cost)


@pytest.mark.parametrize("name", ["eikonal", "runmax", "feedback"])
@pytest.mark.parametrize("n_steps", [4, 16])
def test_a_nan_running_cost_is_passed_over_as_the_per_pair_loop_passes_it(name, n_steps):
    c, space, grid = _sampled_case(name, n_steps)
    c = nan_cost(c)
    rep = validate_hypothesis(c, space, grid, n_pairs=40, seed=1)
    ratios = row_map(rep, "inequality", "ratio")
    assert _bytes(ratios) == _bytes(per_pair_hypothesis(c, space, grid, 40, 1))
    assert np.isfinite(ratios["growth_q"]) and np.isfinite(ratios["lip_q"])


def test_block_solver_rows_equal_one_row_solves():
    for name in ("feedback+F", "decaying"):
        c, space, grid = _sampled_case(name, 7)
        rng = np.random.default_rng(3)
        prefixes = [random_path(rng, space, step=grid.step, min_nodes=3, max_nodes=3) for _ in range(6)]
        signals = [
            ControlSignal(p.horizon, grid.step, rng.choice(c.control_set, size=3).tolist())
            for p in prefixes
        ]
        P = np.stack([p.samples for p in prefixes])
        P.flags.writeable = False
        X = solve_rows(c, prefixes[0], P, [p.n_nodes for p in prefixes], signals)
        assert X.shape == (6, 7, space.dim) and not X.flags.writeable
        for x, p, u in zip(X, prefixes, signals):
            assert x.tobytes() == mild_solve(c, p, u).samples.tobytes()


# (start node count, steps) of each row: rows out of start order, a row of
# no steps, a gap of node counts 4 and 5 that no row steps from, and rows
# that end before others start
_MIXED_ROWS = ((6, 3), (1, 2), (2, 0), (2, 2), (7, 4), (3, 1))


def test_block_solver_steps_rows_of_mixed_starts_and_lengths():
    assert not any(k <= n < k + m for k, m in _MIXED_ROWS for n in (4, 5))
    for name in ("feedback+F", "decaying"):
        c, space, grid = _sampled_case(name, 10)
        rng = np.random.default_rng(11)
        prefixes = [
            random_path(rng, space, step=grid.step, min_nodes=k - 1, max_nodes=k - 1) for k, _ in _MIXED_ROWS
        ]
        signals = [
            ControlSignal(p.horizon, grid.step, rng.choice(c.control_set, size=m).tolist())
            for p, (_, m) in zip(prefixes, _MIXED_ROWS)
        ]
        # each prefix in the head of its row, then finite samples the solve must not read
        B = rng.normal(size=(len(prefixes), 8, space.dim))
        for row, p in zip(B, prefixes):
            row[: p.n_nodes] = p.samples
        first = [k for k, _ in _MIXED_ROWS]
        X = solve_rows(c, prefixes[0], B, first, signals)
        assert X.shape == (len(prefixes), 11, space.dim) and not X.flags.writeable
        for x, row, p, u in zip(X, B, prefixes, signals):
            want = mild_solve(c, p, u).samples
            assert x[: len(want)].tobytes() == want.tobytes()
            # after its trajectory, the rest of its row of B, then zeros
            rest = np.zeros((len(x) - len(want), space.dim))
            rest[: max(0, len(row) - len(want))] = row[len(want) :]
            assert x[len(want) :].tobytes() == rest.tobytes()
        misaligned = list(signals)
        misaligned[4] = ControlSignal(signals[4].start + grid.step, grid.step, signals[4].values)
        with pytest.raises(Refused, match="control starts at"):
            solve_rows(c, prefixes[0], B, first, misaligned)


def test_block_solver_on_no_rows_returns_its_empty_block():
    c, space, grid = _sampled_case("decaying", 4)
    B = np.empty((0, 3, space.dim))
    X = solve_rows(c, Path.zero(space, grid.step, 0.0), B, [], [])
    assert X.shape == (0, 3, space.dim) and not X.flags.writeable


@pytest.mark.parametrize("name", ["eikonal", "feedback"])
def test_each_sampling_solve_steps_once_per_node_count(name, monkeypatch):
    """One `verify_state_estimates` call and one `upsilon_margin` call each
    step every row that steps from a node count as one block, and the
    margins read the drift twice more per node count, for the couplings."""
    c, space, grid = _sampled_case(name, 16)
    blocks, drifts = [], []  # the node count of each stepped block; one entry per drift call

    def counted_step(c, proto, S, U, label):
        blocks.append(S.shape[1])
        return _step_block(c, proto, S, U, label)

    monkeypatch.setattr("phjb.dynamics._step_block", counted_step)
    counted = replace(c, drift=lambda S, U: drifts.append(len(S)) or c.drift(S, U))
    verify_state_estimates(counted, space, grid, seed=0)
    assert sorted(blocks) == list(range(1, 17)) and len(drifts) == 2 * 16
    blocks.clear()
    drifts.clear()
    upsilon_margin(counted, gauge_cases(counted, space, grid, seed=0))
    assert sorted(blocks) == list(range(1, 17)) and len(drifts) == 4 * 16


def _message(fn, *args, **kwargs):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def test_a_spoiled_drift_is_refused_at_the_first_path_drawn():
    c, space, grid = _sampled_case("feedback", 7)
    rng = np.random.default_rng(2)
    drawn = [random_prefix(rng, space, grid) for _ in range(60)]
    first, later = out_of_block_order(drawn)
    bad = spoil_drift(c, first, later)
    want = _message(per_pair_hypothesis, bad, space, grid, 30, 2)
    assert f"endpoint {first.endpoint!r}" in want
    assert _message(validate_hypothesis, bad, space, grid, n_pairs=30, seed=2) == want

    rng = np.random.default_rng(4)
    starts = []
    for _ in range(30):  # the prefixes g the estimates draw, in order
        g = random_prefix(rng, space, grid)
        rng.integers(len(c.control_set))
        if g.horizon < grid.T - GRID_TOL:
            starts.append(g)
            random_prefix(rng, space, grid)
            rng.integers(1, grid.n_steps - g.n_nodes + 2)
    first, later = out_of_block_order(starts)
    bad = spoil_drift(c, first, later)
    want = _message(per_sample_estimates, bad, space, grid, 30, 4)
    assert f"endpoint {first.endpoint!r}" in want
    assert _message(verify_state_estimates, bad, space, grid, n_samples=30, seed=4) == want


def test_a_drift_that_gives_one_row_is_refused_by_every_block_reader():
    """One row is the right shape for one path only: a block reader raises
    the block's own shape error instead of running the block path by path."""
    sc = feedback()
    base = sc.coefficients.drift
    c = replace(sc.coefficients, drift=lambda S, U: base(S[:1], U[:1]))
    step_once(c, sc.initial, c.control_set[0])
    one_row = r"drift returned shape \(1, 2\), expected \((\d+), 2\)"
    readers = [
        lambda: ValueTable(c, sc.grid).value(sc.initial),
        lambda: level_children(c, [sc.initial]),
        lambda: validate_hypothesis(c, sc.space, sc.grid, n_pairs=20),
        lambda: verify_state_estimates(c, sc.space, sc.grid, n_samples=20),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=one_row) as info:
            read()
        assert int(re.search(one_row, str(info.value)).group(1)) > 1
