"""Value function tests: brute-force equality, desk values, DPP residuals."""

import itertools

import numpy as np
import pytest

from phjb.dynamics import Coefficients, ControlSignal, step_once
from phjb.paths import Path, TimeGrid
from phjb.scenarios import (
    eikonal,
    eikonal_value,
    feedback,
    runmax,
    runmax_value,
)
from phjb.value import (
    BudgetExceeded,
    ValueTable,
    cost_J,
    hamiltonian,
    optimal_control,
    value_dpp,
    verify_dpp_consistency,
)


def brute_force_value(c, g, grid):
    """Enumerate every control assignment; accumulate costs tail-first."""
    steps_left = grid.n_steps - (g.n_nodes - 1)
    best = None
    for assign in itertools.product(c.control_set, repeat=steps_left):
        traj = g
        pieces = []
        for u in assign:
            nxt = step_once(c, traj, u)
            dt = nxt.horizon - traj.horizon
            pieces.append(0.5 * dt * (c.running_cost(traj, u) + c.running_cost(nxt, u)))
            traj = nxt
        total = c.terminal_cost(traj)
        for piece in reversed(pieces):
            total = piece + total
        if best is None or total < best:
            best = total
    return best


# costs ------------------------------------------------------------------


def test_rollout_cost_matches_hand_value():
    sc = eikonal()
    g = Path.constant(sc.space, sc.grid.step, np.array([0.5]), horizon=0.0)
    u = ControlSignal.constant(-1.0, 0.0, 1.0, sc.grid.step)
    # endpoint walks 0.5 -> -0.5, terminal cost |end| = 0.5
    assert cost_J(sc.coefficients, g, u) == pytest.approx(0.5, abs=1e-12)
    u0 = ControlSignal.constant(0.0, 0.0, 1.0, sc.grid.step)
    assert cost_J(sc.coefficients, g, u0) == pytest.approx(0.5, abs=1e-12)


def test_cost_refuses_a_control_step_off_the_path_step():
    sc = eikonal()
    # two steps of 0.5 end at T = 1; stepping them at the path's 0.25 would not
    with pytest.raises(ValueError, match="step"):
        cost_J(sc.coefficients, sc.initial, ControlSignal(0.0, 0.5, (1.0, 1.0)))


def test_hamiltonian_argmax_and_minimize():
    sc = eikonal()
    g = sc.initial
    val, u = hamiltonian(sc.coefficients, g, np.array([2.0]))
    assert (val, u) == (2.0, 1.0)
    val, u = hamiltonian(sc.coefficients, g, np.array([2.0]), minimize=True)
    assert (val, u) == (-2.0, -1.0)


def test_hamiltonian_tie_breaks_to_first_control():
    sc = eikonal()
    _, u = hamiltonian(sc.coefficients, sc.initial, np.array([0.0]))
    assert u == sc.coefficients.control_set[0]


def test_hamiltonian_argmax_scale_invariant():
    sc = eikonal()
    p = np.array([0.3])
    _, u1 = hamiltonian(sc.coefficients, sc.initial, p)
    _, u2 = hamiltonian(sc.coefficients, sc.initial, 100.0 * p)
    assert u1 == u2


# exact value equalities -------------------------------------------------


def test_eikonal_value_equals_brute_force():
    sc = eikonal()  # 3^4 assignments
    v = value_dpp(sc.coefficients, sc.initial, sc.grid)
    assert v == brute_force_value(sc.coefficients, sc.initial, sc.grid)


def test_runmax_value_equals_brute_force_on_finer_grid():
    sc = runmax(step=1.0 / 6)  # 3^6 assignments
    g = Path(sc.space, sc.grid.step, np.array([[0.2], [0.6]]))
    v = value_dpp(sc.coefficients, g, sc.grid)
    assert v == brute_force_value(sc.coefficients, g, sc.grid)


def test_feedback_value_equals_brute_force():
    sc = feedback()
    v = value_dpp(sc.coefficients, sc.initial, sc.grid)
    assert v == pytest.approx(
        brute_force_value(sc.coefficients, sc.initial, sc.grid), abs=1e-12
    )


def test_eikonal_desk_values():
    sc = eikonal()
    g1 = Path.constant(sc.space, sc.grid.step, np.array([0.5]), horizon=0.0)
    g2 = Path.constant(sc.space, sc.grid.step, np.array([1.5]), horizon=0.0)
    assert value_dpp(sc.coefficients, g1, sc.grid) == 0.0
    assert value_dpp(sc.coefficients, g2, sc.grid) == 0.5
    assert eikonal_value(g1, sc.grid) == 0.0
    assert eikonal_value(g2, sc.grid) == 0.5


def test_runmax_value_equals_running_max_of_prefix():
    sc = runmax()
    rng = np.random.default_rng(11)
    table = ValueTable(sc.coefficients, sc.grid)
    for _ in range(50):
        n = int(rng.integers(1, sc.grid.n_steps + 2))
        samples = rng.normal(scale=1.2, size=(n, 1))
        g = Path(sc.space, sc.grid.step, samples)
        v = table.value(g)
        assert v == np.max(np.abs(samples))
        assert v == runmax_value(g, sc.grid)


def test_closed_forms_reject_prefix_past_horizon():
    sc = eikonal()
    g = Path.constant(sc.space, sc.grid.step, np.array([0.0]), horizon=1.25)
    with pytest.raises(ValueError):
        eikonal_value(g, sc.grid)


# DPP consistency --------------------------------------------------------


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_dpp_residuals_are_exactly_zero(build):
    sc = build()
    res = verify_dpp_consistency(sc.coefficients, sc.initial, sc.grid)
    assert res  # at least one intermediate horizon
    for s, r in res.items():
        assert r == 0.0, (s, r)


def test_dpp_residuals_zero_from_nontrivial_prefix():
    sc = runmax()
    g = Path(sc.space, sc.grid.step, np.array([[0.2], [1.0], [0.5]]))
    res = verify_dpp_consistency(sc.coefficients, g, sc.grid)
    assert all(r == 0.0 for r in res.values())


def test_optimal_control_cost_matches_value():
    sc = eikonal()
    g = Path.constant(sc.space, sc.grid.step, np.array([0.6]), horizon=0.0)
    v, sig, traj = optimal_control(sc.coefficients, g, sc.grid)
    assert cost_J(sc.coefficients, g, sig) == v
    assert traj.horizon == pytest.approx(sc.grid.T)


def test_policy_trajectory_ends_at_the_optimal_terminal_cost():
    sc = runmax()
    table = ValueTable(sc.coefficients, sc.grid)
    controls, traj = table.policy(sc.initial)
    assert len(controls) == sc.grid.n_steps - (sc.initial.n_nodes - 1)
    assert table.value(traj) == float(sc.coefficients.terminal_cost(traj))
    sig = ControlSignal(sc.initial.horizon, sc.grid.step, controls)
    assert cost_J(sc.coefficients, sc.initial, sig) == table.value(sc.initial)


# memoization and budget -------------------------------------------------


def test_state_key_memoization_hits():
    sc = eikonal()
    table = ValueTable(sc.coefficients, sc.grid)
    table.value(sc.initial)
    assert table.hits > 0


def test_budget_exceeded_without_state_key():
    sc = runmax(step=0.125)  # 3^8 leaves without collapsing
    stripped = Coefficients(
        name=sc.coefficients.name,
        control_set=sc.coefficients.control_set,
        drift=sc.coefficients.drift,
        running_cost=sc.coefficients.running_cost,
        terminal_cost=sc.coefficients.terminal_cost,
        lipschitz_L=sc.coefficients.lipschitz_L,
    )
    with pytest.raises(BudgetExceeded):
        value_dpp(stripped, sc.initial, sc.grid, budget=1000, use_state_key=False)


def test_budget_guard_also_watches_memo_growth():
    sc = eikonal(step=1.0 / 16)
    with pytest.raises(BudgetExceeded):
        value_dpp(sc.coefficients, sc.initial, sc.grid, budget=10)


def test_dpp_enumeration_is_refused_beyond_the_budget():
    sc = eikonal(step=1.0 / 8)
    table = ValueTable(sc.coefficients, sc.grid, budget=1000)
    assert table.value(sc.initial) == 0.0
    assert len(table.memo) <= 1000  # the recursion fits, 3^8 leaves do not
    with pytest.raises(BudgetExceeded, match="3\\^8"):
        verify_dpp_consistency(sc.coefficients, sc.initial, sc.grid, table=table)


def test_smaller_control_set_never_beats_larger():
    sc = eikonal()
    from dataclasses import replace

    restricted = replace(sc.coefficients, control_set=(-1.0, 0.0))
    v_full = value_dpp(sc.coefficients, sc.initial, sc.grid)
    v_restricted = value_dpp(restricted, sc.initial, sc.grid)
    assert v_full <= v_restricted
