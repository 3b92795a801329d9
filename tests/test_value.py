"""Value function tests: brute-force equality, desk values, DPP residuals."""

import itertools
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path as FsPath
from typing import Optional

import numpy as np
import pytest

import phjb.value
from phjb.checks import CHECKS, build_net
from phjb.config import load_config
from phjb.dynamics import (
    Coefficients,
    ControlSignal,
    _control_array,
    _terminal_cost,
    mild_solve,
    step_once,
)
from phjb.paths import Net, Path, TimeGrid
from phjb.scenarios import (
    eikonal,
    eikonal_value,
    feedback,
    has_certificates,
    runmax,
    runmax_value,
    touching_points,
)
from phjb.value import (
    BudgetExceeded,
    ValueTable,
    _first_minima,
    _step_costs,
    hamiltonian,
    verify_dpp_consistency,
    verify_value_regularity,
)

from conftest import level_children, split_key

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"


def _interval_cost(c, prefix, nxt, u) -> float:
    """The trapezoid running cost of the step prefix -> nxt under u, as the
    value recursion prices it."""
    U = _control_array((u,))
    return float(_step_costs(c, prefix.step, prefix.samples[None], U, nxt.samples[None])[0])


def cost_J(c, g, u) -> float:
    """J(gamma_t; u): running cost trapezoids plus terminal cost, one path
    at a time. The trapezoids are summed tail-first over the prefixes of
    the mild solution, so the cost reproduces the value recursion exactly."""
    traj = mild_solve(c, g, u)
    nodes = [traj._head(k) for k in range(g.n_nodes, traj.n_nodes + 1)]
    total = _terminal_cost(c, traj)
    for uk, prefix, nxt in reversed(list(zip(u.values, nodes, nodes[1:]))):
        total = _interval_cost(c, prefix, nxt, uk) + total
    return total


def _q(c, g, u) -> float:
    """The running cost of one path under one control, as a float."""
    return float(c.running_cost(g.samples[None], np.array([u]))[0])


def _phi(c, g) -> float:
    """The terminal cost of one path, as a float."""
    return float(c.terminal_cost(g.samples[None])[0])


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
            pieces.append(0.5 * dt * (_q(c, traj, u) + _q(c, nxt, u)))
            traj = nxt
        total = _phi(c, traj)
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


def test_hamiltonian_is_the_min_form():
    sc = eikonal()
    val, u = hamiltonian(sc.coefficients, sc.initial, np.array([2.0]))
    assert (val, u) == (-2.0, -1.0)


def _scan_hamiltonian(c, g, p):
    """hamiltonian's min form as it scanned the controls one at a time."""
    p = g.space.check_vector(p)
    S = g.samples[None].repeat(len(c.control_set), axis=0)
    U = _control_array(c.control_set)
    F = np.asarray(c.drift(S, U), dtype=np.float64)
    q = c.running_cost(S, U)
    best_val, best_u = None, None
    for u, f, qu in zip(c.control_set, F, q):
        val = float(p @ f) + float(qu)
        if best_val is None or val < best_val:
            best_val, best_u = val, u
    return best_val, best_u


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
def test_hamiltonian_equals_the_control_scan_bit_for_bit(build):
    sc = build()
    rng = np.random.default_rng(11)
    dim = sc.space.dim
    ps = [np.zeros(dim), np.ones(dim)] + [rng.normal(0.0, 3.0, dim) for _ in range(40)]
    for n in range(1, sc.grid.n_steps + 2):
        g = Path(sc.space, sc.grid.step, rng.normal(size=(n, dim)))
        for p in ps:
            val, u = hamiltonian(sc.coefficients, g, p)
            want, want_u = _scan_hamiltonian(sc.coefficients, g, p)
            assert (np.float64(val).tobytes(), u) == (np.float64(want).tobytes(), want_u)


def test_hamiltonian_refuses_a_one_row_running_cost_or_drift():
    sc = eikonal()
    p = np.array([-1.0])
    one_row_cost = replace(sc.coefficients, running_cost=lambda S, U: np.zeros(1))
    with pytest.raises(ValueError, match="running_cost returned shape"):
        hamiltonian(one_row_cost, sc.initial, p)
    one_row_drift = replace(sc.coefficients, drift=lambda S, U: np.zeros((1, S.shape[2])))
    with pytest.raises(ValueError, match="drift returned shape"):
        hamiltonian(one_row_drift, sc.initial, p)


def test_a_drift_with_the_wrong_row_count_is_refused_with_both_shapes():
    sc = eikonal()
    one_row = replace(sc.coefficients, drift=lambda S, U: np.zeros((1, S.shape[2])))
    with pytest.raises(ValueError, match=re.escape("drift returned shape (1, 1), expected (3, 1)")):
        hamiltonian(one_row, sc.initial, np.array([-1.0]))
    two_rows = replace(sc.coefficients, drift=lambda S, U: np.zeros((2, S.shape[2])))
    with pytest.raises(ValueError, match=re.escape("drift returned shape (2, 1), expected (1, 1)")):
        step_once(two_rows, sc.initial, 1.0)


def _scan_first_minima(vals) -> list:
    """_first_minima as it scanned each row with a strict `<`."""
    picks = []
    for row in vals.tolist():
        best = 0
        for j, v in enumerate(row):
            if v < row[best]:
                best = j
        picks.append(best)
    return picks


def test_first_minima_equals_the_strict_scan_on_non_finite_rows():
    rng = np.random.default_rng(5)
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0])
    for width in (1, 2, 3, 5):
        vals = pool[rng.integers(len(pool), size=(4000, width))]
        assert _first_minima(vals) == _scan_first_minima(vals)
        finite = vals[np.isfinite(vals).all(axis=1)]
        assert _first_minima(finite) == _scan_first_minima(finite)


def test_cost_refuses_a_terminal_cost_that_is_not_a_one_row_block():
    sc = eikonal()
    c = replace(sc.coefficients, terminal_cost=lambda S: float(abs(S[0, -1, 0])))
    u = ControlSignal.constant(0.0, 0.0, 1.0, sc.grid.step)
    with pytest.raises(ValueError, match="terminal_cost returned shape"):
        cost_J(c, sc.initial, u)


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
    v = ValueTable(sc.coefficients, sc.grid).value(sc.initial)
    assert v == brute_force_value(sc.coefficients, sc.initial, sc.grid)


def test_runmax_value_equals_brute_force_on_finer_grid():
    sc = runmax(step=1.0 / 6)  # 3^6 assignments
    g = Path(sc.space, sc.grid.step, np.array([[0.2], [0.6]]))
    v = ValueTable(sc.coefficients, sc.grid).value(g)
    assert v == brute_force_value(sc.coefficients, g, sc.grid)


def test_feedback_value_equals_brute_force():
    sc = feedback()
    v = ValueTable(sc.coefficients, sc.grid).value(sc.initial)
    assert v == pytest.approx(
        brute_force_value(sc.coefficients, sc.initial, sc.grid), abs=1e-12
    )


def test_eikonal_desk_values():
    sc = eikonal()
    g1 = Path.constant(sc.space, sc.grid.step, np.array([0.5]), horizon=0.0)
    g2 = Path.constant(sc.space, sc.grid.step, np.array([1.5]), horizon=0.0)
    table = ValueTable(sc.coefficients, sc.grid)
    assert table.value(g1) == 0.0
    assert table.value(g2) == 0.5
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
    res = verify_dpp_consistency(ValueTable(sc.coefficients, sc.grid), sc.initial)
    assert res  # at least one intermediate horizon
    for s, r in res.items():
        assert r == 0.0, (s, r)


def test_dpp_residuals_zero_from_nontrivial_prefix():
    sc = runmax()
    g = Path(sc.space, sc.grid.step, np.array([[0.2], [1.0], [0.5]]))
    res = verify_dpp_consistency(ValueTable(sc.coefficients, sc.grid), g)
    assert all(r == 0.0 for r in res.values())


def test_optimal_control_cost_matches_value():
    sc = eikonal()
    g = Path.constant(sc.space, sc.grid.step, np.array([0.6]), horizon=0.0)
    table = ValueTable(sc.coefficients, sc.grid)
    v = table.value(g)
    sig, traj = table.policy(g)
    assert cost_J(sc.coefficients, g, sig) == v
    assert traj.horizon == pytest.approx(sc.grid.T)


def test_policy_trajectory_ends_at_the_optimal_terminal_cost():
    sc = runmax()
    table = ValueTable(sc.coefficients, sc.grid)
    sig, traj = table.policy(sc.initial)
    assert len(sig.values) == sc.grid.n_steps - (sc.initial.n_nodes - 1)
    assert table.value(traj) == _phi(sc.coefficients, traj)
    assert cost_J(sc.coefficients, sc.initial, sig) == table.value(sc.initial)


# memoization and budget -------------------------------------------------


def test_state_memoization_hits():
    sc = eikonal()
    table = ValueTable(sc.coefficients, sc.grid)
    table.value(sc.initial)
    assert table.hits > 0


def test_budget_exceeded_without_a_state():
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
        ValueTable(stripped, sc.grid, budget=1000).value(sc.initial)


def test_budget_guard_also_watches_memo_growth():
    sc = eikonal(step=1.0 / 16)
    with pytest.raises(BudgetExceeded):
        ValueTable(sc.coefficients, sc.grid, budget=10).value(sc.initial)


def test_a_root_on_another_step_is_refused():
    """A net on another step than the table's is refused before anything is
    valued, and paths on two steps never make one net (`Net.of`)."""
    sc = eikonal()  # grid step 0.25
    table = ValueTable(sc.coefficients, sc.grid)
    coarse = Path(sc.space, 0.5, [[1.6]])  # valued 0.1, and run to horizon 2.0, if let in
    fine = Path(sc.space, sc.grid.step, [[1.6], [1.6]])
    calls = [
        lambda: table.value(coarse),
        lambda: table.policy(coarse),
        lambda: table.values(Net.of([coarse, Path(sc.space, 0.5, [[1.6], [1.6]])])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="step 0.5 is not the grid step 0.25"):
            call()
    assert not table.memo
    # the path is not the first of its node-count run
    with pytest.raises(ValueError, match="share one step"):
        Net.of([sc.initial, fine, Path(sc.space, 0.5, [[1.6], [1.6]])])


# memo keys ---------------------------------------------------------------


_STATISTIC_BYTES = {"eikonal": 8, "runmax": 16, "feedback": 16}


def test_a_constant_state_gives_each_node_count_one_key():
    sc = eikonal()
    c = replace(sc.coefficients, state=lambda S: np.zeros((len(S), 1, 1)))
    table = ValueTable(c, sc.grid)
    zero = bytes(8)
    assert [split_key(k) for k in table._keys(np.ones((3, 2, 1)))[1]] == [(2, zero)] * 3
    table.value(sc.initial)
    keys = sorted(map(split_key, table.memo))
    assert keys == [(n, zero) for n in range(sc.initial.n_nodes, sc.grid.n_steps + 1)]


def test_roots_are_keyed_before_the_children_of_their_level():
    # the memo takes a level's keys in the order the level first meets them,
    # so the key of the root r heads those of 2 nodes, ahead of the children
    # of the initial path, as it does when r is valued first
    sc = eikonal()
    r = Path(sc.space, sc.grid.step, [[1.5], [1.5]])
    table = ValueTable(sc.coefficients, sc.grid)
    table.values(Net.of([sc.initial, r]))
    first = ValueTable(sc.coefficients, sc.grid)
    first.value(r)
    first.value(sc.initial)
    at_two = [key for key in table.memo if split_key(key)[0] == 2]
    assert split_key(at_two[0]) == (2, r.endpoint.tobytes()) and len(at_two) == 4
    assert at_two == [key for key in first.memo if split_key(key)[0] == 2]
    assert table.memo == first.memo


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("keyed", [True, False])
def test_every_memo_key_is_a_node_count_and_the_bytes_of_a_statistic(build, keyed):
    sc = build()
    c = sc.coefficients if keyed else replace(sc.coefficients, state=None)
    table = ValueTable(c, sc.grid)
    table.value(sc.initial)
    assert len(table.memo) > 0
    for key in table.memo:
        assert type(key) is bytes
        n, raw = split_key(key)
        assert sc.initial.n_nodes <= n <= sc.grid.n_steps
        assert len(raw) == (_STATISTIC_BYTES[sc.name] if keyed else n * sc.space.dim * 8)


@pytest.mark.parametrize(
    "state",
    [
        lambda S: [s.tobytes() for s in S[:, -1]],  # a list
        lambda S: S[:, -1],  # two dimensions
        lambda S: S[:1, -1:],  # one row for any block
        lambda S: S[:, -1:].astype(object),  # objects, whose bytes are addresses
        lambda S: S[:, -1:].astype(int),  # integers, which the stepper cannot step
        lambda S: S[:, :0],  # no node, so no endpoint
        lambda S: np.zeros((len(S), 1, 2)),  # another dimension
    ],
)
def test_a_statistic_that_is_not_a_numeric_row_block_is_refused(state):
    sc = eikonal()
    table = ValueTable(replace(sc.coefficients, state=state), sc.grid)
    with pytest.raises(ValueError, match=r"state returned .*, expected an \(\d+, m, 1\) float block"):
        table.value(sc.initial)


def test_regularity_values_three_lists_and_calls_no_entry(monkeypatch):
    calls = Counter()
    for name in ("entry", "values"):

        def counting(self, arg, _real=getattr(ValueTable, name), _name=name):
            calls[_name] += 1
            return _real(self, arg)

        monkeypatch.setattr(ValueTable, name, counting)
    sc = eikonal(step=0.125)
    rep = verify_value_regularity(ValueTable(sc.coefficients, sc.grid), sc.space, seed=0)
    assert rep.summary["n_samples"] == 30 and rep.passed
    # the paths, their bumps and their extensions, one sweep for the three lists
    assert calls == Counter(values=1)


def test_dpp_enumeration_is_refused_beyond_the_budget():
    sc = eikonal(step=1.0 / 8)
    table = ValueTable(sc.coefficients, sc.grid, budget=1000)
    assert table.value(sc.initial) == 0.0
    assert len(table.memo) <= 1000  # the recursion fits, 3^8 leaves do not
    with pytest.raises(BudgetExceeded, match="3\\^8"):
        verify_dpp_consistency(table, sc.initial)


def test_smaller_control_set_never_beats_larger():
    sc = eikonal()
    from dataclasses import replace

    restricted = replace(sc.coefficients, control_set=(-1.0, 0.0))
    v_full = ValueTable(sc.coefficients, sc.grid).value(sc.initial)
    v_restricted = ValueTable(restricted, sc.grid).value(sc.initial)
    assert v_full <= v_restricted


# level-batched recursion against the one-node-at-a-time recursion -------


class NodeByNodeTable(ValueTable):
    """The value recursion as it was before it stepped whole levels: one
    prefix at a time, depth-first, in control order."""

    def entry(self, g: Path) -> tuple[float, object]:
        self._check_root(g)
        if g.n_nodes - 1 == self.grid.n_steps:
            return _phi(self.c, g), None
        key = self._keys(g.samples[None])[1][0]
        hit = self.memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        best_val: Optional[float] = None
        best_u = None
        for u in self.c.control_set:
            nxt = step_once(self.c, g, u)
            val = _interval_cost(self.c, g, nxt, u) + self.entry(nxt)[0]
            if best_val is None or val < best_val:
                best_val, best_u = val, u
        self.memo[key] = (best_val, best_u)
        if len(self.memo) > self.budget:
            raise BudgetExceeded(
                f"memo grew beyond budget {self.budget}; the declared state "
                "statistic does not collapse this instance"
            )
        return best_val, best_u


def _roots(sc) -> list:
    """The initial path and every comparison path the certificate scans read."""
    points = [tp.point for tp in touching_points(sc)] if has_certificates(sc) else []
    roots = [sc.initial]
    for point in points or [sc.initial]:
        roots += build_net(sc.coefficients, point, sc.grid, seed=3)
    return roots


def _matches_the_node_by_node_recursion(sc, c) -> None:
    roots = _roots(sc)
    ref = NodeByNodeTable(c, sc.grid)
    want = [ref.entry(g) for g in roots]
    assert len(ref.memo) > 0
    table = ValueTable(c, sc.grid)
    assert [table.entry(g) for g in roots] == want
    assert table.memo == ref.memo
    assert table.hits == ref.hits


@pytest.mark.parametrize(
    "build, step",
    [
        (eikonal, 0.25),
        (eikonal, 0.2),  # not grid 6 or 8, where a touching point is refused
        (runmax, 0.25),
        (runmax, 0.125),
        (feedback, 0.25),
        (feedback, 0.2),
    ],
)
@pytest.mark.parametrize("batch", [2, None])
def test_batched_table_matches_the_node_by_node_recursion(build, step, batch, monkeypatch):
    if batch is not None:  # levels then span several blocks
        monkeypatch.setattr(phjb.value, "_ROW_CAP", batch)
    sc = build(step=step)
    _matches_the_node_by_node_recursion(sc, sc.coefficients)


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("batch", [2, None])
def test_batched_brute_force_table_matches_the_node_by_node_recursion(build, batch, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(phjb.value, "_ROW_CAP", batch)
    sc = build(step=0.2)
    _matches_the_node_by_node_recursion(sc, replace(sc.coefficients, state=None))


def _smallest_passing_budget(table_type, c, grid, roots) -> int:
    def passes(budget):
        table = table_type(c, grid, budget=budget)
        try:
            for g in roots:
                table.value(g)
        except BudgetExceeded:
            return False
        return True

    lo, hi = 0, 10**6
    assert not passes(lo) and passes(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("keyed", [True, False])
def test_batched_table_refuses_at_the_same_budgets(build, keyed):
    sc = build()
    c = sc.coefficients if keyed else replace(sc.coefficients, state=None)
    roots = _roots(sc)[:40]
    smallest = _smallest_passing_budget(ValueTable, c, sc.grid, roots)
    assert smallest == _smallest_passing_budget(NodeByNodeTable, c, sc.grid, roots)


# the level-synchronous recursion: blocks stepped and refusals met in level order


@pytest.fixture
def stepped(monkeypatch) -> list:
    """(node count, parents, node count of the block) of every `step_rows`
    block the value module steps: the node count is that of the prefixes
    the block stands for, which hold more nodes than a block of states."""
    blocks = []
    step_rows = phjb.value.step_rows

    def counting(c, proto, P, controls, offset=0):
        blocks.append((P.shape[1] + offset, len(P), P.shape[1]))
        return step_rows(c, proto, P, controls, offset)

    monkeypatch.setattr(phjb.value, "step_rows", counting)
    return blocks


@pytest.mark.parametrize("cap", [16, None])
def test_each_level_of_a_run_is_stepped_once_per_row_cap_chunk(cap, stepped, monkeypatch):
    # one `values` call over roots of every node count
    if cap is not None:
        monkeypatch.setattr(phjb.value, "_ROW_CAP", cap)
    sc = runmax(step=0.125)
    roots = _roots(sc)
    runs = itertools.groupby(g.n_nodes for g in roots)
    assert len(list(runs)) > len({g.n_nodes for g in roots})  # node counts recur
    ValueTable(sc.coefficients, sc.grid).values(Net.of(roots))
    levels = [n for n, _, _ in stepped]
    assert levels == sorted(levels)
    rows = Counter()
    for n, parents, _ in stepped:
        rows[n] += parents
    chunks = Counter({n: -(-count // phjb.value._ROW_CAP) for n, count in rows.items()})
    assert Counter(levels) == chunks
    assert any(count > 1 for count in chunks.values()) == (cap is not None)


def test_memo_refusal_steps_no_level_past_the_overflow(stepped):
    sc = eikonal(step=1.0 / 16)
    full = ValueTable(sc.coefficients, sc.grid)
    full.value(sc.initial)
    # the fresh parents of each level are the memo entries of its node count
    per_level = sorted(Counter(split_key(key)[0] for key in full.memo).items())
    budget = 10
    fits, entries = [], 0
    for n, count in per_level:
        entries += count
        if entries > budget:
            break
        fits.append((n, count))
    stepped.clear()
    with pytest.raises(BudgetExceeded, match=f"memo grew beyond budget {budget}"):
        ValueTable(sc.coefficients, sc.grid, budget=budget).value(sc.initial)
    assert [(n, parents) for n, parents, _ in stepped] == fits and len(fits) > 1


@pytest.mark.parametrize("build, m", [(eikonal, 1), (runmax, 2), (feedback, 1)])
def test_the_sweep_steps_each_level_as_a_block_of_states(build, m, stepped):
    sc = build(step=0.2)
    roots = _roots(sc)
    ValueTable(sc.coefficients, sc.grid).values(Net.of(roots))
    assert {n for n, _, _ in stepped} == set(range(1, sc.grid.n_steps + 1))
    assert {nodes for _, _, nodes in stepped} == {m}


def _spoiled_at(c, *prefixes):
    """c with a NaN drift on the rows equal to one of the given prefixes,
    and no declared state, so the drift reads whole prefixes."""
    base = c.drift

    def drift(S, U):
        f = np.array(base(S, U), dtype=float)
        for p in prefixes:
            if S.shape[1] == p.n_nodes:
                f[(S == p.samples).all(axis=(1, 2))] = np.nan
        return f

    return replace(c, drift=drift, state=None)


def test_refusals_at_two_depths_raise_the_first_in_level_order():
    sc = feedback(step=0.2)
    c = sc.coefficients
    level = [sc.initial]
    for _ in range(3):
        level = level_children(c, level)
    # 27 prefixes of distinct keys: the last is stepped after the first
    # one's children in depth-first order, and before them in level order
    shallow, deep = level[-1], level_children(c, level[:1])[0]
    spoiled = _spoiled_at(c, shallow, deep)

    def message(fn) -> str:
        with pytest.raises(ValueError) as info:
            fn()
        return str(info.value)

    first_u = c.control_set[0]
    shallow_msg = message(lambda: step_once(spoiled, shallow, first_u))
    deep_msg = message(lambda: step_once(spoiled, deep, first_u))
    assert shallow_msg != deep_msg
    assert message(lambda: ValueTable(spoiled, sc.grid).value(sc.initial)) == shallow_msg
    assert message(lambda: NodeByNodeTable(spoiled, sc.grid).value(sc.initial)) == deep_msg


def test_a_refusal_from_a_block_of_states_names_the_time_of_its_prefix():
    sc = feedback(step=0.2)
    c = sc.coefficients
    level = [sc.initial]
    for _ in range(3):
        level = level_children(c, level)
    bad = level[5]  # of 4 nodes; no other prefix of the tree ends where it ends
    base = c.drift

    def drift(S, U):  # NaN at bad's endpoint, under feedback's endpoint state
        f = np.array(base(S, U), dtype=float)
        f[(S[:, -1] == bad.endpoint).all(axis=1)] = np.nan
        return f

    spoiled = replace(c, drift=drift)
    with pytest.raises(ValueError) as scalar:
        step_once(spoiled, bad, c.control_set[0])
    assert f"t={sc.grid.step * 3} " in str(scalar.value)
    with pytest.raises(ValueError) as table:
        ValueTable(spoiled, sc.grid).value(sc.initial)
    assert str(table.value) == str(scalar.value)


# nets valued in one sweep against value path by path ----------------------


def _nets(sc, seed=3) -> list:
    """The comparison net of every touching point, or of the initial path
    when the scenario has no certificates."""
    points = [tp.point for tp in touching_points(sc)] if has_certificates(sc) else []
    return [build_net(sc.coefficients, p, sc.grid, seed=seed) for p in points or [sc.initial]]


def unkeyed_runmax(step):
    """runmax with the exact sample bytes as its memo key."""
    sc = runmax(step=step)
    return replace(sc, coefficients=replace(sc.coefficients, state=None))


@pytest.mark.parametrize(
    "build, step",
    [
        (eikonal, 0.25),
        (eikonal, 0.2),
        (runmax, 0.25),
        (runmax, 0.125),
        (feedback, 0.25),
        (feedback, 0.2),
        (unkeyed_runmax, 0.25),
    ],
)
def test_values_of_a_net_match_value_path_by_path(build, step, monkeypatch):
    sc = build(step=step)
    nets = _nets(sc)
    if build is feedback:
        nets += _nets(replace(sc, initial=Path(sc.space, step, [[0.5, -0.25], [0.9, 0.1]])))
    joined = [g for net in nets for g in net]
    interleaved = [g for group in itertools.zip_longest(*nets) for g in group if g is not None]
    # each net in turn, then every net in one call in three orders, so node
    # counts recur and later roots hit keys that earlier roots carry
    for calls in (nets, [joined], [joined[::-1]], [interleaved]):
        ref = ValueTable(sc.coefficients, sc.grid)
        want = []  # after each call: the values, the memo and the hits
        for paths in calls:
            values = np.array([ref.value(g) for g in paths])
            want.append((values.tobytes(), dict(ref.memo), ref.hits))
        for cap in (phjb.value._ROW_CAP, 2):  # at 2, levels span several blocks that roots join
            monkeypatch.setattr(phjb.value, "_ROW_CAP", cap)
            table = ValueTable(sc.coefficients, sc.grid)
            got = []
            for paths in calls:
                got.append((table.values(Net.of(paths)).tobytes(), dict(table.memo), table.hits))
            assert got == want
            monkeypatch.undo()


def test_valuing_one_grouping_twice_leaves_it_as_it_was():
    sc = runmax()
    paths = Net.of(list(_nets(sc)[0]))
    groups = paths.groups
    kept = {n: (rows.copy(), S.copy()) for n, (rows, S) in groups.items()}
    ref = ValueTable(sc.coefficients, sc.grid)
    want = [(ref.values(paths).tobytes(), dict(ref.memo), ref.hits) for _ in range(2)]
    table = ValueTable(sc.coefficients, sc.grid)
    got = []
    for _ in range(2):
        out = np.empty(len(paths))
        table._sweep(paths[0], groups, out)
        got.append((out.tobytes(), dict(table.memo), table.hits))
    assert got == want
    assert list(groups) == list(kept)
    for n, (rows, S) in kept.items():
        assert np.array_equal(groups[n][0], rows) and groups[n][1].tobytes() == S.tobytes()


def _refusal(fn):
    with pytest.raises((ValueError, BudgetExceeded)) as info:
        fn()
    return type(info.value), str(info.value)


def test_values_refuse_where_value_refuses_path_by_path():
    sc = eikonal()
    grid = sc.grid
    net = list(_nets(sc)[0])  # spliced below, then made a net again
    beyond = Path(sc.space, grid.step, np.zeros((grid.n_steps + 2, 1)))
    stripped = replace(sc.coefficients, state=None)
    i = next(i for i in range(1, len(net)) if net[i - 1].n_nodes == net[i].n_nodes > 1)
    halved = Path(sc.space, grid.step / 2, net[i].samples)
    cases = [
        # a path beyond T, after paths that are valued first
        (sc.coefficients, 10**6, net[:40] + [beyond] + net[40:]),
        # a root whose control tree is over budget, 3^4 sequences against 27,
        # after paths whose trees fit (and whose memo stays below 27)
        (stripped, 27, net[:6] + [sc.initial]),
    ]
    for c, budget, paths in cases:
        ref = ValueTable(c, grid, budget=budget)
        table = ValueTable(c, grid, budget=budget)
        want = _refusal(lambda: [ref.value(g) for g in paths])
        assert _refusal(lambda: table.values(Net.of(paths))) == want
        assert table.memo == ref.memo and len(ref.memo) > 0
        assert table.hits == ref.hits
    # a root on another step, wherever it stands, makes no net, so no path is valued
    for paths in (
        net[:i] + [halved] + net[i:],
        net[:i] + [halved] + net[i:40] + [beyond],
        net[:5] + [beyond] + net[5:i] + [halved],
    ):
        with pytest.raises(ValueError, match="share one step"):
            Net.of(paths)
    # a memo that outgrows its budget is refused with the same error
    fine = eikonal(step=1.0 / 16)
    net = build_net(fine.coefficients, fine.initial, fine.grid, seed=3)
    want = _refusal(lambda: [ValueTable(fine.coefficients, fine.grid, budget=10).value(g) for g in net])
    got = _refusal(lambda: ValueTable(fine.coefficients, fine.grid, budget=10).values(net))
    assert got == want and want[0] is BudgetExceeded


# the DPP enumeration against one that steps and prices Path objects --------


def path_dpp_residuals(table, g) -> dict:
    """The DPP residuals as they were computed before the enumeration worked
    on sample blocks: one Path and one list of step costs per sequence."""
    c, grid = table.c, table.grid
    v0 = table.value(g)
    residuals = {}
    level = [(g, [])]
    for k in range(g.n_nodes, grid.n_steps + 1):
        children = level_children(c, [prefix for prefix, _ in level])
        steps = [(prefix, pieces, u) for prefix, pieces in level for u in c.control_set]
        level = [
            (nxt, pieces + [_interval_cost(c, prefix, nxt, u)])
            for (prefix, pieces, u), nxt in zip(steps, children)
        ]
        best = None
        for prefix, pieces in level:
            total = table.value(prefix)
            for piece in reversed(pieces):
                total = piece + total
            if best is None or total < best:
                best = total
        residuals[k * grid.step] = abs(v0 - best)
    return residuals


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("keyed", [True, False])
def test_dpp_residuals_equal_the_path_enumeration(build, keyed, monkeypatch):
    sc = build(step=0.2)
    c = sc.coefficients if keyed else replace(sc.coefficients, state=None)
    roots = [sc.initial] + [r for r in _roots(sc)[1:] if r.n_nodes <= 3][:6]
    # at a cap of 2, levels span several blocks; a spoiled memo makes the
    # residuals nonzero, so the association of the sums shows in their bits
    for cap, spoiled in itertools.product((phjb.value._ROW_CAP, 2), (False, True)):
        monkeypatch.setattr(phjb.value, "_ROW_CAP", cap)
        for g in roots:
            table, ref = ValueTable(c, sc.grid), ValueTable(c, sc.grid)
            for t in (table, ref) if spoiled else ():
                t.value(g)
                for i, (key, (v, u)) in enumerate(t.memo.items()):
                    t.memo[key] = (v + (i % 7) / 3, u)
            got = verify_dpp_consistency(table, g)
            want = path_dpp_residuals(ref, g)
            assert repr(got) == repr(want)
            assert any(got.values()) == spoiled
            assert table.memo == ref.memo and table.hits == ref.hits


@pytest.mark.parametrize("build, m", [(eikonal, 1), (runmax, 2), (feedback, 1)])
@pytest.mark.parametrize("keyed", [True, False])
def test_the_dpp_enumeration_steps_blocks_of_states(build, m, keyed, stepped):
    sc = build(step=0.2)
    c = sc.coefficients if keyed else replace(sc.coefficients, state=None)
    W, n = len(c.control_set), sc.initial.n_nodes
    table = ValueTable(c, sc.grid)
    table.value(sc.initial)
    stepped.clear()
    verify_dpp_consistency(table, sc.initial)
    # one block per level, each standing for every prefix of its node count
    levels = range(n, sc.grid.n_steps + 1)
    assert [(nodes, parents) for nodes, parents, _ in stepped] == [(k, W ** (k - n)) for k in levels]
    # the declared state's nodes, or without one the whole prefix
    assert [size for _, _, size in stepped] == [m if keyed else k for k in levels]


# refusals inside a block are the scalar stepper's -------------------------


def _spoiled_feedback(kind):
    """feedback whose drift is NaN, or of the wrong shape, on the paths
    starting at 9.0 (the middle parent below), with no declared state, so
    the drift reads whole prefixes."""
    base = feedback().coefficients

    def drift(S, U):
        spoiled = S[:, 0, 0] == 9.0
        if kind == "shape":
            return np.zeros((len(S), 3)) if spoiled.any() else base.drift(S, U)
        f = base.drift(S, U)
        f[spoiled] = np.nan
        return f

    return replace(base, drift=drift, state=None)


@pytest.mark.parametrize("kind", ["nan", "shape"])
def test_block_refusals_raise_the_scalar_error(kind):
    c = _spoiled_feedback(kind)
    sc = feedback()
    prefixes = [
        Path(sc.space, sc.grid.step, np.array([[x, 0.1], [0.2, -0.3]])) for x in (0.4, 9.0, -0.5)
    ]
    with pytest.raises(ValueError) as scalar:
        [step_once(c, p, u) for p in prefixes for u in c.control_set]
    with pytest.raises(ValueError) as level:
        level_children(c, prefixes)
    with pytest.raises(ValueError) as table:
        ValueTable(c, sc.grid).value(prefixes[1])
    with pytest.raises(ValueError) as one:
        step_once(c, prefixes[1], c.control_set[0])
    if kind == "nan":
        assert str(level.value) == str(scalar.value)
        assert str(table.value) == str(one.value)
        return
    # a wrong shape is the block's own error, with the block's row count
    W = len(c.control_set)
    assert str(scalar.value) == str(one.value) == "drift returned shape (1, 3), expected (1, 2)"
    assert str(level.value) == f"drift returned shape ({3 * W}, 3), expected ({3 * W}, 2)"
    assert str(table.value) == f"drift returned shape ({W}, 3), expected ({W}, 2)"


# one sweep per check ---------------------------------------------------------


def _counting_sweeps(monkeypatch) -> list:
    """Patch ValueTable._sweep to record the number of roots of each call."""
    sweeps = []
    real = ValueTable._sweep

    def counting(self, proto, roots, out):
        sweeps.append(len(out))
        return real(self, proto, roots, out)

    monkeypatch.setattr(ValueTable, "_sweep", counting)
    return sweeps


@pytest.mark.parametrize("grid", [4, 8])
def test_viscosity_values_every_touching_point_in_one_sweep(grid, monkeypatch):
    cfg = load_config(str(CONFIGS / "runmax.json"), grid_steps=grid, seed=0)
    sc = cfg.scenario
    nets = [build_net(sc.coefficients, tp.point, sc.grid, seed=0) for tp in touching_points(sc)]
    sweeps = _counting_sweeps(monkeypatch)
    table = ValueTable(sc.coefficients, sc.grid)
    rec = CHECKS["viscosity"](cfg, lambda: table)
    assert rec.summary["points"] == len(nets) > 1
    assert sweeps == [sum(len(net) for net in nets)]
    # stability values its initial path, once per table, and its first point's net
    sweeps.clear()
    table = ValueTable(sc.coefficients, sc.grid)
    CHECKS["stability"](cfg, lambda: table)
    assert sorted(sweeps) == [1] * (1 + len(cfg.epsilons)) + [len(nets[0])]


def entry_by_entry_policy(table, g) -> tuple:
    """The policy as it was read before: one `entry`, a sweep, per node."""
    controls, x = [], g
    while x.n_nodes - 1 < table.grid.n_steps:
        _, u = table.entry(x)
        controls.append(u)
        x = step_once(table.c, x, u)
    return controls, x


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("valued", [True, False])
def test_policy_sweeps_once_and_reads_each_later_node_from_the_memo(build, valued, monkeypatch):
    sc = build(step=0.125)
    g = sc.initial
    ref = NodeByNodeTable(sc.coefficients, sc.grid)
    table = ValueTable(sc.coefficients, sc.grid)
    if valued:
        assert table.value(g) == ref.value(g)
    want, want_traj = entry_by_entry_policy(ref, g)
    sweeps = _counting_sweeps(monkeypatch)
    sig, traj = table.policy(g)
    assert len(sig.values) == sc.grid.n_steps - (g.n_nodes - 1) > 1
    assert sweeps == [1]  # g's own entry, none for the nodes below it
    assert list(sig.values) == want and traj.samples.tobytes() == want_traj.samples.tobytes()
    assert table.memo == ref.memo and table.hits == ref.hits


def test_policy_raises_on_a_node_missing_from_the_memo():
    sc = runmax(step=0.125)
    table = ValueTable(sc.coefficients, sc.grid)
    real = table.entry

    def forgetful(g):  # g's entry, then a memo that lost everything below g
        out = real(g)
        table.memo.clear()
        table.memo[table._keys(g.samples[None])[1][0]] = out
        return out

    table.entry = forgetful
    with pytest.raises(KeyError):
        table.policy(sc.initial)


def parent_lookup(table, keys, fresh) -> tuple:
    """`ValueTable._lookup` as it looked each key up with `memo.get`, then
    `fresh.setdefault`, one comprehension each."""
    memo, start = table.memo, len(fresh)
    found = [memo.get(key) for key in keys]
    ref = [-1 if hit else fresh.setdefault(key, len(fresh)) for key, hit in zip(keys, found)]
    ref = np.array(ref, dtype=np.intp)
    rows = np.flatnonzero(ref > np.maximum.accumulate(np.append(start - 1, ref[:-1])))
    table.hits += len(keys) - len(rows)
    known = np.array([hit[0] if hit else 0.0 for hit in found])
    return known, ref, rows


@pytest.mark.parametrize("memo_size", [0, 5, 40])
@pytest.mark.parametrize("fresh_size", [0, 7])
def test_lookup_matches_the_comprehension_lookup(memo_size, fresh_size):
    rng = np.random.default_rng(memo_size + fresh_size)
    sc = eikonal()
    got_t, want_t = ValueTable(sc.coefficients, sc.grid), ValueTable(sc.coefficients, sc.grid)
    pool = got_t._keys(rng.normal(size=(60, 4, 1)))[1]  # 60 keys of prefixes of 4 nodes
    assert len(set(pool)) == 60
    memo = {key: (float(rng.normal()), -1.0) for key in pool[:memo_size]}
    fresh = dict((key, i) for i, key in enumerate(pool[50 : 50 + fresh_size]))
    blocks = [
        [pool[i] for i in rng.integers(0, 60, 200)],  # memo hits, repeats, keys already in fresh
        [pool[i] for i in rng.integers(40, 60, 50)],  # past the memo: no hit where it holds 40 keys
        [pool[45]] * 3,  # one key, repeated
        [],
    ]
    got_t.memo.update(memo)
    want_t.memo.update(memo)
    got_f, want_f = dict(fresh), dict(fresh)
    for keys in blocks:  # one level's blocks, sharing fresh
        got = got_t._lookup(list(keys), got_f)
        want = parent_lookup(want_t, list(keys), want_f)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert list(got_f.items()) == list(want_f.items())
        assert got_t.hits == want_t.hits
    assert got_t.memo == memo


# memo entries written when the memo is read ------------------------------


class EagerTable(ValueTable):
    """The table as it wrote each sweep's entries before the sweep returned."""

    def _sweep(self, proto, roots, out):
        super()._sweep(proto, roots, out)
        self.memo


def _deferred_run(table, calls) -> tuple:
    """What each call on table gives, in order, as its value bytes or
    refusal and the hits after it; then the memo's size and its entries in
    insertion order, read once, after the last call."""
    got = []
    for call in calls:
        try:
            out = call(table)
            out = out.tobytes() if isinstance(out, np.ndarray) else repr(out)
        except BudgetExceeded as exc:
            out = str(exc)
        got.append((out, table.hits))
    return got, len(table.memo), list(table.memo.items())


@pytest.mark.parametrize("drained", [True, False])
def test_entries_written_on_read_match_the_eager_memo(drained):
    sc = runmax()
    nets = [list(net) for net in _nets(sc)]
    g = sc.initial
    calls = [lambda t: t.values(Net.of([g] + nets[0])), lambda t: t.values(Net.of(nets[1]))]
    if drained:  # policy and the DPP enumeration read the memo before the third call
        calls += [lambda t: t.policy(g)[0].values, lambda t: verify_dpp_consistency(t, g)]
    # the third call's first block, the 3-node roots of nets[1], hits the second's keys
    calls.append(lambda t: t.values(Net.of(nets[2] + nets[1])))
    full, sizes = ValueTable(sc.coefficients, sc.grid), []
    for call in calls:
        call(full)
        sizes.append(len(full.memo))
    # each call's new entries in pricing order, the deepest level first
    items = list(full.memo.items())
    for lo, hi in zip([0] + sizes, sizes):
        counts = [split_key(key)[0] for key, _ in items[lo:hi]]
        assert counts == sorted(counts, reverse=True)
    # the third call fits beside the first call's entries, not beside the
    # second's too, which the second call added to the memo
    budget = sizes[-1] - 1
    assert sizes[1] > sizes[0]
    table = ValueTable(sc.coefficients, sc.grid, budget=budget)
    for call in calls[:2]:
        call(table)
    assert table._unwritten  # the sweeps' levels wait for a read
    assert len(table.memo) == sizes[1] and not table._unwritten
    table = ValueTable(sc.coefficients, sc.grid, budget=budget)
    got = _deferred_run(table, calls)
    assert got == _deferred_run(EagerTable(sc.coefficients, sc.grid, budget=budget), calls)
    assert got[0][-1][0].startswith(f"memo grew beyond budget {budget}")
    assert got[1:] == (sizes[-2], items[: sizes[-2]])
    ref = NodeByNodeTable(sc.coefficients, sc.grid)
    want = [(np.array([ref.value(p) for p in paths]).tobytes(), ref.hits) for paths in ([g] + nets[0], nets[1])]
    assert got[0][:2] == want
    assert dict(items[: sizes[1]]) == ref.memo
