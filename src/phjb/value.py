"""Hamiltonian and the exact dynamic-programming value.

ValueTable computes the exact minimum of the cost J(gamma_t; u), running
cost trapezoids plus terminal cost, over piecewise-constant control trees
by backward recursion. It carries the coefficients, grid and budget of one
control problem, and the checks here read all three from the table they
are given, so a check cannot mix one problem's values with another's
coefficients. The per-interval trapezoids are accumulated tail-first, so
the dynamic-programming identity holds to roundoff by construction, and
the value matches brute-force enumeration bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional

import numpy as np

from .dynamics import (
    Coefficients,
    ControlSignal,
    _control_array,
    _costs,
    _drift_rows,
    _terminal_cost,
    _worst,
    step_once,
    step_rows,
)
from .paths import (
    GRID_TOL,
    Net,
    Path,
    TimeGrid,
    Walks,
    all_finite,
    extend_semigroup,
    row_dots,
    sup_norm,
    trusted_path,
    vertical_bump,
)
from .hilbert import SpectralSpace
from .report import CheckRecord

__all__ = [
    "hamiltonian",
    "ValueTable",
    "value_record",
    "verify_dpp_consistency",
    "dpp_record",
    "verify_value_regularity",
]


def hamiltonian(c: Coefficients, g: Path, p):
    """min_u [ (p, F(gamma,u)) + q(gamma,u) ] with the achieving control.

    This is the min form, the Hamiltonian that the dynamic-programming
    equation of a minimized cost satisfies. The W controls are priced as
    one block of rows, checked as the value recursion checks its blocks,
    and ties break toward the earliest control in c.control_set, as the
    recursion's `_first_minima` breaks them.
    """
    p = g.space.check_vector(p)
    W = len(c.control_set)
    S = g.samples[None].repeat(W, axis=0)
    U = _control_array(c.control_set)
    F = _drift_rows(c, S, U)
    q = _costs(c.running_cost(S, U), W, "running_cost")
    vals = row_dots(F, p) + q  # each row reduced as `p @ f` reduces it
    j = _first_minima(vals[None])[0]
    return float(vals[j]), c.control_set[j]


# -- exact DPP value -----------------------------------------------------


# the most parents stepped as one block by the value recursion and the DPP
# enumeration, which step a tree level at a time: a larger level is stepped in
# blocks of this many parents, so one block of children holds at most
# _ROW_CAP * width rows (3.5 MB at 18 nodes in 2-D under 3 controls), and a
# block's fixed cost of about 87 us is spread over thousands of children
_ROW_CAP = 4096


class BudgetExceeded(RuntimeError):
    """Raised when the control tree is too large to enumerate exactly."""


def _step_costs(c: Coefficients, h: float, S, U, X) -> np.ndarray:
    """The trapezoid running cost of each step S[i] -> X[i] under U[i]."""
    n = len(S)
    q0 = _costs(c.running_cost(S, U), n, "running_cost")
    q1 = _costs(c.running_cost(X, U), n, "running_cost")
    return 0.5 * h * (q0 + q1)


def _first_minima(vals: np.ndarray) -> list:
    """For each row of a (B, W) array, the index that a strict `<` scan in
    order picks, as the one-at-a-time recursion picked it: argmin's first
    minimum, with a NaN passed over, and 0 in a row that starts with NaN."""
    if all_finite(vals):
        return vals.argmin(axis=1).tolist()
    nan = np.isnan(vals)
    picks = np.where(nan, np.inf, vals).argmin(axis=1)
    picks[nan[:, 0]] = 0
    return picks.tolist()


def _stepped(c: Coefficients, proto: Path, P: np.ndarray, controls, offset: int):
    """`step_rows` over the rows of P, a block of the states of prefixes of
    one node count (see `step_rows` for offset), _ROW_CAP parents at a
    time. Yields, for each block in order, its children's step costs and
    the children themselves, parent-major in control order."""
    for lo in range(0, len(P), _ROW_CAP):
        yield _priced(c, proto, P[lo : lo + _ROW_CAP], controls, offset)


def _priced(c: Coefficients, proto: Path, P: np.ndarray, controls, offset: int) -> tuple:
    """The step costs and the children of `step_rows` on P; the repeated
    parents die here, so a block's are gone before the next is stepped."""
    S, U, X = step_rows(c, proto, P, controls, offset)
    return _step_costs(c, proto.step, S, U, X), X


def _joined(parts: list) -> np.ndarray:
    """The arrays of parts end to end, without a copy when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _resolve(known: np.ndarray, ref: np.ndarray, vals: np.ndarray) -> None:
    """Fill in known[i] = vals[ref[i]] wherever ref[i] is not -1."""
    at = ref >= 0
    known[at] = vals[ref[at]]


class ValueTable:
    """Backward-recursion values over path prefixes, memoized.

    With no declared state the memo key holds the exact sample bytes, so
    the recursion is plain brute force with sharing of identical prefixes; a
    scenario-declared state (`Coefficients.state`) collapses the tree and
    must be validated against enumeration before being trusted (see
    tests covering the built-in scenarios).

    Below the root prefixes the recursion works on blocks of states, a tree
    level at a time (see `_sweep`): a forward pass steps, keys and
    deduplicates each level as one block, split only at _ROW_CAP parents,
    with the roots of every node count keyed first in their level, and a
    backward pass prices the levels deepest first. Only the roots are
    `Path` objects.

    The memo maps one `bytes` key per state (see `_keys`) to (value, best
    control); a sweep's levels are written to it when `memo` is next read.
    """

    def __init__(self, c: Coefficients, grid: TimeGrid, *, budget: int = 10**6):
        self.c = c
        self.grid = grid
        self.budget = int(budget)
        self._memo: dict = {}
        self._unwritten = []  # per priced level, in order: (keys, values, picks)
        self.hits = 0

    @property
    def memo(self) -> dict:
        """The memo as one flat dict in insertion order: the levels priced
        since it was last read are written to it first, in pricing order, so
        a table that is not read after its last sweep never builds them."""
        controls = self.c.control_set
        for keys, vals, picks in self._unwritten:
            self._memo.update(zip(keys, zip(vals.tolist(), [controls[j] for j in picks])))
        self._unwritten.clear()
        return self._memo

    # one entry per node count and bytes of the row's state: (value, best control)
    def _keys(self, S: np.ndarray, n: Optional[int] = None) -> tuple:
        """The states of the rows of S, a block of prefixes of n nodes (of
        S's node count by default) or of their states stepped on, as one
        block, and the memo key of every row: one `bytes` object, which
        caches its hash, of n as 8 bytes and then the bytes of the row's
        state, the row itself unless the coefficients declare a state. A
        state that is not an (N, m, dim) float block is refused."""
        N, n, dim = len(S), S.shape[1] if n is None else n, S.shape[2]
        Z = S if self.c.state is None else self.c.state(S)
        block = isinstance(Z, np.ndarray) and Z.dtype == np.float64 and Z.ndim == 3
        if not (block and len(Z) == N and Z.shape[1] > 0 and Z.shape[2] == dim):
            got = f"{Z.dtype} {Z.shape}" if isinstance(Z, np.ndarray) else type(Z).__name__
            raise ValueError(f"state returned {got}, expected an ({N}, m, {dim}) float block")
        K = np.empty((N, 1 + Z.shape[1] * dim))
        K.view(np.int64)[:, 0] = n
        K[:, 1:] = Z.reshape(N, -1)
        return Z, K.view(np.dtype((np.void, K.shape[1] * 8))).ravel().tolist()

    def _check_root(self, g: Path) -> None:
        """The gate of the root prefixes of g's node count: refuse them
        beyond T, or non-terminal with a control tree over budget and no
        declared state. Roots of one node count and step share the outcome."""
        grid = self.grid
        steps_left = grid.n_steps - (g.n_nodes - 1)
        if steps_left < 0:
            raise ValueError(f"prefix horizon {g.horizon} beyond T {grid.T}")
        width = len(self.c.control_set)
        if self.c.state is None and steps_left > 0 and width**steps_left > self.budget:
            raise BudgetExceeded(
                f"{width}^{steps_left} control sequences exceed budget "
                f"{self.budget}; declare a state or coarsen the grid"
            )

    def entry(self, g: Path) -> tuple[float, object]:
        """V(g) and the first optimal control at g (None at T): the one-row
        case of `values`, with the control stored in the memo."""
        v = self.values(Net(g))[0]
        if g.n_nodes - 1 == self.grid.n_steps:
            return float(v), None
        return self.memo[self._keys(g.samples[None])[1][0]]

    def value(self, g: Path) -> float:
        return self.entry(g)[0]

    def values(self, net: Net) -> np.ndarray:
        """`value` of every path of net, in order, as one float array.

        The paths are valued in one sweep (see `_sweep`). Under the contract
        of `Coefficients.state`, its values, memo entries, argmins and hits
        are those that `value` on each path in turn gives. A net on another
        step is refused, and a root that `_check_root` refuses, a node count
        at a time, is refused after every path before it is valued.
        """
        if len(net) and abs(net.point.step - self.grid.step) > GRID_TOL:
            raise ValueError(f"prefix step {net.point.step} is not the grid step {self.grid.step}")
        for n, (rows, _) in net.groups.items():  # in order of their first root
            try:
                self._check_root(net.protos[n])
            except (ValueError, BudgetExceeded):
                self.values(Net.of(net[j] for j in range(rows[0])))
                raise
        out = np.empty(len(net))
        if net.groups:
            self._sweep(net.point, net.groups, out)
        return out

    def _lookup(self, keys: list, fresh: dict) -> tuple:
        """The values of keys as far as the memo holds them.

        A key in neither the memo nor fresh joins fresh, mapped to its index
        there, fresh's size as it joins; every other key counts as a hit.
        Returns (known, ref, rows): known[i] is the memo value of keys[i]
        where ref[i] is -1, and otherwise ref[i] is the key's index in fresh;
        rows are the indices of the keys that joined fresh. Each key is
        looked up by C-level passes, in the memo unless it is empty, then in
        fresh unless the memo holds it, and its hash is computed once, at
        the first of these.
        """
        memo, start, N = self.memo, len(fresh), len(keys)
        found = list(map(memo.get, keys)) if memo else []
        known, ref, miss = np.zeros(N), np.full(N, -1, dtype=np.intp), slice(None)
        if found.count(None) < len(found):  # the memo's values, and its misses on to fresh
            known[:] = [hit[0] if hit else 0.0 for hit in found]
            miss = [hit is None for hit in found]
            keys = list(itertools.compress(keys, miss))
        ref[miss] = np.fromiter(map(fresh.setdefault, keys, iter(fresh.__len__, None)), np.intp, len(keys))
        # new indices first occur in increasing order, each above every index before it
        rows = np.flatnonzero(ref > np.maximum.accumulate(np.append(start - 1, ref[:-1])))
        self.hits += N - len(rows)
        return known, ref, rows

    def _sweep(self, proto: Path, roots: Mapping, out: np.ndarray) -> None:
        """out[rows] = V of the roots of every node count at once.

        roots maps a node count to (rows, S): S is the read-only block of the
        roots of that node count on proto's space and step, and rows their
        indices in out. roots is only read, so one grouping (a `Net`'s) can
        be valued again.

        Two passes over node counts. The forward pass keys each level as
        blocks of rows: the roots of the level's node count first, then the
        children of the level's parents, stepped in blocks of at most
        _ROW_CAP parents, parent-major in control order. The first row to
        carry a key that is neither in the memo nor earlier in the level
        becomes a parent of the next level, and every other row is a hit.
        The rows at T, roots and children, are priced by the terminal cost
        instead. The backward
        pass, deepest level first, reads the roots' values from the head of
        each level, prices each child as its step cost plus its value, and
        keeps each parent's first cheapest control. Where rows of equal key
        have equal values, as `Coefficients.state` requires, the memo ends
        with the entries, values and argmins of `value` on each root in
        turn, and the same hits.

        A level's parents are held as one read-only block of their states,
        and their children are stepped from these, as the contract of
        `Coefficients.state` lets them be; a refusal still names the time
        of the prefixes. So the forward pass holds one level's states and
        one block of children at a time, besides the keys, costs and row
        values of every level; only without a declared state are these
        whole prefixes.

        Every parent becomes a memo entry, so the forward pass refuses as
        soon as the parents found so far would grow the memo beyond the
        budget, before it steps them. A budget met by a root prefix holds
        below it, where fewer steps are left. The backward pass keeps each
        level's keys, values and argmins for `memo` to write as entries.
        """
        c = self.c
        controls = c.control_set
        W = len(controls)
        n_T = self.grid.n_steps + 1  # the node count at T
        n = min(roots)
        keys, P = [], None  # the parents at n - 1 and the block of their states
        levels = []  # per level: parent keys, step costs, row values as `_lookup` gives them, roots
        pending = 0  # parents found so far, each a memo entry to come
        while True:
            at, R = roots.get(n, ([], None))
            costs, known, ref, parts, fresh = [], [], [], [], {}
            blocks = _stepped(c, proto, P, controls, n - 1 - P.shape[1]) if keys else ()
            if R is not None:  # the roots, keyed first
                blocks = itertools.chain([(None, R)], blocks)
            for cost, X in blocks:
                if cost is not None:  # children, not roots
                    costs.append(cost)
                if n == n_T:
                    known.append(_costs(c.terminal_cost(X), len(X), "terminal_cost"))
                    continue
                Z, K = self._keys(X, n)
                k, r, rows = self._lookup(K, fresh)
                self._check_memo(pending + len(fresh))
                known.append(k)
                ref.append(r)
                parts.append(Z[rows])
            levels.append((keys, costs, _joined(known), ref, at))
            if fresh:
                P = _joined(parts)
                P.flags.writeable = False
                keys = list(fresh)
                pending += len(keys)
                n += 1
            elif n < max(roots):  # no parents between here and the next roots
                keys, n = [], min(m for m in roots if m > n)
            else:
                break
        vals = np.empty(0)  # the values of the parents of the level below
        while levels:  # freeing each level once it is priced
            keys, costs, known, ref, at = levels.pop()
            if ref:
                _resolve(known, _joined(ref), vals)
            out[at] = known[: len(at)]
            if keys:
                total = (_joined(costs) + known[len(at) :]).reshape(-1, W)
                picks = _first_minima(total)
                vals = total[np.arange(len(total)), picks]
                self._unwritten.append((keys, vals, picks))

    def _check_memo(self, pending: int) -> None:
        """Refuse when pending more entries would grow the memo beyond budget."""
        if len(self.memo) + pending > self.budget:
            raise BudgetExceeded(
                f"memo grew beyond budget {self.budget}; the declared state "
                "statistic does not collapse this instance"
            )

    def policy(self, g: Path) -> tuple[ControlSignal, Path]:
        """An optimal control signal from g to T and its trajectory, by stored
        argmins: g's by `entry(g)`, whose one sweep stores every later node's,
        each read from the memo a hit per read (a missing key raises)."""
        controls, x = [], g
        while x.n_nodes - 1 < self.grid.n_steps:
            u = self.memo[self._keys(x.samples[None])[1][0]][1] if controls else self.entry(g)[1]
            controls.append(u)
            x = step_once(self.c, x, u)
        self.hits += max(len(controls) - 1, 0)
        return ControlSignal(g.horizon, g.step, controls), x


def value_record(cfg, value_table) -> CheckRecord:
    """The value at the config's initial path and its optimal control. Passes
    when the value is finite and, where the scenario has a closed form, within
    the residual tolerance of it."""
    sc = cfg.scenario
    table = value_table()
    v = table.value(sc.initial)
    sig, traj = table.policy(sc.initial)
    summary = {"value": v, "horizon": sc.initial.horizon}
    passed = bool(np.isfinite(v))
    if sc.closed_form is not None:
        cf = sc.closed_form(sc.initial, sc.grid)
        summary["closed_form"] = cf
        summary["gap"] = abs(v - cf)
        passed = passed and summary["gap"] <= cfg.tolerances["residual"]
    rows = [
        {
            "controls": list(sig.values),
            "endpoint": traj.endpoint.tolist(),
            "terminal_cost": _terminal_cost(sc.coefficients, traj),
        }
    ]
    return CheckRecord(name="value", passed=passed, summary=summary, rows=rows)


def verify_dpp_consistency(table: ValueTable, g: Path) -> dict:
    """Residuals |V(gamma_t) - min_u [ sum costs + V(X_s) ]| at every grid s.

    The inner minimum enumerates control assignments on [t, s] explicitly,
    stepping the states of each level (`Coefficients.state`) as the
    recursion's forward pass steps its parents, so no prefix below g is
    built. It accumulates tail-first, in the recursion's association: one
    column of step costs per level, each entry added to its subtree, last
    column first, to V read from the memo that `value(g)` fills, a hit per
    read, or to the terminal cost at T. The width^steps_left leaves are
    refused up front beyond the table's budget.
    """
    c, grid = table.c, table.grid
    width = len(c.control_set)
    steps_left = grid.n_steps - (g.n_nodes - 1)
    if width**steps_left > table.budget:
        raise BudgetExceeded(
            f"{width}^{steps_left} control sequences to enumerate exceed budget "
            f"{table.budget}; coarsen the grid"
        )
    v0 = table.value(g)
    memo, residuals = table.memo, {}
    # enumerate level by level so every intermediate horizon is covered
    states = [table._keys(g.samples[None])[0]]  # g's state
    columns = []  # step costs of each level so far, one entry per row of its level
    for k in range(g.n_nodes, grid.n_steps + 1):
        level, costs, vals, states = _joined(states), [], [], []  # level: the states of k-node prefixes
        for cost, X in _stepped(c, g, level, c.control_set, k - level.shape[1]):
            costs.append(cost)
            if k == grid.n_steps:
                vals.append(_costs(c.terminal_cost(X), len(X), "terminal_cost"))
                continue
            Z, keys = table._keys(X, k + 1)
            vals.append(np.array([memo[key][0] for key in keys]))
            table.hits += len(keys)
            states.append(Z)
        columns.append(_joined(costs))
        total = _joined(vals)
        for col in reversed(columns):  # each entry added to its subtree
            total = (col[:, None] + total.reshape(len(col), -1)).ravel()
        best = total[_first_minima(total[None])[0]]
        residuals[k * grid.step] = abs(v0 - float(best))
    return residuals


def dpp_record(cfg, value_table) -> CheckRecord:
    """The recursion residuals at the config's initial path, and the gap
    between the value and the terminal cost at the end of its optimal
    trajectory; both within the residual tolerance to pass."""
    sc = cfg.scenario
    table = value_table()
    residuals = verify_dpp_consistency(table, sc.initial)
    _, traj = table.policy(sc.initial)
    phi = _terminal_cost(sc.coefficients, traj)
    terminal_gap = abs(table.value(traj) - phi)
    worst = max(residuals.values(), default=0.0)
    tol = cfg.tolerances["residual"]
    return CheckRecord(
        name="dpp",
        passed=worst <= tol and terminal_gap <= tol,
        summary={"max_residual": worst, "terminal_gap": terminal_gap},
        rows=[{"s": s, "residual": r} for s, r in sorted(residuals.items())],
    )


# -- value regularity ----------------------------------------------------


def verify_value_regularity(
    table: ValueTable,
    space: SpectralSpace,
    *,
    seed: int,
    paths: Optional[list] = None,
) -> CheckRecord:
    """Empirical constants for growth, space-Lipschitz, and time regularity.

    constants:
      growth:   max |V(gamma_t)| / (1 + ||gamma||_0)
      space:    max |V(gamma_t) - V(eta_t)| / ||gamma - eta||_0
      time:     max |V(ext gamma to tbar) - V(gamma_t)| / ((1 + ||gamma||_0)(tbar - t))
    Without `paths`, 30 seeded random prefixes are sampled; pass `paths` to
    pin the sample set (used for grid-refinement stability). The record
    passes when every constant is finite.
    """
    grid = table.grid
    rng = np.random.default_rng(seed)
    if paths is None:  # views of the rows of one block of walks
        walks = Walks(rng, 30, grid, space.dim, start_last=True)
        counts = [walks.prefix(i) for i in range(30)]
        paths = [trusted_path(space, grid.step, x[:n]) for x, n in zip(walks.block(counts, space), counts)]
    bumps = [vertical_bump(g, rng.normal(0.0, 1.0, size=space.dim)) for g in paths]
    gaps = np.array([sup_norm(g - eta) for g, eta in zip(paths, bumps)])
    # the paths with a vertical companion, and with a one-step semigroup extension
    ib = np.flatnonzero(gaps > 1e-12)
    ix = [i for i, g in enumerate(paths) if g.horizon + grid.step <= grid.T + GRID_TOL]
    extended = [extend_semigroup(paths[i], min(paths[i].horizon + grid.step, grid.T)) for i in ix]
    # the paths, their companions and their extensions, in one sweep
    vg, ve, vx = np.split(table.values(Net.of([*paths, *(bumps[i] for i in ib), *extended])), [len(paths), len(paths) + len(ib)])
    ng = np.array([sup_norm(g) for g in paths])
    consts = {  # each the largest ratio, from 0.0, a NaN ratio passed over
        "growth": _worst(np.abs(vg), 1.0 + ng, floor=False),
        "space": _worst(np.abs(vg[ib] - ve), gaps[ib], floor=False),
        "time": _worst(np.abs(vx - vg[ix]), (1.0 + ng[ix]) * grid.step, floor=False),
    }
    return CheckRecord(
        name="regularity",
        passed=all(np.isfinite(v) for v in consts.values()),
        summary={"n_samples": len(paths)},
        rows=[{"constant": k, "value": v} for k, v in sorted(consts.items())],
    )
