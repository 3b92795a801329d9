"""Cost functional, Hamiltonian, and the exact dynamic-programming value.

value_dpp computes the exact minimum of cost_J over piecewise-constant control
trees by backward recursion. Per-interval running costs use the same trapezoid
rule as cost_J and are accumulated in the same (backward) association, so the
dynamic-programming identity holds to roundoff by construction, and the value
matches brute-force enumeration bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import Coefficients, ControlSignal, mild_solve, random_prefix, step_once
from .paths import GRID_TOL, Path, TimeGrid, extend_semigroup, sup_norm, vertical_bump
from .hilbert import SpectralSpace

__all__ = [
    "cost_J",
    "hamiltonian",
    "ValueTable",
    "value_dpp",
    "optimal_control",
    "verify_dpp_consistency",
    "RegularityReport",
    "verify_value_regularity",
]


def _interval_cost(c: Coefficients, prefix: Path, nxt: Path, u) -> float:
    h = prefix.step
    return 0.5 * h * (float(c.running_cost(prefix, u)) + float(c.running_cost(nxt, u)))


def cost_J(c: Coefficients, g: Path, u: ControlSignal) -> float:
    """J(gamma_t; u): running cost trapezoids plus terminal cost.

    The trapezoids are summed tail-first over the prefixes of the mild
    solution, so the cost reproduces the value recursion exactly.
    """
    traj = mild_solve(c, g, u)
    nodes = [
        Path(traj.space, traj.step, traj.samples[:k])
        for k in range(g.n_nodes, traj.n_nodes + 1)
    ]
    total = float(c.terminal_cost(traj))
    for uk, prefix, nxt in reversed(list(zip(u.values, nodes, nodes[1:]))):
        total = _interval_cost(c, prefix, nxt, uk) + total
    return total


def hamiltonian(c: Coefficients, g: Path, p, *, minimize: bool = False):
    """max_u [ (p, F(gamma,u)) + q(gamma,u) ] with the achieving control.

    Ties break toward the earliest control in c.control_set. minimize=True
    returns the min form, which is the one the dynamic-programming equation
    of a minimized cost satisfies; the equation-side checks use that form.
    """
    p = g.space.check_vector(p)
    best_val: Optional[float] = None
    best_u = None
    for u in c.control_set:
        val = float(p @ np.asarray(c.drift(g, u))) + float(c.running_cost(g, u))
        if best_val is None or (val < best_val if minimize else val > best_val):
            best_val, best_u = val, u
    return best_val, best_u


# -- exact DPP value -----------------------------------------------------


class BudgetExceeded(RuntimeError):
    """Raised when the control tree is too large to enumerate exactly."""


class ValueTable:
    """Backward-recursion values over path prefixes, memoized.

    With no declared state_key the memo key is the exact sample bytes, so the
    recursion is plain brute force with sharing of identical prefixes; a
    scenario-declared sufficient statistic collapses the tree and must be
    validated against enumeration before being trusted (see
    tests covering the built-in scenarios).
    """

    def __init__(
        self,
        c: Coefficients,
        grid: TimeGrid,
        *,
        budget: int = 10**6,
        use_state_key: bool = True,
    ):
        self.c = c
        self.grid = grid
        self.budget = int(budget)
        self.state_key = c.state_key if use_state_key else None
        self.memo: dict = {}
        self.hits = 0

    # one entry per (prefix signature): (value, best control)
    def _key(self, g: Path):
        if self.state_key is not None:
            return (g.n_nodes, self.state_key(g))
        return (g.n_nodes, g.signature())

    def _check_budget(self, g: Path) -> None:
        steps_left = self.grid.n_steps - (g.n_nodes - 1)
        if self.state_key is None:
            width = len(self.c.control_set)
            if width**steps_left > self.budget:
                raise BudgetExceeded(
                    f"{width}^{steps_left} control sequences exceed budget "
                    f"{self.budget}; declare a state_key or coarsen the grid"
                )

    def entry(self, g: Path) -> tuple[float, object]:
        k, n_steps = g.n_nodes - 1, self.grid.n_steps
        if k > n_steps:
            raise ValueError(f"prefix horizon {g.horizon} beyond T {self.grid.T}")
        if k == n_steps:
            return float(self.c.terminal_cost(g)), None
        self._check_budget(g)
        key = self._key(g)
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

    def value(self, g: Path) -> float:
        return self.entry(g)[0]

    def policy(self, g: Path) -> tuple[tuple, Path]:
        """Optimal controls from g to T and their trajectory, following stored argmins."""
        controls = []
        x = g
        while x.n_nodes - 1 < self.grid.n_steps:
            _, u = self.entry(x)
            controls.append(u)
            x = step_once(self.c, x, u)
        return tuple(controls), x


def value_dpp(
    c: Coefficients,
    g: Path,
    grid: TimeGrid,
    *,
    budget: int = 10**6,
    use_state_key: bool = True,
    table: Optional[ValueTable] = None,
) -> float:
    """V(gamma_t): exact minimum of cost_J over the control tree."""
    if table is None:
        table = ValueTable(c, grid, budget=budget, use_state_key=use_state_key)
    return table.value(g)


def optimal_control(
    c: Coefficients,
    g: Path,
    grid: TimeGrid,
    *,
    table: Optional[ValueTable] = None,
    **kw,
) -> tuple[float, ControlSignal, Path]:
    """Value, an optimal control signal, and its trajectory."""
    if table is None:
        table = ValueTable(c, grid, **kw)
    v = table.value(g)
    controls, traj = table.policy(g)
    return v, ControlSignal(g.horizon, g.step, controls), traj


def verify_dpp_consistency(
    c: Coefficients,
    g: Path,
    grid: TimeGrid,
    *,
    table: Optional[ValueTable] = None,
    budget: int = 10**6,
) -> dict:
    """Residuals |V(gamma_t) - min_u [ sum costs + V(X_s) ]| at every grid s.

    The inner minimum enumerates control assignments on [t, s] explicitly and
    accumulates tail-first, matching the recursion's association. The
    width^steps_left leaves are refused up front beyond the table's budget.
    """
    if table is None:
        table = ValueTable(c, grid, budget=budget)
    width = len(c.control_set)
    steps_left = grid.n_steps - (g.n_nodes - 1)
    if width**steps_left > table.budget:
        raise BudgetExceeded(
            f"{width}^{steps_left} control sequences to enumerate exceed budget "
            f"{table.budget}; coarsen the grid"
        )
    v0 = table.value(g)
    residuals = {}
    # enumerate level by level so every intermediate horizon is covered
    level = [(g, [])]
    k0 = g.n_nodes - 1
    for k in range(k0 + 1, grid.n_steps + 1):
        nxt_level = []
        for prefix, pieces in level:
            for u in c.control_set:
                nxt = step_once(c, prefix, u)
                nxt_level.append((nxt, pieces + [_interval_cost(c, prefix, nxt, u)]))
        level = nxt_level
        best = None
        for prefix, pieces in level:
            total = table.value(prefix)
            for piece in reversed(pieces):
                total = piece + total
            if best is None or total < best:
                best = total
        residuals[k * grid.step] = abs(v0 - best)
    return residuals


# -- value regularity ----------------------------------------------------


@dataclass
class RegularityReport:
    """Empirical value-regularity constants on a sampled set of prefixes."""

    coefficients: str
    grid_step: float
    n_samples: int
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(np.isfinite(v) for v in self.constants.values())


def verify_value_regularity(
    c: Coefficients,
    space: SpectralSpace,
    grid: TimeGrid,
    *,
    n_samples: int = 30,
    seed: int = 0,
    scale: float = 1.0,
    budget: int = 10**6,
    paths: Optional[list] = None,
    table: Optional[ValueTable] = None,
) -> RegularityReport:
    """Empirical constants for growth, space-Lipschitz, and time regularity.

    constants:
      growth:   max |V(gamma_t)| / (1 + ||gamma||_0)
      space:    max |V(gamma_t) - V(eta_t)| / ||gamma - eta||_0
      time:     max |V(ext gamma to tbar) - V(gamma_t)| / ((1 + ||gamma||_0)(tbar - t))
    Pass `paths` to pin the sample set (used for grid-refinement stability),
    and `table` to read values from a table of c already in use.
    """
    rng = np.random.default_rng(seed)
    if table is None:
        table = ValueTable(c, grid, budget=budget)
    if paths is None:
        paths = [
            random_prefix(rng, space, grid, scale=scale) for _ in range(n_samples)
        ]
    consts = {"growth": 0.0, "space": 0.0, "time": 0.0}
    for g in paths:
        vg = table.value(g)
        ng = sup_norm(g)
        consts["growth"] = max(consts["growth"], abs(vg) / (1.0 + ng))
        # vertical companion at the same horizon
        bump = rng.normal(0.0, scale, size=space.dim)
        eta = vertical_bump(g, bump)
        gap = sup_norm(g - eta)
        if gap > 1e-12:
            consts["space"] = max(consts["space"], abs(vg - table.value(eta)) / gap)
        # one-step semigroup extension in time
        tbar = g.horizon + grid.step
        if tbar <= grid.T + GRID_TOL:
            ve = table.value(extend_semigroup(g, min(tbar, grid.T)))
            consts["time"] = max(
                consts["time"], abs(ve - vg) / ((1.0 + ng) * grid.step)
            )
    return RegularityReport(
        coefficients=c.name,
        grid_step=grid.step,
        n_samples=len(paths),
        constants=consts,
    )
