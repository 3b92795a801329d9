"""Controlled path dynamics: coefficients, the mild-solution integrator,
and samplers that validate the standing growth/Lipschitz assumptions.

The state equation is
    X(s) = e^{(s-t)A} gamma(t) + int_t^s e^{(s-sigma)A} F(X_sigma, u(sigma)) dsigma
for a prefix gamma_t and a piecewise-constant control u. The integrator is an
exponential trapezoid rule with one Picard correction of the predictor; each
grid step depends only on the prefix up to that step and the interval control,
so concatenating solves over [t, s] and [s, T] reproduces the single solve
over [t, T] bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from .hilbert import SpectralSpace
from .paths import (
    GRID_TOL,
    Path,
    TimeGrid,
    all_finite,
    extend_semigroup,
    metric_d_infty,
    sup_norm,
)

__all__ = [
    "Coefficients",
    "ControlSignal",
    "step_once",
    "mild_solve",
    "HypothesisReport",
    "validate_hypothesis",
    "StateEstimateReport",
    "verify_state_estimates",
    "random_prefix",
]

RATIO_PASS = 1.0 + 1e-9
_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class Coefficients:
    """Problem data: control set, drift F, running cost q, terminal cost phi.

    Attributes
    ----------
    name : str
        Identifier used in reports.
    control_set : tuple
        Finite control labels, iterated in order for tie-breaking.
    drift : callable
        F(gamma_t, u) -> (dim,) array.
    running_cost : callable
        q(gamma_t, u) -> float.
    terminal_cost : callable
        phi(zeta_T) -> float, evaluated on full-horizon paths.
    lipschitz_L : float
        The constant L in the growth/Lipschitz assumptions.
    state_key : callable, optional
        Sufficient statistic for the value recursion: prefix -> hashable.
        Must be validated against full enumeration before trusting it.
    """

    name: str
    control_set: tuple
    drift: Callable[[Path, object], np.ndarray]
    running_cost: Callable[[Path, object], float]
    terminal_cost: Callable[[Path], float]
    lipschitz_L: float
    state_key: Optional[Callable[[Path], Hashable]] = None

    def __post_init__(self):
        if len(self.control_set) == 0:
            raise ValueError("control_set must be nonempty")
        if self.lipschitz_L <= 0.0:
            raise ValueError(f"lipschitz_L must be > 0, got {self.lipschitz_L}")


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control on [start, start + step * len(values)]."""

    start: float
    step: float
    values: tuple

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.start < -GRID_TOL:
            raise ValueError(f"start must be >= 0, got {self.start}")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def end(self) -> float:
        return self.start + self.step * len(self.values)

    @staticmethod
    def constant(u, start: float, end: float, step: float) -> "ControlSignal":
        n = int(round((end - start) / step))
        if abs(start + n * step - end) > GRID_TOL * max(1.0, end) or n < 0:
            raise ValueError(f"[{start}, {end}] is not a whole number of steps {step}")
        return ControlSignal(start, step, (u,) * n)


def _checked_drift(c: Coefficients, prefix: Path, u) -> np.ndarray:
    f = np.asarray(c.drift(prefix, u), dtype=np.float64)
    if f.shape != (prefix.space.dim,):
        raise ValueError(
            f"drift returned shape {f.shape}, expected ({prefix.space.dim},)"
        )
    if not all_finite(f):
        raise ValueError(
            f"non-finite drift at t={prefix.horizon} with control {u!r}, "
            f"endpoint {prefix.endpoint!r}"
        )
    return f


def step_once(c: Coefficients, prefix: Path, u) -> Path:
    """Advance the mild solution by one grid step under a frozen control.

    Only the predictor and the new sample are validated; the prefix already is.
    """
    h = prefix.step
    E = prefix.space.semigroup_factors(h)
    x = prefix.samples[-1]
    f0 = _checked_drift(c, prefix, u)
    pred = E * (x + h * f0)
    f1 = _checked_drift(c, prefix._extended(pred[None, :]), u)
    x1 = E * x + 0.5 * h * (E * f0 + f1)
    return prefix._extended(x1[None, :])


def mild_solve(c: Coefficients, g: Path, u: ControlSignal) -> Path:
    """Integrate the controlled state from the prefix g out to u.end."""
    if abs(u.start - g.horizon) > GRID_TOL * max(1.0, g.horizon):
        raise ValueError(f"control starts at {u.start}, prefix ends at {g.horizon}")
    if abs(u.step - g.step) > GRID_TOL:
        raise ValueError(f"control step {u.step} differs from path step {g.step}")
    x = g
    for uk in u.values:
        x = step_once(c, x, uk)
    return x


# -- hypothesis validation ----------------------------------------------


def random_prefix(
    rng: np.random.Generator,
    space: SpectralSpace,
    grid: TimeGrid,
    *,
    scale: float = 1.0,
    min_nodes: int = 1,
) -> Path:
    """Seeded random-walk prefix with a horizon drawn from the grid."""
    n_max = grid.n_steps + 1
    n = int(rng.integers(min_nodes, n_max + 1))
    steps = rng.normal(0.0, scale * np.sqrt(grid.step), size=(n - 1, space.dim))
    start = rng.normal(0.0, scale, size=(1, space.dim))
    if n == 1:
        return Path(space, grid.step, start)
    samples = np.vstack([start, start + np.cumsum(steps, axis=0)])
    return Path(space, grid.step, samples)


@dataclass
class HypothesisReport:
    """Worst observed ratios for the six growth/Lipschitz inequalities."""

    coefficients: str
    n_pairs: int
    ratios: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r <= RATIO_PASS for r in self.ratios.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.ratios, key=self.ratios.get)
        return name, self.ratios[name]


def validate_hypothesis(
    c: Coefficients,
    space: SpectralSpace,
    grid: TimeGrid,
    *,
    n_pairs: int = 200,
    seed: int = 0,
    scale: float = 1.0,
) -> HypothesisReport:
    """Sample path pairs and controls; report worst lhs/rhs ratios.

    The report never raises on a violation; callers read `passed`.
    """
    rng = np.random.default_rng(seed)
    L = c.lipschitz_L
    names = ["growth_F", "lip_F", "growth_q", "lip_q", "growth_phi", "lip_phi"]
    worst = {k: 0.0 for k in names}

    def bump(name, lhs, rhs):
        if rhs > _DENOM_FLOOR:
            worst[name] = max(worst[name], lhs / rhs)

    for _ in range(n_pairs):
        g = random_prefix(rng, space, grid, scale=scale)
        h = random_prefix(rng, space, grid, scale=scale)
        d = metric_d_infty(g, h)
        ng, nh = sup_norm(g), sup_norm(h)
        for u in c.control_set:
            fg = _checked_drift(c, g, u)
            fh = _checked_drift(c, h, u)
            qg = float(c.running_cost(g, u))
            qh = float(c.running_cost(h, u))
            bump("growth_F", float(fg @ fg), L**2 * (1.0 + ng**2))
            bump("lip_F", float(np.linalg.norm(fg - fh)), L * d)
            bump("growth_q", abs(qg), L * (1.0 + ng))
            bump("lip_q", abs(qg - qh), L * d)
        zg = extend_semigroup(g, grid.T)
        zh = extend_semigroup(h, grid.T)
        pg = float(c.terminal_cost(zg))
        ph = float(c.terminal_cost(zh))
        bump("growth_phi", abs(pg), L * (1.0 + sup_norm(zg)))
        bump("lip_phi", abs(pg - ph), L * sup_norm(zg - zh))

    return HypothesisReport(coefficients=c.name, n_pairs=n_pairs, ratios=worst)


# -- solution map estimates ---------------------------------------------


@dataclass
class StateEstimateReport:
    """Empirical constants for the solution-map estimates."""

    coefficients: str
    grid_step: float
    n_samples: int
    constants: dict = field(default_factory=dict)
    gronwall_bound: float = float("nan")

    @property
    def passed(self) -> bool:
        finite = all(np.isfinite(v) for v in self.constants.values())
        return finite and self.constants.get("lip_initial", np.inf) <= 1.05 * self.gronwall_bound


def verify_state_estimates(
    c: Coefficients,
    space: SpectralSpace,
    grid: TimeGrid,
    *,
    n_samples: int = 100,
    seed: int = 0,
    scale: float = 1.0,
) -> StateEstimateReport:
    """Sample trajectories and report worst-case estimate constants.

    Checked (with empirical constants as max ratios):
      bounded:      ||X_T^gamma||_0 <= C (1 + ||gamma||_0)
      lip_initial:  ||X_T^gamma - X_T^eta||_0 <= C ||gamma - eta||_0
      near_initial: |X(s) - e^{(s-t)A} gamma(t)| <= C (1 + ||gamma||_0)(s - t)
      time_shift:   ||X_T^eta - X_T^{ext gamma}||_0
                      <= C [(1 + ||eta||_0)(tbar - t) + ||eta - gamma||_0]
    The Gronwall comparison value e^{LT} is reported alongside.
    """
    rng = np.random.default_rng(seed)
    consts = {k: 0.0 for k in ["bounded", "lip_initial", "near_initial", "time_shift"]}

    def solve_from(g: Path, u) -> Path:
        return mild_solve(c, g, ControlSignal.constant(u, g.horizon, grid.T, grid.step))

    for _ in range(n_samples):
        g = random_prefix(rng, space, grid, scale=scale)
        u = c.control_set[int(rng.integers(len(c.control_set)))]
        t = g.horizon
        ng = sup_norm(g)
        if t < grid.T - GRID_TOL:
            X = solve_from(g, u)
            consts["bounded"] = max(consts["bounded"], sup_norm(X) / (1.0 + ng))
            # short-time departure from the free flow
            for s in [t + grid.step, min(grid.T, t + 2 * grid.step)]:
                free = space.semigroup_apply(s - t, g.endpoint)
                gap = float(np.linalg.norm(X.value_at(s) - free))
                consts["near_initial"] = max(
                    consts["near_initial"], gap / ((1.0 + ng) * (s - t))
                )
            # same-horizon Lipschitz dependence on the prefix
            eta = random_prefix(rng, space, grid, scale=scale)
            eta = Path(space, grid.step, eta.samples[: g.n_nodes]) if (
                eta.n_nodes >= g.n_nodes
            ) else extend_semigroup(eta, t)
            Y = solve_from(eta, u)
            gap0 = sup_norm(g - eta)
            if gap0 > _DENOM_FLOOR:
                consts["lip_initial"] = max(
                    consts["lip_initial"], sup_norm(X - Y) / gap0
                )
            # restart from the semigroup extension at a later time
            tbar = t + grid.step * int(rng.integers(1, grid.n_steps - g.n_nodes + 2))
            if tbar < grid.T - GRID_TOL:
                Z = solve_from(extend_semigroup(g, tbar), u)
                denom = (1.0 + sup_norm(eta)) * (tbar - t) + sup_norm(g - eta)
                consts["time_shift"] = max(
                    consts["time_shift"],
                    sup_norm(Z - Y) / denom if denom > _DENOM_FLOOR else 0.0,
                )

    return StateEstimateReport(
        coefficients=c.name,
        grid_step=grid.step,
        n_samples=n_samples,
        constants=consts,
        gronwall_bound=float(np.exp(c.lipschitz_L * grid.T)),
    )
