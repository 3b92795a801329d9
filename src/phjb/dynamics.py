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
from typing import Callable, Hashable, NamedTuple, Optional

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
    "BlockForm",
    "Coefficients",
    "block_form",
    "ControlSignal",
    "step_once",
    "step_level",
    "step_rows",
    "mild_solve",
    "HypothesisReport",
    "validate_hypothesis",
    "StateEstimateReport",
    "verify_state_estimates",
    "random_prefix",
]

RATIO_PASS = 1.0 + 1e-9
_DENOM_FLOOR = 1e-12


class BlockForm(NamedTuple):
    """Coefficients on sample blocks, row for row equal to the scalar callables.

    S is an (N, n, dim) array of N paths with n nodes on one space and step,
    U an (N,) array of controls (numeric when the control labels are
    numbers). For every row i, each callable must give the bits its scalar
    counterpart gives on the path S[i] under the control U[i]:

    - drift(S, U) -> (N, dim) array;
    - running_cost(S, U) -> (N,) array;
    - terminal_cost(S) -> (N,) array;
    - state_key(S) -> list of N hashables (None when the coefficients
      declare no state_key).
    """

    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    running_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terminal_cost: Callable[[np.ndarray], np.ndarray]
    state_key: Optional[Callable[[np.ndarray], list]] = None


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
    block : BlockForm, optional
        The same coefficients on sample blocks, used by the value recursion
        and the level stepper; without one, the scalar callables are applied
        row by row. A copy that replaces a scalar callable must replace or
        drop the block too.
    """

    name: str
    control_set: tuple
    drift: Callable[[Path, object], np.ndarray]
    running_cost: Callable[[Path, object], float]
    terminal_cost: Callable[[Path], float]
    lipschitz_L: float
    state_key: Optional[Callable[[Path], Hashable]] = None
    block: Optional[BlockForm] = None

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


def _trapezoid(E: np.ndarray, x: np.ndarray, h: float, f0: np.ndarray, drift_at) -> np.ndarray:
    """One exponential trapezoid step from x with drift f0 = F(x):
    e^{hA} x + (h/2) (e^{hA} f0 + F(pred)), pred = e^{hA} (x + h f0),
    where drift_at(pred) supplies F(pred).

    Every operation is elementwise, so a (dim,) state and a block of states
    with a trailing dim axis give the same bits state for state.
    """
    pred = E * (x + h * f0)
    return E * x + 0.5 * h * (E * f0 + drift_at(pred))


def step_once(c: Coefficients, prefix: Path, u) -> Path:
    """Advance the mild solution by one grid step under a frozen control.

    Only the predictor and the new sample are validated; the prefix already is.
    """
    f0 = _checked_drift(c, prefix, u)
    x1 = _trapezoid(
        prefix.space.semigroup_factors(prefix.step),
        prefix.samples[-1],
        prefix.step,
        f0,
        lambda pred: _checked_drift(c, prefix._extended(pred[None, :]), u),
    )
    return prefix._extended(x1[None, :])


class _Refused(Exception):
    """A block failed a check; step_rows re-steps it child by child."""


def block_form(c: Coefficients, proto: Path) -> BlockForm:
    """c.block, or else c's scalar callables applied to each row of a block
    as a trusted path on proto's space and step (the rows are read-only
    views of an already checked block)."""
    if c.block is not None:
        return c.block

    def paths(S: np.ndarray) -> list:
        return [proto._trusted(s) for s in S]

    def per_row(fn, S, U) -> list:
        return [fn(p, u) for p, u in zip(paths(S), U.tolist())]

    return BlockForm(
        drift=lambda S, U: np.array(per_row(c.drift, S, U), dtype=np.float64),
        running_cost=lambda S, U: np.array(
            [float(q) for q in per_row(c.running_cost, S, U)]
        ),
        terminal_cost=lambda S: np.array([float(c.terminal_cost(p)) for p in paths(S)]),
        state_key=(
            None if c.state_key is None else lambda S: [c.state_key(p) for p in paths(S)]
        ),
    )


def _control_array(controls) -> np.ndarray:
    """The control labels as a (W,) array: numeric when they are numbers,
    else an object array holding the labels themselves."""
    U = np.asarray(controls)
    if U.ndim != 1 or U.dtype.kind not in "biuf":
        U = np.fromiter(controls, dtype=object, count=len(controls))
    return U


def step_rows(c: Coefficients, proto: Path, P: np.ndarray, controls) -> tuple:
    """Every row of P stepped under every control, as one block.

    P is a read-only (B, n, dim) block of prefixes on proto's space and
    step. Returns (S, U, X) over the B * W children, parent-major in control
    order: S[i] is child i's parent, U[i] its control, and X[i] the child,
    an (n + 1, dim) row of a read-only block equal to `step_once(c, S[i],
    U[i])` bit for bit. The drift's shape and finiteness, and the
    finiteness of the predictors and new samples, are checked once per
    block. On any refusal the block is re-stepped child by child, so the
    error raised is the one `step_once` raises first.
    """
    S = np.repeat(P, len(controls), axis=0)
    S.flags.writeable = False
    U = _control_array(controls)[None].repeat(len(P), axis=0).ravel()
    try:
        X = _step_block(block_form(c, proto), proto, S, U)
    except _Refused:
        X = np.stack(
            [step_once(c, proto._trusted(p), u).samples for p in P for u in controls]
        )
        X.flags.writeable = False
    return S, U, X


def _step_block(form: BlockForm, proto: Path, S: np.ndarray, U: np.ndarray) -> np.ndarray:
    h = proto.step
    N, n, dim = S.shape

    def extended(rows: np.ndarray) -> np.ndarray:
        # S followed by one (N, dim) row block
        if not all_finite(rows):
            raise _Refused
        X = np.empty((N, n + 1, dim))
        X[:, :n] = S
        X[:, n] = rows
        X.flags.writeable = False
        return X

    def drift(block: np.ndarray) -> np.ndarray:
        try:
            f = np.asarray(form.drift(block, U), dtype=np.float64)
        except Exception as exc:  # the drift's own error, or rows of mixed shapes
            raise _Refused from exc
        if f.shape != (N, dim) or not all_finite(f):
            raise _Refused
        return f

    x1 = _trapezoid(
        proto.space.semigroup_factors(h),
        S[:, -1],
        h,
        drift(S),
        lambda pred: drift(extended(pred)),
    )
    return extended(x1)


def step_level(c: Coefficients, prefixes: list, controls) -> list:
    """`step_once(c, p, u)` for every prefix p and control u, as one block.

    The prefixes share their space, step and node count. The children come
    back parent-major, in control order, as trusted read-only paths over the
    rows of one `step_rows` block, each equal to its `step_once` bit for bit.
    """
    if not prefixes:
        return []
    first = prefixes[0]
    P = np.stack([p.samples for p in prefixes])
    P.flags.writeable = False
    return [first._trusted(x) for x in step_rows(c, first, P, controls)[2]]


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
        g = random_prefix(rng, space, grid)
        h = random_prefix(rng, space, grid)
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
        g = random_prefix(rng, space, grid)
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
            eta = random_prefix(rng, space, grid)
            eta = eta._head(g.n_nodes) if (
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
