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

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hilbert import SpectralSpace
from .paths import (
    GRID_TOL,
    Path,
    Refused,
    TimeGrid,
    Walks,
    all_finite,
    count_groups,
    group_rows,
    prefix_sup_norms,
    row_dots,
    sup_norms,
)
from .report import CheckRecord

__all__ = [
    "Coefficients",
    "ControlSignal",
    "step_once",
    "step_rows",
    "solve_rows",
    "mild_solve",
    "validate_hypothesis",
    "verify_state_estimates",
]

RATIO_PASS = 1.0 + 1e-9
_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class Coefficients:
    """Problem data: control set, drift F, running cost q, terminal cost phi.

    Every formula takes sample blocks: S is an (N, n, dim) array of N paths
    with n nodes on one space and step, and U an (N,) array of controls
    (numeric when the control labels are numbers). Row i of each result
    belongs to the path S[i] under the control U[i] and must not depend on
    the other rows. A single path g is the one-row block `g.samples[None]`.
    A result of another shape, or a formula's own exception, is the block's
    error; a non-finite drift is `paths.Refused`, a fault of one row.

    Attributes
    ----------
    name : str
        Identifier used in reports.
    control_set : tuple
        Finite control labels, iterated in order for tie-breaking.
    drift : callable
        F(S, U) -> (N, dim) array.
    running_cost : callable
        q(S, U) -> (N,) array.
    terminal_cost : callable
        phi(S) -> (N,) array, evaluated on full-horizon paths.
    lipschitz_L : float
        The constant L in the growth/Lipschitz assumptions; finite and > 0.
    state : callable, optional
        The state of each prefix for the value recursion: S -> an (N, m,
        dim) float block, m fixed, whose last node is the prefix's endpoint,
        on which drift, running_cost, terminal_cost and state give the bytes
        they give on S, also after the same samples are appended to both.
        The recursion steps states in place of prefixes, and prefixes of one
        node count whose states hold the same bytes share a memo entry.
        Without one the state is the whole prefix (brute force). Must be
        validated against full enumeration.
    """

    name: str
    control_set: tuple
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    running_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terminal_cost: Callable[[np.ndarray], np.ndarray]
    lipschitz_L: float
    state: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if len(self.control_set) == 0:
            raise ValueError("control_set must be nonempty")
        if not (math.isfinite(self.lipschitz_L) and self.lipschitz_L > 0.0):
            raise ValueError(f"lipschitz_L must be finite and > 0, got {self.lipschitz_L}")


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control on [start, start + step * len(values)]."""

    start: float
    step: float
    values: tuple

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
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


# -- the block stepper ----------------------------------------------------


def _control_array(controls) -> np.ndarray:
    """The control labels as a (W,) array: numeric when they are numbers,
    else an object array holding the labels themselves."""
    U = np.asarray(controls)
    if U.ndim != 1 or U.dtype.kind not in "biuf":
        U = np.fromiter(controls, dtype=object, count=len(controls))
    return U


def _drift_rows(c: Coefficients, S: np.ndarray, U: np.ndarray) -> np.ndarray:
    """F of every row of S under U as an (N, dim) float array; a result of
    another shape is the block's own error, naming both shapes."""
    f = np.asarray(c.drift(S, U), dtype=np.float64)
    if f.shape != (len(S), S.shape[2]):
        raise ValueError(f"drift returned shape {f.shape}, expected {(len(S), S.shape[2])}")
    return f


def _finite_drift(c: Coefficients, h: float, S: np.ndarray, U: np.ndarray, label, offset=0) -> np.ndarray:
    """`_drift_rows`, `Refused` unless finite; `label` is the control label
    of row 0, which a one-row refusal names at the time of the rows' last
    node, counting `offset` nodes before their first."""
    f = _drift_rows(c, S, U)
    if not all_finite(f):
        t = h * (offset + S.shape[1] - 1)
        message = f"non-finite drift at t={t} with control {label!r}, endpoint {S[0, -1]!r}"
        raise Refused(message)
    return f


def _costs(values, n: int, what: str) -> np.ndarray:
    """A block cost as an (n,) float array; any other shape is refused."""
    out = np.asarray(values, dtype=np.float64)
    if out.shape != (n,):
        raise ValueError(f"block {what} returned shape {out.shape}, expected ({n},)")
    return out


def _terminal_cost(c: Coefficients, g: Path) -> float:
    """phi of one path: the one-row block terminal cost, with its shape checked."""
    return float(_costs(c.terminal_cost(g.samples[None]), 1, "terminal_cost")[0])


def _step_block(c: Coefficients, proto: Path, S: np.ndarray, U: np.ndarray, label, offset=0) -> np.ndarray:
    """Every row of S, a read-only (N, n, dim) block of prefixes on proto's
    space and step, advanced one grid step under its control U[i], as a
    read-only (N, n + 1, dim) block.

    The step is the exponential trapezoid rule from x with f0 = F(x):
    e^{hA} x + (h/2) (e^{hA} f0 + F(pred)), pred = e^{hA} (x + h f0). Every
    operation is elementwise, so each row is stepped independently of the
    others. The drift's shape and finiteness, and the finiteness of the
    predictors and new samples, are checked once per block: a wrong shape
    is the block's own error, and a non-finite value is `Refused`. `label`
    is the control label of row 0, which a one-row refusal names, with the
    time of a prefix of `offset` more nodes than S holds.
    """
    h = proto.step
    N, n, dim = S.shape

    def extended(rows: np.ndarray) -> np.ndarray:
        # S followed by one (N, dim) row block
        if not all_finite(rows):
            raise Refused("samples must be finite")
        X = np.empty((N, n + 1, dim))
        X[:, :n] = S
        X[:, n] = rows
        X.flags.writeable = False
        return X

    E, x = proto.space.semigroup_factors(h), S[:, -1]
    f0 = _finite_drift(c, h, S, U, label, offset)
    pred = E * (x + h * f0)
    f1 = _finite_drift(c, h, extended(pred), U, label, offset)
    return extended(E * x + 0.5 * h * (E * f0 + f1))


def step_once(c: Coefficients, prefix: Path, u) -> Path:
    """Advance the mild solution by one grid step under a frozen control:
    the one-row case of the block stepper."""
    X = _step_block(c, prefix, prefix.samples[None], _control_array((u,)), u)
    return prefix._trusted(X[0])


def step_rows(c: Coefficients, proto: Path, P: np.ndarray, controls, offset: int = 0) -> tuple:
    """Every row of P stepped under every control, as one block.

    P is a read-only (B, n, dim) block of prefixes on proto's space and
    step, or of the states (`Coefficients.state`) of prefixes of n + offset
    nodes, whose time a refusal names. Returns (S, U, X) over the B * W
    children, parent-major in control order: S[i] is child i's parent, U[i]
    its control, and X[i] the child, an (n + 1, dim) row of a read-only
    block equal to `step_once(c, S[i], U[i])` bit for bit. The children are one `group_rows` group, so a block
    that raises `Refused` is stepped again child by child, each labelled by
    its own control, and the error raised is the one `step_once` raises
    first; any other error is the block's own.
    """
    S = np.repeat(P, len(controls), axis=0)
    S.flags.writeable = False
    U = _control_array(controls)[None].repeat(len(P), axis=0).ravel()

    def stepped(rows, B):  # a block is labelled by its first child's control
        label = controls[rows[0] % len(controls)] if len(B) else None
        return _step_block(c, proto, B, U[rows], label, offset)

    X = group_rows(stepped, S, [(np.arange(len(S)), S)])
    X.flags.writeable = False
    return S, U, X


def solve_rows(c: Coefficients, proto: Path, B: np.ndarray, first, signals) -> np.ndarray:
    """The mild solution from the head of every row of B, an (N, n, dim)
    block on proto's space and step, under its own control signal.

    Row i holds a prefix in its first first[i] nodes, driven from its horizon
    by signals[i]. The rows that step from one node count are one
    `_step_block`, each row joining and leaving at its own node counts.
    Returns the read-only block of the trajectories, each followed by the
    rest of its row of B (zeros past B), row i equal to `mild_solve` of its
    prefix under signals[i] bit for bit. A misaligned signal is `Refused`.
    """
    first = np.asarray(first)
    for t, u in zip([proto.step * (k - 1) for k in first.tolist()], signals):
        if abs(u.start - t) > GRID_TOL * max(1.0, t):
            raise Refused(f"control starts at {u.start}, prefix ends at {t}")
        if abs(u.step - proto.step) > GRID_TOL:
            raise Refused(f"control step {u.step} differs from path step {proto.step}")
    runs = [(None,) * k + u.values for k, u in zip(first.tolist(), signals)]  # [i][n]: row i's control from n nodes
    end = np.array([len(r) for r in runs])
    X = np.zeros((len(B), max([B.shape[1]] + end.tolist()), B.shape[2]))
    X[:, : B.shape[1]] = B
    events = sorted(set(first.tolist() + end.tolist()))  # between two of them, the same rows step
    for a, b in zip(events, events[1:]):
        at = ((first <= a) & (a < end)).nonzero()[0]
        S = X[at, :a]
        S.flags.writeable = False
        for step in zip(*(runs[i][a:b] for i in at.tolist())):
            S = _step_block(c, proto, S, _control_array(step), step[0])
        X[at, : S.shape[1]] = S
    X.flags.writeable = False
    return X


def mild_solve(c: Coefficients, g: Path, u: ControlSignal) -> Path:
    """Integrate the controlled state from the prefix g out to u.end: the
    one-row case of `solve_rows`."""
    return g._trusted(solve_rows(c, g, g.samples[None], [g.n_nodes], [u])[0])


# -- hypothesis validation ----------------------------------------------


def _worst(lhs, rhs, floor=True) -> float:
    """The largest of 0.0 and lhs / rhs, broadcast, where rhs > _DENOM_FLOOR
    if floor; a NaN ratio is passed over, as max(worst, r) passes it."""
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    kept = rhs > _DENOM_FLOOR if floor else ...
    return float(np.fmax.reduce((lhs[kept] / rhs[kept]).ravel(), initial=0.0))


def validate_hypothesis(
    c: Coefficients,
    space: SpectralSpace,
    grid: TimeGrid,
    *,
    n_pairs: int = 200,
    seed: int = 0,
) -> CheckRecord:
    """Sample path pairs and controls; report worst lhs/rhs ratios.

    Every pair (g, h) is drawn first, one `standard_normal` call a walk,
    into rows 2i and 2i + 1 of one `Walks` block carried to T. The drift
    and running cost of each prefix under each control are priced a
    node-count block at a time, and each worst ratio is one maximum over
    the (pair, control) block. A violation fails the record, it never
    raises; the worst ratio is the first largest in the order of `names`.
    """
    rng = np.random.default_rng(seed)
    L, C, dim = c.lipschitz_L, len(c.control_set), space.dim
    names = ["growth_F", "lip_F", "growth_q", "lip_q", "growth_phi", "lip_phi"]
    walks = Walks(rng, 2 * n_pairs, grid, dim, start_last=True)
    counts = np.array([walks.prefix(i) for i in range(2 * n_pairs)], dtype=int)
    B = walks.block(counts, space)

    # the (pair, control, g or h) units in the order the ratios read them
    at = np.broadcast_to(2 * np.arange(n_pairs)[:, None, None] + np.arange(2), (n_pairs, C, 2)).ravel()
    ctrl = np.broadcast_to(np.arange(C)[:, None], (n_pairs, C, 2)).ravel()
    labels = _control_array(c.control_set)

    def price(rows, S):
        U = labels[ctrl[rows]]
        f = _finite_drift(c, grid.step, S, U, c.control_set[ctrl[rows[0]]])
        return np.column_stack([f, _costs(c.running_cost(S, U), len(S), "running_cost")])

    FQ = group_rows(price, range(len(at)), count_groups(B, at, counts[at]))
    F, Q = FQ[:, :dim].reshape(n_pairs, C, 2, dim), FQ[:, dim].reshape(n_pairs, C, 2)
    Fg, dF = F[:, :, 0].reshape(-1, dim), (F[:, :, 0] - F[:, :, 1]).reshape(-1, dim)

    pair = np.arange(n_pairs)
    norms, gaps = prefix_sup_norms(B), prefix_sup_norms(B[0::2] - B[1::2])
    ng = norms[0::2][pair, counts[0::2] - 1]
    t = grid.step * (counts - 1)
    # d_infty: the earlier path carried to the later horizon
    d = np.abs(t[0::2] - t[1::2]) + gaps[pair, np.maximum(counts[0::2], counts[1::2]) - 1]
    phis = _costs(c.terminal_cost(B), len(B), "terminal_cost")
    each = (n_pairs, 1)  # a pair's bound, for each control
    ratios = [
        (row_dots(Fg, Fg).reshape(n_pairs, C), (L**2 * (1.0 + np.float_power(ng, 2.0))).reshape(each)),
        (np.sqrt(row_dots(dF, dF)).reshape(n_pairs, C), (L * d).reshape(each)),
        (np.abs(Q[:, :, 0]), (L * (1.0 + ng)).reshape(each)),
        (np.abs(Q[:, :, 0] - Q[:, :, 1]), (L * d).reshape(each)),
        (np.abs(phis[0::2]), L * (1.0 + norms[0::2, -1])),
        (np.abs(phis[0::2] - phis[1::2]), L * gaps[:, -1]),
    ]
    worst = {k: _worst(*r) for k, r in zip(names, ratios)}
    name = max(worst, key=worst.get)
    return CheckRecord(
        name="hypothesis",
        passed=all(r <= RATIO_PASS for r in worst.values()),
        summary={"worst": name, "worst_ratio": worst[name], "n_pairs": n_pairs},
        rows=[{"inequality": k, "ratio": v} for k, v in sorted(worst.items())],
    )


# -- solution map estimates ---------------------------------------------


def verify_state_estimates(
    c: Coefficients,
    space: SpectralSpace,
    grid: TimeGrid,
    *,
    n_samples: int = 100,
    seed: int = 0,
) -> CheckRecord:
    """Sample trajectories and report worst-case estimate constants.

    Checked (with empirical constants as max ratios):
      bounded:      ||X_T^gamma||_0 <= C (1 + ||gamma||_0)
      lip_initial:  ||X_T^gamma - X_T^eta||_0 <= C ||gamma - eta||_0
      near_initial: |X(s) - e^{(s-t)A} gamma(t)| <= C (1 + ||gamma||_0)(s - t)
      time_shift:   ||X_T^eta - X_T^{ext gamma}||_0
                      <= C [(1 + ||eta||_0)(tbar - t) + ||eta - gamma||_0]
    The Gronwall comparison value e^{LT} is reported alongside; the record
    passes when every constant is finite and lip_initial is within 5% of it.

    Every sample is drawn first, g and eta into rows 2i and 2i + 1 of one
    `Walks` block carried to T (a g drawn at T is drawn over), so eta cut
    or carried to g's horizon is the head of its row, and so is g carried
    to tbar. Each solve (a restart at T takes no step) ends at T, as a row of one block.
    """
    rng = np.random.default_rng(seed)
    h, T, n = grid.step, grid.T, grid.n_steps + 1
    walks = Walks(rng, 2 * n_samples, grid, space.dim, start_last=True)
    draws = []  # g's node count, eta's, the control index, tbar in steps after t
    for _ in range(n_samples):
        k = walks.prefix(2 * len(draws))
        u = int(rng.integers(len(c.control_set)))
        if h * (k - 1) < T - GRID_TOL:
            ke = walks.prefix(2 * len(draws) + 1)
            draws.append((k, ke, u, int(rng.integers(1, grid.n_steps - k + 2))))
    k, ke, u, j = np.array(draws, dtype=int).reshape(-1, 4).T
    m = len(k)
    B = walks.block(np.column_stack([k, ke]).ravel(), space)
    t, tbar = h * (k - 1), h * (k - 1) + h * j
    restart = tbar < T - GRID_TOL

    at, first = (2 * np.arange(m)[:, None] + [0, 1, 0]).ravel(), np.column_stack([k, k, k + j]).ravel()
    keys = list(zip(np.repeat(u, 3).tolist(), first.tolist()))
    signal = {x: ControlSignal.constant(c.control_set[x[0]], h * (x[1] - 1), T, h) for x in set(keys)}

    def solve(rows, S):  # the solves from g, eta and g carried to tbar, each to T
        return solve_rows(c, Path.zero(space, h, 0.0), S, first[rows], [signal[keys[i]] for i in rows])

    X, Y, Z = group_rows(solve, at, [(np.arange(len(at)), B[at])]).reshape(m, 3, n, space.dim).transpose(1, 0, 2, 3)

    draw, G, E = np.arange(m), B[0::2], B[1::2]
    ng, n_eta, gap0 = (prefix_sup_norms(x)[draw, k - 1] for x in (G, E, G - E))
    # short-time departure from the free flow, one and two steps on
    near = []
    for s, node in ((t + h, k), (np.minimum(T, t + 2 * h), np.minimum(k + 1, n - 1))):
        gap = X[draw, node] - G[draw, k - 1] * np.exp(space.eigenvalues * (s - t)[:, None])
        near.append(_worst(np.sqrt(row_dots(gap, gap)), (1.0 + ng) * (s - t), floor=False))
    denom = (1.0 + n_eta) * (tbar - t) + gap0
    consts = {
        "bounded": _worst(sup_norms(X), 1.0 + ng, floor=False),
        "lip_initial": _worst(sup_norms(X - Y), gap0),
        "near_initial": max(near),
        "time_shift": _worst(sup_norms(Z - Y)[restart], denom[restart]),
    }

    bound = float(np.exp(c.lipschitz_L * grid.T))
    finite = all(np.isfinite(v) for v in consts.values())
    return CheckRecord(
        name="estimates",
        passed=finite and consts["lip_initial"] <= 1.05 * bound,
        summary={"gronwall_bound": bound},
        rows=[{"estimate": k, "constant": v} for k, v in sorted(consts.items())],
    )
