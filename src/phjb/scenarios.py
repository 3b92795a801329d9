"""Desk-scale control scenarios with known structure.

Three instances back the executable checks:

* ``eikonal``: one-dimensional, zero generator, unit-speed control, terminal
  cost |end|. The value over the control lattice is min_{|k|<=K} |x + k dt|
  with K the remaining steps.
* ``runmax``: same dynamics, terminal cost is the running sup-norm, so the
  value of any prefix is its own sup-norm (stay still is optimal).
* ``feedback``: two-dimensional, drift couples the control direction with a
  radial retraction of the endpoint; no closed form, used for hypothesis and
  regularity checks.

For the two closed-form scenarios this module also builds touching
certificates: hand-constructed (phi, pack) pairs that realize the sub- and
super-side premises at selected points with analytically known margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import Coefficients
from .gauge import upsilon_rows
from .hilbert import SpectralSpace
from .paths import GRID_TOL, Path, TimeGrid, row_dots, sup_norm, sup_norms
from .testfn import GaugePack, TestFunctionPhi

__all__ = [
    "Scenario",
    "TouchingPoint",
    "eikonal",
    "runmax",
    "feedback",
    "SCENARIOS",
    "eikonal_value",
    "runmax_value",
    "has_certificates",
    "touching_points",
]


@dataclass(frozen=True)
class Scenario:
    name: str
    space: SpectralSpace
    grid: TimeGrid
    coefficients: Coefficients
    initial: Path
    closed_form: Optional[Callable[[Path, TimeGrid], float]] = None


# closed forms ----------------------------------------------------------


def eikonal_value(g: Path, grid: TimeGrid) -> float:
    """min over reachable lattice endpoints of |x + k step|: the one-row
    case of `_eikonal_rows`."""
    return float(_eikonal_rows(g, g.samples[None], grid)[0])


def _eikonal_rows(proto: Path, S: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """`eikonal_value` at the path of each row of S, a block with proto's
    node count and step."""
    k_left = grid.n_steps - (S.shape[1] - 1)
    if k_left < 0:
        raise ValueError("prefix outlives the horizon")
    k = np.arange(-k_left, k_left + 1)
    return np.abs(S[:, -1, :1] + k * proto.step).min(axis=1)


def runmax_value(g: Path, grid: TimeGrid) -> float:
    return sup_norm(g)


# builders --------------------------------------------------------------


def _flat_space(dim: int) -> SpectralSpace:
    return SpectralSpace(np.zeros(dim))


# coefficients on blocks: S is an (N, n, dim) block of paths, U an (N,)
# control array


def _control_column(S: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The control of each row as a one-dimensional drift, an (N, 1) block."""
    return np.asarray(U, dtype=np.float64)[:, None]


def _no_cost(S: np.ndarray, U: np.ndarray) -> np.ndarray:
    return np.zeros(len(S))


def eikonal(*, T: float = 1.0, step: float = 0.25, x0: float = 0.5) -> Scenario:
    space = _flat_space(1)
    grid = TimeGrid(T=T, step=step)
    coeffs = Coefficients(
        name="eikonal",
        control_set=(-1.0, 0.0, 1.0),
        drift=_control_column,
        running_cost=_no_cost,
        terminal_cost=lambda S: np.abs(S[:, -1, 0]),
        lipschitz_L=1.0,
        state=lambda S: S[:, -1:],
    )
    initial = Path.constant(space, step, np.array([x0]), horizon=0.0)
    return Scenario("eikonal", space, grid, coeffs, initial, eikonal_value)


def runmax(*, T: float = 1.0, step: float = 0.25, x0: float = 0.5) -> Scenario:
    space = _flat_space(1)
    grid = TimeGrid(T=T, step=step)
    coeffs = Coefficients(
        name="runmax",
        control_set=(-1.0, 0.0, 1.0),
        drift=_control_column,
        running_cost=_no_cost,
        terminal_cost=sup_norms,
        lipschitz_L=1.0,
        # the path [[sup_norm], [endpoint]]: as sqrt(x * x) == |x| (short of
        # underflow), its sup norm and endpoint are the prefix's
        state=lambda S: np.stack([sup_norms(S)[:, None], S[:, -1]], axis=1),
    )
    initial = Path.constant(space, step, np.array([x0]), horizon=0.0)
    return Scenario("runmax", space, grid, coeffs, initial, runmax_value)


def _norms(E: np.ndarray) -> np.ndarray:
    """The Euclidean norm sqrt(x . x) of each row x of the (N, dim) array E,
    with `row_dots`, so each row is reduced as `x.dot(x)` reduces it."""
    return np.sqrt(row_dots(E, E))


def _retract_rows(E: np.ndarray) -> np.ndarray:
    """The metric projection of each row of E onto the unit ball: a row of
    norm <= 1 is kept as it is, and dividing the others by max(r, 1)
    divides them by their norm r."""
    r = _norms(E)[:, None]
    return np.where(r <= 1.0, E, E / np.maximum(r, 1.0))


def feedback(*, T: float = 1.0, step: float = 0.25, x0=(0.5, -0.25)) -> Scenario:
    """Controlled direction plus a stabilizing radial retraction; dim 2.

    The retraction is the metric projection onto the unit ball, hence
    1-Lipschitz; L = 2 covers drift, running and terminal costs.
    """
    space = _flat_space(2)
    grid = TimeGrid(T=T, step=step)
    e1 = np.array([1.0, 0.0])
    coeffs = Coefficients(
        name="feedback",
        control_set=(-1.0, 0.0, 1.0),
        drift=lambda S, U: _control_column(S, U) * e1 - _retract_rows(S[:, -1]),
        running_cost=lambda S, U: _norms(S[:, -1]),
        terminal_cost=lambda S: _norms(S[:, -1]),
        lipschitz_L=2.0,
        state=lambda S: S[:, -1:],
    )
    initial = Path.constant(space, step, np.asarray(x0, dtype=float), horizon=0.0)
    return Scenario("feedback", space, grid, coeffs, initial, None)


SCENARIOS = {"eikonal": eikonal, "runmax": runmax, "feedback": feedback}


def has_certificates(sc: Scenario) -> bool:
    """Whether sc carries a certificate library: touching points and a
    classical candidate. Only the closed-form scenarios do."""
    return sc.name in ("eikonal", "runmax")


def _require_certificates(sc: Scenario) -> None:
    if not has_certificates(sc):
        raise ValueError(f"no certificate library for scenario {sc.name!r}")


# touching certificates -------------------------------------------------


@dataclass(frozen=True)
class TouchingPoint:
    """A point with certificates for both sides of the equation test."""

    point: Path
    phi_sub: TestFunctionPhi
    pack_sub: GaugePack
    phi_super: TestFunctionPhi
    pack_super: GaugePack
    label: str


def _path(sc: Scenario, values) -> Path:
    samples = np.asarray(values, dtype=float).reshape(-1, sc.space.dim)
    return Path(sc.space, sc.grid.step, samples)


def _constant(v):
    """The row formula that gives every row of a block the value v, a float
    or a (dim,) vector."""
    v = np.asarray(v, dtype=float)
    return lambda proto, S: np.full((len(S),) + v.shape, v)


def _touching(point: Path, label: str, sub: tuple, pack_sub: GaugePack, sup: tuple) -> TouchingPoint:
    """The certificates at point: the test functionals of the (rows, dt, dx)
    triples sub and sup, sub confined by pack_sub and sup by the zero pack."""
    return TouchingPoint(
        point=point,
        phi_sub=TestFunctionPhi(*sub, label=f"{label}-sub"),
        pack_sub=pack_sub,
        phi_super=TestFunctionPhi(*sup, label=f"{label}-super"),
        pack_super=GaugePack.zero(),
        label=label,
    )


def _eikonal_slope_point(sc: Scenario, values, label: str) -> TouchingPoint:
    """Certificates at a point with |end| > remaining time.

    There the lattice value is |y| - (T - s) exactly, so a signed-linear
    phi plus an anchored pack touches from above with margin 0; the same
    phi mirrored touches from below with a zero pack.
    """
    point = _path(sc, values)
    T = sc.grid.T
    sgn = 1.0 if float(point.endpoint[0]) >= 0.0 else -1.0
    gap = abs(float(point.endpoint[0])) - (T - point.horizon)
    if gap <= 0.25:
        raise ValueError(f"{label}: endpoint too close to the cone, gap {gap}")
    return _touching(
        point, label,
        (lambda proto, S: sgn * S[:, -1, 0] - (T - proto.horizon), _constant(1.0), _constant([sgn])),
        GaugePack.anchored(point, 2.0, label=f"{label}-pack"),
        (lambda proto, S: -sgn * S[:, -1, 0] + (T - proto.horizon), _constant(-1.0), _constant([-sgn])),
    )


def _runmax_endpoint_point(sc: Scenario, values, label: str) -> TouchingPoint:
    """Certificates where the endpoint is the strict running max."""
    point = _path(sc, values)
    x = float(point.endpoint[0])
    sgn = 1.0 if x >= 0.0 else -1.0
    others = np.abs(point.samples[:-1, 0])
    m2 = float(others.max()) if others.size else 0.0
    crossing = abs(x) - m2
    if crossing <= 0.0:
        raise ValueError(f"{label}: endpoint is not the strict max")
    t_hat = point.horizon
    delta0 = max(2.0, 1.0 / (2.0 * sc.grid.step), 1.0 / (2.0 * crossing))
    return _touching(
        point, label,
        (lambda proto, S: sgn * S[:, -1, 0] + (proto.horizon - t_hat), _constant(1.0), _constant([sgn])),
        GaugePack.anchored(point, delta0, label=f"{label}-pack"),
        (lambda proto, S: -sgn * S[:, -1, 0], _constant(0.0), _constant([-sgn])),
    )


def _runmax_interior_point(sc: Scenario, values, label: str) -> TouchingPoint:
    """Certificates where sample 1, a past sample, holds the strict running
    max.

    Sub side: constant m plus a linear endpoint correction, confined by
    c (Upsilon^2 - Upsilon^2(point)) with c = m^3 / (2 (m^4 - x^4)); that
    slope makes single-sample moves of the max cancel the value change to
    first order and the convexity of z^4 keeps every vertical move below
    the pack. The linear weight kills the composite gradient, so the
    half-relaxed term evaluates at p = 0.
    """
    j_star = 1
    point = _path(sc, values)
    m_signed = float(point.samples[j_star, 0])
    m = abs(m_signed)
    sgn_m = 1.0 if m_signed >= 0.0 else -1.0
    x = float(point.endpoint[0])
    rest = np.abs(np.delete(point.samples[:, 0], j_star))
    if not (m > abs(x) and (rest.size == 0 or m > float(rest.max()))):
        raise ValueError(f"{label}: sample {j_star} is not the strict max")
    c = m**3 / (2.0 * (m**4 - x**4))
    (y0,), grad = upsilon_rows(2.0, point.samples[None], True)
    w = -c * grad[0]
    sigma_star = j_star * sc.grid.step
    pack_sub = GaugePack(
        h=lambda s, y: c * (y - y0),
        h_t=lambda s, y: 0.0,
        h_y=lambda s, y: c,
        anchors=((point, 2.0),),
        label=f"{label}-pack",
    )
    return _touching(
        point, label,
        (lambda proto, S: m + row_dots(S[:, -1] - point.endpoint, w), _constant(0.0), _constant(w)),
        pack_sub,
        (lambda proto, S: -sgn_m * S[:, proto.node_at(sigma_star), 0], _constant(0.0), _constant([0.0])),
    )


def classical_candidate(sc: Scenario) -> tuple:
    """Closed-form value with piecewise derivatives, plus probe points.

    Points are chosen where the formula is genuinely smooth (zero residual),
    plus one kink the derivative probe must flag, plus one terminal path.
    Runmax points with the endpoint holding the max are excluded: there the
    value is one-sided in time and only the certificate check applies.
    """
    _require_certificates(sc)
    if sc.name == "eikonal":
        T = sc.grid.T

        def slope(proto: Path, S: np.ndarray) -> np.ndarray:
            """A mask of the rows in the slope region |end| > T - s."""
            return np.abs(S[:, -1, 0]) > (T - proto.horizon)

        w = TestFunctionPhi(
            rows=lambda proto, S: _eikonal_rows(proto, S, sc.grid),
            dt=lambda proto, S: np.where(slope(proto, S), 1.0, 0.0),
            dx=lambda proto, S: np.where(slope(proto, S), np.sign(S[:, -1, 0]), 0.0)[:, None],
            label="eikonal-value",
        )
        points = [
            _path(sc, [[1.2], [1.2], [1.2]]),
            _path(sc, [[-0.3], [-0.6], [-0.9]]),
            _path(sc, [[0.3], [0.8], [0.8], [0.8]]),
            _path(sc, [[0.5], [0.5], [0.5]]),  # |end| = T - t: kink, flagged
            _path(sc, [[0.25], [0.5]]),  # lattice cone tip: kink, flagged
            _path(sc, [[1.2]] * (sc.grid.n_steps + 1)),  # terminal row
        ]
        return w, [p for p in points if p.horizon <= T + GRID_TOL]

    def strict_end(proto: Path, S: np.ndarray) -> np.ndarray:
        """A mask of the rows whose endpoint is the strict max; a one-node
        path has no other sample, so its endpoint is."""
        return np.abs(S[:, -1, 0]) > np.abs(S[:, :-1, 0]).max(axis=1, initial=-np.inf)

    w = TestFunctionPhi(
        rows=lambda proto, S: sup_norms(S),
        dt=_constant(0.0),
        dx=lambda proto, S: np.where(strict_end(proto, S), np.sign(S[:, -1, 0]), 0.0)[:, None],
        label="runmax-value",
    )
    points = [
        _path(sc, [[0.2], [1.0], [0.5]]),
        _path(sc, [[-0.1], [-0.9], [0.3]]),
        _path(sc, [[0.5], [1.2], [0.9], [0.2]]),
        _path(sc, [[0.5], [0.5]]),  # endpoint ties the max: kink, flagged
        _path(sc, [[0.2], [1.0]] + [[0.5]] * (sc.grid.n_steps - 1)),  # terminal
    ]
    return w, [p for p in points if p.horizon <= sc.grid.T + GRID_TOL]


def touching_points(sc: Scenario) -> list:
    """Hand-built certificate points for the closed-form scenarios.

    Eikonal points sit strictly inside the slope region; at the cone of the
    lattice value no smooth-plus-pack test can touch from above, so such
    points carry no sub-side content and are not used.
    """
    _require_certificates(sc)
    if sc.name == "eikonal":
        candidates = [
            (_eikonal_slope_point, [[1.2], [1.2], [1.2]], "slope+const"),
            (_eikonal_slope_point, [[-0.3], [-0.6], [-0.9]], "slope-walk"),
            (_eikonal_slope_point, [[1.5]], "slope+start"),
            (_eikonal_slope_point, [[-1.0], [-1.25]], "slope-early"),
            (_eikonal_slope_point, [[0.3], [0.8], [0.8], [0.8]], "slope+late"),
            (_eikonal_slope_point, [[0.0], [0.5], [1.0]], "slope+ramp"),
        ]
    else:
        candidates = [
            (_runmax_interior_point, [[0.2], [1.0], [0.5]], "interior+mid"),
            (_runmax_interior_point, [[-0.1], [-0.9], [0.3]], "interior-mid"),
            (_runmax_interior_point, [[0.5], [1.2], [0.9], [0.2]], "interior+long"),
            (_runmax_endpoint_point, [[0.1], [0.4], [0.8]], "endpoint+"),
            (_runmax_endpoint_point, [[-0.2], [-0.5], [-0.9]], "endpoint-"),
            (_runmax_endpoint_point, [[0.3], [0.6]], "endpoint+short"),
        ]
    out = []
    for build, values, label in candidates:
        if (len(values) - 1) * sc.grid.step >= sc.grid.T - GRID_TOL:
            continue  # point outlives a coarse grid; skip, do not fail
        out.append(build(sc, values, label))
    return out
