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

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import Coefficients
from .gauge import eval_upsilon, grad_upsilon
from .hilbert import SpectralSpace
from .paths import Path, TimeGrid, sup_norm
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
    """min over reachable lattice endpoints of |x + k step|."""
    k_left = grid.n_steps - (g.n_nodes - 1)
    if k_left < 0:
        raise ValueError("prefix outlives the horizon")
    x = float(g.endpoint[0])
    return min(abs(x + k * g.step) for k in range(-k_left, k_left + 1))


def runmax_value(g: Path, grid: TimeGrid) -> float:
    return sup_norm(g)


# builders --------------------------------------------------------------


def _flat_space(dim: int) -> SpectralSpace:
    return SpectralSpace(dim=dim, eigenvalues=np.zeros(dim))


def eikonal(*, T: float = 1.0, step: float = 0.25, x0: float = 0.5) -> Scenario:
    space = _flat_space(1)
    grid = TimeGrid(T=T, step=step)
    coeffs = Coefficients(
        name="eikonal",
        control_set=(-1.0, 0.0, 1.0),
        drift=lambda g, u: np.array([u]),
        running_cost=lambda g, u: 0.0,
        terminal_cost=lambda g: abs(float(g.endpoint[0])),
        lipschitz_L=1.0,
        state_key=lambda g: (g.samples[-1].tobytes(),),
    )
    initial = Path.constant(space, step, np.array([x0]), horizon=0.0)
    return Scenario("eikonal", space, grid, coeffs, initial, eikonal_value)


def runmax(*, T: float = 1.0, step: float = 0.25, x0: float = 0.5) -> Scenario:
    space = _flat_space(1)
    grid = TimeGrid(T=T, step=step)
    coeffs = Coefficients(
        name="runmax",
        control_set=(-1.0, 0.0, 1.0),
        drift=lambda g, u: np.array([u]),
        running_cost=lambda g, u: 0.0,
        terminal_cost=sup_norm,
        lipschitz_L=1.0,
        state_key=lambda g: (g.samples[-1].tobytes(), float(sup_norm(g))),
    )
    initial = Path.constant(space, step, np.array([x0]), horizon=0.0)
    return Scenario("runmax", space, grid, coeffs, initial, runmax_value)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a float vector: sqrt(x . x), which is exactly what
    np.linalg.norm computes for one, without its dispatch."""
    return math.sqrt(x.dot(x))


def _retract(x: np.ndarray) -> np.ndarray:
    r = _norm(x)
    return x if r <= 1.0 else x / r


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
        drift=lambda g, u: u * e1 - _retract(g.endpoint),
        running_cost=lambda g, u: _norm(g.endpoint),
        terminal_cost=lambda g: _norm(g.endpoint),
        lipschitz_L=2.0,
        state_key=lambda g: (g.samples[-1].tobytes(),),
    )
    initial = Path.constant(space, step, np.asarray(x0, dtype=float), horizon=0.0)
    return Scenario("feedback", space, grid, coeffs, initial, None)


SCENARIOS = {"eikonal": eikonal, "runmax": runmax, "feedback": feedback}


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
    phi_sub = TestFunctionPhi(
        value=lambda g: sgn * float(g.endpoint[0]) - (T - g.horizon),
        dt=lambda g: 1.0,
        dx=lambda g: np.array([sgn]),
        label=f"{label}-sub",
    )
    phi_super = TestFunctionPhi(
        value=lambda g: -sgn * float(g.endpoint[0]) + (T - g.horizon),
        dt=lambda g: -1.0,
        dx=lambda g: np.array([-sgn]),
        label=f"{label}-super",
    )
    return TouchingPoint(
        point=point,
        phi_sub=phi_sub,
        pack_sub=GaugePack.anchored(point, 2.0, label=f"{label}-pack"),
        phi_super=phi_super,
        pack_super=GaugePack.zero(),
        label=label,
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
    phi_sub = TestFunctionPhi(
        value=lambda g: sgn * float(g.endpoint[0]) + (g.horizon - t_hat),
        dt=lambda g: 1.0,
        dx=lambda g: np.array([sgn]),
        label=f"{label}-sub",
    )
    phi_super = TestFunctionPhi(
        value=lambda g: -sgn * float(g.endpoint[0]),
        dt=lambda g: 0.0,
        dx=lambda g: np.array([-sgn]),
        label=f"{label}-super",
    )
    return TouchingPoint(
        point=point,
        phi_sub=phi_sub,
        pack_sub=GaugePack.anchored(point, delta0, label=f"{label}-pack"),
        phi_super=phi_super,
        pack_super=GaugePack.zero(),
        label=label,
    )


def _runmax_interior_point(sc: Scenario, values, j_star: int, label: str) -> TouchingPoint:
    """Certificates where a past sample holds the strict running max.

    Sub side: constant m plus a linear endpoint correction, confined by
    c (Upsilon^2 - Upsilon^2(point)) with c = m^3 / (2 (m^4 - x^4)); that
    slope makes single-sample moves of the max cancel the value change to
    first order and the convexity of z^4 keeps every vertical move below
    the pack. The linear weight kills the composite gradient, so the
    half-relaxed term evaluates at p = 0.
    """
    point = _path(sc, values)
    m_signed = float(point.samples[j_star, 0])
    m = abs(m_signed)
    sgn_m = 1.0 if m_signed >= 0.0 else -1.0
    x = float(point.endpoint[0])
    rest = np.abs(np.delete(point.samples[:, 0], j_star))
    if not (m > abs(x) and (rest.size == 0 or m > float(rest.max()))):
        raise ValueError(f"{label}: sample {j_star} is not the strict max")
    c = m**3 / (2.0 * (m**4 - x**4))
    w = -c * grad_upsilon(2.0, point)
    y0 = eval_upsilon(2.0, point)
    sigma_star = j_star * sc.grid.step
    phi_sub = TestFunctionPhi(
        value=lambda g: m + float(w @ (g.endpoint - point.endpoint)),
        dt=lambda g: 0.0,
        dx=lambda g: w.copy(),
        label=f"{label}-sub",
    )
    pack_sub = GaugePack(
        h=lambda s, y: c * (y - y0),
        h_t=lambda s, y: 0.0,
        h_y=lambda s, y: c,
        anchors=((point, 2.0),),
        label=f"{label}-pack",
    )
    phi_super = TestFunctionPhi(
        value=lambda g: -sgn_m * float(g.value_at(sigma_star)[0]),
        dt=lambda g: 0.0,
        dx=lambda g: np.zeros(1),
        label=f"{label}-super",
    )
    return TouchingPoint(
        point=point,
        phi_sub=phi_sub,
        pack_sub=pack_sub,
        phi_super=phi_super,
        pack_super=GaugePack.zero(),
        label=label,
    )


def classical_candidate(sc: Scenario) -> tuple:
    """Closed-form value with piecewise derivatives, plus probe points.

    Points are chosen where the formula is genuinely smooth (zero residual),
    plus one kink the derivative probe must flag, plus one terminal path.
    Runmax points with the endpoint holding the max are excluded: there the
    value is one-sided in time and only the certificate check applies.
    """
    if sc.name == "eikonal":
        T = sc.grid.T

        def slope(g: Path) -> bool:
            return abs(float(g.endpoint[0])) > (T - g.horizon)

        w = TestFunctionPhi(
            value=lambda g: eikonal_value(g, sc.grid),
            dt=lambda g: 1.0 if slope(g) else 0.0,
            dx=lambda g: (
                np.array([np.sign(float(g.endpoint[0]))])
                if slope(g)
                else np.array([0.0])
            ),
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
        return w, [p for p in points if p.horizon <= T + 1e-12]
    if sc.name == "runmax":

        def strict_end(g: Path) -> bool:
            others = np.abs(g.samples[:-1, 0])
            return others.size == 0 or abs(float(g.endpoint[0])) > float(others.max())

        w = TestFunctionPhi(
            value=lambda g: sup_norm(g),
            dt=lambda g: 0.0,
            dx=lambda g: (
                np.array([np.sign(float(g.endpoint[0]))])
                if strict_end(g)
                else np.array([0.0])
            ),
            label="runmax-value",
        )
        points = [
            _path(sc, [[0.2], [1.0], [0.5]]),
            _path(sc, [[-0.1], [-0.9], [0.3]]),
            _path(sc, [[0.5], [1.2], [0.9], [0.2]]),
            _path(sc, [[0.5], [0.5]]),  # endpoint ties the max: kink, flagged
            _path(sc, [[0.2], [1.0]] + [[0.5]] * (sc.grid.n_steps - 1)),  # terminal
        ]
        return w, [p for p in points if p.horizon <= sc.grid.T + 1e-12]
    raise ValueError(f"no classical candidate for scenario {sc.name!r}")


def touching_points(sc: Scenario) -> list:
    """Hand-built certificate points for the closed-form scenarios.

    Eikonal points sit strictly inside the slope region; at the cone of the
    lattice value no smooth-plus-pack test can touch from above, so such
    points carry no sub-side content and are not used.
    """
    if sc.name == "eikonal":
        candidates = [
            (_eikonal_slope_point, [[1.2], [1.2], [1.2]], "slope+const"),
            (_eikonal_slope_point, [[-0.3], [-0.6], [-0.9]], "slope-walk"),
            (_eikonal_slope_point, [[1.5]], "slope+start"),
            (_eikonal_slope_point, [[-1.0], [-1.25]], "slope-early"),
            (_eikonal_slope_point, [[0.3], [0.8], [0.8], [0.8]], "slope+late"),
            (_eikonal_slope_point, [[0.0], [0.5], [1.0]], "slope+ramp"),
        ]
    elif sc.name == "runmax":
        candidates = [
            (lambda s, v, l: _runmax_interior_point(s, v, 1, l), [[0.2], [1.0], [0.5]], "interior+mid"),
            (lambda s, v, l: _runmax_interior_point(s, v, 1, l), [[-0.1], [-0.9], [0.3]], "interior-mid"),
            (lambda s, v, l: _runmax_interior_point(s, v, 1, l), [[0.5], [1.2], [0.9], [0.2]], "interior+long"),
            (_runmax_endpoint_point, [[0.1], [0.4], [0.8]], "endpoint+"),
            (_runmax_endpoint_point, [[-0.2], [-0.5], [-0.9]], "endpoint-"),
            (_runmax_endpoint_point, [[0.3], [0.6]], "endpoint+short"),
        ]
    else:
        raise ValueError(f"no touching certificates for scenario {sc.name!r}")
    out = []
    for build, values, label in candidates:
        if (len(values) - 1) * sc.grid.step >= sc.grid.T - 1e-12:
            continue  # point outlives a coarse grid; skip, do not fail
        out.append(build(sc, values, label))
    return out
