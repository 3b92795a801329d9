"""Executable checks tying trajectories, values and certificates together.

Each check returns a small result object with a ``passed`` flag plus the
numbers that drove it; nothing here prints. Conventions:

* the equation operator is E(psi) = dt psi + (A* dx psi, gamma(t))
  + min_u [ (dx psi, F) + q ], evaluated with analytic derivatives;
* sub side: w - phi - pack has a global max at the point (premise),
  then E(phi + pack) >= 0 there; super side mirrors both signs;
* premises are scanned over finite nets of comparison paths and refusals
  carry an explicit witness path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dynamics import Coefficients, ControlSignal, mild_solve, step_once
from .gauge import eval_upsilon, grad_upsilon
from .hilbert import SpectralSpace
from .paths import GRID_TOL, Path, TimeGrid, extend_semigroup, vertical_bump
from .testfn import GaugePack, TestFunctionPhi, differentiability_probe
from .value import ValueTable, hamiltonian

__all__ = [
    "ItoResult",
    "ito_residual",
    "GaugeMarginResult",
    "upsilon_margin",
    "build_net",
    "ViscosityResult",
    "viscosity_check",
    "ClassicalResult",
    "classical_check",
    "transport_instance",
    "StabilityResult",
    "stability_experiment",
    "perturbed",
]


# functional Ito --------------------------------------------------------


@dataclass(frozen=True)
class ItoResult:
    residual: float
    increment: float
    integral: float
    n_steps: int


def ito_residual(
    coeffs: Coefficients,
    phi: TestFunctionPhi,
    g: Path,
    u: ControlSignal,
) -> ItoResult:
    """Gap between the increment of phi along the mild flow and its
    compensator integral (trapezoid per interval).

    Refuses functionals that do not declare A* dx continuous along paths.
    """
    if not phi.a_star_dx_continuous:
        raise ValueError(
            f"{phi.label or 'phi'} does not declare A*dx continuous; "
            "the compensator integral is not defined for it"
        )
    traj = mild_solve(coeffs, g, u)
    space = g.space
    h = g.step

    def integrand(prefix: Path, ctrl: float) -> float:
        dx = np.asarray(phi.dx(prefix), dtype=float)
        adj = float(space.adjoint_apply(dx) @ prefix.endpoint)
        drive = float(dx @ coeffs.drift(prefix, ctrl))
        return float(phi.dt(prefix)) + adj + drive

    start = g.n_nodes - 1
    total = 0.0
    n = traj.n_nodes - g.n_nodes
    for k in range(n):
        t_left = (start + k) * h
        ctrl = u.values[k]
        left = integrand(traj.prefix(t_left), ctrl)
        right = integrand(traj.prefix(t_left + h), ctrl)
        total += 0.5 * h * (left + right)
    inc = float(phi.value(traj)) - float(phi.value(g))
    return ItoResult(residual=inc - total, increment=inc, integral=total, n_steps=n)


# gauge margin along trajectories --------------------------------------


@dataclass(frozen=True)
class GaugeMarginResult:
    margin: float
    lhs: float
    base: float
    integral: float


def upsilon_margin(
    coeffs: Coefficients,
    M: float,
    g: Path,
    eta: Path,
    u: ControlSignal,
) -> GaugeMarginResult:
    """Margin of the dissipation inequality for Upsilon^M along the flow.

    Runs X from g under u, compares Upsilon^M of X - (semigroup-extended
    eta) at the final time against its initial value plus the drift
    coupling integral. Requires M >= 2: the generator contribution
    (grad Upsilon^M, A y) = (y, A y) [2M - 4(a-b)/a] is only signed then.
    """
    if M < 2.0:
        raise ValueError(f"M must be >= 2, got {M}")
    if abs(g.horizon - eta.horizon) > GRID_TOL:
        raise ValueError("g and eta must share their horizon")
    traj = mild_solve(coeffs, g, u)
    h = g.step
    start = g.n_nodes - 1
    n = traj.n_nodes - g.n_nodes

    def y_at(k: int) -> Path:
        t = (start + k) * h
        return traj.prefix(t) - extend_semigroup(eta, t)

    def coupling(k: int, ctrl: float) -> float:
        t = (start + k) * h
        grad = grad_upsilon(M, y_at(k))
        return float(grad @ coeffs.drift(traj.prefix(t), ctrl))

    base = eval_upsilon(M, y_at(0))
    lhs = eval_upsilon(M, y_at(n))
    total = 0.0
    for k in range(n):
        ctrl = u.values[k]
        total += 0.5 * h * (coupling(k, ctrl) + coupling(k + 1, ctrl))
    rhs = base + total
    return GaugeMarginResult(margin=rhs - lhs, lhs=lhs, base=base, integral=total)


# comparison nets -------------------------------------------------------


def build_net(
    coeffs: Coefficients,
    point: Path,
    grid: TimeGrid,
    *,
    seed: int = 0,
    tree_budget: int = 400,
    radii=(0.05, 0.2, 0.5, 1.0),
    n_wiggles: int = 2,
    bump_sizes=(1e-3, 1e-2, 0.05, 0.1, 0.3),
) -> list:
    """Finite family of comparison paths at and after the point's horizon.

    Contains the point itself, its semigroup extensions, the control tree
    grown by the mild stepper (width-capped), single-sample vertical edits
    at every node and coordinate, and seeded Gaussian wiggles of the
    extensions at several radii. Premise scans run over this net.
    """
    if abs(grid.step - point.step) > GRID_TOL:
        raise ValueError(f"grid step {grid.step} differs from point step {point.step}")
    rng = np.random.default_rng(seed)
    space = point.space
    h = grid.step
    net = [point]

    for s in grid.times:
        if s > point.horizon + GRID_TOL:
            net.append(extend_semigroup(point, s))

    # control tree, breadth-first, capped
    level = [point]
    while level and level[0].horizon < grid.T - GRID_TOL:
        nxt = [step_once(coeffs, p, u) for p in level for u in coeffs.control_set]
        if len(net) + len(nxt) > tree_budget:
            break
        net.extend(nxt)
        level = nxt

    # single-sample vertical edits
    for j in range(point.n_nodes):
        for k in range(space.dim):
            for d in bump_sizes:
                for sign in (1.0, -1.0):
                    samples = point.samples.copy()
                    samples[j, k] += sign * d
                    net.append(Path(space, h, samples))

    # seeded wiggles of the extensions
    for s in grid.times:
        if s < point.horizon - GRID_TOL:
            continue
        base = extend_semigroup(point, s)
        for r in radii:
            for _ in range(n_wiggles):
                noise = rng.normal(scale=r, size=base.samples.shape)
                net.append(Path(space, h, base.samples + noise))
    return net


# viscosity-style point check ------------------------------------------


@dataclass(frozen=True)
class ViscosityResult:
    side: str
    label: str
    premise_ok: bool
    witness: Optional[Path]
    witness_gap: float
    renorm: float
    margin: float
    inequality_ok: bool
    passed: bool
    net_size: int
    terms: dict


def viscosity_check(
    w: Callable[[Path], float],
    coeffs: Coefficients,
    point: Path,
    phi: TestFunctionPhi,
    pack: GaugePack,
    side: str,
    *,
    net,
    tol: float = 1e-3,
    premise_tol: float = 1e-9,
    validate: bool = True,
    label: str = "",
) -> ViscosityResult:
    """One-sided equation test for a value candidate at one point.

    The certificate is renormalized by a constant so the premise holds
    with equality at the point; the scan then verifies the point is a
    global max (sub) or min (super) of w -/+ (phi + pack) over the net.
    If not, the check refuses with a witness. Otherwise the one-sided
    operator inequality is evaluated with analytic derivatives.
    """
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    sgn = 1.0 if side == "sub" else -1.0
    if validate:
        probes = [point]
        for k in range(point.space.dim):
            e = np.zeros(point.space.dim)
            e[k] = 0.05
            probes.append(vertical_bump(point, e))
            probes.append(vertical_bump(point, -e))
        phi.validate_on(probes, t_final=max(p.horizon for p in net))

    def f(g: Path) -> float:
        return float(w(g)) - sgn * (float(phi.value(g)) + pack.value(g))

    renorm = f(point)
    worst_gap = 0.0
    witness = None
    for g in net:
        if g.horizon < point.horizon - GRID_TOL:
            continue
        v = f(g) - renorm
        gap = v if side == "sub" else -v
        if gap > worst_gap:
            worst_gap = gap
            witness = g
    premise_ok = worst_gap <= premise_tol
    if premise_ok:
        witness = None

    psi_dt = sgn * (float(phi.dt(point)) + pack.dt(point))
    psi_dx = sgn * (np.asarray(phi.dx(point), dtype=float) + pack.dx(point))
    adj = float(point.space.adjoint_apply(psi_dx) @ point.endpoint)
    hmin, _ = hamiltonian(coeffs, point, psi_dx, minimize=True)
    margin = psi_dt + adj + hmin
    inequality_ok = margin >= -tol if side == "sub" else margin <= tol
    return ViscosityResult(
        side=side,
        label=label or phi.label,
        premise_ok=premise_ok,
        witness=witness,
        witness_gap=worst_gap,
        renorm=renorm,
        margin=margin,
        inequality_ok=inequality_ok,
        passed=premise_ok and inequality_ok,
        net_size=len(net),
        terms={"dt": psi_dt, "adjoint": adj, "hamiltonian": hmin},
    )


# classical residuals ---------------------------------------------------


@dataclass(frozen=True)
class ClassicalResult:
    rows: tuple
    max_residual: float
    n_flagged: int
    passed: bool


def classical_check(
    w: TestFunctionPhi,
    coeffs: Coefficients,
    points,
    *,
    t_final: float,
    tol: float = 1e-9,
) -> ClassicalResult:
    """Equation residual of a smooth candidate at interior points, terminal
    match at horizon points. Points where finite differences refuse the
    supplied derivatives are flagged, reported, and excluded from the
    residual; at least one unflagged interior point is required to pass.
    """
    rows = []
    max_res = 0.0
    n_flagged = 0
    n_interior = 0
    ok = True
    for g in points:
        if g.horizon >= t_final - GRID_TOL:
            gap = abs(float(w.value(g)) - float(coeffs.terminal_cost(g)))
            rows.append({"horizon": g.horizon, "kind": "terminal", "gap": gap})
            ok = ok and gap <= tol
            continue
        if not differentiability_probe(w.value, w.dt, w.dx, g, t_final=t_final):
            rows.append({"horizon": g.horizon, "kind": "kink", "gap": float("nan")})
            n_flagged += 1
            continue
        dx = np.asarray(w.dx(g), dtype=float)
        adj = float(g.space.adjoint_apply(dx) @ g.endpoint)
        hmin, _ = hamiltonian(coeffs, g, dx, minimize=True)
        res = float(w.dt(g)) + adj + hmin
        rows.append({"horizon": g.horizon, "kind": "interior", "gap": res})
        max_res = max(max_res, abs(res))
        n_interior += 1
        ok = ok and abs(res) <= tol
    return ClassicalResult(
        rows=tuple(rows),
        max_residual=max_res,
        n_flagged=n_flagged,
        passed=ok and n_interior > 0,
    )


def transport_instance(space: SpectralSpace, weights, T: float) -> tuple:
    """Uncontrolled transport pair (coefficients, solution candidate).

    w(eta_s) = (weights, e^{(T-s)A} eta(s)) solves the equation with no
    drift and no running cost exactly, for any generator; its residual is
    a genuine exercise of the adjoint term.
    """
    c_vec = np.asarray(weights, dtype=float)
    lam = space.eigenvalues

    coeffs = Coefficients(
        name="transport",
        control_set=(0.0,),
        drift=lambda g, u: np.zeros(space.dim),
        running_cost=lambda g, u: 0.0,
        terminal_cost=lambda g: float(c_vec @ g.endpoint),
        lipschitz_L=float(np.linalg.norm(c_vec)) + 1.0,
        state_key=lambda g: (g.samples[-1].tobytes(),),
    )

    def val(g: Path) -> float:
        return float((c_vec * np.exp((T - g.horizon) * lam)) @ g.endpoint)

    def dt(g: Path) -> float:
        return float((-lam * c_vec * np.exp((T - g.horizon) * lam)) @ g.endpoint)

    def dx(g: Path) -> np.ndarray:
        return c_vec * np.exp((T - g.horizon) * lam)

    w = TestFunctionPhi(value=val, dt=dt, dx=dx, label="transport")
    return coeffs, w


# stability under coefficient perturbation ------------------------------


def perturbed(coeffs: Coefficients, kind: str, eps: float) -> Coefficients:
    """Shifted coefficient family; declares the enlarged constant L+eps."""
    if kind == "phi_shift":
        base = coeffs.terminal_cost
        return replace(
            coeffs,
            name=f"{coeffs.name}+phi{eps}",
            terminal_cost=lambda g: float(base(g)) + eps,
            lipschitz_L=coeffs.lipschitz_L + eps,
        )
    if kind == "q_shift":
        base_q = coeffs.running_cost
        return replace(
            coeffs,
            name=f"{coeffs.name}+q{eps}",
            running_cost=lambda g, u: float(base_q(g, u)) + eps,
            lipschitz_L=coeffs.lipschitz_L + eps,
        )
    if kind == "drift_shift":
        base_f = coeffs.drift
        return replace(
            coeffs,
            name=f"{coeffs.name}+F{eps}",
            drift=lambda g, u: np.asarray(base_f(g, u), dtype=float)
            + eps * _e1(g.space.dim),
            lipschitz_L=coeffs.lipschitz_L + eps,
        )
    raise ValueError(f"unknown perturbation kind {kind!r}")


def _e1(dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = 1.0
    return e


@dataclass(frozen=True)
class StabilityResult:
    kind: str
    epsilons: tuple
    rows: tuple
    monotone_ok: bool
    passed: bool


def stability_experiment(
    coeffs: Coefficients,
    grid: TimeGrid,
    kind: str,
    epsilons,
    points,
    *,
    budget: int = 10**6,
    tol: float = 1e-9,
    table: Optional[ValueTable] = None,
) -> StabilityResult:
    """Value gaps under coefficient shifts against their oracles.

    phi_shift: gap is eps exactly. q_shift: gap is eps * (T - t) exactly.
    drift_shift: |gap| <= e^{LT} eps with L of the base family, and gaps
    shrink with eps at every point. `table`, if given, holds the values of
    the unperturbed coefficients.
    """
    epsilons = tuple(float(e) for e in epsilons)
    base_table = table
    if base_table is None:
        base_table = ValueTable(coeffs, grid, budget=budget)
    rows = []
    ok = True
    gaps = {}  # (point index, eps) -> gap
    for eps in epsilons:
        table = ValueTable(perturbed(coeffs, kind, eps), grid, budget=budget)
        for i, g in enumerate(points):
            v0 = base_table.value(g)
            v1 = table.value(g)
            gap = v1 - v0
            gaps[(i, eps)] = gap
            row = {"eps": eps, "point": i, "gap": gap, "horizon": g.horizon}
            if kind == "phi_shift":
                row["oracle"] = eps
                row["ok"] = abs(gap - eps) <= tol
            elif kind == "q_shift":
                row["oracle"] = eps * (grid.T - g.horizon)
                row["ok"] = abs(gap - row["oracle"]) <= tol
            else:
                row["bound"] = float(np.exp(coeffs.lipschitz_L * grid.T)) * eps
                row["ok"] = abs(gap) <= row["bound"] + tol
            ok = ok and row["ok"]
            rows.append(row)
    monotone_ok = True
    if kind == "drift_shift":
        order = sorted(epsilons, reverse=True)
        for i in range(len(points)):
            for big, small in zip(order, order[1:]):
                if abs(gaps[(i, small)]) > abs(gaps[(i, big)]) + tol:
                    monotone_ok = False
    return StabilityResult(
        kind=kind,
        epsilons=epsilons,
        rows=tuple(rows),
        monotone_ok=monotone_ok,
        passed=ok and monotone_ok,
    )
