"""Executable checks tying trajectories, values and certificates together.

`CHECKS` names every check a run can select. Each is a function of the
run config and a thunk for the run's value table, and builds its own
report row: a `CheckRecord` with a ``passed`` flag plus the numbers that
drove it. The pieces they are made of (`ito_residual`, `upsilon_margin`,
`viscosity_check`) return small result objects; nothing here prints.
Conventions:

* the equation operator is E(psi) = dt psi + (A* dx psi, gamma(t))
  + min_u [ (dx psi, F) + q ], evaluated with analytic derivatives;
* sub side: w - phi - pack has a global max at the point (premise),
  then E(phi + pack) >= 0 there; super side mirrors both signs;
* premises are scanned over finite nets of comparison paths and refusals
  carry an explicit witness path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import (
    Coefficients,
    ControlSignal,
    _control_array,
    _drift_rows,
    _terminal_cost,
    mild_solve,
    solve_rows,
    step_rows,
    validate_hypothesis,
    verify_state_estimates,
)
from .gauge import _upsilon_rows
from .hilbert import SpectralSpace
from .paths import (
    GRID_TOL,
    Net,
    Path,
    Refused,
    TimeGrid,
    Walks,
    _seal,
    all_finite,
    carried,
    carry_walks,
    formula_paths,
    formula_rows,
    group_rows,
    prefix_sup_norms,
    row_dots,
    trusted_path,
)
from .report import CheckRecord
from .scenarios import classical_candidate, has_certificates, touching_points
from .testfn import GaugePack, TestFunctionPhi, differentiability_probe
from .value import ValueTable, dpp_record, hamiltonian, value_record, verify_value_regularity
from .variational import NotEpsMaximal, bp_search, pair_gauges

__all__ = [
    "ItoResult",
    "ito_residual",
    "ito_record",
    "GaugeMarginResult",
    "upsilon_margin",
    "gauge_cases",
    "gauge_record",
    "build_net",
    "ViscosityResult",
    "viscosity_check",
    "viscosity_record",
    "classical_check",
    "stability_experiment",
    "stability_record",
    "perturbed",
    "PERTURBATIONS",
    "bp_record",
    "CHECKS",
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
    functionals,
    g: Path,
    u: ControlSignal,
) -> list:
    """Gap between the increment of each of functionals along the mild flow
    from g under u and its compensator integral (trapezoid per interval),
    one ItoResult per functional, in order, all along one solve.

    Refuses functionals that do not declare A* dx continuous along paths.
    Each node of the flow has a node count of its own, so each functional
    is read on each node's one-row block.
    """
    for phi in functionals:
        if not phi.a_star_dx_continuous:
            raise ValueError(
                f"{phi.label or 'phi'} does not declare A*dx continuous; "
                "the compensator integral is not defined for it"
            )
    traj = mild_solve(coeffs, g, u)
    space = g.space
    h = g.step

    n = traj.n_nodes - g.n_nodes
    nodes = [traj.prefix(j * h) for j in range(g.n_nodes - 1, traj.n_nodes)]
    drifts = {}  # the drift at each (node, control), one drift call each, for every functional

    def one(f, p, vector=False):  # the row formula f at the one path p
        return formula_rows(f, p, p.samples[None], vector)[0]

    out = []
    for phi in functionals:
        dxs = [one(phi.dx, p, True) for p in nodes]
        # phi.dt plus the adjoint term, once per node
        terms = [float(one(phi.dt, p)) + float(space.adjoint_apply(dx) @ p.endpoint) for p, dx in zip(nodes, dxs)]

        def integrand(k: int, ctrl: float) -> float:
            if (k, ctrl) not in drifts:
                drifts[k, ctrl] = _drift_rows(coeffs, nodes[k].samples[None], _control_array((ctrl,)))[0]
            return terms[k] + float(dxs[k] @ drifts[k, ctrl])

        total = 0.0
        for k, ctrl in enumerate(u.values):
            total += 0.5 * h * (integrand(k, ctrl) + integrand(k + 1, ctrl))
        inc = float(one(phi.rows, traj)) - float(one(phi.rows, g))
        out.append(ItoResult(residual=inc - total, increment=inc, integral=total, n_steps=n))
    return out


# a residual at or below this is exact; an inexact one must shrink at least
# at this order when the step halves
_ITO_EXACT = 1e-12
_ITO_RATE_FLOOR = 0.9


def ito_record(cfg, value_table) -> CheckRecord:
    """`ito_residual` of a quadratic and a linear endpoint functional from
    the constant path at the initial sample, under the last control held to
    T, on the grid and on the grid at half its step, one solve per grid. A
    functional passes when both residuals are exact, or when they shrink at
    the rate floor."""
    sc = cfg.scenario
    space, grid = sc.space, sc.grid
    u_val = sc.coefficients.control_set[-1]
    functionals = [
        TestFunctionPhi.quadratic_endpoint(),
        TestFunctionPhi.linear_endpoint(np.ones(space.dim)),
    ]
    coarse, fine = (
        ito_residual(
            sc.coefficients, functionals,
            Path.constant(space, step, sc.initial.samples[0], horizon=0.0),
            ControlSignal.constant(u_val, 0.0, grid.T, step),
        )
        for step in (grid.step, TimeGrid(grid.T, grid.step / 2.0).step)
    )
    rows, ok = [], True
    for phi, a, b in zip(functionals, coarse, fine):
        r1, r2 = a.residual, b.residual
        exact = abs(r1) <= _ITO_EXACT and abs(r2) <= _ITO_EXACT
        rate = float(np.log2(abs(r1) / abs(r2))) if not exact and abs(r2) > 0 else None
        row_ok = exact or (rate is not None and rate >= _ITO_RATE_FLOOR)
        rows.append(
            {"phi": phi.label, "residual": r1, "refined": r2, "rate": rate, "ok": row_ok}
        )
        ok = ok and row_ok
    return CheckRecord(name="ito", passed=ok, summary={}, rows=rows)


# gauge margin along trajectories --------------------------------------


@dataclass(frozen=True)
class GaugeMarginResult:
    margin: float
    lhs: float
    base: float
    integral: float


def upsilon_margin(coeffs: Coefficients, cases) -> list:
    """Margins of the dissipation inequality for Upsilon^M along the flow,
    one GaugeMarginResult per case (M, g, eta, u), in order.

    Each case runs X from g under u and compares Upsilon^M of X -
    (semigroup-extended eta) at the final time against its initial value
    plus the drift coupling integral. Requires M >= 2: the generator
    contribution (grad Upsilon^M, A y) = (y, A y) [2M - 4(a-b)/a] is only
    signed then.

    All cases are rows of one block, solved by one `solve_rows` under
    `group_rows` (a case with M < 2, on another step than the first case,
    or whose flow is refused, is `Refused`). The gauges of all cases are one
    `_upsilon_rows` call on their own nodes, each with its M, and each case's
    trapezoids are summed in order from 0.0, so each margin equals the
    one-case loop bit for bit.
    """
    if not cases:
        return []
    first = np.array([g.n_nodes for _, g, _, _ in cases])
    end = first + [len(u.values) for *_, u in cases]
    G = np.zeros((len(cases), end.max(), cases[0][1].space.dim))
    for row, (_, g, _, _) in zip(G, cases):
        row[: g.n_nodes] = g.samples

    def margins(rows, S):
        proto = cases[rows[0]][1]
        E = np.zeros(S.shape)  # eta in each row's head, then extended along the semigroup
        for row, i in zip(E, rows):
            M, g, eta, _ = cases[i]
            if not M >= 2.0:  # a NaN M is refused too
                raise Refused(f"M must be >= 2, got {M}")
            if abs(g.step - proto.step) > GRID_TOL:
                raise Refused(f"step {g.step} differs from the block's step {proto.step}")
            if abs(g.horizon - eta.horizon) > GRID_TOL:
                raise Refused("g and eta must share their horizon")
            g._check_same_space_and_step(eta)
            row[: eta.n_nodes] = eta.samples
        signals, k, e = [cases[i][3] for i in rows], first[rows], end[rows]
        X = solve_rows(coeffs, proto, S, k, signals)
        Y = X - carry_walks(E, k, proto.space, proto.step)
        if not all_finite(Y):
            raise Refused("samples must be finite")
        nodes, norms = np.arange(X.shape[1]), prefix_sup_norms(Y)
        steps = (k[:, None] <= nodes) & (nodes < e[:, None])  # the node counts each row steps from
        own = steps | (nodes == k[:, None] - 1)  # each case's nodes from g's horizon on
        V, grads = np.zeros(X.shape[:2]), np.zeros(X.shape)
        M = np.broadcast_to(np.array([cases[i][0] for i in rows])[:, None], own.shape)
        V[own], grads[own] = _upsilon_rows(M[own], norms[own], Y[own], True)
        # each step's trapezoid, the drift at both ends two calls per node count
        trapezoids = np.zeros(X.shape[:2])
        for n in np.flatnonzero(steps.any(0)).tolist():
            at = np.flatnonzero(steps[:, n])
            U = _control_array([signals[r].values[n - k[r]] for r in at.tolist()])
            f0, f1 = (_drift_rows(coeffs, X[at, :j], U) for j in (n, n + 1))
            trapezoids[at, n] = 0.5 * proto.step * (row_dots(grads[at, n - 1], f0) + row_dots(grads[at, n], f1))
        total = np.add.accumulate(trapezoids, axis=1)[:, -1]  # in order, from node count 0's 0.0
        base, lhs = V[np.arange(len(rows)), k - 1], V[np.arange(len(rows)), e - 1]
        return np.column_stack([base + total - lhs, lhs, base, total])

    block = group_rows(margins, cases, [(np.arange(len(cases)), G)])
    return [GaugeMarginResult(*row) for row in block.tolist()]


# the cases `gauge_cases` draws, and the exponents M they take in turn
_GAUGE_CASES = 100
_GAUGE_EXPONENTS = (2.0, 5.0)


def gauge_cases(coeffs: Coefficients, space: SpectralSpace, grid: TimeGrid, *, seed: int) -> list:
    """Seeded cases (M, g, eta, u) for `upsilon_margin`, drawn case by case:
    a node count, the random walks g and eta with that count (`Walks`), and
    a control from the control set, held constant from g's horizon to T. M
    takes the exponents in turn. g and eta are views of rows of one block."""
    rng = np.random.default_rng(seed)
    walks = Walks(rng, 2 * _GAUGE_CASES, grid, space.dim)
    counts, controls = [], []
    for i in range(_GAUGE_CASES):
        n_nodes = int(rng.integers(1, grid.n_steps + 1))
        counts += [walks.draw(2 * i + j, n_nodes) for j in (0, 1)]
        controls.append(coeffs.control_set[int(rng.integers(len(coeffs.control_set)))])
    B = walks.block(counts, space)
    cases = []
    for i, (u, n) in enumerate(zip(controls, counts[0::2])):
        g, eta = (trusted_path(space, grid.step, x[:n]) for x in B[2 * i : 2 * i + 2])
        sig = ControlSignal.constant(u, g.horizon, grid.T, grid.step)
        cases.append((_GAUGE_EXPONENTS[i % len(_GAUGE_EXPONENTS)], g, eta, sig))
    return cases


def gauge_record(cfg, value_table) -> CheckRecord:
    """`upsilon_margin` over the seeded `gauge_cases`; passes when the
    smallest margin is at least -margin_c0 times the grid step."""
    sc = cfg.scenario
    c = sc.coefficients
    cases = gauge_cases(c, sc.space, sc.grid, seed=cfg.seed)
    margins = np.array([r.margin for r in upsilon_margin(c, cases)])
    floor = -cfg.tolerances["margin_c0"] * sc.grid.step
    return CheckRecord(
        name="gauge",
        passed=bool(margins.min() >= floor),
        summary={
            "min_margin": float(margins.min()),
            "mean_margin": float(margins.mean()),
            "floor": floor,
            "n": len(margins),
        },
        rows=[],
    )


# comparison nets -------------------------------------------------------


# the sizes of the single-sample vertical edits, each added and subtracted
_EDIT_SIZES = (1e-3, 1e-2, 0.05, 0.1, 0.3)
# the radii of the seeded wiggles of each extension, two per radius
_WIGGLE_SCALES = np.repeat((0.05, 0.2, 0.5, 1.0), 2)


def build_net(coeffs: Coefficients, point: Path, grid: TimeGrid, *, seed: int = 0) -> Net:
    """Finite family of comparison paths at and after the point's horizon.

    Contains the point itself, its semigroup extensions, the control tree
    grown by the mild stepper (width-capped), single-sample vertical edits
    at every node and coordinate, and seeded Gaussian wiggles of the
    extensions at several radii. Premise scans run over this net.

    The paths are made as blocks, each checked finite once: the extensions
    are heads of one carried block, each tree level is one stepped block,
    the edits are one broadcast block, and the eight wiggles of each
    extension are one block, drawn in the order of one draw per path. The
    point and these blocks make a `Net`, grouped by node count once, here,
    with no `Path` for a row but the point, and every reader of the net
    (values, packs, pair gauges, scan and search) reads that grouping.
    """
    if abs(grid.step - point.step) > GRID_TOL:
        raise ValueError(f"grid step {grid.step} differs from point step {point.step}")
    rng = np.random.default_rng(seed)
    # the node counts of the extensions after the point, and of those the
    # wiggles perturb, the point's own count included
    after = [j + 1 for j, s in enumerate(grid.times) if s > point.horizon + GRID_TOL]
    wiggled = [j + 1 for j, s in enumerate(grid.times) if s >= point.horizon - GRID_TOL]
    carry = _seal(carried(point, max(wiggled, default=point.n_nodes)))
    blocks = [carry[:n][None] for n in after]  # each a block of one path
    size = 1 + len(after)

    # control tree, breadth-first, whole levels while the net stays <= 400;
    # a level that would not fit is not stepped
    level = point.samples[None]
    width = len(coeffs.control_set)
    while level.shape[1] <= grid.n_steps and size + width * len(level) <= 400:
        level = step_rows(coeffs, point, level, coeffs.control_set)[2]
        blocks.append(level)
        size += len(level)

    # single-sample vertical edits, node-major, then coordinate, size and sign
    k, dim = point.samples.shape
    edits = np.broadcast_to(point.samples, (k, dim, len(_EDIT_SIZES), 2, k, dim)).copy()
    node, coord = np.arange(k)[:, None], np.arange(dim)
    edits[node, coord, :, :, node, coord] += np.multiply.outer(_EDIT_SIZES, (1.0, -1.0))
    blocks.append(_seal(edits.reshape(-1, k, dim)))

    # seeded wiggles of the extensions, drawn in the order of one draw per path
    for n in wiggled:
        shape = (len(_WIGGLE_SCALES), n, point.space.dim)
        noise = rng.normal(scale=_WIGGLE_SCALES[:, None, None], size=shape)
        blocks.append(_seal(carry[:n] + noise))
    return Net(point, blocks)


# the equation operator ------------------------------------------------


def _operator(coeffs: Coefficients, g: Path, dt: float, dx: np.ndarray) -> tuple:
    """E(psi) at g from psi's derivatives dt and dx, with its three terms:
    (dt + (A* dx, gamma(t))) + min_u [ (dx, F) + q ]."""
    adj = float(g.space.adjoint_apply(dx) @ g.endpoint)
    hmin, _ = hamiltonian(coeffs, g, dx)
    return dt + adj + hmin, {"dt": dt, "adjoint": adj, "hamiltonian": hmin}


# viscosity-style point check ------------------------------------------


_PREMISE_TOL = 1e-9


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
    values,
    coeffs: Coefficients,
    point: Path,
    phi: TestFunctionPhi,
    pack: GaugePack,
    side: str,
    *,
    net: Net,
    tol: float = 1e-3,
    label: str = "",
) -> ViscosityResult:
    """One-sided equation test for a value candidate at one point.

    `values` holds the candidate's value at every path of `net`, in net
    order; net is a `Net` at the point itself, as `build_net` makes it.
    The certificate is renormalized by a constant so the premise holds
    with equality at the point; the scan verifies the point is a global
    max (sub) or min (super) of w -/+ (phi + pack) over the paths of the
    net that do not end before it, up to _PREMISE_TOL. If not, the check
    refuses with a witness (`Net.path`): the first path with the largest
    gap, or the first path whose gap is NaN. The analytic derivatives of
    phi are validated at the point and its vertical bumps, and the
    one-sided operator inequality is evaluated with them.

    The scan runs group by group over the net's node-count groups
    (`Net.groups`), with one horizon per group: phi's row formula and the
    pack's rows each go through `formula_paths`, so a `Refused` group
    raises the refusal that path by path order meets first, and a formula
    that does not give one float per row raises its block's own error.
    """
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    if not isinstance(net, Net) or net.point is not point:
        raise ValueError("net must be a Net at the point itself, as build_net makes it")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(net),):
        raise ValueError(
            f"values has shape {values.shape}, expected one per net path ({len(net)},)"
        )
    sgn, floor = (1.0 if side == "sub" else -1.0), point.horizon - GRID_TOL
    # the paths that end before the point are not scanned
    kept = [(rows, S) for rows, S in net.groups.values() if net.horizons[rows[0]] >= floor]
    at = np.flatnonzero(net.horizons >= floor)
    f = (values - sgn * (formula_paths(phi.rows, net, kept) + formula_paths(pack.rows, net, kept)))[at]
    renorm = float(f[0])
    gaps = sgn * (f - renorm)
    # the first NaN gap, else the first of the largest gaps (as a strict `>`
    # scan keeps it) when it is positive
    nan = np.flatnonzero(np.isnan(gaps))
    i = int(nan[0]) if nan.size else int(gaps.argmax())
    worst_gap, witness = 0.0, None
    if nan.size or gaps[i] > worst_gap:
        worst_gap, witness = float(gaps[i]), net.path(int(at[i]))
    premise_ok = worst_gap <= _PREMISE_TOL
    if premise_ok:
        witness = None

    # the point, then its vertical bumps by +0.05 and -0.05 along each coordinate as one block
    B = point.samples[None].repeat(2 * point.space.dim, axis=0)
    B[:, -1] += 0.05 * np.eye(point.space.dim).repeat(2, axis=0) * np.tile([1.0, -1.0], point.space.dim)[:, None]
    phi.validate_on(Net(point, [_seal(B)]), t_final=float(net.horizons.max()))
    P = point.samples[None]
    psi_dt = sgn * float(formula_rows(phi.dt, point, P)[0] + pack.dt(point, P)[0])
    psi_dx = sgn * (formula_rows(phi.dx, point, P, vector=True)[0] + pack.dx(point, P)[0])
    margin, terms = _operator(coeffs, point, psi_dt, psi_dx)
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
        terms=terms,
    )


def _touching_scans(cfg, table, sides, count=None):
    """`viscosity_check` on each of sides ("sub", "super") at the first count
    touching points of the config's scenario (all by default), in order, as
    (point, side, result): each point over its own net. The nets are built
    first and valued in one `values` call on their joined grouping."""
    sc = cfg.scenario
    points = touching_points(sc)[:count]
    nets = [build_net(sc.coefficients, tp.point, sc.grid, seed=cfg.seed) for tp in points]
    values = np.split(table.values(Net.joined(nets)), np.cumsum([len(net) for net in nets])[:-1])
    for tp, net, v in zip(points, nets, values):
        for side in sides:
            phi, pack = (tp.phi_sub, tp.pack_sub) if side == "sub" else (tp.phi_super, tp.pack_super)
            yield tp, side, viscosity_check(
                v, sc.coefficients, tp.point, phi, pack, side,
                net=net, tol=cfg.tolerances["viscosity"], label=tp.label,
            )


def viscosity_record(cfg, value_table) -> CheckRecord:
    """Both sides of `viscosity_check` at every touching point of the
    scenario, a point's sub side then its super side."""
    rows = [
        {
            "label": tp.label,
            "side": side,
            "premise_ok": r.premise_ok,
            "margin": r.margin,
            "witness_gap": r.witness_gap,
            "passed": r.passed,
        }
        for tp, side, r in _touching_scans(cfg, value_table(), ("sub", "super"))
    ]
    ok = all(row["passed"] for row in rows)
    return CheckRecord(
        name="viscosity", passed=ok, summary={"points": len(rows) // 2}, rows=rows
    )


# classical residuals ---------------------------------------------------


def classical_check(
    w: TestFunctionPhi,
    coeffs: Coefficients,
    points,
    *,
    t_final: float,
    tol: float = 1e-9,
) -> CheckRecord:
    """Equation residual of a smooth candidate at interior points, terminal
    match at horizon points. Points where finite differences refuse the
    supplied derivatives are flagged, reported, and excluded from the
    residual; at least one unflagged interior point is required to pass,
    and the record says so when there is none. The candidate's finite
    differences and derivatives at the interior points are priced on blocks.
    """
    points = list(points)
    inner = [g for g in points if g.horizon < t_final - GRID_TOL]
    probed = zip(*differentiability_probe(w, Net.of(inner), t_final=t_final))  # (flag, dt, dx) per point
    rows = []
    max_res = 0.0
    n_flagged = 0
    n_interior = 0
    ok = True
    for g in points:
        if g.horizon >= t_final - GRID_TOL:
            gap = abs(float(formula_rows(w.rows, g, g.samples[None])[0]) - _terminal_cost(coeffs, g))
            rows.append({"horizon": g.horizon, "kind": "terminal", "gap": gap})
            ok = ok and gap <= tol
            continue
        smooth, dt, dx = next(probed)
        if not smooth:
            rows.append({"horizon": g.horizon, "kind": "kink", "gap": float("nan")})
            n_flagged += 1
            continue
        res, _ = _operator(coeffs, g, dt, dx)
        rows.append({"horizon": g.horizon, "kind": "interior", "gap": res})
        max_res = max(max_res, abs(res))
        n_interior += 1
        ok = ok and abs(res) <= tol
    summary = {"max_residual": max_res, "n_flagged": n_flagged}
    if not n_interior:
        summary["reason"] = "no interior probe fits the grid"
    return CheckRecord(
        name="classical", passed=ok and n_interior > 0, summary=summary, rows=rows
    )


# stability under coefficient perturbation ------------------------------


# kind -> (the coefficient it shifts, the tag of the family's name, the
# direction of the shift on a block S, the exact gap at (eps, T - t) or None
# where only the e^{LT} eps bound and the monotone statistic apply)
PERTURBATIONS = {
    "phi_shift": ("terminal_cost", "phi", lambda S: 1.0, lambda eps, left: eps),
    "q_shift": ("running_cost", "q", lambda S: 1.0, lambda eps, left: eps * left),
    "drift_shift": ("drift", "F", lambda S: np.eye(S.shape[2])[0], None),
}


def perturbed(coeffs: Coefficients, kind: str, eps: float) -> Coefficients:
    """Shifted coefficient family; declares the enlarged constant L+eps."""
    if kind not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    field, tag, unit, _ = PERTURBATIONS[kind]
    base = getattr(coeffs, field)
    return replace(
        coeffs,
        name=f"{coeffs.name}+{tag}{eps}",
        lipschitz_L=coeffs.lipschitz_L + eps,
        **{field: lambda S, *U: np.asarray(base(S, *U), dtype=float) + eps * unit(S)},
    )


def stability_experiment(
    base_table: ValueTable,
    kind: str,
    epsilons,
    points,
    *,
    tol: float = 1e-9,
) -> CheckRecord:
    """Value gaps under coefficient shifts against their oracles.

    phi_shift: gap is eps exactly. q_shift: gap is eps * (T - t) exactly.
    drift_shift: |gap| <= e^{LT} eps with L of the base family, and gaps
    shrink with eps at every point (`PERTURBATIONS`). Each perturbed family
    gets a table on the grid and budget of `base_table`, which holds the
    unperturbed values; the gaps are one (eps, point) array.
    """
    coeffs, grid = base_table.c, base_table.grid
    epsilons = tuple(float(e) for e in epsilons)
    net = Net.of(points)  # one grouping for every table
    base = base_table.values(net)
    gaps = np.empty((len(epsilons), len(net)))
    for k, e in enumerate(epsilons):
        gaps[k] = ValueTable(perturbed(coeffs, kind, e), grid, budget=base_table.budget).values(net) - base
    exact, eps = PERTURBATIONS[kind][3], np.array(epsilons)[:, None]
    if exact is None:
        name, bound = "bound", np.broadcast_to(np.exp(coeffs.lipschitz_L * grid.T) * eps, gaps.shape)
        ok = np.abs(gaps) <= bound + tol
        ordered = np.abs(gaps[np.argsort(-eps[:, 0], kind="stable")])  # by eps, largest first
        monotone_ok = not (ordered[1:] > ordered[:-1] + tol).any()
    else:
        name, bound = "oracle", np.broadcast_to(exact(eps, grid.T - net.horizons), gaps.shape)
        ok, monotone_ok = np.abs(gaps - bound) <= tol, True
    G, B, OK = gaps.tolist(), bound.tolist(), ok.tolist()
    rows = [
        {"eps": e, "point": i, "gap": G[k][i], "horizon": t, name: B[k][i], "ok": OK[k][i]}
        for k, e in enumerate(epsilons)
        for i, t in enumerate(net.horizons.tolist())
    ]
    return CheckRecord(
        name="stability",
        passed=bool(ok.all()) and monotone_ok,
        summary={"kind": kind, "monotone_ok": monotone_ok},
        rows=rows,
    )


def stability_record(cfg, value_table) -> CheckRecord:
    """`stability_experiment` at the initial path under the config's
    perturbation and epsilons. Where the scenario has certificates, the
    unperturbed member must also pass the sub side of its first touching
    point (`limit_point_ok`)."""
    sc = cfg.scenario
    table = value_table()
    rec = stability_experiment(
        table,
        cfg.perturbation,
        cfg.epsilons,
        [sc.initial],
        tol=cfg.tolerances["residual"],
    )
    if has_certificates(sc):
        for _, _, first in _touching_scans(cfg, table, ("sub",), 1):  # one net, one sweep
            rec.summary["limit_point_ok"] = first.passed
            rec.passed = rec.passed and first.passed
    return rec


# perturbed maximization on the net at the initial path ------------------


# the roundoff that bp_search's postconditions allow
_BP_SLACK = 1e-12


def bp_record(cfg, value_table) -> CheckRecord:
    """`bp_search` over the net at the initial path in two modes: at-max,
    f = -(the pair gauge from the start), with eps 0.1, and horizon-bonus,
    f = horizon - that gauge, with eps 0.3 (T - t0) + 0.1. A mode passes when
    the search's postconditions hold up to _BP_SLACK; a start that is not
    eps-maximal is a failed row with the witness."""
    sc = cfg.scenario
    start = sc.initial
    net = build_net(sc.coefficients, start, sc.grid, seed=cfg.seed)
    t0, T = start.horizon, sc.grid.T
    rows, ok = [], True

    # the gauge from start to each net path, one row that both modes' f read
    gauge = pair_gauges(start, net)
    modes = [
        ("at-max", -gauge, 0.1),
        ("horizon-bonus", net.horizons - gauge, 0.3 * (T - t0) + 0.1),
    ]
    for label, f, eps in modes:
        try:
            res = bp_search(f, net, eps)
        except NotEpsMaximal as exc:  # a failed row with the witness
            rows.append(
                {
                    "mode": label,
                    "postconditions_ok": False,
                    "reason": "start is not eps-maximal",
                    "f_start": exc.f_start,
                    "f_max": exc.f_max,
                    "eps": exc.eps,
                }
            )
            ok = False
            continue
        terms, times = res.rho_terms, res.anchor_times
        post = (
            all(r <= eps / 2**i + _BP_SLACK for i, r in enumerate(terms))
            and res.sum_rho <= 2.0 * eps + _BP_SLACK
            and res.strict_gap > 0.0
            and res.perturbed_value >= res.f_start - _BP_SLACK
            and all(a <= b + _BP_SLACK for a, b in zip(times, times[1:]))
        )
        rows.append(
            {
                "mode": label,
                "iterations": res.iterations,
                "anchor_times": list(times),
                "sum_rho": res.sum_rho,
                "strict_gap": res.strict_gap,
                "stalled": res.stalled,
                "postconditions_ok": post,
            }
        )
        ok = ok and post
    return CheckRecord(
        name="bp", passed=ok, summary={"net_size": len(net)}, rows=rows
    )


# the check table -------------------------------------------------------


def _problem(cfg) -> tuple:
    """The coefficients, space and grid of the config's scenario."""
    return cfg.scenario.coefficients, cfg.scenario.space, cfg.scenario.grid


def _classical(cfg, value_table) -> CheckRecord:
    sc = cfg.scenario
    w, points = classical_candidate(sc)
    return classical_check(
        w, sc.coefficients, points, t_final=sc.grid.T, tol=cfg.tolerances["residual"]
    )


# every check a run can select, by name: each takes the run config and a
# thunk for the run's one value table, and returns its CheckRecord
CHECKS = {
    "hypothesis": lambda cfg, table: validate_hypothesis(*_problem(cfg), seed=cfg.seed),
    "estimates": lambda cfg, table: verify_state_estimates(*_problem(cfg), seed=cfg.seed),
    "value": value_record,
    "dpp": dpp_record,
    "regularity": lambda cfg, table: verify_value_regularity(
        table(), cfg.scenario.space, seed=cfg.seed
    ),
    "ito": ito_record,
    "gauge": gauge_record,
    "viscosity": viscosity_record,
    "classical": _classical,
    "stability": stability_record,
    "bp": bp_record,
}
