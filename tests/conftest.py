"""Shared helpers for the test suite: spaces, seeded random paths, block
drifts, level stepping, a time ramp of test functionals, the gauges and
gauge packs as one-path scalar formulas, and the one-path forms that the
package states on rows only (row formulas at one path, grid Dupire
derivatives, the pseudometric, a path's sample at a time and the
semigroup on a vector), kept here as oracles."""

import math
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np

from phjb import Path, SpectralSpace, sup_norm
from phjb.dynamics import step_rows
from phjb.gauge import eval_upsilon, pair_difference, upsilon_rows
from phjb.paths import GRID_TOL, carried, extend_flat, formula_rows, sup_norms


def make_space(eigenvalues) -> SpectralSpace:
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    return SpectralSpace(lam)


def flat_space(dim: int = 1) -> SpectralSpace:
    return make_space(np.zeros(dim))


def random_path(rng, space, step=0.25, min_nodes=1, max_nodes=9, scale=1.0) -> Path:
    """Random-walk path with a uniformly drawn node count."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    steps = rng.normal(0.0, scale * np.sqrt(step), size=(n, space.dim))
    start = rng.normal(0.0, scale, size=(1, space.dim))
    samples = np.vstack([start, start + np.cumsum(steps, axis=0)])
    return Path(space, step, samples)


def time_ramp(phi, k: float, t_final: float):
    """phi plus k * (t_final - s); shifts the time derivative by -k."""
    base_v, base_t = phi.rows, phi.dt
    return replace(
        phi,
        rows=lambda proto, S: base_v(proto, S) + k * (t_final - proto.horizon),
        dt=lambda proto, S: base_t(proto, S) - k,
        label=(phi.label + "+ramp") if phi.label else "ramp",
    )


def row_map(rec, key, value) -> dict:
    """A check record's rows as {row[key]: row[value]}, e.g. the ratios of a
    hypothesis record by inequality."""
    return {row[key]: row[value] for row in rec.rows}


def level_children(c, prefixes) -> list:
    """The children of prefixes of one node count under every control,
    parent-major, stepped as one `step_rows` block and wrapped as paths."""
    P = np.stack([p.samples for p in prefixes])
    P.flags.writeable = False
    return [prefixes[0]._trusted(x) for x in step_rows(c, prefixes[0], P, c.control_set)[2]]


def split_key(key: bytes) -> tuple:
    """A value-memo key as its node count and the bytes of its state."""
    return int(np.frombuffer(key, np.int64, 1)[0]), key[8:]


def control_column(U):
    """The controls of a block as an (N, 1) drift."""
    return np.asarray(U, dtype=float)[:, None]


def spoil_drift(c, *paths):
    """c with a NaN drift on the rows whose first sample is that of one of
    the given paths."""
    marks = [float(g.samples[0, 0]) for g in paths]
    base = c.drift

    def drift(S, U):
        f = np.array(base(S, U), dtype=float)
        f[np.isin(S[:, 0, 0], marks)] = np.nan
        return f

    return replace(c, drift=drift)


def out_of_block_order(paths) -> tuple:
    """Two paths, `first` drawn before `later`, whose node counts are met in
    the other order: `later` shares the node count of paths[0], so a pass
    over node-count blocks reaches it first."""
    lead = paths[0].n_nodes
    later = next(g for g in paths[1:] if g.n_nodes == lead)
    first = next(g for g in paths[: paths.index(later)] if g.n_nodes != lead)
    return first, later


# the gauges as one-path scalar code: references for the row forms of
# phjb.gauge and phjb.variational, independent of their shared kernel; S
# is also stated as Upsilon^0 of the package


def eval_S(g) -> float:
    """S(gamma) = (||gamma||_0^2 - |gamma(t)|^2)^2 / ||gamma||_0^2, which is
    Upsilon^0."""
    return eval_upsilon(0.0, g)


def grad_upsilon(M: float, g) -> np.ndarray:
    """Vertical gradient of Upsilon^M, grad S + 2 M gamma(t): the one-row
    case of `upsilon_rows` with its gradients."""
    return upsilon_rows(M, g.samples[None], True)[1][0]


def grad_S(g) -> np.ndarray:
    """Vertical gradient of S, -4 (a - b) gamma(t) / a (0 at a zero path):
    the gradient of Upsilon^0."""
    return grad_upsilon(0.0, g)


def _scalar_a_b(g):
    end = g.endpoint
    a = sup_norm(g) ** 2
    b = float(end @ end)
    return a, end, b


def scalar_upsilon(M, g) -> float:
    a, _, b = _scalar_a_b(g)
    if a == 0.0:
        return 0.0
    return (a - b) ** 2 / a + M * b


def scalar_grad_upsilon(M, g) -> np.ndarray:
    a, end, b = _scalar_a_b(g)
    if a == 0.0:
        return np.zeros(end.shape)
    return (-4.0 * (a - b) / a) * end + (2.0 * M) * end


def scalar_S(g) -> float:
    a, _, b = _scalar_a_b(g)
    if a == 0.0:
        return 0.0
    return (a - b) ** 2 / a


def scalar_grad_S(g) -> np.ndarray:
    a, end, b = _scalar_a_b(g)
    if a == 0.0:
        return np.zeros(g.space.dim)
    return (-4.0 * (a - b) / a) * end


def _scalar_rows(g, m) -> np.ndarray:
    """The m samples after g's horizon: flat under a zero generator, else
    along the semigroup."""
    if g.space.is_zero_generator:
        return g.samples[-1:].repeat(m, axis=0)
    j = np.arange(1, m + 1)
    return np.exp(np.outer(j * g.step, g.space.eigenvalues)) * g.endpoint


def scalar_pair_difference(anchor, g) -> Path:
    late, early = (g, anchor) if anchor.horizon <= g.horizon else (anchor, g)
    n_early = early.n_nodes
    out = np.empty_like(late.samples)
    np.subtract(late.samples[:n_early], early.samples, out=out[:n_early])
    np.subtract(
        late.samples[n_early:], _scalar_rows(early, late.n_nodes - n_early), out=out[n_early:]
    )
    return Path(late.space, late.step, out)


def scalar_upsilon_pair(M, anchor, g, with_time=False) -> float:
    val = scalar_upsilon(M, scalar_pair_difference(anchor, g))
    if with_time:
        val += (g.horizon - anchor.horizon) ** 2
    return val


def scalar_pair_gauge(anchor, g) -> float:
    return scalar_upsilon_pair(2.0, anchor, g, with_time=True)


def scalar_metric_d_infty(g, h) -> float:
    """|t - s| plus the sup-norm gap of both paths extended to the later horizon."""
    n = max(g.n_nodes, h.n_nodes)
    ge = np.vstack([g.samples, _scalar_rows(g, n - g.n_nodes)])
    he = np.vstack([h.samples, _scalar_rows(h, n - h.n_nodes)])
    d = ge - he
    gap = math.sqrt(np.maximum.reduce(np.add.reduce(d * d, axis=1)))
    return abs(g.horizon - h.horizon) + gap


def one_path_pack_value(pack, g):
    """GaugePack.value as it was computed one path at a time, with
    eval_upsilon of the path and of each anchor's pair_difference; the
    outer functions get the path's gauge as an array of one row."""
    s = g.horizon
    y = eval_upsilon(2.0, g)
    hy = float(np.broadcast_to(pack.h_y(s, np.array([y])), (1,))[0])
    if not hy >= 0.0:
        raise ValueError(f"pack outer slope h_y={hy} is not >= 0 at (s={s}, y={y})")
    out = float(np.broadcast_to(pack.h(s, np.array([y])), (1,))[0])
    for anchor, delta in pack.anchors:
        if anchor.horizon > s + 1e-12:
            raise ValueError(f"anchor horizon {anchor.horizon} beyond evaluated path {s}")
        diff = pair_difference(anchor, g)
        out += delta * (eval_upsilon(2.0, diff) + (s - anchor.horizon) ** 2)
    return out


def one_path_pack_dt(pack, g) -> float:
    """GaugePack.dt as it was computed one path at a time: h_t at the
    path's gauge plus 2 delta (s - t) for each anchor, which may not
    outlive the path."""
    s = g.horizon
    out = float(np.broadcast_to(pack.h_t(s, np.array([eval_upsilon(2.0, g)])), (1,))[0])
    for anchor, delta in pack.anchors:
        if anchor.horizon > s + 1e-12:
            raise ValueError(f"anchor horizon {anchor.horizon} beyond evaluated path {s}")
        out += 2.0 * delta * (s - anchor.horizon)
    return out


def one_path_pack_dx(pack, g) -> np.ndarray:
    """GaugePack.dx as it was computed one path at a time, with
    grad_upsilon of the path and of each anchor's pair_difference."""
    s = g.horizon
    y = eval_upsilon(2.0, g)
    hy = float(np.broadcast_to(pack.h_y(s, np.array([y])), (1,))[0])
    if not hy >= 0.0:
        raise ValueError(f"pack outer slope h_y={hy} is not >= 0 at (s={s}, y={y})")
    out = hy * grad_upsilon(2.0, g)
    for anchor, delta in pack.anchors:
        if anchor.horizon > s + 1e-12:
            raise ValueError(f"anchor horizon {anchor.horizon} beyond evaluated path {s}")
        out = out + delta * grad_upsilon(2.0, pair_difference(anchor, g))
    return out


# one-path forms of the package's row formulas and paths ------------------


def row_value(f, g) -> float:
    """The row formula f at the one path g: its one-row block g.samples[None]
    (what `TestFunctionPhi.value(g)` and `phi(g)` were)."""
    return float(formula_rows(f, g, g.samples[None])[0])


def row_vector(f, g) -> np.ndarray:
    """The vector row formula f, a vertical gradient, at the one path g."""
    return formula_rows(f, g, g.samples[None], True)[0]


def value_at(g, t: float) -> np.ndarray:
    """The sample of g at the on-grid time t <= its horizon."""
    return g.samples[g.node_at(t)]


def semigroup_apply(space, t: float, x) -> np.ndarray:
    """e^{tA} x, coordinatewise x_k e^{lambda_k t}. Requires t >= 0."""
    return space.check_vector(x) * space.semigroup_factors(t)


def metric_d_infty(g, h) -> float:
    """d_infty(gamma_t, eta_s) = |t - s| + sup-norm gap of semigroup extensions.

    The earlier path is carried along the semigroup to the later horizon;
    beyond that the gap only contracts, so the value does not depend on any
    global terminal time. Both paths must share a space and a step.
    """
    g._check_same_space_and_step(h)
    late, early = (g, h) if g.n_nodes >= h.n_nodes else (h, g)
    gap = float(sup_norms((late.samples - carried(early, late.n_nodes))[None])[0])
    return abs(g.horizon - h.horizon) + gap


class DupireDerivatives(NamedTuple):
    dt: Optional[float]
    dx: np.ndarray


def dupire_derivatives(f, g, *, t_final=None, h=None) -> DupireDerivatives:
    """Grid Dupire derivatives of a one-path functional f at gamma_t.

    dt is the forward difference along the flat extension by one grid step;
    when t_final is given and the step would cross it, dt is None (signaled)
    and dx is still returned. dx uses central differences on vertical bumps
    with step h, default 1e-5 * max(1, |gamma(t)|).
    """
    if t_final is not None and g.horizon + g.step > t_final + GRID_TOL:
        dt = None
    else:
        dt = (f(extend_flat(g, g.horizon + g.step)) - f(g)) / g.step

    end = g.endpoint
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(end)))
    dx = np.empty(g.space.dim)
    base = g.samples.copy()
    for k in range(g.space.dim):
        up = base.copy()
        up[-1, k] += h
        dn = base.copy()
        dn[-1, k] -= h
        fu = f(Path(g.space, g.step, up))
        fd = f(Path(g.space, g.step, dn))
        dx[k] = (fu - fd) / (2.0 * h)
    return DupireDerivatives(dt, dx)



def random_prefix(rng, space, grid, *, scale=1.0, min_nodes=1) -> Path:
    """One seeded random-walk prefix drawn with `normal` calls (node count,
    steps, start); at scale 1 and min_nodes 1 the one-row case of the
    prefixes of `paths.Walks`."""
    n = int(rng.integers(min_nodes, grid.n_steps + 2))
    steps = rng.normal(0.0, scale * np.sqrt(grid.step), size=(n - 1, space.dim))
    start = rng.normal(0.0, scale, size=(1, space.dim))
    return Path(space, grid.step, np.vstack([start, start + np.cumsum(steps, axis=0)]))
