"""Smooth test functionals and gauge packs for equation-side checks.

Both are stated on rows, as the coefficients and the gauges are: a block of
paths is an (N, n, dim) sample array S with the node count, step and space
of a prototype path, and a single path g is the one-row block
g.samples[None]. TestFunctionPhi bundles a cylinder path functional with
analytic Dupire derivatives, all three given on such blocks; the
derivatives are cross-checked against finite differences on sampled paths
before a functional is trusted. GaugePack is the confining perturbation
class: an outer function of (time, gauge values) with nonnegative slope in
the gauge argument plus anchored pair-gauge terms with positive weights;
packs localize a touching premise without polluting the derivative terms at
their own anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gauge import pair_difference_rows, pair_gauge_rows, upsilon_rows
from .paths import (
    GRID_TOL,
    Net,
    Path,
    Refused,
    _grouped,
    extend_flat,
    formula_paths,
    formula_rows,
    group_protos,
    group_rows,
    node_count_groups,
    row_dots,
    sup_norm,
)

__all__ = ["TestFunctionPhi", "GaugePack", "differentiability_probe"]


@dataclass(frozen=True)
class TestFunctionPhi:
    """Path functional with analytic time and vertical derivatives, each a
    row formula.

    Attributes
    ----------
    rows, dt : callables (proto, S) -> (N,) array
        The functional, and its horizontal (flat-extension) derivative, at
        the path of each row of S, an (N, n, dim) block with proto's node
        count, step and space. A row formula must give every row the float
        it gives that row alone (its one-row block).
    dx : callable (proto, S) -> (N, dim) array
        The functional's vertical gradient at the path of each row of S.
    a_star_dx_continuous : bool
        Whether A* dx is continuous along paths; the functional Ito check
        refuses functionals that do not declare this.
    label : str
        Used in reports.
    """

    __test__ = False  # keep pytest from collecting the class

    rows: Callable[[Path, np.ndarray], np.ndarray]
    dt: Callable[[Path, np.ndarray], np.ndarray]
    dx: Callable[[Path, np.ndarray], np.ndarray]
    a_star_dx_continuous: bool = True
    label: str = ""

    def validate_on(self, paths, *, t_final: Optional[float] = None) -> None:
        """Check analytic derivatives against grid finite differences at
        paths on one space and step, a `Net` or a list (`_differences`): dx
        against central differences with step 1e-5 * max(1, |gamma(t)|), dt
        against the one-step flat extension where it does not cross t_final.

        Raises ValueError at the first path where they do not agree within
        1e-5 (absolute, relative to max(1, |analytic|)), so a NaN derivative
        is refused.
        """
        tol = 1e-5
        if not len(paths):
            return
        E, horizons, step = np.empty((len(paths), paths[0].space.dim)), np.empty(len(paths)), paths[0].step
        for n, (rows, S) in node_count_groups(paths).items():  # a net's own grouping
            E[rows], horizons[rows] = S[:, -1], step * (n - 1)
        h = 1e-5 * np.maximum(1.0, np.sqrt(row_dots(E, E)))
        reach = [t_final is None or s + step <= t_final + GRID_TOL for s in horizons.tolist()]
        f0, bumped, flat, ax, at = _differences(self, paths, h[:, None], reach)
        gap_x = np.abs(ax - (bumped[:, 0, :, 0] - bumped[:, 0, :, 1]) / (2.0 * h[:, None])).max(axis=1)
        gap_t = np.abs(at - (flat[:, 0] - f0) / step)
        bad_x = ~(gap_x <= tol * np.maximum(1.0, np.abs(ax).max(axis=1)))
        bad_t = np.array(reach) & ~(gap_t <= tol * np.maximum(1.0, np.abs(at)))
        for i in np.flatnonzero(bad_x | bad_t)[:1]:  # the first path refused
            what, gap = ("vertical", gap_x[i]) if bad_x[i] else ("time", gap_t[i])
            raise ValueError(
                f"{self.label or 'phi'}: {what} derivative off by {gap:.3e} "
                f"at horizon {horizons[i]}"
            )

    # common constructors ------------------------------------------------

    @staticmethod
    def linear_endpoint(w, c: float = 0.0, label: str = "linear") -> "TestFunctionPhi":
        """g -> (w, gamma(t)) + c."""
        w = np.asarray(w, dtype=float)
        return TestFunctionPhi(
            rows=lambda proto, S: row_dots(S[:, -1], w) + c,
            dt=lambda proto, S: np.zeros(len(S)),
            dx=lambda proto, S: np.full((len(S),) + w.shape, w),
            label=label,
        )

    @staticmethod
    def quadratic_endpoint(label: str = "quad") -> "TestFunctionPhi":
        """g -> |gamma(t)|^2."""
        return TestFunctionPhi(
            rows=lambda proto, S: row_dots(S[:, -1], S[:, -1]),
            dt=lambda proto, S: np.zeros(len(S)),
            dx=lambda proto, S: 2.0 * S[:, -1],
            label=label,
        )


def _differences(phi: TestFunctionPhi, probes, steps: np.ndarray, reach: list) -> tuple:
    """phi at each of probes, paths on one space and step (a list or a
    `Net`), at its vertical bumps and flat extensions, priced as one block
    per node count (`group_rows`), and phi's derivatives at each probe.

    steps is an (N, J) array, J vertical steps per probe, and reach[i] is
    the number of flat-extension steps priced at probe i, at most 2, the
    same for the probes of one node count. Returns (f0, bumped, flat, dx,
    dt): f0[i] is phi at probe i; bumped[i, j, k] holds phi at probe i with
    coordinate k of its last sample moved by +steps[i, j] and by
    -steps[i, j]; flat[i, r - 1] is phi at its flat extension by r steps
    (`extend_flat`), NaN where r > reach[i]; dx[i] and dt[i] are phi.dx and
    phi.dt at probe i.
    """
    if not isinstance(probes, Net) and any(abs(g.step - probes[0].step) > GRID_TOL for g in probes):
        raise ValueError("probe paths must share one step")
    (N, J), dim = steps.shape, probes[0].space.dim
    width = 1 + 2 * J * dim  # the rows of a probe: itself, then its bumps
    groups, protos = node_count_groups(probes).values(), group_protos(probes)
    blocks, owners = [], []  # the blocks, and a path with the node count of each of their rows
    for rows, S in groups:  # a block of the probes and their bumps, then one per extension
        (m, n), g = S.shape[:2], protos[S.shape[1]]
        B = np.repeat(S, width, axis=0)
        moved = B.reshape(m, width, n, dim)[:, 1:].reshape(m, J, dim, 2, n, dim)
        for k in range(dim):
            moved[:, :, k, 0, -1, k] += steps[rows]
            moved[:, :, k, 1, -1, k] -= steps[rows]
        blocks.append(B)
        owners += [g] * len(B)
        for r in range(1, reach[rows[0]] + 1):
            blocks.append(S[:, np.minimum(np.arange(n + r), n - 1)])
            owners += [extend_flat(g, g.horizon + r * g.step)] * m
    v = group_rows(lambda rows, S: formula_rows(phi.rows, owners[rows[0]], S), owners, _grouped(blocks)[0].values())
    f0, bumped, flat, at = np.empty(N), np.empty((N, J, dim, 2)), np.full((N, 2), np.nan), 0
    for rows, _ in groups:  # v read back in the order of the blocks
        m, R = len(rows), int(reach[rows[0]])
        V = v[at : at + m * width].reshape(m, width)
        f0[rows], bumped[rows] = V[:, 0], V[:, 1:].reshape(m, J, dim, 2)
        flat[rows, :R] = v[at + m * width : at + m * (width + R)].reshape(R, m).T
        at += m * (width + R)
    return f0, bumped, flat, formula_paths(phi.dx, probes, groups, True), formula_paths(phi.dt, probes, groups)


def differentiability_probe(phi: TestFunctionPhi, points, *, t_final: Optional[float] = None) -> tuple:
    """Whether finite differences converge to phi's derivatives at each of
    points, paths on one space and step, as a list of bools, with those
    derivatives: (flags, dt, dx), dt a list of floats and dx an (N, dim)
    array.

    Three tests, all must hold: halving the central-difference step shrinks
    the vertical error (it stalls at a one-sided kink); forward and backward
    differences agree (central differences alone cancel at a symmetric
    cone); and the flat-extension time slope matches when it exists. The
    points' bumps and extensions are priced by `_differences`.
    """
    points = list(points)
    if not points:
        return [], [], np.zeros((0, 0))
    h_base, step = 1e-3, points[0].step
    E = np.array([g.endpoint for g in points])
    h = h_base * np.maximum(1.0, np.abs(E).max(axis=1))
    one = np.array([t_final is None or g.horizon + g.step <= t_final + GRID_TOL for g in points])
    two = np.array([t_final is None or g.horizon + 2 * g.step <= t_final + 1e-9 for g in points])
    halves = (h_base, 0.5 * h_base)
    steps = np.column_stack([np.full(len(points), s) for s in halves] + [h])
    f0, bumped, flat, ax, at = _differences(phi, points, steps, (one * (1 + two)).tolist())
    fd1, fd2 = ((bumped[:, j, :, 0] - bumped[:, j, :, 1]) / (2.0 * s) for j, s in enumerate(halves))
    ok_x = np.abs(fd2 - ax).max(axis=1) <= 0.6 * np.abs(fd1 - ax).max(axis=1) + 1e-8
    fwd = (bumped[:, 2, :, 0] - f0[:, None]) / h[:, None]
    bwd = (f0[:, None] - bumped[:, 2, :, 1]) / h[:, None]
    cone = (np.abs(fwd - bwd) > 0.05 * np.maximum(1.0, np.abs(ax).max(axis=1))[:, None]).any(axis=1)
    # two steps fit: the second-order one-sided difference cancels smooth
    # curvature but still misreads a slope break; one step before the horizon
    # the test is first-order only, and allows a curvature-sized gap
    est = (-3.0 * f0 + 4.0 * flat[:, 0] - flat[:, 1]) / (2.0 * step)
    ok_t = np.where(
        two,
        np.abs(est - at) <= 0.5 * np.abs(at) + 0.1,
        np.abs((flat[:, 0] - f0) / step - at) <= 0.5 * np.abs(at) + 0.1 + 2.0 * step,
    )
    return (~cone & ok_x & (~one | ok_t)).tolist(), at.tolist(), ax


@dataclass(frozen=True)
class GaugePack:
    """Confining perturbation: outer h(s, Upsilon^2) plus anchored pair gauges.

    g(eta_s) = h(s, Upsilon^2(eta_s))
               + sum_i delta_i [ Upsilon^2(eta_s - ext gamma^i) + (s - t_i)^2 ]

    h, h_t and h_y take (s, y): s a horizon and y the array of Upsilon^2 of
    the rows of a block of paths with that horizon. Each returns one float
    per row, or one float that every row shares; any other shape is
    refused. h_y must be >= 0 wherever evaluated. Anchors must not outlive
    the paths they are evaluated against. The time derivative treats the
    pair terms' Upsilon^2 part as time-flat, so dt g = h_t + 2 sum_i
    delta_i (s - t_i). The pack, dt and dx are row formulas (`rows`, `dt`,
    `dx`), as a test functional's are, and `value(g)` is the one-row case
    of `rows`.
    """

    h: Callable[[float, np.ndarray], np.ndarray] = staticmethod(lambda s, y: 0.0)
    h_t: Callable[[float, np.ndarray], np.ndarray] = staticmethod(lambda s, y: 0.0)
    h_y: Callable[[float, np.ndarray], np.ndarray] = staticmethod(lambda s, y: 0.0)
    anchors: tuple = ()  # of (Path, positive weight)
    bound_N: float = float("inf")
    label: str = ""

    def __post_init__(self):
        if not self.bound_N > 0.0:  # a NaN bound is refused too
            raise ValueError(f"bound_N must be > 0, got {self.bound_N}")
        total = 0.0
        for anchor, delta in self.anchors:
            if not (math.isfinite(delta) and delta > 0.0):
                raise ValueError(f"anchor weight must be finite and > 0, got {delta}")
            total += delta
        if np.isfinite(self.bound_N):
            if total > self.bound_N:
                raise ValueError(f"anchor weights sum {total} exceed bound {self.bound_N}")
            for anchor, _ in self.anchors:
                if sup_norm(anchor) > self.bound_N:
                    raise ValueError("anchor norm exceeds bound")

    @staticmethod
    def zero() -> "GaugePack":
        return GaugePack(label="zero")

    @staticmethod
    def anchored(anchor: Path, delta: float, label: str = "anchored") -> "GaugePack":
        return GaugePack(anchors=((anchor, delta),), label=label)

    @staticmethod
    def _outer(f, s: float, y: np.ndarray) -> np.ndarray:
        """f(s, y) as one float per row of y, a shared float broadcast; any
        other shape is refused."""
        v = np.asarray(f(s, y), dtype=np.float64)
        if v.shape not in ((), y.shape):
            raise ValueError(f"pack outer gave shape {v.shape} for {len(y)} rows")
        return np.broadcast_to(v, y.shape)

    def _slopes(self, s: float, y: np.ndarray) -> np.ndarray:
        """h_y(s, y), `Refused` at the first row whose slope is not >= 0."""
        hy = self._outer(self.h_y, s, y)
        bad = ~(hy >= 0.0)  # a NaN slope is refused too
        if bad.any():
            i = int(bad.argmax())
            raise Refused(
                f"pack outer slope h_y={float(hy[i])} is not >= 0 at (s={s}, y={float(y[i])})"
            )
        return hy

    def _anchors_within(self, s: float):
        """Each (anchor, weight), `Refused` at an anchor that outlives the
        horizon s of the paths evaluated."""
        for anchor, delta in self.anchors:
            if anchor.horizon > s + GRID_TOL:
                raise Refused(f"anchor horizon {anchor.horizon} beyond evaluated path {s}")
            yield anchor, delta

    def value(self, g: Path) -> float:
        return float(self.rows(g, g.samples[None])[0])

    def rows(self, proto: Path, S: np.ndarray) -> np.ndarray:
        """The pack at the path of each row of S, a block of paths on proto's
        space and step with proto's node count.

        Upsilon^2 of the rows (`upsilon_rows`) and each anchor's pair gauge
        (`pair_gauge_rows`) are block reductions, and h and h_y are called
        once per block, on the array of the rows' Upsilon^2. Every entry
        equals the one-path formula bit for bit.
        """
        s = proto.horizon
        y = upsilon_rows(2.0, S)
        self._slopes(s, y)
        out = np.array(self._outer(self.h, s, y))
        for anchor, delta in self._anchors_within(s):
            out += delta * pair_gauge_rows(anchor, proto, S)
        return out

    def dt(self, proto: Path, S: np.ndarray) -> np.ndarray:
        """The pack's time derivative at the path of each row of S, a block
        as `rows` takes it."""
        s = proto.horizon
        out = np.array(self._outer(self.h_t, s, upsilon_rows(2.0, S)))
        for anchor, delta in self._anchors_within(s):
            out += 2.0 * delta * (s - anchor.horizon)
        return out

    def dx(self, proto: Path, S: np.ndarray) -> np.ndarray:
        """The pack's vertical gradient at the path of each row of S, a
        block as `rows` takes it, as an (N, dim) array."""
        s = proto.horizon
        y, grad = upsilon_rows(2.0, S, True)
        out = self._slopes(s, y)[:, None] * grad
        for anchor, delta in self._anchors_within(s):
            out = out + delta * upsilon_rows(2.0, pair_difference_rows(anchor, proto, S), True)[1]
        return out
