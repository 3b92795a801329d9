"""Smooth test functionals and gauge packs for equation-side checks.

Both are stated on rows, as the coefficients and the gauges are: a block of
paths is an (N, n, dim) sample array S with the node count, step and space
of a prototype path, and a single path g is the one-row block
g.samples[None]. TestFunctionPhi bundles a cylinder path functional, given
on such blocks, with analytic Dupire derivatives; the derivatives are
cross-checked against finite differences on sampled paths before a
functional is trusted. GaugePack is the confining perturbation class: an
outer function of (time, gauge values) with nonnegative slope in the gauge
argument plus anchored pair-gauge terms with positive weights; packs
localize a touching premise without polluting the derivative terms at their
own anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gauge import (
    grad_upsilon,
    pair_difference,
    pair_gauge_rows,
    upsilon_rows,
)
from .paths import (
    GRID_TOL,
    Path,
    Refused,
    dupire_derivatives,
    extend_flat,
    row_dots,
    row_value,
    sup_norm,
    vertical_bump,
)

__all__ = ["TestFunctionPhi", "GaugePack", "differentiability_probe"]


@dataclass(frozen=True)
class TestFunctionPhi:
    """Path functional with analytic time and vertical derivatives.

    Attributes
    ----------
    rows : callable (proto, S) -> (N,) array
        The functional at the path of each row of S, an (N, n, dim) block
        with proto's node count, step and space. `value(g)` and `phi(g)`
        are its one-row case, so a row formula must give every row the
        float it gives that row alone.
    dt, dx : callables on Path
        The functional's horizontal (flat-extension) derivative and its
        vertical gradient.
    a_star_dx_continuous : bool
        Whether A* dx is continuous along paths; the functional Ito check
        refuses functionals that do not declare this.
    label : str
        Used in reports.
    """

    __test__ = False  # keep pytest from collecting the class

    rows: Callable[[Path, np.ndarray], np.ndarray]
    dt: Callable[[Path], float]
    dx: Callable[[Path], np.ndarray]
    a_star_dx_continuous: bool = True
    label: str = ""

    def value(self, g: Path) -> float:
        return row_value(self.rows, g)

    def __call__(self, g: Path) -> float:
        return self.value(g)

    def validate_on(self, paths, *, t_final: Optional[float] = None) -> None:
        """Check analytic derivatives against grid finite differences.

        Raises ValueError at the first sample where they do not agree
        within 1e-5 (absolute, relative to max(1, |analytic|)), so a NaN
        derivative is refused.
        """
        tol = 1e-5
        for g in paths:
            fd = dupire_derivatives(self.value, g, t_final=t_final)
            ax = np.asarray(self.dx(g), dtype=float)
            gap = np.max(np.abs(ax - fd.dx))
            if not gap <= tol * max(1.0, float(np.max(np.abs(ax)))):
                raise ValueError(
                    f"{self.label or 'phi'}: vertical derivative off by {gap:.3e} "
                    f"at horizon {g.horizon}"
                )
            if fd.dt is not None:
                at = float(self.dt(g))
                if not abs(at - fd.dt) <= tol * max(1.0, abs(at)):
                    raise ValueError(
                        f"{self.label or 'phi'}: time derivative off by "
                        f"{abs(at - fd.dt):.3e} at horizon {g.horizon}"
                    )

    # common constructors ------------------------------------------------

    @staticmethod
    def linear_endpoint(w, c: float = 0.0, label: str = "linear") -> "TestFunctionPhi":
        """g -> (w, gamma(t)) + c."""
        w = np.asarray(w, dtype=float)
        return TestFunctionPhi(
            rows=lambda proto, S: row_dots(S[:, -1], w) + c,
            dt=lambda g: 0.0,
            dx=lambda g: w.copy(),
            label=label,
        )

    @staticmethod
    def quadratic_endpoint(label: str = "quad") -> "TestFunctionPhi":
        """g -> |gamma(t)|^2."""
        return TestFunctionPhi(
            rows=lambda proto, S: row_dots(S[:, -1], S[:, -1]),
            dt=lambda g: 0.0,
            dx=lambda g: 2.0 * g.endpoint,
            label=label,
        )


def differentiability_probe(
    value: Callable[[Path], float],
    dt: Callable[[Path], float],
    dx: Callable[[Path], np.ndarray],
    g: Path,
    *,
    t_final: Optional[float] = None,
) -> bool:
    """True when finite differences converge to the supplied derivatives.

    Three tests, all must hold: halving the central-difference step shrinks
    the vertical error (it stalls at a one-sided kink); forward and backward
    differences agree (central differences alone cancel at a symmetric
    cone); and the flat-extension time slope matches when it exists.
    """
    h_base = 1e-3
    fd1 = dupire_derivatives(value, g, t_final=t_final, h=h_base)
    fd2 = dupire_derivatives(value, g, t_final=t_final, h=0.5 * h_base)
    ax = np.asarray(dx(g), dtype=float)
    e1 = float(np.max(np.abs(fd1.dx - ax)))
    e2 = float(np.max(np.abs(fd2.dx - ax)))
    ok_x = e2 <= 0.6 * e1 + 1e-8

    f0 = float(value(g))
    scale = max(1.0, float(np.max(np.abs(ax))))
    h = h_base * max(1.0, float(np.max(np.abs(g.endpoint))))
    for k in range(g.space.dim):
        e = np.zeros(g.space.dim)
        e[k] = h
        fwd = (float(value(vertical_bump(g, e))) - f0) / h
        bwd = (f0 - float(value(vertical_bump(g, -e)))) / h
        if abs(fwd - bwd) > 0.05 * scale:
            return False

    if fd1.dt is None or fd2.dt is None:
        return ok_x
    at = float(dt(g))
    two_fit = t_final is None or g.horizon + 2 * g.step <= t_final + 1e-9
    if two_fit:
        # second-order one-sided difference cancels smooth curvature but
        # still misreads a genuine slope break
        f1 = float(value(extend_flat(g, g.horizon + g.step)))
        f2 = float(value(extend_flat(g, g.horizon + 2 * g.step)))
        est = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * g.step)
        return ok_x and abs(est - at) <= 0.5 * abs(at) + 0.1
    # one step before the horizon the slope test is first-order only;
    # allow a curvature-sized gap rather than flag smooth points
    return ok_x and abs(fd1.dt - at) <= 0.5 * abs(at) + 0.1 + 2.0 * g.step


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
    delta_i (s - t_i).
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

    def value(self, g: Path) -> float:
        return row_value(self.rows, g)

    def rows(self, proto: Path, S: np.ndarray) -> np.ndarray:
        """The pack at the path of each row of S, a block of paths on proto's
        space and step with proto's node count.

        Upsilon^2 of the rows (`upsilon_rows`) and each anchor's pair gauge
        (`pair_gauge_rows`) are block reductions, and h and h_y are called
        once per block, on the array of the rows' Upsilon^2. Every entry
        equals the one-path formula bit for bit.
        """
        s = proto.horizon
        y = np.array(upsilon_rows(2.0, S))
        self._slopes(s, y)
        out = np.array(self._outer(self.h, s, y))
        for anchor, delta in self.anchors:
            if anchor.horizon > s + GRID_TOL:
                raise Refused(f"anchor horizon {anchor.horizon} beyond evaluated path {s}")
            out += delta * np.array(pair_gauge_rows(anchor, proto, S))
        return out

    def dt(self, g: Path) -> float:
        s = g.horizon
        y = np.array(upsilon_rows(2.0, g.samples[None]))
        out = float(self._outer(self.h_t, s, y)[0])
        for anchor, delta in self.anchors:
            out += 2.0 * delta * (s - anchor.horizon)
        return out

    def dx(self, g: Path) -> np.ndarray:
        s = g.horizon
        y = np.array(upsilon_rows(2.0, g.samples[None]))
        out = self._slopes(s, y)[0] * grad_upsilon(2.0, g)
        for anchor, delta in self.anchors:
            diff = pair_difference(anchor, g)
            out = out + delta * grad_upsilon(2.0, diff)
        return out
