"""Grid-sampled paths, their extensions, the pseudometric, and Dupire derivatives.

A path lives on the uniform grid {0, step, 2 step, ..., horizon} and stores one
state vector per grid node. The horizon is always an integer multiple of the
step by construction (it is derived from the sample count, never stored).
Sup norms and the metric are taken over grid samples; between-node behaviour is
deliberately out of scope and results are grid-resolution dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .hilbert import SpectralSpace

__all__ = [
    "GRID_TOL",
    "TimeGrid",
    "Path",
    "grid_index",
    "vertical_bump",
    "extend_flat",
    "extend_semigroup",
    "sup_norm",
    "metric_d_infty",
    "DupireDerivatives",
    "dupire_derivatives",
]

# tolerance for "time lies on the grid" checks
GRID_TOL = 1e-12

# up to this many values, all_finite tests them one by one in Python, which
# costs a fraction of numpy's reduction call on the few values of one step
_SCALAR_FINITE_MAX = 16


def all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() for a float array, fast on small ones."""
    if a.size <= _SCALAR_FINITE_MAX:
        return all(map(math.isfinite, a.ravel().tolist()))
    return bool(np.isfinite(a).all())


def grid_index(t: float, step: float, *, what: str = "time") -> int:
    """Index of t on the grid {0, step, ...}; raises if t is off-grid."""
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    k = int(round(t / step))
    if k < 0 or abs(k * step - t) > GRID_TOL * max(1.0, abs(t)):
        raise ValueError(f"{what} {t!r} is not a grid multiple of step {step!r}")
    return k


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with spacing `step`; T must be a multiple of step."""

    T: float
    step: float

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")
        grid_index(self.T, self.step, what="T")

    @cached_property
    def n_steps(self) -> int:
        return grid_index(self.T, self.step, what="T")

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Path:
    """A sampled path: one (dim,) state per grid node from time 0 to the horizon.

    Attributes
    ----------
    space : SpectralSpace
        The ambient state space (supplies the generator).
    step : float
        Grid spacing, > 0.
    samples : np.ndarray
        Shape (k + 1, dim) where horizon = k * step. Stored read-only.
    """

    space: SpectralSpace
    step: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != self.space.dim:
            raise ValueError(
                f"samples shape {arr.shape}, expected (k+1, {self.space.dim})"
            )
        if not all_finite(arr):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    # -- constructors ----------------------------------------------------

    def _extended(self, rows: np.ndarray) -> "Path":
        """This path followed by the (m, dim) block `rows`, validating only `rows`.

        The prefix already holds finite, read-only float64 samples, so it is
        copied into the new buffer without the full copy and rescan that
        `__post_init__` would make.
        """
        rows = np.asarray(rows, dtype=np.float64)
        old = self.samples
        n, dim = old.shape
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise ValueError(f"new samples shape {rows.shape}, expected (m, {dim})")
        if not all_finite(rows):
            raise ValueError("samples must be finite")
        arr = np.empty((n + rows.shape[0], dim))
        arr[:n] = old
        arr[n:] = rows
        arr.flags.writeable = False
        out = object.__new__(Path)
        out.__dict__.update(space=self.space, step=self.step, samples=arr)
        return out

    @staticmethod
    def constant(space: SpectralSpace, step: float, value, horizon: float) -> "Path":
        """Constant path with the given value on [0, horizon]."""
        k = grid_index(horizon, step, what="horizon")
        v = space.check_vector(value)
        return Path(space, step, np.tile(v, (k + 1, 1)))

    @staticmethod
    def zero(space: SpectralSpace, step: float, horizon: float) -> "Path":
        return Path.constant(space, step, np.zeros(space.dim), horizon)

    # -- basic queries ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.samples.shape[0]

    @property
    def horizon(self) -> float:
        return self.step * (self.n_nodes - 1)

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.n_nodes)

    @property
    def endpoint(self) -> np.ndarray:
        return self.samples[-1]

    def value_at(self, t: float) -> np.ndarray:
        k = grid_index(t, self.step, what="time")
        if k >= self.n_nodes:
            raise ValueError(f"time {t} beyond horizon {self.horizon}")
        return self.samples[k]

    def prefix(self, t: float) -> "Path":
        """Restriction to [0, t]; t must be an on-grid time <= horizon."""
        k = grid_index(t, self.step, what="time")
        if k >= self.n_nodes:
            raise ValueError(f"time {t} beyond horizon {self.horizon}")
        return Path(self.space, self.step, self.samples[: k + 1])

    def signature(self) -> bytes:
        """Exact bytes of the sample block; used for memo keys."""
        return self.samples.tobytes()

    # -- same-grid arithmetic -------------------------------------------

    def _check_same_grid(self, other: "Path") -> None:
        if self.space is not other.space and not np.array_equal(
            self.space.eigenvalues, other.space.eigenvalues
        ):
            raise ValueError("paths live on different spaces")
        if abs(self.step - other.step) > GRID_TOL:
            raise ValueError(f"step mismatch: {self.step} vs {other.step}")
        if self.n_nodes != other.n_nodes:
            raise ValueError(
                f"horizon mismatch: {self.horizon} vs {other.horizon}"
            )

    def __add__(self, other: "Path") -> "Path":
        self._check_same_grid(other)
        return Path(self.space, self.step, self.samples + other.samples)

    def __sub__(self, other: "Path") -> "Path":
        self._check_same_grid(other)
        return Path(self.space, self.step, self.samples - other.samples)

    def __rmul__(self, c: float) -> "Path":
        return Path(self.space, self.step, float(c) * self.samples)

    def allclose(self, other: "Path", tol: float = 1e-12) -> bool:
        if self.n_nodes != other.n_nodes:
            return False
        return bool(np.allclose(self.samples, other.samples, rtol=0.0, atol=tol))


# -- constructions -------------------------------------------------------


def vertical_bump(g: Path, h) -> Path:
    """Add h to the final sample only (the vertical perturbation gamma^h)."""
    h = g.space.check_vector(h)
    arr = g.samples.copy()
    arr[-1] = arr[-1] + h
    return Path(g.space, g.step, arr)


def extend_flat(g: Path, tbar: float) -> Path:
    """Extend to horizon tbar holding the endpoint constant."""
    k_new = grid_index(tbar, g.step, what="tbar")
    k_old = g.n_nodes - 1
    if k_new < k_old:
        raise ValueError(f"tbar {tbar} precedes horizon {g.horizon}")
    if k_new == k_old:
        return g
    return g._extended(g.samples[-1:].repeat(k_new - k_old, axis=0))


def extend_semigroup(g: Path, tbar: float) -> Path:
    """Extend to horizon tbar along the semigroup, s -> e^{(s-t)A} gamma(t)."""
    k_new = grid_index(tbar, g.step, what="tbar")
    k_old = g.n_nodes - 1
    if k_new < k_old:
        raise ValueError(f"tbar {tbar} precedes horizon {g.horizon}")
    if k_new == k_old:
        return g
    if g.space.is_zero_generator:
        return extend_flat(g, tbar)
    j = np.arange(1, k_new - k_old + 1)
    factors = np.exp(np.outer(j * g.step, g.space.eigenvalues))
    return g._extended(factors * g.endpoint)


# -- norms and metric ----------------------------------------------------


def sup_norm(g: Path) -> float:
    """||gamma||_0: the largest euclidean sample norm.

    The square root is taken once, of the largest squared norm: it is
    monotone and correctly rounded, so this equals the largest of
    `np.linalg.norm(g.samples, axis=1)` bit for bit.
    """
    return _largest_row_norm(g.samples)


def _largest_row_norm(s: np.ndarray) -> float:
    return math.sqrt(np.maximum.reduce(np.add.reduce(s * s, axis=1)))


def metric_d_infty(g: Path, h: Path) -> float:
    """d_infty(gamma_t, eta_s) = |t - s| + sup-norm gap of semigroup extensions.

    Both paths are extended along the semigroup to the later horizon; beyond
    that the gap only contracts, so the value does not depend on any global
    terminal time.
    """
    tbar = max(g.horizon, h.horizon)
    ge = extend_semigroup(g, tbar)
    he = extend_semigroup(h, tbar)
    gap = _largest_row_norm(ge.samples - he.samples)
    return abs(g.horizon - h.horizon) + gap


# -- Dupire derivatives --------------------------------------------------


class DupireDerivatives(NamedTuple):
    dt: Optional[float]
    dx: np.ndarray


def dupire_derivatives(
    f: Callable[[Path], float],
    g: Path,
    *,
    t_final: Optional[float] = None,
    h: Optional[float] = None,
) -> DupireDerivatives:
    """Grid Dupire derivatives of a path functional at gamma_t.

    dt is the forward difference along the flat extension by one grid step;
    when t_final is given and the step would cross it, dt is None (signaled)
    and dx is still returned. dx uses central differences on vertical bumps
    with step h, default 1e-5 * max(1, |gamma(t)|).

    Parameters
    ----------
    f : callable
        Path functional, Path -> float.
    g : Path
        Evaluation point.
    t_final : float, optional
        Terminal horizon; forward time difference is refused at it.
    h : float, optional
        Vertical difference step override.
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
