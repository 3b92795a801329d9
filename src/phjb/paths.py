"""Grid-sampled paths, their extensions, norms, and row formulas over them.

A path lives on the uniform grid {0, step, 2 step, ..., horizon} and stores one
state vector per grid node. The horizon is always an integer multiple of the
step by construction (it is derived from the sample count, never stored).
Sup norms are taken over grid samples; between-node behaviour is
deliberately out of scope and results are grid-resolution dependent.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

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
    "semigroup_rows",
    "carried",
    "trusted_path",
    "carry_walks",
    "Walks",
    "count_groups",
    "Refused",
    "group_rows",
    "formula_rows",
    "formula_paths",
    "row_dots",
    "Net",
    "sup_norm",
    "sup_norms",
    "prefix_sup_norms",
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


def _seal(a: np.ndarray) -> np.ndarray:
    """a, a fresh float64 array of samples that nothing else writes to,
    checked finite once and made read-only."""
    if not all_finite(a):
        raise ValueError("samples must be finite")
    a.flags.writeable = False
    return a


def grid_index(t: float, step: float, *, what: str = "time") -> int:
    """Index of t on the grid {0, step, ...}; raises if t is off-grid."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not math.isfinite(t):
        raise ValueError(f"{what} {t!r} is not finite")
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
        Grid spacing, finite and > 0.
    samples : np.ndarray
        Shape (k + 1, dim) where horizon = k * step. Stored read-only.
    """

    space: SpectralSpace
    step: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
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

    def _trusted(self, samples: np.ndarray) -> "Path":
        """A path on this path's space and step holding `samples` as they
        are (`trusted_path`)."""
        return trusted_path(self.space, self.step, samples)

    def _head(self, n_nodes: int) -> "Path":
        """The first n_nodes samples as a trusted read-only view (1 <= n_nodes <= n)."""
        return self._trusted(self.samples[:n_nodes])

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

    def node_at(self, t: float) -> int:
        """The index of the sample at time t, an on-grid time <= horizon."""
        k = grid_index(t, self.step, what="time")
        if k >= self.n_nodes:
            raise ValueError(f"time {t} beyond horizon {self.horizon}")
        return k

    def prefix(self, t: float) -> "Path":
        """Restriction to [0, t]; t must be an on-grid time <= horizon.

        The result is a trusted view: its samples are a read-only slice of
        this path's already validated buffer, neither copied nor rescanned.
        """
        return self._head(self.node_at(t) + 1)

    # -- same-grid arithmetic -------------------------------------------

    def _check_same_space_and_step(self, other: "Path") -> None:
        if self.space is not other.space and not np.array_equal(
            self.space.eigenvalues, other.space.eigenvalues
        ):
            raise ValueError("paths live on different spaces")
        if abs(self.step - other.step) > GRID_TOL:
            raise ValueError(f"step mismatch: {self.step} vs {other.step}, paths must share one step")

    def _check_same_grid(self, other: "Path") -> None:
        self._check_same_space_and_step(other)
        if self.n_nodes != other.n_nodes:
            raise ValueError(
                f"horizon mismatch: {self.horizon} vs {other.horizon}"
            )

    def __add__(self, other: "Path") -> "Path":
        self._check_same_grid(other)
        return self._trusted(_seal(self.samples + other.samples))

    def __sub__(self, other: "Path") -> "Path":
        self._check_same_grid(other)
        return self._trusted(_seal(self.samples - other.samples))


def trusted_path(space: SpectralSpace, step: float, samples: np.ndarray) -> Path:
    """A path on space and step holding `samples`, which the caller vouches
    are a finite, read-only float64 (k + 1, dim) block, as they are."""
    out = object.__new__(Path)
    fields = out.__dict__
    fields["space"] = space
    fields["step"] = step
    fields["samples"] = samples
    return out


# -- constructions -------------------------------------------------------


def vertical_bump(g: Path, h) -> Path:
    """Add h to the final sample only (the vertical perturbation gamma^h)."""
    h = g.space.check_vector(h)
    arr = g.samples.copy()
    arr[-1] = arr[-1] + h
    return Path(g.space, g.step, arr)


def _extension(g: Path, tbar: float, rows: Callable[[int], np.ndarray]) -> Path:
    """g extended to horizon tbar: rows(n) is the fresh (n, dim) array of
    the extended samples, finite because g's are, wrapped read-only as it is."""
    k_new = grid_index(tbar, g.step, what="tbar")
    if k_new < g.n_nodes - 1:
        raise ValueError(f"tbar {tbar} precedes horizon {g.horizon}")
    if k_new == g.n_nodes - 1:
        return g
    out = rows(k_new + 1)
    out.flags.writeable = False
    return g._trusted(out)


def extend_flat(g: Path, tbar: float) -> Path:
    """Extend to horizon tbar holding the endpoint constant."""
    return _extension(g, tbar, lambda n: g.samples[np.minimum(np.arange(n), g.n_nodes - 1)])


def extend_semigroup(g: Path, tbar: float) -> Path:
    """Extend to horizon tbar along the semigroup, s -> e^{(s-t)A} gamma(t)."""
    return _extension(g, tbar, lambda n: carried(g, n))


def semigroup_rows(g: Path, m: int) -> np.ndarray:
    """The m samples after g's horizon along the semigroup, e^{j step A} gamma(t)
    for j = 1..m, as an (m, dim) block: finite, the factors lie in [0, 1].
    Under a zero generator, copies of the endpoint, as e^0 = 1 gives too."""
    if g.space.is_zero_generator:
        return g.samples[-1:].repeat(m, axis=0)
    j = np.arange(1, m + 1)
    return np.exp(np.outer(j * g.step, g.space.eigenvalues)) * g.endpoint


def carried(g: Path, n: int) -> np.ndarray:
    """g carried along the semigroup to n >= g.n_nodes nodes: its own samples,
    then `semigroup_rows`, as one fresh (n, dim) array."""
    k = g.n_nodes
    out = np.empty((n, g.space.dim))
    out[:k] = g.samples
    if n > k:
        out[k:] = semigroup_rows(g, n - k)
    return out


def carry_walks(B: np.ndarray, counts: np.ndarray, space: SpectralSpace, step: float) -> np.ndarray:
    """B, an (N, n, dim) block whose row i holds a path of counts[i] nodes,
    each row carried along the semigroup over its other nodes as `carried`
    carries a path (e^0 = 1 exactly), checked finite once, read-only."""
    rows, nodes = np.nonzero(np.arange(B.shape[1]) >= counts[:, None])
    factors = np.exp(np.outer(np.arange(1, B.shape[1]) * step, space.eigenvalues))
    B[rows, nodes] = factors[nodes - counts[rows]] * B[rows, counts[rows] - 1]
    return _seal(B)


class Walks:
    """Seeded random walks on a grid, each one `standard_normal` call into
    the first k nodes of its row of a zeroed (N, n, dim) block: start, then
    k - 1 steps, or with start_last steps, then start (the prefixes' order).
    `block`, once after the last draw, makes each draw z 0.0 + scale * z, as
    `Generator.normal(0.0, scale)` does, with scale sqrt(step) for a step."""

    def __init__(self, rng, N: int, grid: TimeGrid, dim: int, *, start_last: bool = False):
        self.rng, self.grid, self.start_last = rng, grid, start_last
        self.Z = np.zeros((N, grid.n_steps + 1, dim))

    def draw(self, i: int, n_nodes: int) -> int:
        """Draw a walk of n_nodes into row i, over any walk drawn there, and return n_nodes."""
        self.rng.standard_normal(out=self.Z[i, :n_nodes])
        return n_nodes

    def prefix(self, i: int) -> int:
        """Draw a node count from 1 to the grid's, then its walk into row i."""
        return self.draw(i, int(self.rng.integers(1, self.grid.n_steps + 2)))

    def block(self, counts, space: SpectralSpace) -> np.ndarray:
        """The walks of the first len(counts) rows, row i of counts[i] nodes, as
        `start + np.cumsum(steps)` makes them, carried by `carry_walks`."""
        Z, counts = self.Z[: len(counts)], np.asarray(counts, dtype=int)
        if self.start_last:  # each start to node 0, its steps after it
            start = Z[np.arange(len(Z)), counts - 1]
            Z[:, 1:], Z[:, 0] = Z[:, :-1], start
        Z[:, 1:] *= math.sqrt(self.grid.step)
        Z += 0.0  # as normal's 0.0 + scale * z: a -0.0 draw gives +0.0
        np.add.accumulate(Z[:, 1:], 1, out=Z[:, 1:])
        Z[:, 1:] += Z[:, :1]
        return carry_walks(Z, counts, space, self.grid.step)


def count_groups(B: np.ndarray, at: np.ndarray, counts: np.ndarray) -> list:
    """The paths whose samples are the first counts[j] nodes of row at[j] of
    the block B, grouped by node count as a `Net` groups its paths,
    as (rows, S) pairs: S holds the samples of the paths at rows, read-only."""
    groups = []
    for n in dict.fromkeys(counts.tolist()):
        rows = np.flatnonzero(counts == n)
        S = B[at[rows], :n]
        S.flags.writeable = False
        groups.append((rows, S))
    return groups


def _grouped(blocks) -> tuple:
    """The rows of blocks, (N, n, dim) sample arrays, grouped by node count
    in order of first occurrence as {n: (rows, S)}, and the node count of
    each row as an index array: rows, read-only, are the ascending indices of
    the rows with n nodes, numbered on from one block to the next, and S,
    read-only, is the node count's blocks end to end, in order."""
    runs: dict = {}  # node count -> its blocks, in order
    counts, sizes = [], []  # of each block
    for B in blocks:
        N, n, _ = B.shape
        run = runs.get(n)
        if run is None:
            run = runs[n] = []
        run.append(B)
        counts.append(n)
        sizes.append(N)
    count_of_row = np.repeat(counts, sizes)
    groups = {}
    for n, run in runs.items():
        S = run[0].view() if len(run) == 1 else np.concatenate(run)  # a single block as it is
        S.flags.writeable = False
        rows = np.flatnonzero(count_of_row == n)
        rows.flags.writeable = False
        groups[n] = (rows, S)
    return groups, count_of_row


class Refused(ValueError):
    """A block formula's fault of one row, such as a non-finite drift or a
    pack slope h_y < 0. The one rule of `group_rows`, the one block reader,
    which `dynamics.step_rows` also steps its children through: a block that
    raises Refused is run again a path at a time, in path order, raising the
    first path's error, and if every path passes alone their results stand.
    Any other error, such as a result of the wrong shape, is the block's own
    and is raised as it is."""


def group_rows(fn, paths, groups=None) -> np.ndarray:
    """fn over the paths a node-count group at a time, as one entry per path.

    fn(rows, S) gives the entries of the paths at the indices rows, whose
    samples are the block S of their group, as floats with one row per
    path. groups lists the groups to run, each as (rows, S) with rows
    ascending, by default every group of paths, which is then a `Net`
    (`Net.groups`); with groups given, paths may be any sequence of their
    length. A path of no listed group gets 0. A group that raises
    `Refused` is run again path by path, by the rule stated there, each
    path on its row of its group's block. When one group holds every path,
    its entries are returned as fn gave them (as floats), not copied.
    """
    if groups is None:
        groups = paths.groups.values()
    try:
        parts = [(rows, fn(rows, S)) for rows, S in groups]
    except Refused:
        at = {i: (S, j) for rows, S in groups for j, i in enumerate(rows.tolist())}
        parts = [([i], fn([i], S[j : j + 1])) for i, (S, j) in sorted(at.items())]
    if len(parts) == 1:
        rows, v = parts[0]
        if len(rows) == len(paths) and np.shape(v)[:1] == (len(paths),):
            # one group of every path, in path order: its entries as they are
            return np.asarray(v, dtype=np.float64)
    out = np.zeros((len(paths),) + (np.shape(parts[0][1])[1:] if parts else ()))
    for rows, v in parts:
        out[rows] = v
    return out


def formula_rows(f, proto: "Path", S: np.ndarray, vector: bool = False) -> np.ndarray:
    """The row formula f(proto, S) as a float array, refused unless it
    gives one float per row of S, a block of paths with proto's node count,
    step and space, or with vector one (dim,) row per row of S."""
    v = np.asarray(f(proto, S), dtype=np.float64)
    if v.shape != ((len(S),) + S.shape[2:] if vector else (len(S),)):
        raise ValueError(f"row formula gave shape {v.shape} for {len(S)} rows")
    return v


def formula_paths(f, net: "Net", groups=None, vector: bool = False) -> np.ndarray:
    """The row formula f at each path of net, a node-count group at a time,
    with `formula_rows` through `group_rows` (groups as it takes them)."""
    return group_rows(lambda rows, S: formula_rows(f, net.protos[S.shape[1]], S, vector), net, groups)


class Net:
    """Paths on one space and step as blocks: a point, then the rows of
    read-only sample blocks made from it, grouped by node count once into
    the read-only `groups` that every reader gets, with each path's horizon
    `point.step * (n - 1)` in `horizons`. `path(i)`, or `net[i]`, makes a
    new view of row i at each call (path(0) is the point), so readers of
    every row read the groups, and paths are compared by index; `Net.of`
    makes one of a list of paths."""

    __slots__ = ("point", "groups", "horizons", "_counts", "_blocks", "_protos")

    def __init__(self, point: "Path", blocks=()):
        self.point, self._blocks = point, [point.samples[None], *blocks] if point is not None else []
        groups, self._counts = _grouped(self._blocks)
        self.groups, self._protos = MappingProxyType(groups), None
        self.horizons = point.step * (self._counts - 1) if groups else np.zeros(0)
        self._counts.flags.writeable = self.horizons.flags.writeable = False

    def __len__(self) -> int:
        return len(self._counts)

    def path(self, i: int) -> "Path":
        """Path i of the net, counted from the end when negative."""
        i = range(len(self))[operator.index(i)]
        rows, S = self.groups[int(self._counts[i])]
        return self.point if i == 0 else self.point._trusted(S[rows.searchsorted(i)])

    __getitem__ = path

    @property
    def protos(self) -> Mapping:
        """The first path of each node-count group by node count, made once."""
        if self._protos is None:
            self._protos = MappingProxyType({n: self.path(int(r[0])) for n, (r, _) in self.groups.items()})
        return self._protos

    @classmethod
    def of(cls, paths) -> "Net":
        """The net at the first of paths, each other path a block of one row:
        refused unless every path is on the first one's space and step."""
        paths = list(paths)
        for g in paths[1:]:
            paths[0]._check_same_space_and_step(g)
        return cls(paths[0], [g.samples[None] for g in paths[1:]]) if paths else cls(None)

    @classmethod
    def joined(cls, nets) -> "Net":
        """The paths of nets end to end, at the first net's point: the net of
        their blocks, whose groups are theirs end to end, for one sweep."""
        return cls(nets[0].point, [B for net in nets for B in net._blocks][1:]) if nets else cls(None)


# -- norms ---------------------------------------------------------------


def row_dots(E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The dot product of each row of E, an (N, dim) array, with w, a (dim,)
    vector or the matching row of an (N, dim) array.

    The stacked row-by-column product reduces each row with the routine of
    the one-row `x @ w`, whatever the number of rows; `(E * w).sum(-1)`
    and `einsum` round differently in about one row in six, because the
    dot fuses multiply and add.
    """
    return (E[:, None, :] @ w[..., :, None])[:, 0, 0]


def sup_norm(g: Path) -> float:
    """||gamma||_0, the largest euclidean sample norm: the one-row case of
    `sup_norms`."""
    return float(sup_norms(g.samples[None])[0])


def sup_norms(S: np.ndarray) -> np.ndarray:
    """||gamma||_0 of the path of each row of S, an (N, n, dim) sample
    block, in one reduction over the block with the same operations per row.

    The square root is taken once, of the largest squared norm: it is
    monotone and correctly rounded, so each entry equals the largest of
    `np.linalg.norm(samples, axis=1)` of its row bit for bit.
    """
    return np.sqrt(np.maximum.reduce(np.add.reduce(S * S, axis=2), axis=1))


def prefix_sup_norms(S: np.ndarray) -> np.ndarray:
    """The sup norm of every prefix of the path of each row of S, an
    (N, n, dim) sample block: entry [i, k] is ||gamma_{k step}||_0 of row i.

    A running maximum of the squared sample norms, rooted per entry, so
    entry [i, k] equals `sup_norm` of that prefix bit for bit.
    """
    return np.sqrt(np.maximum.accumulate(np.add.reduce(S * S, axis=2), axis=1))
