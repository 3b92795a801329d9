"""Shared helpers for the test suite: spaces, seeded random paths, block
drifts, level stepping and a time ramp of test functionals."""

from dataclasses import replace

import numpy as np

from phjb import Path, SpectralSpace
from phjb.dynamics import step_rows


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
    base_v, base_t = phi.value, phi.dt
    return replace(
        phi,
        value=lambda g: float(base_v(g)) + k * (t_final - g.horizon),
        dt=lambda g: float(base_t(g)) - k,
        label=(phi.label + "+ramp") if phi.label else "ramp",
    )


def level_children(c, prefixes) -> list:
    """The children of prefixes of one node count under every control,
    parent-major, stepped as one `step_rows` block and wrapped as paths."""
    P = np.stack([p.samples for p in prefixes])
    P.flags.writeable = False
    return [prefixes[0]._trusted(x) for x in step_rows(c, prefixes[0], P, c.control_set)[2]]


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
