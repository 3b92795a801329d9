"""Shared helpers for the test suite: spaces and seeded random paths."""

import numpy as np

from phjb import Path, SpectralSpace


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
