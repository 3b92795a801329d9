"""Spectrally truncated state space and its semigroup.

The state space is R^n equipped with a fixed diagonal generator A whose
eigenvalues are all nonpositive, so e^{tA} is a contraction for t >= 0 and
A is self-adjoint (A* = A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["SpectralSpace"]


@dataclass(frozen=True)
class SpectralSpace:
    """Finite spectral truncation given by its nonpositive eigenvalues.

    Parameters
    ----------
    eigenvalues : array_like
        One non-empty row, all entries <= 0. Eigenvalue k drives coordinate
        k, and the number of retained modes is `dim`.
    """

    eigenvalues: np.ndarray = field(repr=False)
    # len(eigenvalues), set once: a plain instance attribute keeps the hot-path
    # reads as cheap as a constructor field (a cached_property read is not)
    dim: int = field(init=False, compare=False)
    # semigroup_factors(t) by t, computed once each
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError(
                f"eigenvalues must be one non-empty row, got shape {lam.shape}"
            )
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam > 0.0):
            raise ValueError(f"eigenvalues must be <= 0, got max {lam.max()}")
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "dim", lam.size)

    # -- helpers ---------------------------------------------------------

    def check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"vector shape {x.shape}, expected ({self.dim},)")
        return x

    @cached_property
    def is_zero_generator(self) -> bool:
        return bool(np.all(self.eigenvalues == 0.0))

    # -- operators -------------------------------------------------------

    def semigroup_factors(self, t: float) -> np.ndarray:
        """The diagonal of e^{tA} as a read-only vector, computed once per t."""
        E = self._factors.get(t)
        if E is None:
            if t < 0.0:
                raise ValueError(f"semigroup time must be >= 0, got {t}")
            E = np.exp(self.eigenvalues * t)
            E.flags.writeable = False
            self._factors[t] = E
        return E

    def adjoint_apply(self, x) -> np.ndarray:
        """A* x = A x (diagonal real generator is self-adjoint)."""
        x = self.check_vector(x)
        return self.eigenvalues * x
