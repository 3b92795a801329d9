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
    """Finite spectral truncation: dimension and nonpositive eigenvalues.

    Parameters
    ----------
    dim : int
        Number of retained modes, >= 1.
    eigenvalues : array_like
        Shape (dim,), all entries <= 0. Eigenvalue k drives coordinate k.
    """

    dim: int
    eigenvalues: np.ndarray = field(repr=False)
    # semigroup_factors(t) by t, computed once each
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if lam.shape != (self.dim,):
            raise ValueError(
                f"eigenvalues shape {lam.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam > 0.0):
            raise ValueError(f"eigenvalues must be <= 0, got max {lam.max()}")
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

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

    def semigroup_apply(self, t: float, x) -> np.ndarray:
        """e^{tA} x, coordinatewise x_k e^{lambda_k t}. Requires t >= 0."""
        x = self.check_vector(x)
        if t < 0.0:
            raise ValueError(f"semigroup time must be >= 0, got {t}")
        return x * np.exp(self.eigenvalues * t)

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

    def yosida_apply(self, mu: float, x) -> np.ndarray:
        """Yosida approximation A_mu x = mu A (mu - A)^{-1} x.

        Coordinatewise mu lambda_k / (mu - lambda_k) x_k. Requires mu > 0,
        which keeps mu - lambda_k > 0 for lambda_k <= 0.
        """
        x = self.check_vector(x)
        if mu <= 0.0:
            raise ValueError(f"Yosida parameter must be > 0, got {mu}")
        lam = self.eigenvalues
        return (mu * lam / (mu - lam)) * x

    def adjoint_apply(self, x) -> np.ndarray:
        """A* x = A x (diagonal real generator is self-adjoint)."""
        x = self.check_vector(x)
        return self.eigenvalues * x
