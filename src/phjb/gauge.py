"""Smooth gauge functionals built from the sup norm and the endpoint.

With a = ||gamma||_0^2 and b = |gamma(t)|^2 (so a >= b always):

    S(gamma)        = (a - b)^2 / a          (0 when a = 0)
    Upsilon^M(gamma) = S(gamma) + M b

S is vertically smooth with gradient -4 (a - b) gamma(t) / a and is invariant
under flat extension, so its Dupire time derivative vanishes identically.
The identity S + 2 b = (a^2 + b^2) / a gives the sandwich
a <= S + 2 b <= 3 a used throughout.

Each gauge is stated once, on rows: a block of paths is an (N, n, dim)
sample array, and a single path g is the one-row block g.samples[None].
"""

from __future__ import annotations

import numpy as np

from .paths import Path, Refused, all_finite, carried, row_dots, sup_norms

__all__ = [
    "eval_upsilon",
    "upsilon_rows",
    "pair_difference",
    "pair_difference_rows",
    "pair_gauge_rows",
]


def _upsilon_rows(M, norms, E: np.ndarray, grad: bool = False):
    """Upsilon^M (M one float, or one per path) at the paths whose sup norms
    are `norms` and whose endpoints are the rows of E, an (N, dim) array,
    as a float array; with grad, also the vertical gradients grad S + 2 M
    gamma(t), as an (N, dim) array. b is `row_dots(E, E)`, as `end @ end`,
    and the squares are `np.float_power`, the C `pow` of Python's `x ** 2`
    (`x * x` and `np.power` round some otherwise): each entry is the
    one-path formula on floats bit for bit, and a square that overflows
    raises OverflowError, as there, with no warning. A zero path (a = 0)
    has value 0 and gradient 0."""
    b = row_dots(E, E)
    # only the squares can overflow here while b <= a; 0 / 0 at a zero path is set to 0 below
    with np.errstate(over="raise", divide="ignore", invalid="ignore"):
        try:
            a = np.float_power(norms, 2.0)
            d = a - b
            q = np.float_power(d, 2.0) / a
            coef = -4.0 * d / a if grad else None
        except FloatingPointError as exc:
            raise OverflowError(f"square out of range: {exc}") from None
    values = q + M * b
    values[a == 0.0] = 0.0
    if not grad:
        return values
    G = coef[:, None] * E + np.reshape(2.0 * M, (-1, 1)) * E
    G[a == 0.0] = 0.0
    return values, G


def upsilon_rows(M: float, S: np.ndarray, grad: bool = False):
    """Upsilon^M of the path of each row of S, an (N, n, dim) sample block,
    as a float array, and with grad also the vertical gradients as an
    (N, dim) array (`_upsilon_rows`); the sup norms are one reduction over
    the block."""
    return _upsilon_rows(M, sup_norms(S), S[:, -1], grad)


def eval_upsilon(M: float, g: Path) -> float:
    """Upsilon^M(gamma) = S(gamma) + M |gamma(t)|^2."""
    return float(upsilon_rows(M, g.samples[None])[0])


def pair_difference(anchor: Path, g: Path) -> Path:
    """Difference path used by the two-argument gauge.

    The path with the earlier horizon is carried forward along the semigroup
    to the later horizon and subtracted there; with equal horizons this is a
    plain samplewise difference. This is the one-row case of
    `pair_difference_rows`, with the earlier path as the anchor.
    """
    if anchor.n_nodes > g.n_nodes:
        anchor, g = g, anchor
    out = pair_difference_rows(anchor, g, g.samples[None])[0]
    out.flags.writeable = False
    return g._trusted(out)


def pair_difference_rows(anchor: Path, proto: Path, S: np.ndarray) -> np.ndarray:
    """The path of each row of S minus the anchor carried along the semigroup
    to its node count, as one (N, n, dim) array checked finite once.

    S is a block of paths on proto's space and step; a block that ends
    before its anchor, or a difference that is not finite, is `Refused`.
    """
    proto._check_same_space_and_step(anchor)
    n = S.shape[1]
    if n < anchor.n_nodes:
        raise Refused(f"block of {n} nodes ends before its anchor of {anchor.n_nodes} nodes")
    out = S - carried(anchor, n)
    if not all_finite(out):
        raise Refused("samples must be finite")
    return out


def pair_gauge_rows(anchor: Path, proto: Path, S: np.ndarray) -> np.ndarray:
    """The anchored pair gauge Upsilon^2(eta - ext gamma) + |s - t|^2 from
    the anchor gamma_t to the path eta_s of each row of S, a block as
    `pair_difference_rows` takes it, as a float array.

    Its sublevel sets control d_infty: a value <= delta forces
    d_infty <= (1 + sqrt 3) sqrt(delta).
    """
    lag = (proto.horizon - anchor.horizon) ** 2
    return upsilon_rows(2.0, pair_difference_rows(anchor, proto, S)) + lag
