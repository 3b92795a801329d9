"""Smooth gauge functionals built from the sup norm and the endpoint.

With a = ||gamma||_0^2 and b = |gamma(t)|^2 (so a >= b always):

    S(gamma)        = (a - b)^2 / a          (0 when a = 0)
    Upsilon^M(gamma) = S(gamma) + M b

S is vertically smooth with gradient -4 (a - b) gamma(t) / a and is invariant
under flat extension, so its Dupire time derivative vanishes identically.
The identity S + 2 b = (a^2 + b^2) / a gives the sandwich
a <= S + 2 b <= 3 a used throughout.
"""

from __future__ import annotations

import numpy as np

from .paths import Path, all_finite, prefix_sup_norms, semigroup_rows, sup_norm, sup_norms

__all__ = [
    "eval_S",
    "grad_S",
    "eval_upsilon",
    "upsilon_rows",
    "grad_upsilon",
    "upsilon_on_prefixes",
    "pair_difference",
    "pair_difference_rows",
    "eval_upsilon_pair",
]


def _a_b(g: Path) -> tuple[float, np.ndarray, float]:
    end = g.endpoint
    a = sup_norm(g) ** 2
    b = float(end @ end)
    return a, end, b


def eval_S(g: Path) -> float:
    """S(gamma) = (||gamma||_0^2 - |gamma(t)|^2)^2 / ||gamma||_0^2."""
    a, _, b = _a_b(g)
    if a == 0.0:
        return 0.0
    return (a - b) ** 2 / a


def grad_S(g: Path) -> np.ndarray:
    """Vertical gradient of S: -4 (a - b) gamma(t) / a (zero path gives 0)."""
    a, end, b = _a_b(g)
    if a == 0.0:
        return np.zeros(g.space.dim)
    return (-4.0 * (a - b) / a) * end


def eval_upsilon(M: float, g: Path) -> float:
    """Upsilon^M(gamma) = S(gamma) + M |gamma(t)|^2."""
    a, _, b = _a_b(g)
    return _upsilon(M, a, b)


def upsilon_rows(M: float, S: np.ndarray) -> list:
    """`eval_upsilon(M, g)` for the path g of each row of S, an (N, n, dim)
    sample block, as a list of floats.

    The sup norms and the endpoint dots are each one reduction over the
    block, with the operations `_a_b` applies to one path (the stacked
    row-by-column product reduces each row with the routine of `end @ end`),
    and `_upsilon` closes each row on Python floats, so every entry equals
    `eval_upsilon` bit for bit.
    """
    E = S[:, -1]
    ends = (E[:, None, :] @ E[:, :, None])[:, 0, 0]
    return [_upsilon(M, r**2, b) for r, b in zip(sup_norms(S).tolist(), ends.tolist())]


def grad_upsilon(M: float, g: Path) -> np.ndarray:
    """Vertical gradient of Upsilon^M: grad S + 2 M gamma(t)."""
    return _grad_upsilon(M, *_a_b(g))


def _upsilon(M: float, a: float, b: float) -> float:
    if a == 0.0:
        return 0.0
    return (a - b) ** 2 / a + M * b


def _grad_upsilon(M: float, a: float, end: np.ndarray, b: float) -> np.ndarray:
    if a == 0.0:
        return np.zeros(end.shape)
    return (-4.0 * (a - b) / a) * end + (2.0 * M) * end


def upsilon_on_prefixes(M: float, g: Path, first: int) -> tuple[list, list]:
    """Upsilon^M and its vertical gradient at the prefixes of g with
    first, first + 1, ..., n_nodes nodes, as two lists.

    The sup norms come from one running maximum (`prefix_sup_norms`), so
    the entries equal `eval_upsilon` and `grad_upsilon` of those prefixes
    bit for bit, in O(n) work instead of O(n^2).
    """
    norms = prefix_sup_norms(g)
    values, grads = [], []
    for k in range(first - 1, g.n_nodes):
        end = g.samples[k]
        a = float(norms[k]) ** 2
        b = float(end @ end)
        values.append(_upsilon(M, a, b))
        grads.append(_grad_upsilon(M, a, end, b))
    return values, grads


def pair_difference(anchor: Path, g: Path) -> Path:
    """Difference path used by the two-argument gauge.

    The path with the earlier horizon is carried forward along the semigroup
    to the later horizon and subtracted there; with equal horizons this is a
    plain samplewise difference.

    The difference is written straight into one new array: the later path
    minus the earlier one over their shared nodes, then minus the extension
    rows, which are the rows `extend_semigroup` would append, so the result
    equals `later - extend_semigroup(earlier, later.horizon)` bit for bit
    without building the extension.
    """
    late, early = (g, anchor) if anchor.horizon <= g.horizon else (anchor, g)
    late._check_same_space_and_step(early)
    n_late, n_early = late.n_nodes, early.n_nodes
    out = np.empty_like(late.samples)
    np.subtract(late.samples[:n_early], early.samples, out=out[:n_early])
    if n_late > n_early:
        if early.space.is_zero_generator:
            rows = early.samples[-1]
        else:
            rows = semigroup_rows(early, n_late - n_early)
        np.subtract(late.samples[n_early:], rows, out=out[n_early:])
    return late._sealed(out)


def pair_difference_rows(anchor: Path, proto: Path, S: np.ndarray) -> np.ndarray:
    """`pair_difference(anchor, g).samples` for the path g of each row of S,
    a block of paths on proto's space and step with at least anchor's node
    count, as one (N, n, dim) array.

    The anchor carried to n nodes (its samples, then the rows
    `pair_difference` subtracts past them) is subtracted from the whole
    block in one broadcast, and the block of differences is checked finite
    once, with `pair_difference`'s error.
    """
    proto._check_same_space_and_step(anchor)
    n, n_anchor = S.shape[1], anchor.n_nodes
    carried = np.empty(S.shape[1:])
    carried[:n_anchor] = anchor.samples
    if n > n_anchor:
        if anchor.space.is_zero_generator:
            carried[n_anchor:] = anchor.samples[-1]
        else:
            carried[n_anchor:] = semigroup_rows(anchor, n - n_anchor)
    out = S - carried
    if not all_finite(out):
        raise ValueError("samples must be finite")
    return out


def eval_upsilon_pair(M: float, anchor: Path, g: Path, *, with_time: bool = False) -> float:
    """Upsilon^M of the pair difference, optionally plus |s - t|^2.

    The with_time form is the gauge whose sublevel sets control d_infty:
    a value <= delta forces d_infty <= (1 + sqrt 3) sqrt(delta).
    """
    val = eval_upsilon(M, pair_difference(anchor, g))
    if with_time:
        val += (g.horizon - anchor.horizon) ** 2
    return val
