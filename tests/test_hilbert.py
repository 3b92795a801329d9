"""Semigroup, Yosida approximation, and adjoint on the spectral space."""

import numpy as np
import pytest

from conftest import make_space, semigroup_apply
from phjb import SpectralSpace

SEED = 20230817


# construction ----------------------------------------------------------


def test_rejects_positive_eigenvalue():
    with pytest.raises(ValueError):
        SpectralSpace(np.array([0.0, 1e-3]))


def test_rejects_shape_mismatch():
    # the dimension is the eigenvalue count, so only a non-row can mismatch
    assert SpectralSpace(np.array([0.0, -1.0])).dim == 2
    for bad in (np.zeros((2, 2)), np.zeros(0), 0.0):
        with pytest.raises(ValueError, match="one non-empty row"):
            SpectralSpace(bad)


def test_eigenvalues_read_only():
    sp = make_space([-1.0, 0.0])
    with pytest.raises(ValueError):
        sp.eigenvalues[0] = 5.0


# semigroup -------------------------------------------------------------


def test_semigroup_closed_form():
    sp = make_space([0.0, -1.0])
    out = semigroup_apply(sp, np.log(2.0), np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.5], rtol=0.0, atol=1e-15)


def test_semigroup_identity_at_zero():
    sp = make_space([-2.0, -0.5, 0.0])
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(semigroup_apply(sp, 0.0, x), x)


def test_semigroup_rejects_negative_time():
    sp = make_space([-1.0])
    with pytest.raises(ValueError):
        semigroup_apply(sp, -0.1, np.array([1.0]))


def test_semigroup_factors_cached_read_only_and_refuse_negative_time():
    sp = make_space([-2.0, -0.5, 0.0])
    E = sp.semigroup_factors(0.25)
    assert np.array_equal(E, np.exp(sp.eigenvalues * 0.25))
    assert not E.flags.writeable
    assert sp.semigroup_factors(0.25) is E
    with pytest.raises(ValueError):
        E[0] = 1.0
    with pytest.raises(ValueError):
        sp.semigroup_factors(-0.25)


def test_semigroup_contraction_random():
    rng = np.random.default_rng(SEED)
    sp = make_space([-3.0, -1.0, 0.0, -0.25])
    for _ in range(1000):
        x = rng.normal(size=4)
        t = float(rng.uniform(0.0, 5.0))
        assert np.linalg.norm(semigroup_apply(sp, t, x)) <= np.linalg.norm(x)


def test_semigroup_law():
    rng = np.random.default_rng(SEED + 1)
    sp = make_space([-2.0, -0.7, 0.0])
    tol = 1e-12
    for _ in range(200):
        x = rng.normal(size=3)
        s, t = rng.uniform(0.0, 2.0, size=2)
        lhs = semigroup_apply(sp, s + t, x)
        rhs = semigroup_apply(sp, s, semigroup_apply(sp, t, x))
        assert np.linalg.norm(lhs - rhs) <= tol * max(1.0, np.linalg.norm(x))


def test_strong_continuity_monotone_on_fixed_vector():
    # |e^{tA}x - x| decreases monotonically to 0 as t halves toward 0
    sp = make_space([-4.0, -1.0])
    x = np.array([1.0, -2.0])
    gaps = [
        np.linalg.norm(semigroup_apply(sp, 2.0**-k, x) - x) for k in range(1, 16)
    ]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


# Yosida ----------------------------------------------------------------


def yosida_apply(sp, mu: float, x) -> np.ndarray:
    """Yosida approximation A_mu x = mu A (mu - A)^{-1} x.

    Coordinatewise mu lambda_k / (mu - lambda_k) x_k. Requires mu > 0,
    which keeps mu - lambda_k > 0 for lambda_k <= 0.
    """
    x = sp.check_vector(x)
    if mu <= 0.0:
        raise ValueError(f"Yosida parameter must be > 0, got {mu}")
    lam = sp.eigenvalues
    return (mu * lam / (mu - lam)) * x


def test_yosida_closed_form():
    sp = make_space([-1.0, 0.0])
    out = yosida_apply(sp, 1.0, np.array([1.0, 3.0]))
    # mu lambda / (mu - lambda): -1/2 and 0
    assert np.allclose(out, [-0.5, 0.0], rtol=0.0, atol=1e-15)


def test_yosida_approximates_generator():
    sp = make_space([-2.0, -0.5, 0.0])
    lam = sp.eigenvalues
    rng = np.random.default_rng(SEED + 2)
    for mu in [1.0, 10.0, 100.0, 1000.0]:
        bound = np.max(lam**2 / (mu - lam))
        for _ in range(50):
            x = rng.normal(size=3)
            gap = np.linalg.norm(yosida_apply(sp, mu, x) - sp.adjoint_apply(x))
            assert gap <= bound * np.linalg.norm(x) + 1e-14


def test_yosida_rejects_bad_mu():
    sp = make_space([-1.0])
    with pytest.raises(ValueError):
        yosida_apply(sp, 0.0, np.array([1.0]))


# adjoint ---------------------------------------------------------------


def test_adjoint_is_self_adjoint():
    rng = np.random.default_rng(SEED + 3)
    sp = make_space([-3.0, -1.0, -0.2, 0.0])
    for _ in range(200):
        x, y = rng.normal(size=(2, 4))
        lhs = sp.adjoint_apply(x) @ y
        rhs = x @ sp.adjoint_apply(y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
