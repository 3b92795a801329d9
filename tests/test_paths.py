"""Path container, extensions, metric axioms, and Dupire derivatives."""

import numpy as np
import pytest

from conftest import flat_space, make_space, random_path
from phjb import (
    Path,
    TimeGrid,
    dupire_derivatives,
    extend_flat,
    extend_semigroup,
    metric_d_infty,
    sup_norm,
    vertical_bump,
)

SEED = 907


# grid and construction -------------------------------------------------


def test_time_grid_counts():
    g = TimeGrid(T=1.0, step=0.25)
    assert g.n_steps == 4
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_rejects_non_multiple():
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, step=0.3)


def test_horizon_derived_from_sample_count():
    sp = flat_space(2)
    p = Path(sp, 0.25, np.zeros((5, 2)))
    assert p.horizon == 1.0
    assert p.n_nodes == 5


def test_path_rejects_wrong_width():
    sp = flat_space(2)
    with pytest.raises(ValueError):
        Path(sp, 0.25, np.zeros((3, 3)))


def test_samples_read_only():
    p = Path.zero(flat_space(1), 0.5, 1.0)
    with pytest.raises(ValueError):
        p.samples[0, 0] = 1.0


def test_prefix_and_value_at():
    sp = flat_space(1)
    p = Path(sp, 0.5, [[1.0], [2.0], [3.0]])
    assert p.value_at(0.5)[0] == 2.0
    q = p.prefix(0.5)
    assert q.horizon == 0.5
    assert q.endpoint[0] == 2.0
    with pytest.raises(ValueError):
        p.value_at(0.3)


# constructions ---------------------------------------------------------


def test_vertical_bump_touches_only_endpoint():
    sp = flat_space(2)
    p = Path(sp, 0.5, [[1.0, 1.0], [2.0, 2.0]])
    b = vertical_bump(p, np.array([0.5, -0.5]))
    assert np.array_equal(b.samples[0], [1.0, 1.0])
    assert np.array_equal(b.samples[1], [2.5, 1.5])


def test_vertical_bump_involution():
    rng = np.random.default_rng(SEED)
    sp = flat_space(3)
    p = random_path(rng, sp)
    h = rng.normal(size=3)
    back = vertical_bump(vertical_bump(p, h), -h)
    assert back.allclose(p, tol=1e-12)


def test_extend_flat_copies_endpoint():
    sp = flat_space(1)
    p = Path(sp, 0.25, [[3.0], [5.0]])
    e = extend_flat(p, 1.0)
    assert e.horizon == 1.0
    assert np.all(e.samples[1:, 0] == 5.0)
    assert extend_flat(p, 0.25) is p


def test_extend_semigroup_matches_exponential():
    sp = make_space([-1.0])
    p = Path(sp, 0.25, [[2.0]])
    e = extend_semigroup(p, 0.75)
    expect = 2.0 * np.exp(-0.25 * np.arange(4))
    assert np.allclose(e.samples[:, 0], expect, rtol=0.0, atol=1e-15)


def test_extend_semigroup_flat_when_generator_zero():
    sp = flat_space(2)
    p = Path(sp, 0.25, [[1.0, -1.0]])
    e = extend_semigroup(p, 0.5)
    assert np.all(e.samples == p.samples[0])


def test_extend_semigroup_preserves_sup_norm():
    rng = np.random.default_rng(SEED + 1)
    sp = make_space([-2.0, -0.5])
    for _ in range(200):
        p = random_path(rng, sp)
        e = extend_semigroup(p, p.horizon + 4 * p.step)
        assert sup_norm(e) == sup_norm(p)


def test_extensions_are_read_only_and_keep_the_prefix():
    rng = np.random.default_rng(SEED + 2)
    sp = make_space([-2.0, -0.5])
    p = random_path(rng, sp)
    tbar = p.horizon + 3 * p.step
    for e in (extend_flat(p, tbar), extend_semigroup(p, tbar)):
        assert e.samples.shape == (p.n_nodes + 3, 2)
        assert not e.samples.flags.writeable
        assert np.array_equal(e.samples[: p.n_nodes], p.samples)


def test_extension_validates_the_new_rows():
    p = Path.zero(flat_space(2), 0.25, 0.5)
    with pytest.raises(ValueError, match="finite"):
        p._extended(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError, match="shape"):
        p._extended(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="shape"):
        p._extended(np.zeros(2))


def test_extension_rejects_earlier_time():
    p = Path.zero(flat_space(1), 0.25, 0.5)
    with pytest.raises(ValueError):
        extend_flat(p, 0.25)


# norms and metric ------------------------------------------------------


def test_sup_norm_example():
    sp = flat_space(2)
    p = Path(sp, 1.0, [[3.0, 4.0], [1.0, 0.0]])
    assert sup_norm(p) == 5.0


def test_sup_norm_is_bit_exact_against_row_norms():
    rng = np.random.default_rng(SEED + 3)
    for dim in (1, 2, 5):
        sp = flat_space(dim)
        for _ in range(200):
            scale = 10.0 ** rng.integers(-150, 150)
            p = random_path(rng, sp, scale=scale)
            reference = float(np.max(np.linalg.norm(p.samples, axis=1)))
            assert sup_norm(p) == reference


def test_metric_equal_horizon_flat():
    sp = flat_space(1)
    g = Path.constant(sp, 0.25, [1.0], 0.5)
    h = Path.constant(sp, 0.25, [3.0], 0.5)
    assert metric_d_infty(g, h) == pytest.approx(2.0, abs=1e-15)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(SEED + 2)
    sp = make_space([-1.0, 0.0])
    tol = 1e-12
    for _ in range(1000):
        g, h, k = (random_path(rng, sp) for _ in range(3))
        dgh = metric_d_infty(g, h)
        assert dgh >= 0.0
        assert dgh == metric_d_infty(h, g)
        assert metric_d_infty(g, g) == 0.0
        assert dgh <= metric_d_infty(g, k) + metric_d_infty(k, h) + tol


def test_metric_separates_horizons():
    sp = flat_space(1)
    g = Path.constant(sp, 0.25, [1.0], 0.25)
    h = Path.constant(sp, 0.25, [1.0], 0.75)
    assert metric_d_infty(g, h) == pytest.approx(0.5, abs=1e-15)


# Dupire derivatives ----------------------------------------------------


def test_dupire_quadratic_endpoint():
    sp = flat_space(2)
    p = Path(sp, 0.25, [[0.0, 0.0], [1.0, 2.0]])

    def f(g):
        return float(g.endpoint @ g.endpoint)

    d = dupire_derivatives(f, p)
    assert d.dt == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(d.dx, [2.0, 4.0], rtol=0.0, atol=1e-9)


def test_dupire_dt_sees_time_dependence():
    sp = flat_space(1)
    p = Path(sp, 0.25, [[1.0], [1.0]])

    def f(g):
        return g.horizon * float(g.endpoint[0])

    d = dupire_derivatives(f, p)
    assert d.dt == pytest.approx(1.0, abs=1e-12)


def test_dupire_dt_signaled_at_terminal():
    sp = flat_space(1)
    p = Path.constant(sp, 0.25, [1.0], 1.0)
    d = dupire_derivatives(lambda g: float(g.endpoint[0]), p, t_final=1.0)
    assert d.dt is None
    assert d.dx.shape == (1,)
    # below the terminal horizon dt comes back
    d2 = dupire_derivatives(lambda g: float(g.endpoint[0]), p.prefix(0.75), t_final=1.0)
    assert d2.dt is not None


def test_dupire_halving_improves_smooth_cubic():
    # base step large enough that truncation dominates roundoff
    sp = flat_space(1)
    p = Path(sp, 0.25, [[0.3], [0.7]])

    def f(g):
        return float(g.endpoint[0]) ** 3

    exact = 3.0 * 0.7**2
    e1 = abs(dupire_derivatives(f, p, h=1e-3).dx[0] - exact)
    e2 = abs(dupire_derivatives(f, p, h=5e-4).dx[0] - exact)
    assert e1 / e2 >= 3.5
