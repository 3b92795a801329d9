"""Path container, extensions, metric axioms, and Dupire derivatives."""

import numpy as np
import pytest

from conftest import (
    dupire_derivatives,
    flat_space,
    make_space,
    metric_d_infty,
    random_path,
    value_at,
)
from phjb import (
    Path,
    TimeGrid,
    extend_flat,
    extend_semigroup,
    sup_norm,
    vertical_bump,
)
from phjb.paths import grid_index, group_rows, prefix_sup_norms

SEED = 907


# grid and construction -------------------------------------------------


def test_time_grid_counts():
    g = TimeGrid(T=1.0, step=0.25)
    assert g.n_steps == 4
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_rejects_non_multiple():
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, step=0.3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TimeGrid(T=1.0, step=np.inf),
        lambda: TimeGrid(T=np.inf, step=0.25),
        lambda: TimeGrid(T=np.nan, step=0.25),
        lambda: grid_index(0.5, np.inf),
        lambda: grid_index(np.inf, 0.25),
        lambda: grid_index(np.nan, 0.25),
        lambda: Path(flat_space(1), np.nan, np.zeros((2, 1))),
        lambda: Path(flat_space(1), np.inf, np.zeros((2, 1))),
    ],
)
def test_non_finite_times_and_steps_are_refused(make):
    with pytest.raises(ValueError, match="not finite|finite and > 0"):
        make()


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
    assert value_at(p, 0.5)[0] == 2.0
    q = p.prefix(0.5)
    assert q.horizon == 0.5
    assert q.endpoint[0] == 2.0
    with pytest.raises(ValueError):
        value_at(p, 0.3)


def test_prefix_is_a_read_only_view_that_still_checks_its_time():
    rng = np.random.default_rng(SEED + 1)
    p = random_path(rng, make_space([-1.0, -0.4]), min_nodes=4)
    q = p.prefix(2 * p.step)
    assert np.shares_memory(q.samples, p.samples)
    assert not q.samples.flags.writeable
    with pytest.raises(ValueError):
        q.samples[0, 0] = 1.0
    assert np.array_equal(q.samples, p.samples[:3])
    assert q.space is p.space and q.step == p.step and q.horizon == 2 * p.step
    assert p.prefix(p.horizon).n_nodes == p.n_nodes
    with pytest.raises(ValueError, match="grid multiple"):
        p.prefix(0.5 * p.step)
    with pytest.raises(ValueError, match="beyond horizon"):
        p.prefix(p.horizon + p.step)
    with pytest.raises(ValueError):
        p.prefix(-p.step)


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
    assert np.allclose(back.samples, p.samples, rtol=0.0, atol=1e-12)


def test_sum_and_difference_are_read_only_and_refuse_overflow():
    sp = flat_space(1)
    big = Path.constant(sp, 0.25, [1e308], horizon=0.25)
    low = Path.constant(sp, 0.25, [-1e308], horizon=0.25)
    for out in (big + low, big - big):
        assert np.array_equal(out.samples, np.zeros((2, 1)))
        assert not out.samples.flags.writeable
    assert np.array_equal(big.samples, np.full((2, 1), 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            big - low
        with pytest.raises(ValueError, match="finite"):
            big + big


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


def test_extensions_of_a_large_path_are_finite_without_a_rescan():
    # the carried rows are factors in [0, 1] times the endpoint, so the
    # extension of a finite path is finite however large its samples are
    sp = make_space([-2.0, -0.5])
    p = Path(sp, 0.25, [[1e300, -1e-300], [-1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    for e in (extend_flat(p, 5.0), extend_semigroup(p, 5.0)):
        assert e.samples.shape == (21, 2)
        assert np.isfinite(e.samples).all()
        assert not e.samples.flags.writeable
        assert np.array_equal(e.samples[: p.n_nodes], p.samples)
        assert (np.abs(e.samples[p.n_nodes :]) <= np.abs(p.endpoint)).all()


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
    for dim in (1, 2, 5, 12):
        sp = flat_space(dim)
        for _ in range(200):
            scale = 10.0 ** rng.integers(-150, 150)
            p = random_path(rng, sp, scale=scale)
            reference = float(np.max(np.linalg.norm(p.samples, axis=1)))
            assert sup_norm(p) == reference
            running = prefix_sup_norms(p.samples[None])[0]
            assert running.shape == (p.n_nodes,)
            for k in range(p.n_nodes):
                assert running[k] == sup_norm(p.prefix(k * p.step))


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


def test_one_group_of_every_path_keeps_its_entries_uncopied():
    """group_rows returns the entries of one group that holds every path as
    fn gave them, and assembles any other grouping into a zero block."""
    S = np.arange(8.0).reshape(4, 2, 1)
    V = np.array([1.5, -2.0, 0.25, 4.0])
    assert group_rows(lambda rows, T: V, range(4), [(np.arange(4), S)]) is V
    two = group_rows(lambda rows, T: V[rows], range(4), [(np.array([0, 2]), S[[0, 2]])])
    assert two.tolist() == [1.5, 0.0, 0.25, 0.0]


def test_metric_refuses_paths_on_different_grids():
    g = Path.constant(flat_space(1), 0.25, [1.0], 0.5)
    with pytest.raises(ValueError, match="step mismatch"):
        metric_d_infty(g, Path.constant(flat_space(1), 0.5, [1.0], 0.5))
    with pytest.raises(ValueError, match="different spaces"):
        metric_d_infty(g, Path.constant(make_space([-1.0]), 0.25, [1.0], 0.5))


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
