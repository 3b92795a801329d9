"""Gauge functionals: closed forms, sandwich, quasi-triangle, gradients."""

import math
import warnings

import numpy as np
import pytest

from conftest import (
    dupire_derivatives,
    eval_S,
    flat_space,
    grad_S,
    grad_upsilon,
    make_space,
    metric_d_infty,
    random_path,
    scalar_grad_S,
    scalar_grad_upsilon,
    scalar_metric_d_infty,
    scalar_pair_difference,
    scalar_S,
    scalar_upsilon,
    scalar_upsilon_pair,
)
from phjb import (
    Path,
    eval_upsilon,
    extend_flat,
    extend_semigroup,
    pair_difference,
    sup_norm,
)
from phjb.gauge import _upsilon_rows, pair_difference_rows, pair_gauge_rows, upsilon_rows
from phjb.paths import node_count_groups, prefix_sup_norms
from phjb.variational import pair_gauge, pair_gauges

SEED = 4242


def upsilon_on_prefixes(M, g, first):
    """Upsilon^M and its vertical gradient at the prefixes of g with first,
    first + 1, ..., n_nodes nodes, in the row form `upsilon_margin` takes
    them in: one `_upsilon_rows` call over the running sup norms."""
    norms = prefix_sup_norms(g.samples[None])[0, first - 1 :].tolist()
    return _upsilon_rows(M, norms, g.samples[first - 1 :], True)


def nondegenerate_path(rng, sp, margin=0.05):
    """Random path whose endpoint norm sits strictly below the sup norm."""
    while True:
        p = random_path(rng, sp, min_nodes=2)
        a = sup_norm(p)
        b = np.linalg.norm(p.endpoint)
        if a > margin and a - b > margin * a and b > margin:
            return p


# closed forms ----------------------------------------------------------


def test_constant_path_values():
    sp = flat_space(1)
    p = Path.constant(sp, 0.25, [3.0], 0.5)
    assert eval_S(p) == 0.0
    assert np.array_equal(grad_S(p), [0.0])
    assert eval_upsilon(2.0, p) == pytest.approx(18.0, abs=1e-12)
    assert np.allclose(grad_upsilon(2.0, p), [12.0], atol=1e-12)


def test_zero_path_degenerate_branch():
    sp = flat_space(2)
    p = Path.zero(sp, 0.25, 0.5)
    assert eval_S(p) == 0.0
    assert np.array_equal(grad_S(p), [0.0, 0.0])
    assert eval_upsilon(5.0, p) == 0.0
    assert np.array_equal(grad_upsilon(5.0, p), [0.0, 0.0])


def test_hand_computed_values():
    # samples [2, 1]: a = 4, b = 1, S = 9/4, grad_S = -3, Upsilon^2 = 17/4
    sp = flat_space(1)
    p = Path(sp, 0.5, [[2.0], [1.0]])
    assert eval_S(p) == pytest.approx(2.25, abs=1e-15)
    assert grad_S(p)[0] == pytest.approx(-3.0, abs=1e-15)
    assert eval_upsilon(2.0, p) == pytest.approx(4.25, abs=1e-15)
    assert grad_upsilon(2.0, p)[0] == pytest.approx(1.0, abs=1e-15)


# sandwich and quasi-triangle ------------------------------------------


def test_sandwich_random_paths():
    rng = np.random.default_rng(SEED)
    sp = flat_space(3)
    rel = 1e-9
    for _ in range(1000):
        p = random_path(rng, sp)
        a = sup_norm(p) ** 2
        mid = eval_S(p) + 2.0 * float(p.endpoint @ p.endpoint)
        assert a <= mid * (1.0 + rel) + rel
        assert mid <= 3.0 * a * (1.0 + rel) + rel


@pytest.mark.parametrize("M", [2.0, 5.0])
def test_quasi_triangle_random_pairs(M):
    rng = np.random.default_rng(SEED + 1)
    sp = flat_space(2)
    tol = 1e-9
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        g = Path(sp, 0.25, rng.normal(size=(n, 2)))
        h = Path(sp, 0.25, rng.normal(size=(n, 2)))
        lhs = 2.0 * eval_upsilon(M, g) + 2.0 * eval_upsilon(M, h)
        assert lhs >= eval_upsilon(M, g + h) - tol


def test_quasi_triangle_tight_at_equal_args():
    sp = flat_space(1)
    p = Path(sp, 0.25, [[1.0], [2.0], [0.5]])
    slack = 4.0 * eval_upsilon(2.0, p) - eval_upsilon(2.0, p + p)
    assert abs(slack) <= 1e-12


# gradients -------------------------------------------------------------


def test_grad_S_matches_central_differences():
    rng = np.random.default_rng(SEED + 2)
    sp = flat_space(2)
    for _ in range(200):
        p = nondegenerate_path(rng, sp)
        fd = dupire_derivatives(eval_S, p).dx
        assert np.allclose(grad_S(p), fd, rtol=0.0, atol=1e-6)


def test_grad_S_halving_ratio():
    rng = np.random.default_rng(SEED + 3)
    sp = flat_space(1)
    ratios = []
    for _ in range(50):
        p = nondegenerate_path(rng, sp)
        exact = grad_S(p)
        e1 = np.abs(dupire_derivatives(eval_S, p, h=1e-3).dx - exact).max()
        e2 = np.abs(dupire_derivatives(eval_S, p, h=5e-4).dx - exact).max()
        if e2 > 1e-13:  # skip pairs already at the roundoff floor
            ratios.append(e1 / e2)
    assert ratios and np.median(ratios) >= 3.5


def test_time_derivative_of_S_vanishes():
    rng = np.random.default_rng(SEED + 4)
    sp = flat_space(2)
    for _ in range(100):
        p = random_path(rng, sp)
        d = dupire_derivatives(eval_S, p)
        assert d.dt == pytest.approx(0.0, abs=1e-12)


def test_grad_upsilon_adds_endpoint_term():
    rng = np.random.default_rng(SEED + 5)
    sp = flat_space(3)
    p = random_path(rng, sp)
    lhs = grad_upsilon(5.0, p)
    rhs = grad_S(p) + 10.0 * p.endpoint
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("M", [2.0, 5.0])
@pytest.mark.parametrize("dim", [1, 2, 12])
def test_upsilon_on_prefixes_is_bit_exact_against_each_prefix(M, dim):
    rng = np.random.default_rng(SEED + 10)
    sp = flat_space(dim)
    paths = [random_path(rng, sp) for _ in range(50)] + [Path.zero(sp, 0.25, 1.0)]
    for p in paths:
        first = int(rng.integers(1, p.n_nodes + 1))
        values, grads = upsilon_on_prefixes(M, p, first)
        assert len(values) == len(grads) == p.n_nodes - first + 1
        for k, (v, gr) in enumerate(zip(values, grads)):
            q = p.prefix((first - 1 + k) * p.step)
            assert v == scalar_upsilon(M, q)
            assert np.array_equal(gr, scalar_grad_upsilon(M, q))


@pytest.mark.parametrize("M", [2.0, 5.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_upsilon_rows_is_bit_exact_against_each_path(M, dim):
    # enough rows that a squaring or a dot rounded another way shows
    rng = np.random.default_rng(SEED + 11)
    sp = flat_space(dim)
    S = rng.normal(size=(4000, 3, dim)) * np.exp(rng.uniform(-3, 3, size=(4000, 1, 1)))
    S[:5] = 0.0
    S.flags.writeable = False
    want = [scalar_upsilon(M, Path(sp, 0.25, s)) for s in S]
    assert upsilon_rows(M, S).tolist() == want


@pytest.mark.parametrize("eigenvalues", [[0.0], [0.0, 0.0, 0.0], [-1.0, -0.4], [-2.0]])
def test_pair_difference_rows_is_bit_exact_against_each_pair(eigenvalues):
    rng = np.random.default_rng(SEED + 12)
    sp = make_space(eigenvalues)
    for n_anchor in (1, 2, 4):  # an earlier horizon, and an equal one
        anchor = random_path(rng, sp, min_nodes=n_anchor - 1, max_nodes=n_anchor - 1)
        paths = [random_path(rng, sp, min_nodes=3, max_nodes=3) for _ in range(20)]
        S = np.stack([g.samples for g in paths])
        got = pair_difference_rows(anchor, paths[0], S)
        for row, g in zip(got, paths):
            assert np.array_equal(row, scalar_pair_difference(anchor, g).samples)


# one formula per gauge: the row forms against the scalar formulas -------

# (dim, generator): dims 1, 2, 3 and 12 under a zero and a nonzero generator
FORMULA_SPACES = [
    [0.0], [-1.0],
    [0.0, 0.0], [-1.0, -0.4],
    [0.0, 0.0, 0.0], [-2.0, -0.5, 0.0],
    [0.0] * 12, list(-np.linspace(0.0, 3.0, 12)),
]


def _bytes(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _formula_paths(rng, sp) -> list:
    """Random paths of 1 to 9 nodes over six decades of scale, and zero paths
    (one of them all -0.0)."""
    paths = [
        random_path(rng, sp, scale=float(np.exp(rng.uniform(-7.0, 7.0))))
        for _ in range(80)
    ]
    paths += [Path.zero(sp, 0.25, 0.0), Path.zero(sp, 0.25, 1.0)]
    paths.append(Path(sp, 0.25, -np.zeros((3, sp.dim))))
    return paths


@pytest.mark.parametrize("eigenvalues", FORMULA_SPACES)
def test_upsilon_forms_are_the_scalar_formulas_as_bytes(eigenvalues):
    rng = np.random.default_rng(SEED + 20)
    sp = make_space(eigenvalues)
    paths = _formula_paths(rng, sp)
    for p in paths:
        for M in (0.0, 2.0, 5.0):
            assert _bytes(eval_upsilon(M, p)) == _bytes(scalar_upsilon(M, p))
            assert _bytes(grad_upsilon(M, p)) == _bytes(scalar_grad_upsilon(M, p))
            values, grads = upsilon_on_prefixes(M, p, 1)
            for k, (v, gr) in enumerate(zip(values, grads)):
                q = p.prefix(k * p.step)
                assert _bytes(v) == _bytes(scalar_upsilon(M, q))
                assert _bytes(gr) == _bytes(scalar_grad_upsilon(M, q))
        assert _bytes(eval_S(p)) == _bytes(scalar_S(p))
        # S is Upsilon^0: its gradient adds 0 * gamma(t), which may flip a
        # zero's sign and nothing else
        assert np.array_equal(grad_S(p), scalar_grad_S(p))
    for rows, S in node_count_groups(paths).values():
        assert _bytes(upsilon_rows(2.0, S)) == _bytes(
            [scalar_upsilon(2.0, paths[i]) for i in rows]
        )


@pytest.mark.parametrize("eigenvalues", FORMULA_SPACES)
def test_pair_forms_are_the_scalar_formulas_as_bytes(eigenvalues):
    rng = np.random.default_rng(SEED + 21)
    sp = make_space(eigenvalues)
    paths = _formula_paths(rng, sp)
    for i, g in enumerate(paths):
        h = paths[(7 * i + 3) % len(paths)]
        for a, b in ((g, h), (h, g), (g, g)):
            assert _bytes(pair_difference(a, b).samples) == _bytes(
                scalar_pair_difference(a, b).samples
            )
            assert _bytes(pair_gauge(a, b)) == _bytes(
                scalar_upsilon_pair(2.0, a, b, with_time=True)
            )
            assert _bytes(metric_d_infty(a, b)) == _bytes(scalar_metric_d_infty(a, b))
    for anchor in paths[:10] + paths[-3:]:
        later = [g for g in paths if g.n_nodes >= anchor.n_nodes]
        want = [scalar_upsilon_pair(2.0, anchor, g, with_time=True) for g in later]
        assert _bytes(pair_gauges(anchor, later)) == _bytes(want)
        for rows, S in node_count_groups(later).values():
            assert _bytes(pair_gauge_rows(anchor, later[rows[0]], S)) == _bytes(
                [want[i] for i in rows]
            )
            assert _bytes(pair_difference_rows(anchor, later[rows[0]], S)) == _bytes(
                [scalar_pair_difference(anchor, later[i]).samples for i in rows]
            )


def test_a_block_that_ends_before_its_anchor_is_refused():
    sp = make_space([-1.0])
    anchor = Path(sp, 0.25, [[0.1], [0.2], [0.3], [0.4]])
    g = Path(sp, 0.25, [[0.5], [0.6]])
    with pytest.raises(ValueError, match="2 nodes ends before its anchor of 4 nodes"):
        pair_difference_rows(anchor, g, g.samples[None])
    with pytest.raises(ValueError, match="ends before its anchor"):
        pair_gauge_rows(anchor, g, g.samples[None])
    # the row gauge gives 0.0 to a path that ends before its anchor
    assert pair_gauges(anchor, [anchor, g]).tolist() == [pair_gauge(anchor, anchor), 0.0]
    # the symmetric one-row forms order the pair themselves
    assert pair_gauge(anchor, g) == pair_gauge(g, anchor)
    assert np.array_equal(pair_difference(anchor, g).samples, pair_difference(g, anchor).samples)


# pair gauge ------------------------------------------------------------


def test_pair_difference_equal_horizons():
    sp = flat_space(1)
    g = Path(sp, 0.25, [[1.0], [2.0]])
    h = Path(sp, 0.25, [[0.5], [3.0]])
    d = pair_difference(h, g)
    assert np.allclose(d.samples[:, 0], [0.5, -1.0], atol=1e-15)
    assert pair_gauge(h, g) == eval_upsilon(2.0, g - h)


@pytest.mark.parametrize("eigenvalues", [[0.0], [0.0, 0.0], [-1.0, -0.4], [-2.0]])
def test_pair_difference_is_bit_exact_against_the_extension(eigenvalues):
    rng = np.random.default_rng(SEED + 5)
    sp = make_space(eigenvalues)
    for i in range(200):
        g = random_path(rng, sp)
        # every tenth pair shares its horizon
        h = random_path(rng, sp, min_nodes=g.n_nodes - 1, max_nodes=g.n_nodes - 1) if (
            i % 10 == 0
        ) else random_path(rng, sp)
        for anchor, other in ((g, h), (h, g)):
            if anchor.horizon <= other.horizon:
                ref = other - extend_semigroup(anchor, other.horizon)
            else:
                ref = anchor - extend_semigroup(other, anchor.horizon)
            d = pair_difference(anchor, other)
            assert np.array_equal(d.samples, ref.samples)
            assert d.step == ref.step and d.space is ref.space
            assert not d.samples.flags.writeable


def test_pair_difference_refuses_overflow_and_mismatched_grids():
    sp = flat_space(1)
    big = Path(sp, 0.25, [[1e308], [1e308]])
    neg = Path(sp, 0.25, [[-1e308]])
    # the same overflow past the shared node, against a semigroup extension
    slow = make_space([-1e-6])
    short, long = Path(slow, 0.25, [[-1e308]]), Path(slow, 0.25, [[0.0], [1e308]])
    cases = ((neg, big), (big, neg), (short, long), (long, short))
    with np.errstate(over="ignore", invalid="ignore"):
        for anchor, g in cases:
            with pytest.raises(ValueError, match="finite"):
                pair_difference(anchor, g)
    with pytest.raises(ValueError, match="step"):
        pair_difference(Path(sp, 0.5, [[0.0]]), big)
    with pytest.raises(ValueError, match="space"):
        pair_difference(Path(make_space([-1.0]), 0.25, [[0.0]]), big)


def test_pair_gauge_symmetric_under_swap():
    rng = np.random.default_rng(SEED + 6)
    sp = make_space([-1.0])
    for _ in range(100):
        g = random_path(rng, sp)
        h = random_path(rng, sp)
        ab = pair_gauge(g, h)
        ba = pair_gauge(h, g)
        assert ab == ba


def test_gauge_sublevels_control_metric():
    rng = np.random.default_rng(SEED + 7)
    sp = make_space([-0.5])
    c_spec = 1.0 + np.sqrt(3.0)
    for _ in range(300):
        g = random_path(rng, sp, scale=0.5)
        h = random_path(rng, sp, scale=0.5)
        delta = pair_gauge(g, h)
        d = metric_d_infty(g, h)
        assert d <= c_spec * np.sqrt(delta) + 1e-12
        # sharper desk bound, recorded for headroom
        assert d <= np.sqrt(2.0 * delta) + 1e-12


def test_extension_monotonicity_chain():
    rng = np.random.default_rng(SEED + 8)
    sp = make_space([-1.5, -0.25])
    for _ in range(300):
        p = random_path(rng, sp)
        e = extend_semigroup(p, p.horizon + 3 * p.step)
        u_p = eval_upsilon(2.0, p)
        u_e = eval_upsilon(2.0, e)
        tol = 1e-12 * max(1.0, u_p)
        assert u_p >= u_e - tol
        assert u_e >= sup_norm(e) ** 2 - tol
        assert sup_norm(e) ** 2 >= u_p / 3.0 - tol


def test_flat_extension_keeps_S():
    rng = np.random.default_rng(SEED + 9)
    sp = flat_space(1)
    for _ in range(100):
        p = random_path(rng, sp)
        e = extend_flat(p, p.horizon + 2 * p.step)
        assert eval_S(e) == pytest.approx(eval_S(p), abs=1e-12)


# the kernel on arrays: C `pow` squares, the corners of the one-path formula


def _scalar_rows_or_overflow(M, sp, S):
    """scalar_upsilon and scalar_grad_upsilon at the path of each row of S,
    or None where the one-path formula raises OverflowError."""
    out = []
    for s in S:
        g = Path(sp, 0.25, s)
        try:
            out.append((scalar_upsilon(M, g), scalar_grad_upsilon(M, g)))
        except OverflowError:
            out.append(None)
    return out


def _corner_blocks(rng, dim):
    """Blocks of 1 to 4 nodes at the corners of the kernel: squares below
    the normal range, norms near the square root of the largest float,
    zero paths (+0.0 and -0.0), and paths whose endpoint is their largest
    sample, where roundoff can make a - b negative."""
    for scale in (1e-160, 1e-155, 1.0, 1e75, 1e150):
        for n in (1, 2, 4):
            yield rng.normal(size=(300, n, dim)) * scale
    for n in (1, 3):
        yield np.zeros((4, n, dim))
        yield -np.zeros((4, n, dim))
        # rising paths: the endpoint is the sample of largest norm
        B = np.cumsum(np.abs(rng.normal(size=(2000, n, dim))), axis=1)
        yield B * np.exp(rng.uniform(-20.0, 20.0, size=(2000, 1, 1)))


@pytest.mark.parametrize("M", [0.0, 2.0, 5.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_upsilon_kernel_is_the_scalar_formula_at_its_corners(M, dim):
    rng = np.random.default_rng(SEED + 30)
    sp = flat_space(dim)
    negative = overflowed = 0
    for S in _corner_blocks(rng, dim):
        want = _scalar_rows_or_overflow(M, sp, S)
        norms = np.sqrt(np.max(np.sum(S * S, axis=2), axis=1))
        a, b = norms.tolist(), [float(e @ e) for e in S[:, -1]]
        negative += sum(x ** 2 - y < 0.0 for x, y, w in zip(a, b, want) if w is not None)
        ok = np.array([w is not None for w in want])
        overflowed += int((~ok).sum())
        for i in np.flatnonzero(~ok)[:5]:  # a row that overflows raises, alone or in a block
            with pytest.raises(OverflowError):
                upsilon_rows(M, S[i : i + 1])
        if ok.any():
            values, grads = upsilon_rows(M, S[ok], True)
            assert values.tobytes() == _bytes([w[0] for w in want if w is not None])
            assert grads.tobytes() == _bytes([w[1] for w in want if w is not None])
            if not ok.all():
                with pytest.raises(OverflowError):
                    upsilon_rows(M, S)
    # both corners are met; in one dimension sqrt(x * x) is |x| and a = b
    assert overflowed > 0 and (negative > 0) == (dim > 1)


def test_float_power_squares_as_python_floats_do():
    """The kernel's squares are `np.float_power(x, 2.0)` because it calls
    the C `pow` of Python's `x ** 2`; `x * x` and `np.power` round some
    squares another way. A numpy whose float_power loop changes fails here."""
    rng = np.random.default_rng(SEED + 31)
    x = rng.choice([-1.0, 1.0], 10**5) * np.exp(rng.uniform(np.log(1e-300), np.log(1e150), 10**5))
    want = np.array([r ** 2 for r in x.tolist()])
    assert np.float_power(x, 2.0).tobytes() == want.tobytes()


def test_an_overflowing_square_raises_as_python_does_and_warns_nothing():
    """A finite sup norm above about 1.34e154, or a gap a - b above it, has
    no finite square: the kernel raises OverflowError, as `x ** 2` does on
    Python floats, instead of returning inf, and emits no RuntimeWarning.
    An infinite norm (a block whose squared norms overflowed) squares to
    inf and gives NaN, as on Python floats."""
    E = np.array([[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (1.4e154, 1e300):
            with pytest.raises(OverflowError):
                norm ** 2
            with pytest.raises(OverflowError):
                _upsilon_rows(2.0, np.array([norm]), E)
        # a = 1e200 is finite, but (a - b) ** 2 is not
        with pytest.raises(OverflowError):
            _upsilon_rows(2.0, np.array([1e100]), E)
        values, grads = _upsilon_rows(2.0, np.array([0.0, 1e77]), np.array([[0.0], [1.0]]), True)
    assert values.tolist() == [0.0, (1e77 ** 2 - 1.0) ** 2 / 1e77 ** 2 + 2.0] and grads[0].tolist() == [0.0]
    with np.errstate(invalid="ignore"):
        values = _upsilon_rows(2.0, np.array([math.inf]), E)
    assert np.isnan(values[0]) and math.isnan((math.inf ** 2 - 1.0) ** 2 / math.inf ** 2 + 2.0)
