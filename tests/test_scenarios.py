"""Scenario builders, closed forms, test functions, and gauge packs."""

import math
import re

import numpy as np
import pytest

from phjb.checks import build_net, perturbed
from phjb.gauge import eval_upsilon
from phjb.paths import Path, formula_paths, formula_rows, row_dots, sup_norm, sup_norms
from phjb.scenarios import (
    _norms,
    SCENARIOS,
    classical_candidate,
    eikonal,
    eikonal_value,
    feedback,
    runmax,
    runmax_value,
    touching_points,
)
from phjb.testfn import GaugePack, TestFunctionPhi, _differences, differentiability_probe
from phjb.value import ValueTable

from conftest import (
    dupire_derivatives,
    grad_upsilon,
    make_space,
    one_path_pack_dt,
    one_path_pack_dx,
    one_path_pack_value,
    random_path,
    row_value,
    row_vector,
    split_key,
    time_ramp,
)


# registry and builders --------------------------------------------------


def _block_rows(rng, dim, n_rows=600, n_nodes=4):
    """Random paths as one block, with endpoint norms below, at and above 1,
    zero endpoints, -0.0 coordinates, and controls -1, 0 and 1."""
    S = rng.normal(size=(n_rows, n_nodes, dim))
    E = S[:, -1]
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    E *= rng.choice([0.3, 0.999, 1.0, 1.0 + 2e-16, 1.001, 2.5, 40.0], size=(n_rows, 1))
    E[0] = 0.0
    E[1] = -0.0
    E[2, 0] = -0.0
    E[3, -1] = -0.0
    S[4] = -0.0
    U = rng.choice([-1.0, 0.0, 1.0], size=n_rows)
    return S, U


# the scenarios' formulas on one Path and one control label, as they were
# written before the coefficients took sample blocks


def _norm(x):
    return math.sqrt(x.dot(x))


def _retract(x):
    r = _norm(x)
    return x if r <= 1.0 else x / r


_E1 = np.array([1.0, 0.0])

SCALAR_FORMS = {
    "eikonal": dict(
        drift=lambda g, u: np.array([u]),
        running_cost=lambda g, u: 0.0,
        terminal_cost=lambda g: abs(float(g.endpoint[0])),
    ),
    "runmax": dict(
        drift=lambda g, u: np.array([u]),
        running_cost=lambda g, u: 0.0,
        terminal_cost=sup_norm,
    ),
    "feedback": dict(
        drift=lambda g, u: u * _E1 - _retract(g.endpoint),
        running_cost=lambda g, u: _norm(g.endpoint),
        terminal_cost=lambda g: _norm(g.endpoint),
    ),
}


def _scalar_perturbed(forms, kind, eps):
    """The scalar forms shifted as `perturbed` shifted them."""
    out = dict(forms)
    if kind == "phi_shift":
        out["terminal_cost"] = lambda g: float(forms["terminal_cost"](g)) + eps
    elif kind == "q_shift":
        out["running_cost"] = lambda g, u: float(forms["running_cost"](g, u)) + eps
    elif kind == "drift_shift":

        def drift(g, u):
            e = np.zeros(g.space.dim)
            e[0] = 1.0
            return np.asarray(forms["drift"](g, u), dtype=float) + eps * e

        out["drift"] = drift
    return out


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("kind", [None, "phi_shift", "q_shift", "drift_shift"])
def test_block_forms_equal_the_scalar_forms_bit_for_bit(build, kind):
    sc = build()
    c = sc.coefficients if kind is None else perturbed(sc.coefficients, kind, 0.3)
    scalar = SCALAR_FORMS[sc.name]
    if kind is not None:
        scalar = _scalar_perturbed(scalar, kind, 0.3)
    S, U = _block_rows(np.random.default_rng(5), sc.space.dim)
    S.flags.writeable = False
    paths = [Path(sc.space, sc.grid.step, s) for s in S]
    drift = np.array(
        [np.asarray(scalar["drift"](p, u), dtype=float) for p, u in zip(paths, U.tolist())]
    )
    q = np.array([float(scalar["running_cost"](p, u)) for p, u in zip(paths, U.tolist())])
    phi = np.array([float(scalar["terminal_cost"](p)) for p in paths])
    assert np.asarray(c.drift(S, U), dtype=float).tobytes() == drift.tobytes()
    assert np.asarray(c.running_cost(S, U), dtype=float).tobytes() == q.tobytes()
    assert np.asarray(c.terminal_cost(S), dtype=float).tobytes() == phi.tobytes()
    # a single path is the one-row block
    for i in range(0, len(S), 37):
        one, u = S[i : i + 1], U[i : i + 1]
        assert np.asarray(c.drift(one, u), dtype=float).tobytes() == drift[i : i + 1].tobytes()
        assert np.asarray(c.running_cost(one, u), dtype=float).tobytes() == q[i : i + 1].tobytes()
        assert np.asarray(c.terminal_cost(one), dtype=float).tobytes() == phi[i : i + 1].tobytes()


# the memo key each scenario declared before the value recursion stepped
# states: one statistic row per prefix, whose bytes keyed its memo entry
STATISTICS = {
    "eikonal": lambda g: g.samples[-1],
    "runmax": lambda g: np.array([*g.samples[-1], sup_norm(g)]),
    "feedback": lambda g: g.samples[-1],
}


def _classes(keys) -> list:
    """Each key's class, as the index of the first key equal to it."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def _tied_rows(rng, dim, n_nodes):
    """`_block_rows` of n_nodes nodes (some ending at -0.0), three times
    over: as drawn, with the nodes before the endpoint reversed (same
    endpoint and sup norm), and with those nodes tripled (same endpoint, a
    larger sup norm). Row 5 alternates x and -x, so its sup norm ties -x
    with x and with the endpoint."""
    S, U = _block_rows(rng, dim, 200, n_nodes)
    S[5] = S[5, -1] * np.array([-1.0, 1.0] * n_nodes)[:n_nodes, None]
    reversed_, tripled = S.copy(), S.copy()
    reversed_[:, :-1] = S[:, -2::-1]
    tripled[:, :-1] *= 3.0
    return np.concatenate([S, reversed_, tripled]), np.concatenate([U, U, U])


@pytest.mark.parametrize("build", [eikonal, runmax, feedback])
@pytest.mark.parametrize("kind", [None, "phi_shift", "q_shift", "drift_shift"])
def test_a_state_stands_for_its_prefix_bit_for_bit(build, kind):
    sc = build()
    c = sc.coefficients if kind is None else perturbed(sc.coefficients, kind, 0.3)
    table = ValueTable(c, sc.grid)
    rng = np.random.default_rng(11)
    widths = set()
    for n in range(1, 7):
        S, U = _tied_rows(rng, sc.space.dim, n)
        S.flags.writeable = False
        Z, keys = table._keys(S)
        widths.add(Z.shape[1])
        assert Z.shape[::2] == S.shape[::2] and Z.dtype == np.float64
        assert Z[:, -1].tobytes() == S[:, -1].tobytes()  # bytes tell -0.0 from 0.0
        paths = [Path(sc.space, sc.grid.step, s) for s in S]
        before = [np.asarray(STATISTICS[sc.name](p)).tobytes() for p in paths]
        assert _classes(keys) == _classes(before)
        assert [split_key(k) for k in keys] == [(n, z.tobytes()) for z in Z]
        # the same samples appended to both: draws, some 40 times larger (a
        # new sup norm), -0.0, and the negated endpoint (a sup norm tie)
        for k in (0, 1, 2):
            A = rng.normal(size=(len(S), k, sc.space.dim))
            A[::3] *= 40.0
            A[1::7] = -0.0
            A[2::7] = -S[2::7, -1:]
            SA = np.concatenate([S, A], axis=1)
            ZA = np.concatenate([Z, A], axis=1)
            for f in (lambda X: c.drift(X, U), lambda X: c.running_cost(X, U), c.terminal_cost, c.state):
                assert np.asarray(f(ZA)).tobytes() == np.asarray(f(SA)).tobytes()
    assert len(widths) == 1


def test_block_norm_matches_the_scalar_dot():
    rng = np.random.default_rng(9)
    E = rng.normal(size=(20000, 2)) * rng.choice([1e-200, 1e-3, 1.0, 1e5, 1e150], size=(20000, 1))
    E[:3] = [[0.0, -0.0], [-0.0, -0.0], [3.0, -0.0]]
    want = np.array([math.sqrt(x.dot(x)) for x in E])
    assert _norms(E).tobytes() == want.tobytes()
    assert _norms(np.stack([E, E], axis=1)[:, 1]).tobytes() == want.tobytes()  # a strided view


def test_registry_has_all_three():
    assert set(SCENARIOS) == {"eikonal", "runmax", "feedback"}
    for name, build in SCENARIOS.items():
        sc = build()
        assert sc.name == name
        assert sc.grid.T == pytest.approx(1.0)
        assert sc.initial.space is sc.space


def test_closed_form_flags():
    assert eikonal().closed_form is not None
    assert runmax().closed_form is not None
    assert feedback().closed_form is None


def test_eikonal_closed_form_table():
    sc = eikonal()
    # from t=0 with T=1: reachable lattice is x + k/4, |k| <= 4
    # discrete lattice x + k/4, |k| <= 4; 0.1 never reaches zero exactly
    cases = {0.0: 0.0, 0.1: 0.1, 0.25: 0.0, 0.3: 0.05, 1.1: 0.1, -1.3: 0.3, 2.0: 1.0}
    for x, v in cases.items():
        g = Path.constant(sc.space, sc.grid.step, np.array([x]), horizon=0.0)
        assert eikonal_value(g, sc.grid) == pytest.approx(v, abs=1e-12), x


def test_runmax_closed_form_is_prefix_sup():
    sc = runmax()
    g = Path(sc.space, sc.grid.step, np.array([[0.2], [-1.7], [0.5]]))
    assert runmax_value(g, sc.grid) == pytest.approx(1.7)


def test_feedback_drift_is_bounded_by_declared_constant():
    sc = feedback()
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(scale=2.0, size=2)
        g = Path.constant(sc.space, sc.grid.step, x, horizon=0.0)
        f = sc.coefficients.drift(g.samples[None], np.array([1.0]))[0]
        assert np.linalg.norm(f) <= 1.0 + np.linalg.norm(x[:1]) + 1.0 + 1e-12


# test functions ---------------------------------------------------------


def test_linear_endpoint_derivatives_validate():
    space = make_space([-1.0, 0.0])
    phi = TestFunctionPhi.linear_endpoint(np.array([2.0, -1.0]), c=0.3)
    g = Path(space, 0.25, np.array([[0.1, 0.2], [0.4, -0.3]]))
    assert row_value(phi.rows, g) == pytest.approx(0.3 + 2.0 * 0.4 - 1.0 * (-0.3))
    phi.validate_on([g], t_final=1.0)


def test_validate_on_catches_wrong_gradient():
    space = make_space([0.0])
    phi = TestFunctionPhi(
        rows=lambda proto, S: S[:, -1, 0] ** 2,
        dt=lambda proto, S: np.zeros(len(S)),
        dx=lambda proto, S: np.ones((len(S), 1)),  # should be 2*end
        label="broken",
    )
    g = Path.constant(space, 0.25, np.array([0.7]), horizon=0.25)
    with pytest.raises(ValueError):
        phi.validate_on([g], t_final=1.0)


@pytest.mark.parametrize("dt, dx", [(0.0, [math.nan]), (math.nan, [1.0])], ids=["nan-dx", "nan-dt"])
def test_validate_on_refuses_a_nan_derivative(dt, dx):
    """A NaN gap to the finite differences is refused as a large one is:
    validation passes only where each gap is at most its bound."""
    g = Path(make_space([0.0]), 0.25, np.array([[0.5], [0.7]]))

    def endpoint(dt, dx):
        return TestFunctionPhi(
            rows=lambda proto, S: S[:, -1, 0],
            dt=lambda proto, S: np.full(len(S), dt),
            dx=lambda proto, S: np.tile(dx, (len(S), 1)),
        )

    endpoint(0.0, [1.0]).validate_on([g], t_final=1.0)  # the true derivatives
    with pytest.raises(ValueError, match="derivative off by nan"):
        endpoint(dt, dx).validate_on([g], t_final=1.0)


def test_validation_and_the_probe_refuse_paths_on_two_steps():
    """The finite differences of paths on one node count are one block, so
    the paths must share one step; the extension step is read off them."""
    space = make_space([0.0])
    phi = TestFunctionPhi.quadratic_endpoint()
    paths = [Path(space, 0.25, [[0.1], [0.4]]), Path(space, 0.5, [[0.1], [0.4]])]
    phi.validate_on(paths[:1], t_final=1.0)
    with pytest.raises(ValueError, match="share one step"):
        phi.validate_on(paths, t_final=1.0)
    with pytest.raises(ValueError, match="share one step"):
        differentiability_probe(phi, paths, t_final=1.0)


def test_shifted_and_time_ramp():
    space = make_space([0.0])
    phi = TestFunctionPhi.quadratic_endpoint()
    g = Path.constant(space, 0.25, np.array([0.5]), horizon=0.5)
    ramp = time_ramp(phi, 3.0, 1.0)
    assert row_value(ramp.rows, g) == pytest.approx(row_value(phi.rows, g) + 3.0 * 0.5)
    assert row_value(ramp.dt, g) == pytest.approx(row_value(phi.dt, g) - 3.0)
    np.testing.assert_allclose(row_vector(ramp.dx, g), row_vector(phi.dx, g))


def test_probe_passes_smooth_and_flags_cone():
    space = make_space([0.0])
    g = Path.constant(space, 0.25, np.array([0.4]), horizon=0.5)
    smooth = TestFunctionPhi.quadratic_endpoint()
    assert differentiability_probe(smooth, [g], t_final=1.0)[0] == [True]
    cone = TestFunctionPhi(
        rows=lambda proto, S: np.abs(S[:, -1, 0] - 0.4),
        dt=lambda proto, S: np.zeros(len(S)),
        dx=lambda proto, S: np.zeros((len(S), 1)),
    )
    assert differentiability_probe(cone, [g], t_final=1.0)[0] == [False]


@pytest.mark.parametrize("eigenvalues", [[0.0], [0.0, 0.0], [-1.0, -0.4, -0.05]])
def test_the_difference_routine_gives_the_one_path_dupire_quotients(eigenvalues):
    """The one finite-difference routine, with validate_on's steps, gives
    the central vertical quotients and the forward flat-extension quotient
    of the one-path grid Dupire derivatives bit for bit, and prices no
    extension that crosses t_final."""
    rng = np.random.default_rng(31)
    space = make_space(eigenvalues)
    w = rng.normal(size=space.dim)

    def f(proto, S):  # reads the time, the endpoint and the whole path
        return np.sin(row_dots(S[:, -1], w)) + proto.horizon * sup_norms(S)

    paths = [random_path(rng, space) for _ in range(40)]
    E = np.array([g.endpoint for g in paths])
    h = 1e-5 * np.maximum(1.0, np.sqrt(row_dots(E, E)))
    assert h.tolist() == [1e-5 * max(1.0, float(np.linalg.norm(g.endpoint))) for g in paths]
    reach = [int(g.horizon + g.step <= 1.0 + 1e-12) for g in paths]
    assert 0 < sum(reach) < len(paths)
    phi = TestFunctionPhi(rows=f, dt=lambda proto, S: np.zeros(len(S)), dx=lambda proto, S: 0.0 * S[:, -1])
    f0, bumped, flat, _, _ = _differences(phi, paths, h[:, None], reach)
    for i, g in enumerate(paths):
        fd = dupire_derivatives(lambda p: row_value(f, p), g, t_final=1.0)
        assert f0[i] == row_value(f, g)
        assert ((bumped[i, 0, :, 0] - bumped[i, 0, :, 1]) / (2.0 * h[i])).tobytes() == fd.dx.tobytes()
        if fd.dt is None:
            assert not reach[i] and np.isnan(flat[i]).all()
        else:
            assert (flat[i, 0] - f0[i]) / g.step == fd.dt and np.isnan(flat[i, 1])


# gauge packs ------------------------------------------------------------


def _anchor(space):
    return Path.constant(space, 0.25, np.array([0.3]), horizon=0.25)


def test_anchored_pack_value_and_derivatives():
    space = make_space([0.0])
    a = _anchor(space)
    pack = GaugePack.anchored(a, 2.0)
    g = Path(space, 0.25, np.array([[0.3], [0.3], [0.8]]))
    assert pack.value(g) > 0.0
    assert row_value(pack.dt, g) == pytest.approx(2.0 * 2 * (0.5 - 0.25))
    assert row_vector(pack.dx, g).shape == (1,)
    zero = GaugePack.zero()
    assert zero.value(g) == 0.0
    assert row_value(zero.dt, g) == 0.0


def test_pack_rejects_bad_weights_and_negative_hy():
    space = make_space([0.0])
    a = _anchor(space)
    with pytest.raises(ValueError):
        GaugePack(anchors=((a, -1.0),))
    bad = GaugePack(h_y=lambda s, y: -1.0, anchors=((a, 1.0),))
    g = Path.constant(space, 0.25, np.array([0.1]), horizon=0.5)
    with pytest.raises(ValueError):
        row_vector(bad.dx, g)


def test_pack_rejects_anchor_outliving_path():
    """The pack and its derivatives share one anchor check: an anchor that
    ends after the evaluated path is refused, never paired backwards."""
    space = make_space([0.0])
    a = Path.constant(space, 0.25, np.array([0.3]), horizon=0.75)
    pack = GaugePack.anchored(a, 1.0)
    g = Path.constant(space, 0.25, np.array([0.1]), horizon=0.5)
    late = GaugePack.anchored(Path(space, 0.25, [[0.1], [0.4], [0.8]]), 2.0)
    short = Path(space, 0.25, [[0.2], [0.5]])
    cases = [
        (pack, g, "anchor horizon 0.75 beyond evaluated path 0.5"),
        (late, short, "anchor horizon 0.5 beyond evaluated path 0.25"),
    ]
    for p, path, message in cases:
        evaluations = (p.value, lambda x: row_value(p.dt, x), lambda x: row_vector(p.dx, x))
        for evaluate in evaluations:
            with pytest.raises(ValueError, match=message):
                evaluate(path)


def test_pack_refuses_non_finite_weights_and_slopes():
    space = make_space([0.0])
    a = _anchor(space)
    for delta in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="weight"):
            GaugePack(anchors=((a, delta),))
    nan_slope = GaugePack(h_y=lambda s, y: math.nan, anchors=((a, 1.0),))
    g = Path.constant(space, 0.25, np.array([0.1]), horizon=0.5)
    for evaluate in (nan_slope.value, lambda g: row_vector(nan_slope.dx, g)):
        with pytest.raises(ValueError, match="h_y=nan"):
            evaluate(g)


def _assert_pack_matches_one_path_formula(pack, paths):
    want = np.array([one_path_pack_value(pack, g) for g in paths])
    assert formula_paths(pack.rows, paths).tobytes() == want.tobytes()
    assert [pack.value(g) for g in paths] == want.tolist()


@pytest.mark.parametrize(
    "eigenvalues", [[0.0], [0.0, 0.0], [0.0, 0.0, 0.0], [-2.0], [-1.0, -0.4, -0.05]]
)
def test_block_pack_is_bit_exact_against_the_one_path_formula(eigenvalues):
    rng = np.random.default_rng(11)
    space = make_space(eigenvalues)
    dim, step = space.dim, 0.25
    # runs of one node count, a run of all-zero paths (a == 0), lone paths
    paths = []
    for n in (2, 2, 3, 5, 5, 5, 4, 6):
        for _ in range(int(rng.integers(1, 12))):
            paths.append(Path(space, step, rng.normal(scale=2.0, size=(n, dim))))
    paths += [Path.zero(space, step, 0.75)] * 3 + [Path.zero(space, step, 0.25)]
    early = Path(space, step, rng.normal(size=(1, dim)))  # an earlier horizon
    equal = Path(space, step, rng.normal(size=(2, dim)))  # the first run's horizon
    packs = [
        GaugePack.zero(),
        GaugePack.anchored(early, 2.0),
        GaugePack(
            h=lambda s, y: 0.3 * (y - 0.1) + s,
            h_y=lambda s, y: 0.3,
            anchors=((early, 0.7), (equal, 3.0)),
        ),
    ]
    for pack in packs:
        _assert_pack_matches_one_path_formula(pack, paths)


def test_block_pack_is_bit_exact_on_the_runmax_interior_nets():
    sc = runmax()
    for tp in touching_points(sc):
        if tp.label.startswith("interior"):
            net = build_net(sc.coefficients, tp.point, sc.grid, seed=0)
            _assert_pack_matches_one_path_formula(tp.pack_sub, net)


# derivatives on rows against their one-path forms -------------------------

GRIDS = range(1, 17)


def _derivative_rows(rng, sc, n, n_rows=600):
    """n_rows random paths of n nodes on sc's grid as one block, endpoints
    spread over [-2, 2] (zeros among them) so that the eikonal slope mask
    and the runmax strict-end mask each take both values, and a proto."""
    S = rng.normal(scale=0.8, size=(n_rows, n, sc.space.dim))
    S[:, -1, 0] = rng.uniform(-2.0, 2.0, size=n_rows)
    S[::50, -1, 0] = 0.0
    S.flags.writeable = False
    return Path(sc.space, sc.grid.step, S[0]), S


def _assert_rows_are_one_path(f, proto, S, one_path, vector):
    """f on the block S and on each row's one-row block equals one_path at
    each row's path, compared as bytes."""
    block = formula_rows(f, proto, S, vector)
    want = np.array([one_path(Path(proto.space, proto.step, x)) for x in S], dtype=float)
    assert block.tobytes() == want.reshape(block.shape).tobytes()
    for i in range(0, len(S), 37):
        assert formula_rows(f, proto, S[i : i + 1], vector).tobytes() == block[i : i + 1].tobytes()


def _one_path_certificate_derivatives(tp):
    """(dt, dx) of tp's sub and super functionals as they were written one
    path at a time."""
    point = tp.point
    sgn = 1.0 if float(point.endpoint[0]) >= 0.0 else -1.0
    if tp.label.startswith("slope"):
        return ((lambda g: 1.0, lambda g: np.array([sgn])), (lambda g: -1.0, lambda g: np.array([-sgn])))
    if tp.label.startswith("endpoint"):
        return ((lambda g: 1.0, lambda g: np.array([sgn])), (lambda g: 0.0, lambda g: np.array([-sgn])))
    m, x = abs(float(point.samples[1, 0])), float(point.endpoint[0])
    w = -(m**3 / (2.0 * (m**4 - x**4))) * grad_upsilon(2.0, point)
    return ((lambda g: 0.0, lambda g: w.copy()), (lambda g: 0.0, lambda g: np.zeros(1)))


def _one_path_candidate_derivatives(sc):
    """(dt, dx, mask) of sc's classical candidate as they were written one
    path at a time; mask is the slope (eikonal) or strict-end (runmax) test."""
    if sc.name == "eikonal":
        T = sc.grid.T

        def mask(g):
            return abs(float(g.endpoint[0])) > (T - g.horizon)

        dt = lambda g: 1.0 if mask(g) else 0.0  # noqa: E731
    else:

        def mask(g):
            others = np.abs(g.samples[:-1, 0])
            return others.size == 0 or abs(float(g.endpoint[0])) > float(others.max())

        dt = lambda g: 0.0  # noqa: E731
    dx = lambda g: np.array([np.sign(float(g.endpoint[0]))]) if mask(g) else np.array([0.0])  # noqa: E731
    return dt, dx, mask


def _touching_points_or_none(sc) -> list:
    try:
        return touching_points(sc)
    except ValueError:  # eikonal's slope walk refuses the grids from 6 up
        return []


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_certificate_derivatives_are_their_one_path_forms(build):
    rng = np.random.default_rng(17)
    kinds = set()
    for grid in GRIDS:
        sc = build(step=1.0 / grid)
        for tp in _touching_points_or_none(sc):
            proto, S = _derivative_rows(rng, sc, tp.point.n_nodes)
            sides = zip((tp.phi_sub, tp.phi_super), _one_path_certificate_derivatives(tp))
            for phi, (dt, dx) in sides:
                _assert_rows_are_one_path(phi.dt, proto, S, dt, False)
                _assert_rows_are_one_path(phi.dx, proto, S, dx, True)
            kinds.add(re.match("[a-z]+", tp.label).group())
    assert kinds == ({"slope"} if build is eikonal else {"endpoint", "interior"})


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_classical_candidate_derivatives_are_their_one_path_forms(build):
    rng = np.random.default_rng(19)
    seen = set()  # the values the mask took
    for grid in GRIDS:
        sc = build(step=1.0 / grid)
        w, points = classical_candidate(sc)
        dt, dx, mask = _one_path_candidate_derivatives(sc)
        for n in sorted({1, 2, grid + 1} | {g.n_nodes for g in points}):
            proto, S = _derivative_rows(rng, sc, n)
            _assert_rows_are_one_path(w.dt, proto, S, dt, False)
            _assert_rows_are_one_path(w.dx, proto, S, dx, True)
            seen |= {bool(mask(Path(sc.space, sc.grid.step, x))) for x in S}
    assert seen == {True, False}


def _assert_pack_derivatives_match_one_path(pack, paths):
    want_dt = np.array([one_path_pack_dt(pack, g) for g in paths])
    want_dx = np.array([one_path_pack_dx(pack, g) for g in paths])
    assert formula_paths(pack.dt, paths).tobytes() == want_dt.tobytes()
    assert formula_paths(pack.dx, paths, vector=True).tobytes() == want_dx.tobytes()
    for i in range(0, len(paths), 37):  # a single path is the one-row block
        assert row_value(pack.dt, paths[i]) == want_dt[i]
        assert row_vector(pack.dx, paths[i]).tobytes() == want_dx[i].tobytes()


@pytest.mark.parametrize("eigenvalues", [[0.0], [0.0, 0.0, 0.0], [-2.0], [-1.0, -0.4, -0.05]])
def test_pack_derivatives_are_their_one_path_forms(eigenvalues):
    rng = np.random.default_rng(23)
    space = make_space(eigenvalues)
    dim, step = space.dim, 0.25
    paths = [
        Path(space, step, rng.normal(scale=2.0, size=(n, dim)))
        for n in (2, 2, 3, 5, 5, 5, 4, 6)
        for _ in range(int(rng.integers(1, 12)))
    ]
    paths += [Path.zero(space, step, 0.75)] * 3 + [Path.zero(space, step, 0.25)]
    early = Path(space, step, rng.normal(size=(1, dim)))
    equal = Path(space, step, rng.normal(size=(2, dim)))
    packs = [
        GaugePack.zero(),
        GaugePack.anchored(early, 2.0),
        GaugePack(
            h=lambda s, y: 0.3 * (y - 0.1) + s,
            h_t=lambda s, y: 0.5 * y - s,
            h_y=lambda s, y: 0.3 + 0.1 * y,
            anchors=((early, 0.7), (equal, 3.0)),
        ),
    ]
    for pack in packs:
        _assert_pack_derivatives_match_one_path(pack, paths)


def test_certificate_pack_derivatives_are_their_one_path_forms():
    """Every touching point's packs, the anchored and the runmax interior
    ones among them, on 600 rows of the point's node count and on the
    point's net."""
    rng = np.random.default_rng(29)
    kinds = set()
    for build in (eikonal, runmax):
        for grid in (2, 4, 16):
            sc = build(step=1.0 / grid)
            for tp in _touching_points_or_none(sc):
                _, S = _derivative_rows(rng, sc, tp.point.n_nodes)
                rows = [Path(sc.space, sc.grid.step, x) for x in S]
                net = build_net(sc.coefficients, tp.point, sc.grid, seed=0)
                for pack in (tp.pack_sub, tp.pack_super):
                    _assert_pack_derivatives_match_one_path(pack, rows)
                    _assert_pack_derivatives_match_one_path(pack, net)
                kinds.add(re.match("[a-z]+", tp.label).group())
    assert kinds == {"slope", "endpoint", "interior"}


def _refusal(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_block_pack_refuses_as_the_one_path_formula():
    space = make_space([0.0])
    step = 0.25
    paths = [Path(space, step, [[0.1 * i], [0.2 * i], [0.3]]) for i in range(5)]
    y_mid = eval_upsilon(2.0, paths[2])
    cases = [
        # h_y < 0 at the middle row only
        (GaugePack(h_y=lambda s, y: np.where(y == y_mid, -1.0, 1.0)), paths),
        # an anchor beyond the evaluated horizon
        (GaugePack.anchored(Path.zero(space, step, 0.75), 1.0), paths),
        # a pair difference that overflows
        (
            GaugePack.anchored(Path(space, step, [[-1e308]]), 1.0),
            paths + [Path(space, step, [[0.0], [1e308]])],
        ),
        # h_y < 0 on a path of another node count, before a later row of the first
        (
            GaugePack(h_y=lambda s, y: np.where((y == y_mid) | (s < 0.5), -1.0, 1.0)),
            paths[:2] + [Path(space, step, [[0.4], [0.5]])] + paths[2:],
        ),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for pack, rows in cases:
            want = _refusal(lambda: [one_path_pack_value(pack, g) for g in rows])
            assert _refusal(lambda: formula_paths(pack.rows, rows)) == want
            assert _refusal(lambda: [pack.value(g) for g in rows]) == want
    assert "h_y=-1.0" in _refusal(lambda: formula_paths(cases[0][0].rows, paths))


def test_pack_bound_caps_weights_and_anchors():
    space = make_space([0.0])
    a = _anchor(space)
    with pytest.raises(ValueError):
        GaugePack(anchors=((a, 3.0),), bound_N=2.0)
    far = Path.constant(space, 0.25, np.array([5.0]), horizon=0.25)
    with pytest.raises(ValueError):
        GaugePack(anchors=((far, 1.0),), bound_N=2.0)


@pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0])
def test_pack_bound_must_be_positive(bound):
    far = Path.constant(make_space([0.0]), 0.25, np.array([5.0]), horizon=0.25)
    with pytest.raises(ValueError, match="bound_N must be > 0"):
        GaugePack(anchors=((far, 5.0),), bound_N=bound)


# certificate libraries --------------------------------------------------


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_touching_library_has_six_points(build):
    sc = build()
    pts = touching_points(sc)
    assert len(pts) == 6
    for tp in pts:
        assert tp.point.space is sc.space
        assert tp.point.horizon < sc.grid.T
        tp.phi_sub.validate_on([tp.point], t_final=sc.grid.T)
        tp.phi_super.validate_on([tp.point], t_final=sc.grid.T)


def test_touching_library_rejects_feedback():
    with pytest.raises(ValueError):
        touching_points(feedback())


def test_touching_library_survives_coarse_grid():
    # a coarser grid shortens the horizon budget; points must still fit
    sc = eikonal(step=0.5)
    pts = touching_points(sc)
    assert pts
    for tp in pts:
        assert tp.point.horizon < sc.grid.T


def test_classical_candidate_points_inside_horizon():
    for build in (eikonal, runmax):
        sc = build()
        phi, pts = classical_candidate(sc)
        assert pts
        for g in pts:
            assert g.horizon <= sc.grid.T + 1e-12
        with pytest.raises(ValueError):
            classical_candidate(feedback())
