"""Scenario builders, closed forms, test functions, and gauge packs."""

import math

import numpy as np
import pytest

from phjb.checks import build_net, perturbed
from phjb.gauge import eval_upsilon
from phjb.paths import Path, sup_norm
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
from phjb.testfn import GaugePack, TestFunctionPhi, differentiability_probe

from conftest import grouped, make_space, one_path_pack_value, time_ramp


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
        state_key=lambda g: g.samples[-1],
    ),
    "runmax": dict(
        drift=lambda g, u: np.array([u]),
        running_cost=lambda g, u: 0.0,
        terminal_cost=sup_norm,
        state_key=lambda g: np.array([*g.samples[-1], sup_norm(g)]),
    ),
    "feedback": dict(
        drift=lambda g, u: u * _E1 - _retract(g.endpoint),
        running_cost=lambda g, u: _norm(g.endpoint),
        terminal_cost=lambda g: _norm(g.endpoint),
        state_key=lambda g: g.samples[-1],
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


def _as_bytes(K):
    """A statistic block as the memo compares it: its shape and its bytes."""
    return K.shape, np.ascontiguousarray(K).tobytes()


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
    keys = np.array([scalar["state_key"](p) for p in paths])  # one statistic row a path
    assert np.asarray(c.drift(S, U), dtype=float).tobytes() == drift.tobytes()
    assert np.asarray(c.running_cost(S, U), dtype=float).tobytes() == q.tobytes()
    assert np.asarray(c.terminal_cost(S), dtype=float).tobytes() == phi.tobytes()
    assert _as_bytes(c.state_key(S)) == _as_bytes(keys)  # bytes tell -0.0 from 0.0
    # a single path is the one-row block
    for i in range(0, len(S), 37):
        one, u = S[i : i + 1], U[i : i + 1]
        assert np.asarray(c.drift(one, u), dtype=float).tobytes() == drift[i : i + 1].tobytes()
        assert np.asarray(c.running_cost(one, u), dtype=float).tobytes() == q[i : i + 1].tobytes()
        assert np.asarray(c.terminal_cost(one), dtype=float).tobytes() == phi[i : i + 1].tobytes()
        assert _as_bytes(c.state_key(one)) == _as_bytes(keys[i : i + 1])


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
    assert phi(g) == pytest.approx(0.3 + 2.0 * 0.4 - 1.0 * (-0.3))
    phi.validate_on([g], t_final=1.0)


def test_validate_on_catches_wrong_gradient():
    space = make_space([0.0])
    phi = TestFunctionPhi(
        rows=lambda proto, S: S[:, -1, 0] ** 2,
        dt=lambda g: 0.0,
        dx=lambda g: np.array([1.0]),  # should be 2*end
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
            rows=lambda proto, S: S[:, -1, 0], dt=lambda g: dt, dx=lambda g: np.array(dx)
        )

    endpoint(0.0, [1.0]).validate_on([g], t_final=1.0)  # the true derivatives
    with pytest.raises(ValueError, match="derivative off by nan"):
        endpoint(dt, dx).validate_on([g], t_final=1.0)


def test_shifted_and_time_ramp():
    space = make_space([0.0])
    phi = TestFunctionPhi.quadratic_endpoint()
    g = Path.constant(space, 0.25, np.array([0.5]), horizon=0.5)
    ramp = time_ramp(phi, 3.0, 1.0)
    assert ramp(g) == pytest.approx(phi(g) + 3.0 * 0.5)
    assert ramp.dt(g) == pytest.approx(phi.dt(g) - 3.0)
    np.testing.assert_allclose(ramp.dx(g), phi.dx(g))


def test_probe_passes_smooth_and_flags_cone():
    space = make_space([0.0])
    g = Path.constant(space, 0.25, np.array([0.4]), horizon=0.5)
    smooth = TestFunctionPhi.quadratic_endpoint()
    assert differentiability_probe(smooth.value, smooth.dt, smooth.dx, g, t_final=1.0)
    cone = lambda p: abs(float(p.endpoint[0]) - 0.4)
    assert not differentiability_probe(
        cone, lambda p: 0.0, lambda p: np.zeros(1), g, t_final=1.0
    )


# gauge packs ------------------------------------------------------------


def _anchor(space):
    return Path.constant(space, 0.25, np.array([0.3]), horizon=0.25)


def test_anchored_pack_value_and_derivatives():
    space = make_space([0.0])
    a = _anchor(space)
    pack = GaugePack.anchored(a, 2.0)
    g = Path(space, 0.25, np.array([[0.3], [0.3], [0.8]]))
    assert pack.value(g) > 0.0
    assert pack.dt(g) == pytest.approx(2.0 * 2 * (0.5 - 0.25))
    assert pack.dx(g).shape == (1,)
    zero = GaugePack.zero()
    assert zero.value(g) == 0.0
    assert zero.dt(g) == 0.0


def test_pack_rejects_bad_weights_and_negative_hy():
    space = make_space([0.0])
    a = _anchor(space)
    with pytest.raises(ValueError):
        GaugePack(anchors=((a, -1.0),))
    bad = GaugePack(h_y=lambda s, y: -1.0, anchors=((a, 1.0),))
    g = Path.constant(space, 0.25, np.array([0.1]), horizon=0.5)
    with pytest.raises(ValueError):
        bad.dx(g)


def test_pack_rejects_anchor_outliving_path():
    space = make_space([0.0])
    a = Path.constant(space, 0.25, np.array([0.3]), horizon=0.75)
    pack = GaugePack.anchored(a, 1.0)
    g = Path.constant(space, 0.25, np.array([0.1]), horizon=0.5)
    with pytest.raises(ValueError):
        pack.value(g)


def test_pack_refuses_non_finite_weights_and_slopes():
    space = make_space([0.0])
    a = _anchor(space)
    for delta in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="weight"):
            GaugePack(anchors=((a, delta),))
    nan_slope = GaugePack(h_y=lambda s, y: math.nan, anchors=((a, 1.0),))
    g = Path.constant(space, 0.25, np.array([0.1]), horizon=0.5)
    for evaluate in (nan_slope.value, nan_slope.dx):
        with pytest.raises(ValueError, match="h_y=nan"):
            evaluate(g)


def _assert_pack_matches_one_path_formula(pack, paths):
    want = np.array([one_path_pack_value(pack, g) for g in paths])
    assert grouped(pack.rows, paths).tobytes() == want.tobytes()
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
            assert _refusal(lambda: grouped(pack.rows, rows)) == want
            assert _refusal(lambda: [pack.value(g) for g in rows]) == want
    assert "h_y=-1.0" in _refusal(lambda: grouped(cases[0][0].rows, paths))


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
