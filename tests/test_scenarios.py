"""Scenario builders, closed forms, test functions, and gauge packs."""

import numpy as np
import pytest

from phjb.paths import Path
from phjb.scenarios import (
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

from conftest import make_space


# registry and builders --------------------------------------------------


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
        f = sc.coefficients.drift(g, 1.0)
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
        value=lambda g: float(g.endpoint[0]) ** 2,
        dt=lambda g: 0.0,
        dx=lambda g: np.array([1.0]),  # should be 2*end
        label="broken",
    )
    g = Path.constant(space, 0.25, np.array([0.7]), horizon=0.25)
    with pytest.raises(ValueError):
        phi.validate_on([g], t_final=1.0)


def test_shifted_and_time_ramp():
    space = make_space([0.0])
    phi = TestFunctionPhi.quadratic_endpoint()
    g = Path.constant(space, 0.25, np.array([0.5]), horizon=0.5)
    up = phi.shifted(2.0)
    assert up(g) == pytest.approx(phi(g) + 2.0)
    assert up.dt(g) == phi.dt(g)
    ramp = phi.time_ramp(3.0, 1.0)
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


def test_pack_bound_caps_weights_and_anchors():
    space = make_space([0.0])
    a = _anchor(space)
    with pytest.raises(ValueError):
        GaugePack(anchors=((a, 3.0),), bound_N=2.0)
    far = Path.constant(space, 0.25, np.array([5.0]), horizon=0.25)
    with pytest.raises(ValueError):
        GaugePack(anchors=((far, 1.0),), bound_N=2.0)


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
