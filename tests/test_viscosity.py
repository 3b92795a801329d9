"""Certificate-based sub/supersolution checks on the closed-form scenarios."""

from dataclasses import replace

import numpy as np
import pytest

from phjb.checks import ViscosityResult, build_net, viscosity_check
from phjb.paths import Net, vertical_bump
from phjb.testfn import GaugePack, TestFunctionPhi
from phjb.scenarios import eikonal, runmax, touching_points
from phjb.value import ValueTable, hamiltonian

from conftest import row_value, row_vector, time_ramp


def _setup(build):
    sc = build()
    table = ValueTable(sc.coefficients, sc.grid)
    pts = touching_points(sc)
    nets = {
        tp.label: build_net(sc.coefficients, tp.point, sc.grid, seed=0) for tp in pts
    }
    values = {label: table.values(net) for label, net in nets.items()}
    return sc, values, pts, nets


def _clock(net, T):
    """T - s at every path of the net."""
    return np.array([T - g.horizon for g in net])


@pytest.fixture(scope="module")
def eik():
    return _setup(eikonal)


@pytest.fixture(scope="module")
def rmx():
    return _setup(runmax)


# both sides pass at every certified point -------------------------------


@pytest.mark.parametrize("which", ["eik", "rmx"])
def test_value_passes_both_sides(which, request):
    sc, values, pts, nets = request.getfixturevalue(which)
    for tp in pts:
        for side, phi, pack in (
            ("sub", tp.phi_sub, tp.pack_sub),
            ("super", tp.phi_super, tp.pack_super),
        ):
            r = viscosity_check(
                values[tp.label], sc.coefficients, tp.point, phi, pack, side,
                net=nets[tp.label], label=tp.label,
            )
            assert r.passed, (tp.label, side, r.margin, r.witness_gap)
            assert r.premise_ok
            assert r.witness is None
            assert abs(r.renorm) <= 1e-12
            assert r.net_size >= 30


@pytest.mark.parametrize("which", ["eik", "rmx"])
def test_tangency_margins_are_tight(which, request):
    # every sub margin is exactly zero; super margins are zero except the
    # endpoint-max family, where the clock term leaves slack 1
    sc, values, pts, nets = request.getfixturevalue(which)
    for tp in pts:
        sub = viscosity_check(
            values[tp.label], sc.coefficients, tp.point, tp.phi_sub, tp.pack_sub,
            "sub", net=nets[tp.label],
        )
        assert abs(sub.margin) <= 1e-12, (tp.label, sub.margin)
        sup = viscosity_check(
            values[tp.label], sc.coefficients, tp.point, tp.phi_super, tp.pack_super,
            "super", net=nets[tp.label],
        )
        assert sup.margin <= 1e-12
        assert sup.margin >= -1.0 - 1e-12


# certificate reuse must refuse a shifted function -----------------------


@pytest.mark.parametrize("which", ["eik", "rmx"])
def test_added_clock_breaks_the_super_premise(which, request):
    sc, values, pts, nets = request.getfixturevalue(which)
    T = sc.grid.T
    for tp in pts:
        w_plus = values[tp.label] + _clock(nets[tp.label], T)
        r = viscosity_check(
            w_plus, sc.coefficients, tp.point, tp.phi_super, tp.pack_super,
            "super", net=nets[tp.label],
        )
        assert not r.passed
        assert not r.premise_ok
        assert r.witness is not None
        # the witness runs the clock forward; its gain is the elapsed time
        assert r.witness_gap == pytest.approx(T - tp.point.horizon, abs=1e-9)


def test_retangented_clock_shift_fails_on_margin(eik):
    sc, values, pts, nets = eik
    T = sc.grid.T
    tol = 1e-3
    for tp in pts:
        w_plus = values[tp.label] + _clock(nets[tp.label], T)
        w_minus = values[tp.label] - _clock(nets[tp.label], T)
        up = viscosity_check(
            w_plus, sc.coefficients, tp.point, time_ramp(tp.phi_sub, 1.0, T),
            tp.pack_sub, "sub", net=nets[tp.label],
        )
        assert up.premise_ok
        assert up.margin <= -(1.0 - tol)
        assert not up.passed
        # premise keeps w + phi + pack fixed, so phi gains +(T-s) here too
        dn = viscosity_check(
            w_minus, sc.coefficients, tp.point, time_ramp(tp.phi_super, 1.0, T),
            tp.pack_super, "super", net=nets[tp.label],
        )
        assert dn.premise_ok
        assert dn.margin >= 1.0 - tol
        assert not dn.passed


# interface guards -------------------------------------------------------


def test_side_string_is_validated(eik):
    sc, values, pts, nets = eik
    tp = pts[0]
    with pytest.raises(ValueError):
        viscosity_check(
            values[tp.label], sc.coefficients, tp.point, tp.phi_sub, tp.pack_sub,
            "above", net=nets[tp.label],
        )


def test_wrong_slope_certificate_is_refused_not_scored(eik):
    sc, values, pts, nets = eik
    tp = pts[0]
    sgn = float(np.sign(tp.point.endpoint[0]))
    bad = TestFunctionPhi(
        rows=lambda proto, S: -sgn * S[:, -1, 0] - (sc.grid.T - proto.horizon),
        dt=lambda proto, S: np.ones(len(S)),
        dx=lambda proto, S: np.full((len(S), 1), -sgn),
        label="wrong-slope",
    )
    r = viscosity_check(
        values[tp.label], sc.coefficients, tp.point, bad, GaugePack.zero(),
        "sub", net=nets[tp.label],
    )
    assert not r.premise_ok
    assert r.witness is not None
    assert not r.passed


def test_net_must_start_at_the_point_and_values_cover_it(eik):
    sc, values, pts, nets = eik
    tp, other = pts[0], pts[1]
    net = nets[tp.label]
    with pytest.raises(ValueError, match="at the point itself"):
        viscosity_check(
            values[other.label], sc.coefficients, tp.point, tp.phi_sub, tp.pack_sub,
            "sub", net=nets[other.label],
        )
    with pytest.raises(ValueError, match="one per net path"):
        viscosity_check(
            values[tp.label][:-1], sc.coefficients, tp.point, tp.phi_sub, tp.pack_sub,
            "sub", net=net,
        )


# a NaN gap fails the premise --------------------------------------------


@pytest.mark.parametrize("side", ["sub", "super"])
def test_nan_gap_fails_the_premise_with_the_first_nan_path(rmx, side):
    sc, values, pts, nets = rmx
    for tp in pts:
        net = nets[tp.label]
        phi, pack = (tp.phi_sub, tp.pack_sub) if side == "sub" else (tp.phi_super, tp.pack_super)
        # a NaN candidate at two paths: the first one is the witness
        w = values[tp.label].copy()
        w[[7, 11]] = np.nan
        r = viscosity_check(w, sc.coefficients, tp.point, phi, pack, side, net=net)
        assert not r.premise_ok and not r.passed
        assert r.witness.samples.tobytes() == net.path(7).samples.tobytes()
        assert np.isnan(r.witness_gap)
        # a NaN renormalization makes every gap NaN: the point is the witness
        w = values[tp.label].copy()
        w[0] = np.nan
        r = viscosity_check(w, sc.coefficients, tp.point, phi, pack, side, net=net)
        assert not r.premise_ok and not r.passed
        assert r.witness is net[0]
        assert np.isnan(r.renorm) and np.isnan(r.witness_gap)


# the array scan against the path-by-path scan it replaced ---------------


def _path_by_path_check(w, coeffs, point, phi, pack, side, *, net, tol=1e-3, label=""):
    """viscosity_check as it scanned the premise one path at a time, with
    the candidate w a callable and a strict `>` scan."""
    sgn = 1.0 if side == "sub" else -1.0
    probes = [point]
    for k in range(point.space.dim):
        e = np.zeros(point.space.dim)
        e[k] = 0.05
        probes.append(vertical_bump(point, e))
        probes.append(vertical_bump(point, -e))
    phi.validate_on(Net.of(probes), t_final=max(p.horizon for p in net))

    def f(g):
        return float(w(g)) - sgn * (row_value(phi.rows, g) + pack.value(g))

    renorm = f(point)
    worst_gap = 0.0
    witness = None
    for g in net:
        if g.horizon < point.horizon - 1e-12:
            continue
        v = f(g) - renorm
        gap = v if side == "sub" else -v
        if gap > worst_gap:
            worst_gap = gap
            witness = g
    premise_ok = worst_gap <= 1e-9
    if premise_ok:
        witness = None

    psi_dt = sgn * (row_value(phi.dt, point) + row_value(pack.dt, point))
    psi_dx = sgn * (row_vector(phi.dx, point) + row_vector(pack.dx, point))
    adj = float(point.space.adjoint_apply(psi_dx) @ point.endpoint)
    hmin, _ = hamiltonian(coeffs, point, psi_dx)
    margin = psi_dt + adj + hmin
    inequality_ok = margin >= -tol if side == "sub" else margin <= tol
    return ViscosityResult(
        side=side,
        label=label or phi.label,
        premise_ok=premise_ok,
        witness=witness,
        witness_gap=worst_gap,
        renorm=renorm,
        margin=margin,
        inequality_ok=inequality_ok,
        passed=premise_ok and inequality_ok,
        net_size=len(net),
        terms={"dt": psi_dt, "adjoint": adj, "hamiltonian": hmin},
    )


@pytest.mark.parametrize("which", ["eik", "rmx"])
def test_array_scan_matches_the_path_by_path_scan(which, request):
    sc, values, pts, nets = request.getfixturevalue(which)
    T = sc.grid.T
    table = ValueTable(sc.coefficients, sc.grid)
    plus = lambda g: table.value(g) + (T - g.horizon)
    minus = lambda g: table.value(g) - (T - g.horizon)
    n_witnesses = 0
    for tp in pts:
        net = nets[tp.label]
        candidates = [
            (table.value, tp.phi_sub, tp.pack_sub, "sub"),
            (table.value, tp.phi_super, tp.pack_super, "super"),
            (plus, tp.phi_super, tp.pack_super, "super"),
            (plus, tp.phi_sub, tp.pack_sub, "sub"),
            (plus, time_ramp(tp.phi_sub, 1.0, T), tp.pack_sub, "sub"),
            (minus, tp.phi_sub, tp.pack_sub, "sub"),
            (minus, time_ramp(tp.phi_super, 1.0, T), tp.pack_super, "super"),
            (table.value, tp.phi_super, tp.pack_sub, "sub"),  # the other side's slope
        ]
        for w, phi, pack, side in candidates:
            got = viscosity_check(
                np.array([w(g) for g in net]), sc.coefficients, tp.point, phi, pack,
                side, net=net, label=tp.label,
            )
            want = _path_by_path_check(
                w, sc.coefficients, tp.point, phi, pack, side, net=net, label=tp.label
            )
            assert (got.witness is None) == (want.witness is None)
            if want.witness is not None:  # the same row: a net makes its paths on demand
                assert got.witness.samples.tobytes() == want.witness.samples.tobytes()
            assert replace(got, witness=None) == replace(want, witness=None)
            n_witnesses += want.witness is not None
    assert n_witnesses >= len(pts)
