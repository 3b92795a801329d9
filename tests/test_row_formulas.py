"""Test functionals and gauge packs stated on rows: every shipped formula's
block form against its one-path form, the block slope check, and the shape
of the premise scan."""

import re
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from phjb.checks import build_net, gauge_cases, viscosity_check
from phjb.config import load_config
from phjb.gauge import eval_upsilon
from phjb.paths import Path, formula_paths, node_count_groups, sup_norm
from phjb.scenarios import classical_candidate, feedback, touching_points
from phjb.testfn import GaugePack, TestFunctionPhi
from phjb.value import ValueTable

from conftest import grad_upsilon, make_space, one_path_pack_value, row_value, value_at

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"


def _scenario(config, grid, seed):
    return load_config(str(CONFIGS / f"{config}.json"), grid_steps=grid, seed=seed).scenario


def _touching_points(sc) -> list:
    try:
        return touching_points(sc)
    except ValueError:  # eikonal's slope walk refuses the grids from 6 up
        return []


def _one_path_phis(sc, tp) -> tuple:
    """The certificate functionals of tp as they were written one path at a
    time: (sub, super)."""
    point, T = tp.point, sc.grid.T
    x = float(point.endpoint[0])
    sgn = 1.0 if x >= 0.0 else -1.0
    kind = re.match("[a-z]+", tp.label).group()
    if kind == "slope":
        return (
            lambda g: sgn * float(g.endpoint[0]) - (T - g.horizon),
            lambda g: -sgn * float(g.endpoint[0]) + (T - g.horizon),
        )
    if kind == "endpoint":
        t_hat = point.horizon
        return (
            lambda g: sgn * float(g.endpoint[0]) + (g.horizon - t_hat),
            lambda g: -sgn * float(g.endpoint[0]),
        )
    assert kind == "interior"
    m_signed = float(point.samples[1, 0])  # every shipped interior max is at node 1
    m = abs(m_signed)
    sgn_m = 1.0 if m_signed >= 0.0 else -1.0
    w = -(m**3 / (2.0 * (m**4 - x**4))) * grad_upsilon(2.0, point)
    return (
        lambda g: m + float(w @ (g.endpoint - point.endpoint)),
        lambda g: -sgn_m * float(value_at(g, sc.grid.step)[0]),
    )


def _assert_rows_are_the_one_path_form(phi, net, one_path):
    """phi's row formula over the net's groups, on each path's one-row
    block and the one-path formula give the same floats, compared as bytes."""
    block = formula_paths(phi.rows, net)
    assert block.tobytes() == np.array([row_value(phi.rows, g) for g in net]).tobytes()
    assert block.tobytes() == np.array([one_path(g) for g in net]).tobytes()


@pytest.mark.parametrize("config", ["eikonal", "runmax"])
@pytest.mark.parametrize("grid", [4, 8, 16])
def test_every_certificate_block_is_its_one_path_form(config, grid):
    n_points = 0
    for seed in range(4):
        sc = _scenario(config, grid, seed)
        for tp in _touching_points(sc):
            net = build_net(sc.coefficients, tp.point, sc.grid, seed=seed)
            for phi, one_path in zip((tp.phi_sub, tp.phi_super), _one_path_phis(sc, tp)):
                _assert_rows_are_the_one_path_form(phi, net, one_path)
            for pack in (tp.pack_sub, tp.pack_super):
                want = np.array([one_path_pack_value(pack, g) for g in net])
                assert formula_paths(pack.rows, net).tobytes() == want.tobytes()
                assert np.array([pack.value(g) for g in net]).tobytes() == want.tobytes()
            n_points += 1
    assert n_points >= (24 if config == "runmax" or grid == 4 else 0)


def _one_path_eikonal_value(g, grid):
    k_left = grid.n_steps - (g.n_nodes - 1)
    if k_left < 0:
        raise ValueError("prefix outlives the horizon")
    x = float(g.endpoint[0])
    return min(abs(x + k * g.step) for k in range(-k_left, k_left + 1))


@pytest.mark.parametrize("config", ["eikonal", "runmax"])
@pytest.mark.parametrize("grid", [4, 8, 16])
def test_every_classical_candidate_block_is_its_one_path_form(config, grid):
    for seed in range(4):
        sc = _scenario(config, grid, seed)
        w, points = classical_candidate(sc)
        if config == "eikonal":
            one_path = lambda g: _one_path_eikonal_value(g, sc.grid)  # noqa: E731
        else:
            one_path = sup_norm
        for point in points:
            net = build_net(sc.coefficients, point, sc.grid, seed=seed)
            _assert_rows_are_the_one_path_form(w, net, one_path)


def test_the_eikonal_candidate_refuses_a_path_beyond_t_as_before():
    sc = _scenario("eikonal", 4, 0)
    w, _ = classical_candidate(sc)
    late = Path.constant(sc.space, sc.grid.step, np.array([0.3]), horizon=1.25)
    with pytest.raises(ValueError, match="prefix outlives the horizon"):
        row_value(w.rows, late)


@pytest.mark.parametrize("config", ["eikonal", "runmax", "feedback"])
@pytest.mark.parametrize("grid", [4, 8, 16])
def test_linear_and_quadratic_endpoint_blocks_are_their_one_path_forms(config, grid):
    for seed in range(4):
        sc = _scenario(config, grid, seed)
        dim = sc.space.dim
        w = np.random.default_rng(seed).normal(size=dim)
        points = [tp.point for tp in _touching_points(sc)] + [sc.initial]
        for point in points:
            net = build_net(sc.coefficients, point, sc.grid, seed=seed)
            for weights, c in ((np.ones(dim), 0.0), (w, 0.3)):
                _assert_rows_are_the_one_path_form(
                    TestFunctionPhi.linear_endpoint(weights, c=c),
                    net,
                    lambda g: float(weights @ g.endpoint) + c,
                )
            _assert_rows_are_the_one_path_form(
                TestFunctionPhi.quadratic_endpoint(),
                net,
                lambda g: float(g.endpoint @ g.endpoint),
            )


def test_a_block_slope_refuses_at_its_first_bad_row():
    space = make_space([0.0])
    paths = [Path(space, 0.25, [[0.1 * i], [0.5], [0.3 + 0.1 * i]]) for i in range(6)]
    ys = [eval_upsilon(2.0, g) for g in paths]
    assert len(set(ys)) == len(ys)
    proto = paths[0]
    S = np.array([g.samples for g in paths])
    for bad in ({2, 4}, {3}):
        hy = lambda s, y: np.where(np.isin(y, [ys[i] for i in bad]), -1.0, 1.0)  # noqa: E731
        first = min(bad)
        want = f"pack outer slope h_y=-1.0 is not >= 0 at (s={proto.horizon}, y={ys[first]})"
        pack = GaugePack(h_y=hy)
        with pytest.raises(ValueError) as info:
            pack.rows(proto, S)
        assert str(info.value) == want
        with pytest.raises(ValueError) as info:
            pack.value(paths[first])
        assert str(info.value) == want
    nan = GaugePack(h_y=lambda s, y: np.where(y == ys[1], np.nan, 0.5))
    with pytest.raises(ValueError) as info:
        nan.rows(proto, S)
    assert str(info.value) == f"pack outer slope h_y=nan is not >= 0 at (s=0.5, y={ys[1]})"


def test_a_row_formula_must_give_one_float_per_row():
    space = make_space([0.0])
    g = Path(space, 0.25, [[0.1], [0.2]])
    scalar = TestFunctionPhi(
        rows=lambda proto, S: 1.0,
        dt=lambda proto, S: np.zeros(len(S)),
        dx=lambda proto, S: np.zeros((len(S), 1)),
    )
    with pytest.raises(ValueError, match="row formula gave shape"):
        row_value(scalar.rows, g)
    with pytest.raises(ValueError, match="row formula gave shape"):
        formula_paths(scalar.rows, [g, g])


def _interior_mid():
    """runmax@8's interior+mid touching point, its net and the net's values."""
    sc = _scenario("runmax", 8, 0)
    tp = next(tp for tp in touching_points(sc) if tp.label == "interior+mid")
    net = build_net(sc.coefficients, tp.point, sc.grid, seed=0)
    return sc, tp, net, ValueTable(sc.coefficients, sc.grid).values(net)


@pytest.mark.parametrize("side", ["sub", "super"])
def test_the_premise_scan_refuses_a_row_formula_that_gives_one_row(side):
    """One row is the right shape for one path only, so the scan raises the
    block's own shape error and does not scan the block path by path."""
    sc, tp, net, values = _interior_mid()
    phi, pack = (tp.phi_sub, tp.pack_sub) if side == "sub" else (tp.phi_super, tp.pack_super)
    first = replace(phi, rows=lambda proto, S: phi.rows(proto, S[:1]))
    assert row_value(first.rows, tp.point) == row_value(phi.rows, tp.point)
    with pytest.raises(ValueError, match=re.escape("row formula gave shape (1,) for 39 rows")):
        viscosity_check(values, sc.coefficients, tp.point, first, pack, side, net=net)


def test_a_pack_outer_gives_one_float_per_row_or_one_for_all():
    """h, h_t and h_y give an array of y's shape or one shared float; a
    one-element array is not broadcast across the block."""
    sc, tp, net, values = _interior_mid()
    pack = tp.pack_sub
    first = replace(pack, h=lambda s, y: pack.h(s, y)[:1])
    assert first.value(tp.point) == pack.value(tp.point)
    with pytest.raises(ValueError, match=re.escape("pack outer gave shape (1,) for 39 rows")) as info:
        viscosity_check(values, sc.coefficients, tp.point, tp.phi_sub, first, "sub", net=net)
    assert info.type is ValueError  # the block's own error, not a refusal of a row
    shared = formula_paths(replace(pack, h=lambda s, y: 0.5).rows, net)
    per_row = formula_paths(replace(pack, h=lambda s, y: np.full(y.shape, 0.5)).rows, net)
    assert shared.tobytes() == per_row.tobytes()


def test_the_premise_scan_prices_each_group_once(monkeypatch):
    """On runmax@8 nets, per side: one row formula call per node-count
    group outside derivative validation; one h_y call per group, and one
    more for the operator's gradient at the point. The value pass gates
    each group's roots once."""
    sc = _scenario("runmax", 8, 0)
    table = ValueTable(sc.coefficients, sc.grid)
    validating = []
    validate_on = TestFunctionPhi.validate_on

    def counted_validate_on(self, *args, **kwargs):
        validating.append(True)
        try:
            return validate_on(self, *args, **kwargs)
        finally:
            validating.pop()

    monkeypatch.setattr(TestFunctionPhi, "validate_on", counted_validate_on)
    gates = []
    check_root = table._check_root
    monkeypatch.setattr(table, "_check_root", lambda g: gates.append(g) or check_root(g))

    for tp in touching_points(sc):
        net = build_net(sc.coefficients, tp.point, sc.grid, seed=0)
        groups = node_count_groups(net)
        blocks = [S for _, S in groups.values()]
        gates.clear()
        values = table.values(net)
        assert 0 < len(gates) <= len(groups)
        for side, phi, pack in (
            ("sub", tp.phi_sub, tp.pack_sub),
            ("super", tp.phi_super, tp.pack_super),
        ):
            rows_calls, slope_rows = [], []

            def rows(proto, S, base=phi.rows):
                if not validating:
                    rows_calls.append(S)
                return base(proto, S)

            def h_y(s, y, base=pack.h_y):
                slope_rows.append(len(y))
                return base(s, y)

            r = viscosity_check(
                values, sc.coefficients, tp.point, replace(phi, rows=rows),
                replace(pack, h_y=h_y), side, net=net,
            )
            assert r.passed
            assert len(rows_calls) == len(blocks)
            assert all(S is B for S, B in zip(rows_calls, blocks))
            assert sorted(slope_rows) == sorted([len(S) for S in blocks] + [1])


def test_derivative_validation_prices_one_block_per_node_count():
    """On runmax@8 nets, per side, viscosity_check's derivative validation
    calls phi.rows once on its probes (the point and its two vertical bumps)
    with their +-h bumps, 9 rows of the point's node count, and once on
    their flat extensions by one step, 3 rows, after the scan's one call
    per node-count group: not once per probe and bump."""
    sc = _scenario("runmax", 8, 0)
    table = ValueTable(sc.coefficients, sc.grid)
    for tp in touching_points(sc):
        net = build_net(sc.coefficients, tp.point, sc.grid, seed=0)
        values, n = table.values(net), tp.point.n_nodes
        for side, phi, pack in (
            ("sub", tp.phi_sub, tp.pack_sub),
            ("super", tp.phi_super, tp.pack_super),
        ):
            shapes = []

            def rows(proto, S, base=phi.rows):
                assert proto.n_nodes == S.shape[1]
                shapes.append(S.shape)
                return base(proto, S)

            r = viscosity_check(values, sc.coefficients, tp.point, replace(phi, rows=rows), pack, side, net=net)
            assert r.passed
            groups = node_count_groups(net)
            assert shapes[: len(groups)] == [S.shape for _, S in groups.values()]
            assert shapes[len(groups) :] == [(9, n, 1), (3, n + 1, 1)]


def test_the_gauge_cases_are_drawn_with_named_defaults():
    sc = feedback(step=1.0 / 16)
    cases = gauge_cases(sc.coefficients, sc.space, sc.grid, seed=5)
    assert len(cases) == 100
    assert [M for M, *_ in cases] == [2.0, 5.0] * 50
