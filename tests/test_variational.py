"""Perturbed-maximization search on finite nets."""

import contextlib
import io
import math
from pathlib import Path as FsPath

import numpy as np
import pytest

from phjb import checks, cli, value, variational
from phjb import paths as paths_mod
from phjb.checks import build_net
from phjb.config import load_config
from phjb.gauge import pair_gauge_rows
from phjb.paths import GRID_TOL, Net, Path, node_count_groups
from phjb.scenarios import eikonal
from phjb.variational import BPResult, NotEpsMaximal, bp_search, pair_gauge, pair_gauges

from conftest import make_space, net_of, scalar_pair_gauge

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"


def _key(g) -> tuple:
    """A path as its node count, step and sample bytes: a net makes its
    paths on demand, so results are compared by value, not identity."""
    return g.n_nodes, g.step, g.samples.tobytes()


@pytest.fixture(scope="module")
def setting():
    sc = eikonal()
    start = sc.initial
    net = build_net(sc.coefficients, start, sc.grid, seed=0)
    return sc, start, net


def test_gauge_is_zero_only_on_the_diagonal(setting):
    sc, start, net = setting
    assert pair_gauge(start, start) == 0.0
    other = net[len(net) // 2]
    if other is not start:
        assert pair_gauge(start, other) >= 0.0


def test_precondition_guard(setting):
    sc, start, net = setting
    f = lambda g: g.horizon  # start sits at horizon 0, far from the max
    with pytest.raises(NotEpsMaximal, match="eps-maximal") as info:
        bp_search(list(map(f, net)), net, eps=0.01)
    witness = info.value
    assert isinstance(witness, ValueError)
    assert (witness.f_start, witness.f_max, witness.eps) == (0.0, max(g.horizon for g in net), 0.01)
    with pytest.raises(ValueError):
        bp_search(list(map(f, net)), net, eps=-1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_eps_must_be_finite_and_positive(setting, eps):
    sc, start, net = setting
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        bp_search([p.horizon for p in net], net, eps)


def test_at_max_start_terminates_immediately(setting):
    sc, start, net = setting
    f = lambda g: -pair_gauge(start, g)
    res = bp_search(list(map(f, net)), net, eps=0.1)
    assert res.maximizer is start
    assert res.iterations == 1
    assert res.sum_rho == 0.0
    assert res.perturbed_value == res.f_start == 0.0
    assert not res.stalled
    assert res.strict_gap > 0.0


def test_horizon_bonus_run_satisfies_all_postconditions(setting):
    sc, start, net = setting
    eps = 0.3 * (sc.grid.T - start.horizon) + 0.1
    f = lambda g: 0.3 * g.horizon - pair_gauge(start, g)
    res = bp_search(list(map(f, net)), net, eps=eps)
    assert res.maximizer.horizon >= start.horizon
    assert res.perturbed_value >= res.f_start - 1e-12
    assert res.sum_rho <= 2.0 * eps
    for i, term in enumerate(res.rho_terms):
        assert term <= eps / 2.0**i + 1e-12, (i, term)
    assert res.strict_gap > 0.0
    times = res.anchor_times
    assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))
    assert abs(sum(res.rho_terms) - res.sum_rho) <= 1e-12


def test_rho_terms_are_those_of_the_gauge_searched_with(setting):
    sc, start, net = setting

    def rho(a, paths):  # not the default gauge
        return [0.5 * r for r in pair_gauges(a, paths)]

    f = lambda g: g.horizon - pair_gauge(start, g)
    res = bp_search(list(map(f, net)), net, eps=0.3 * sc.grid.T + 0.1, rho=rho)
    assert len(res.anchors) > 1
    assert res.rho_terms == tuple(
        d * rho(a, [res.maximizer])[0] for a, d in zip(res.anchors, res.deltas)
    )
    assert res.sum_rho == sum(res.rho_terms)
    assert res.rho_terms != tuple(
        d * pair_gauge(a, res.maximizer) for a, d in zip(res.anchors, res.deltas)
    )


def test_constant_functional_keeps_the_incumbent(setting):
    sc, start, net = setting
    f = lambda g: 1.0
    res = bp_search(list(map(f, net)), net, eps=0.5)
    assert res.maximizer is start
    assert res.iterations == 1


def test_negative_gauge_is_rejected(setting):
    sc, start, net = setting
    bad = lambda a, paths: [-1.0] * len(paths)
    with pytest.raises(ValueError, match="negative"):
        bp_search([0.0] * len(net), net, eps=0.5, rho=bad)
    short = lambda a, paths: [0.0] * (len(paths) - 1)
    with pytest.raises(ValueError, match="entries for"):
        bp_search([0.0] * len(net), net, eps=0.5, rho=short)


def test_anchor_cap_reports_progress_not_a_crash():
    space = make_space([0.0])
    paths = [
        Path.constant(space, 0.25, np.array([0.01 * k]), horizon=0.0)
        for k in range(8)
    ]
    start = paths[0]
    f = lambda g: float(g.endpoint[0])
    res = bp_search(list(map(f, paths)), net_of(paths), eps=1.0, max_anchors=2)
    assert res.iterations == 2
    assert _key(res.maximizer) != _key(start)
    # everything stays at horizon zero, which the result must disclose
    assert res.stalled


def test_search_is_deterministic(setting):
    sc, start, net = setting
    eps = 0.4
    f = lambda g: 0.3 * g.horizon - pair_gauge(start, g)
    a = bp_search(list(map(f, net)), net, eps=eps)
    b = bp_search(list(map(f, net)), net, eps=eps)
    assert _key(a.maximizer) == _key(b.maximizer)
    assert a.sum_rho == b.sum_rho
    assert a.anchor_times == b.anchor_times


# the search against a plain reference --------------------------------


def reference_bp_search(f, net, start, eps, *, rho=scalar_pair_gauge, delta0=1.0,
                        max_anchors=64, gauge_tol=1e-12):
    """The search summing every anchored gauge afresh at every stage, with
    the scalar gauge formula of the test suite as its default."""
    net = list(net)
    if not any(p is start for p in net):
        net.append(start)
    f_vals = [float(f(p)) for p in net]
    f_max = max(f_vals)
    f_start = float(f(start))
    assert f_start >= f_max - eps
    anchors, deltas, incumbent, iterations = [start], [delta0], start, 0

    def perturbed(g, fg):
        total = fg
        for a, d in zip(anchors, deltas):
            r = rho(a, g)
            assert not r < 0.0  # a NaN gauge is not refused
            total -= d * r
        return total

    while iterations < max_anchors:
        iterations += 1
        best, best_v = incumbent, perturbed(incumbent, float(f(incumbent)))
        for g, fg in zip(net, f_vals):
            if g.horizon < incumbent.horizon - GRID_TOL:
                continue
            v = perturbed(g, fg)
            if v > best_v:
                best, best_v = g, v
        if best is incumbent or rho(incumbent, best) <= gauge_tol:
            break
        anchors.append(best)
        deltas.append(delta0 * 2.0 ** (-len(deltas)))
        incumbent = best

    final_v = perturbed(incumbent, float(f(incumbent)))
    gap = float("inf")
    for g, fg in zip(net, f_vals):
        if g.horizon < incumbent.horizon - GRID_TOL:
            continue
        if rho(incumbent, g) <= gauge_tol:
            continue
        gap = min(gap, final_v - perturbed(g, fg))
    terms = tuple(d * rho(a, incumbent) for a, d in zip(anchors, deltas))
    sum_rho = sum(terms)
    return BPResult(
        maximizer=incumbent,
        anchors=tuple(anchors),
        deltas=tuple(deltas),
        anchor_times=tuple(a.horizon for a in anchors),
        rho_terms=terms,
        f_start=f_start,
        f_max_net=f_max,
        sum_rho=sum_rho,
        perturbed_value=float(f(incumbent)) - sum_rho,
        strict_gap=gap,
        stalled=(incumbent.horizon <= start.horizon + GRID_TOL)
        and (incumbent is not start),
        iterations=iterations,
    )


def assert_same_result(res, ref):
    assert _key(res.maximizer) == _key(ref.maximizer)
    assert [_key(a) for a in res.anchors] == [_key(b) for b in ref.anchors]
    for name in ("deltas", "anchor_times", "rho_terms", "f_start", "f_max_net",
                 "sum_rho", "perturbed_value", "strict_gap", "stalled", "iterations"):
        assert getattr(res, name) == getattr(ref, name), name


def counting(rho):
    """rho, counting its calls and the gauges they return."""
    calls, gauges = [0], [0]

    def counted(a, paths):
        calls[0] += 1
        row = rho(a, paths)
        gauges[0] += len(row)
        return row

    return counted, calls, gauges


@pytest.mark.parametrize("config", ["eikonal", "runmax", "feedback"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_search_matches_the_reference_with_one_gauge_per_anchor_and_path(config, seed):
    sc = load_config(str(CONFIGS / f"{config}.json"), seed=seed).scenario
    start = sc.initial
    net = build_net(sc.coefficients, start, sc.grid, seed=seed)
    t0, T = start.horizon, sc.grid.T
    modes = [  # the two modes of the bp check
        (lambda g: -pair_gauge(start, g), 0.1),
        (lambda g: g.horizon - pair_gauge(start, g), 0.3 * (T - t0) + 0.1),
    ]
    for f, eps in modes:
        rho, calls, gauges = counting(pair_gauges)
        res = bp_search(list(map(f, net)), net, eps, rho=rho)
        assert_same_result(res, reference_bp_search(f, net, start, eps))
        k = len(res.anchors)
        assert calls[0] == k
        assert gauges[0] <= k * len(net), (gauges[0], k, len(net))


def test_anchor_cap_matches_the_reference():
    space = make_space([0.0])
    paths = [
        Path.constant(space, 0.25, np.array([0.01 * k]), horizon=0.0)
        for k in range(8)
    ]
    f = lambda g: float(g.endpoint[0])
    for cap in (1, 2, 5, 64):
        res = bp_search(list(map(f, paths)), net_of(paths), eps=1.0, max_anchors=cap)
        assert_same_result(
            res, reference_bp_search(f, paths, paths[0], eps=1.0, max_anchors=cap)
        )


def test_bp_check_takes_one_gauge_row_per_anchor(monkeypatch):
    """The bp check makes no scalar gauge call, and each search calls its
    row gauge once per anchor."""
    scalar = [0]

    def scalar_gauge(a, g):
        scalar[0] += 1
        return pair_gauge(a, g)

    monkeypatch.setattr(variational, "pair_gauge", scalar_gauge)
    monkeypatch.setattr(checks, "pair_gauge", scalar_gauge, raising=False)
    searches = []

    def search(f, net, eps, **kw):
        rho, calls, _ = counting(kw.pop("rho") if "rho" in kw else variational.pair_gauges)
        res = bp_search(f, net, eps, rho=rho, **kw)
        searches.append((calls[0], len(res.anchors)))
        return res

    monkeypatch.setattr(checks, "bp_search", search)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.execute(str(CONFIGS / "feedback.json"), checks=("bp",), grid=16, seed=0)
    assert code == 0
    assert scalar[0] == 0
    assert len(searches) == 2
    assert all(calls == anchors for calls, anchors in searches), searches


def test_every_anchor_gauges_the_net_itself_a_node_count_group_at_a_time(monkeypatch):
    """Every row gauge call gets the net itself, and `pair_gauges` runs one
    `pair_gauge_rows` block per node-count group that does not end before
    the anchor."""
    sc = load_config(str(CONFIGS / "runmax.json"), grid_steps=8, seed=0).scenario
    start = sc.initial
    net = build_net(sc.coefficients, start, sc.grid, seed=0)
    blocks = [0]

    def block(anchor, proto, S):
        blocks[0] += 1
        return pair_gauge_rows(anchor, proto, S)

    monkeypatch.setattr(variational, "pair_gauge_rows", block)
    pools, per_anchor = [], []

    def rho(anchor, paths):
        pools.append(paths)
        before = blocks[0]
        row = pair_gauges(anchor, paths)
        per_anchor.append(blocks[0] - before)
        return row

    f = lambda g: g.horizon - pair_gauge(start, g)  # the bp check's horizon-bonus mode
    eps = 0.3 * (sc.grid.T - start.horizon) + 0.1
    res = bp_search(list(map(f, net)), net, eps, rho=rho)
    assert_same_result(res, reference_bp_search(f, net, start, eps))
    assert any(a.horizon > start.horizon + GRID_TOL for a in res.anchors)
    assert all(p is net for p in pools)
    horizons = [net[rows[0]].horizon for rows, _ in node_count_groups(net).values()]
    assert per_anchor == [
        sum(h >= a.horizon - GRID_TOL for h in horizons) for a in res.anchors
    ]


@pytest.mark.parametrize("config", ["eikonal", "runmax", "feedback"])
def test_a_bp_cell_groups_no_list_of_paths(monkeypatch, config):
    """Every reader in a bp cell reads the grouping the net was built with."""
    grouped = []

    def groups(paths):
        grouped.append(type(paths))
        return node_count_groups(paths)

    for mod in (paths_mod, variational, checks, value):
        if hasattr(mod, "node_count_groups"):  # the scan reads `Net.groups` itself
            monkeypatch.setattr(mod, "node_count_groups", groups)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.execute(str(CONFIGS / f"{config}.json"), checks=("bp",), grid=16, seed=0)
    assert grouped and all(t is Net for t in grouped), grouped


# the contract of the array form, against the reference -------------------


def test_an_f_of_the_wrong_length_is_refused(setting):
    sc, start, net = setting
    for f in ([0.0] * (len(net) - 1), [0.0] * (len(net) + 1), [[0.0]] * len(net)):
        with pytest.raises(ValueError, match="one value per net path"):
            bp_search(f, net, eps=0.5)


def _modes(sc, start):
    """The bp check's two modes as (f, eps), f a function of a path."""
    t0, T = start.horizon, sc.grid.T
    return [
        (lambda g: -pair_gauge(start, g), 0.1),
        (lambda g: g.horizon - pair_gauge(start, g), 0.3 * (T - t0) + 0.1),
    ]


def test_a_nan_in_f_is_passed_over_as_the_scan_passes_it(setting):
    sc, start, net = setting
    paths = list(net)  # the net's paths, made once, for the reference
    for f, eps in _modes(sc, start):
        plain = bp_search(list(map(f, paths)), net, eps)
        winner = next(i for i, g in enumerate(paths) if _key(g) == _key(plain.maximizer))
        for k in {winner, 1, len(net) // 2, len(net) - 1} - {0}:
            values = list(map(f, paths))
            values[k] = float("nan")
            by_path = dict(zip(map(id, paths), values))
            res = bp_search(values, net, eps)
            ref = reference_bp_search(lambda g: by_path[id(g)], paths, start, eps)
            assert_same_result(res, ref)
            assert ref.maximizer is not paths[k]  # the net repeats some paths' bytes


def test_a_nan_in_a_gauge_row_is_passed_over_as_the_scan_passes_it(setting):
    sc, start, net = setting
    paths = list(net)
    f, eps = _modes(sc, start)[1]
    plain = bp_search(list(map(f, paths)), net, eps)
    anchors = {_key(a) for a in plain.anchors[1:]}
    for k in {i for i, g in enumerate(paths) if _key(g) in anchors}:
        nan_at = paths[k]

        def rho(a, pool):
            row = np.array(pair_gauges(a, pool))
            row[k] = float("nan")
            return row

        def scalar(a, g):
            return float("nan") if g is nan_at else scalar_pair_gauge(a, g)

        res = bp_search(list(map(f, paths)), net, eps, rho=rho)
        ref = reference_bp_search(f, paths, start, eps, rho=scalar)
        assert_same_result(res, ref)
        assert ref.maximizer is not nan_at


def test_a_net_that_lists_one_path_twice(setting):
    sc, start, net = setting
    paths = list(net)
    for f, eps in _modes(sc, start):
        plain = bp_search(list(map(f, paths)), net, eps)
        for twice in (
            [*paths, plain.maximizer],
            [paths[0], plain.maximizer, *paths[1:]],
            [*paths, start._head(start.n_nodes)],
        ):
            res = bp_search(list(map(f, twice)), net_of(twice), eps)
            assert_same_result(res, reference_bp_search(f, twice, start, eps))


@pytest.mark.parametrize("zero", [-0.0, 0.0])
def test_a_tie_of_zero_gaps_keeps_the_zero_that_min_keeps(zero):
    """The incumbent's perturbed value is a signed zero and every other
    path's is 0.0, so every difference in the strictness scan is a zero of
    the incumbent's sign: the strict gap is that zero, as `min` keeps it,
    and a competing 0.0 does not displace an incumbent at -0.0."""
    space = make_space([0.0])
    paths = [Path.constant(space, 0.25, np.array([0.01 * k]), horizon=0.0) for k in range(4)]
    scalar = lambda a, g: 0.0 if _key(g) == _key(a) else 1.0
    rho = lambda a, net: [scalar(a, g) for g in net]
    values = [zero, 1.0, 1.0, 1.0]
    by_path = dict(zip(map(id, paths), values))
    res = bp_search(values, net_of(paths), eps=1.0, rho=rho)
    ref = reference_bp_search(lambda g: by_path[id(g)], paths, paths[0], eps=1.0, rho=scalar)
    assert_same_result(res, ref)
    assert res.maximizer is paths[0]
    assert res.strict_gap == 0.0
    assert math.copysign(1.0, res.strict_gap) == math.copysign(1.0, ref.strict_gap) == math.copysign(1.0, zero)
