"""Comparison nets: the block-built net against the per-path construction,
its read-only grouping, and every reader of a net against the same paths
as a plain list."""

import sys
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from phjb.checks import build_net, viscosity_check
from phjb.config import load_config
from phjb.dynamics import step_rows
from phjb.paths import GRID_TOL, Net, Path, extend_semigroup, formula_paths, node_count_groups
from phjb.scenarios import eikonal, runmax, touching_points
from phjb.value import ValueTable
from phjb.variational import pair_gauges

from conftest import net_of, time_ramp

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"


def per_path_build_net(coeffs, point, grid, *, seed=0) -> list:
    """build_net as it made its paths one at a time: each extension, edit
    and wiggle a validated `Path` of its own."""
    rng = np.random.default_rng(seed)
    space = point.space
    h = grid.step
    net = [point]
    for s in grid.times:
        if s > point.horizon + GRID_TOL:
            net.append(extend_semigroup(point, s))
    level = point.samples[None]
    width = len(coeffs.control_set)
    while level.shape[1] <= grid.n_steps and len(net) + width * len(level) <= 400:
        level = step_rows(coeffs, point, level, coeffs.control_set)[2]
        net.extend(point._trusted(x) for x in level)
    for j in range(point.n_nodes):
        for k in range(space.dim):
            for d in (1e-3, 1e-2, 0.05, 0.1, 0.3):
                for sign in (1.0, -1.0):
                    samples = point.samples.copy()
                    samples[j, k] += sign * d
                    net.append(Path(space, h, samples))
    for s in grid.times:
        if s < point.horizon - GRID_TOL:
            continue
        base = extend_semigroup(point, s)
        for r in (0.05, 0.2, 0.5, 1.0):
            for _ in range(2):
                noise = rng.normal(scale=r, size=base.samples.shape)
                net.append(Path(space, h, base.samples + noise))
    return net


def _points(sc) -> list:
    """The touching points that fit the scenario's grid, then the initial path."""
    try:
        points = [tp.point for tp in touching_points(sc)]
    except ValueError:  # eikonal's slope walk refuses the grids from 6 up
        points = []
    return points + [sc.initial]


def _same_groups(got, want) -> bool:
    return list(got) == list(want) and all(
        np.array_equal(got[n][0], want[n][0]) and got[n][1].tobytes() == want[n][1].tobytes()
        for n in want
    )


@pytest.mark.parametrize("config", ["eikonal", "runmax"])
@pytest.mark.parametrize("grid", [4, 8, 16])
def test_the_block_built_net_is_the_per_path_net(config, grid):
    for seed in range(4):
        sc = load_config(str(CONFIGS / f"{config}.json"), grid_steps=grid, seed=seed).scenario
        for point in _points(sc):
            net = build_net(sc.coefficients, point, sc.grid, seed=seed)
            want = per_path_build_net(sc.coefficients, point, sc.grid, seed=seed)
            assert isinstance(net, Net) and net[0] is point
            assert [g.n_nodes for g in net] == [g.n_nodes for g in want]
            for g, w in zip(net, want):
                assert g.space is point.space and g.step == point.step
                assert g.samples.dtype == np.float64
                assert g.samples.tobytes() == w.samples.tobytes()
            assert _same_groups(node_count_groups(net), node_count_groups(want))


def test_a_net_and_its_grouping_are_read_only():
    sc = runmax()
    net = build_net(sc.coefficients, sc.initial, sc.grid, seed=0)
    groups = node_count_groups(net)
    assert groups is node_count_groups(net)  # made once, when the net was built
    assert not hasattr(net, "append") and not hasattr(net, "extend")
    with pytest.raises(TypeError):
        net[1] = net[0]
    with pytest.raises(AttributeError):  # a net holds its point, groups and horizons only
        net.paths = [net[0]]
    assert not net.horizons.flags.writeable
    with pytest.raises(ValueError):
        net.horizons[0] = 1.0
    for g in net:
        assert not g.samples.flags.writeable
        with pytest.raises(ValueError):
            g.samples[0, 0] = 1.0
    with pytest.raises(TypeError):
        groups[0] = groups[net[0].n_nodes]
    assert not hasattr(groups, "pop")
    for rows, S in groups.values():
        assert not rows.flags.writeable and not S.flags.writeable
        with pytest.raises(ValueError):
            S[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            rows[0] = 0


def _bytes_of(paths) -> list:
    return [(g.n_nodes, g.step, g.samples.tobytes()) for g in paths]


@pytest.mark.parametrize("build", [eikonal, runmax])
def test_joined_nets_group_as_their_paths_do_end_to_end(build):
    sc = build()
    nets = [build_net(sc.coefficients, p, sc.grid, seed=1) for p in _points(sc)]
    assert len(nets) > 2
    joined = Net.joined(nets)
    assert isinstance(joined, Net) and joined.point is nets[0].point
    assert _bytes_of(joined) == _bytes_of(g for net in nets for g in net)
    assert joined.horizons.tobytes() == np.concatenate([net.horizons for net in nets]).tobytes()
    assert _same_groups(node_count_groups(joined), node_count_groups(list(joined)))
    for rows, S in node_count_groups(joined).values():
        assert not rows.flags.writeable and not S.flags.writeable
        # the nets' own blocks, end to end, not a regrouping of their paths
        assert S.tobytes() == b"".join(
            net.groups[S.shape[1]][1].tobytes() for net in nets if S.shape[1] in net.groups
        )
    for net in nets:  # each net keeps its own grouping
        assert _same_groups(node_count_groups(net), node_count_groups(list(net)))
    assert len(Net.joined([])) == 0 and not node_count_groups(Net.joined([]))


def test_the_join_of_no_nets_is_empty():
    empty = Net.joined([])
    assert len(empty) == 0 and not empty and empty.point is None
    assert not empty.groups and empty.horizons.shape == (0,)
    assert list(empty) == []
    with pytest.raises(IndexError):
        empty.path(0)
    sc = runmax()
    table = ValueTable(sc.coefficients, sc.grid)
    assert table.values(empty).shape == (0,) and not table.memo


def test_net_paths_are_views_of_their_group_blocks():
    for build in (eikonal, runmax):
        sc = build()
        for point in _points(sc):
            net = build_net(sc.coefficients, point, sc.grid, seed=2)
            for rows, S in node_count_groups(net).values():
                for r, i in enumerate(rows.tolist()):
                    if i == 0:  # the point itself, copied into its group
                        assert net[0] is point and not np.shares_memory(S, point.samples)
                        continue
                    assert net[i].samples.base is not None
                    assert np.shares_memory(net[i].samples, S)
                    assert net[i].samples.__array_interface__ == S[r].__array_interface__


# every reader gives on a net what it gives on the net's paths as a list ---


def _nets():
    """(scenario, touching point, net) for every certified point of both
    closed-form scenarios at their default grids."""
    out = []
    for build in (eikonal, runmax):
        sc = build()
        for tp in touching_points(sc):
            out.append((sc, tp, build_net(sc.coefficients, tp.point, sc.grid, seed=1)))
    return out


def _same_witness(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return (got.step, got.samples.tobytes()) == (want.step, want.samples.tobytes())


def test_every_reader_gives_on_a_net_what_it_gives_on_a_list():
    n_witnesses = 0
    for sc, tp, net in _nets():
        paths = list(net)
        again = net_of(paths)  # the same paths, grouped anew
        runs = []
        for arg in (net, paths, again, net):  # the net's grouping, read twice
            table = ValueTable(sc.coefficients, sc.grid)
            values = table.values(arg)
            runs.append((values.tobytes(), dict(table.memo), table.hits))
        assert runs[0] == runs[1] == runs[2] == runs[3]
        for pack in (tp.pack_sub, tp.pack_super):
            assert formula_paths(pack.rows, net).tobytes() == formula_paths(pack.rows, paths).tobytes()
        for anchor in (tp.point, net[-1]):
            later = [g for g in net if g.n_nodes >= anchor.n_nodes]
            arg = net if len(later) == len(net) else later
            assert pair_gauges(anchor, arg).tobytes() == pair_gauges(anchor, list(arg)).tobytes()

        T = sc.grid.T
        for w in (values, values + (T - net.horizons)):
            for side, phi, pack in (
                ("sub", tp.phi_sub, tp.pack_sub),
                ("super", tp.phi_super, tp.pack_super),
                ("sub", time_ramp(tp.phi_sub, 1.0, T), tp.pack_sub),
            ):
                got = viscosity_check(w, sc.coefficients, tp.point, phi, pack, side, net=net)
                want = viscosity_check(w, sc.coefficients, tp.point, phi, pack, side, net=again)
                assert _same_witness(got.witness, want.witness)
                assert replace(got, witness=None) == replace(want, witness=None)
                n_witnesses += want.witness is not None
    assert n_witnesses > 0


def test_a_path_that_ends_before_the_point_is_not_scanned():
    sc, tp, net = next((sc, tp, net) for sc, tp, net in _nets() if tp.point.n_nodes > 2)
    values = ValueTable(sc.coefficients, sc.grid).values(net)
    short = tp.point._head(tp.point.n_nodes - 1)
    # a value that breaks the premise by far, were the short path scanned
    for at in (1, len(net)):
        paths = list(net)[1:at] + [short] + list(net)[at:]
        for side, phi, pack, far in (
            ("sub", tp.phi_sub, tp.pack_sub, 1e6),
            ("super", tp.phi_super, tp.pack_super, -1e6),
        ):
            got = viscosity_check(
                np.insert(values, at, far), sc.coefficients, tp.point, phi, pack, side,
                net=net_of([tp.point, *paths]),
            )
            want = viscosity_check(values, sc.coefficients, tp.point, phi, pack, side, net=net)
            assert got.premise_ok
            assert replace(got, net_size=len(net)) == want


def test_a_net_is_scanned_only_at_its_own_point():
    sc, tp, net = _nets()[0]
    values = ValueTable(sc.coefficients, sc.grid).values(net)
    args = (sc.coefficients, tp.point, tp.phi_sub, tp.pack_sub, "sub")
    copy = tp.point._head(tp.point.n_nodes)  # the point's samples, another path
    for other in (list(net), net_of([copy, *list(net)[1:]])):
        with pytest.raises(ValueError, match="net must be a Net at the point itself"):
            viscosity_check(values, *args, net=other)


# a net makes no path for a row until a reader asks for that row ----------


def test_build_net_makes_no_path_for_any_row_but_the_point(monkeypatch):
    made = []
    for name, mod in list(sys.modules.items()):  # every trusted path the package makes
        if name.startswith("phjb") and hasattr(mod, "trusted_path"):
            real = mod.trusted_path
            monkeypatch.setattr(mod, "trusted_path", lambda *a, _real=real: made.append("trusted") or _real(*a))
    validate = Path.__post_init__  # and every validated one
    monkeypatch.setattr(Path, "__post_init__", lambda self: made.append("Path") or validate(self))
    for build in (eikonal, runmax):
        sc = build()
        for point in _points(sc):
            made.clear()
            net = build_net(sc.coefficients, point, sc.grid, seed=1)
            assert len(net) > 50 and made == []
            assert net.path(0) is point and made == []
            assert net.path(-1).samples.tobytes() == list(net)[-1].samples.tobytes()
            assert made == ["trusted"] * len(net)  # one for path -1, one per row but the point


@pytest.mark.parametrize("config", ["eikonal", "runmax", "feedback"])
@pytest.mark.parametrize("grid", [4, 8])
def test_each_net_path_is_the_per_path_construction_byte_for_byte(config, grid):
    for seed in (0, 3):
        sc = load_config(str(CONFIGS / f"{config}.json"), grid_steps=grid, seed=seed).scenario
        for point in _points(sc):
            net = build_net(sc.coefficients, point, sc.grid, seed=seed)
            want = per_path_build_net(sc.coefficients, point, sc.grid, seed=seed)
            assert len(net) == len(want)
            for i, w in enumerate(want):
                g = net.path(i)
                assert g.space is point.space and g.step == w.step
                assert g.horizon == w.horizon == net.horizons[i]
                assert g.samples.tobytes() == w.samples.tobytes()
            assert net.horizons.tobytes() == np.array([w.horizon for w in want]).tobytes()
