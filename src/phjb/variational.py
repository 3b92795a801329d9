"""Perturbed maximization on finite path nets.

Given a bounded functional f on a net of paths and a start within eps of
the supremum, the search produces a nearby path that is the strict global
maximum of f minus a telescoping sum of anchored pair gauges. Weights
halve at every stage, so the accumulated perturbation at the output is
controlled by eps; anchor times never decrease, but the scheme is allowed
to stall at the starting horizon and says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .gauge import pair_gauge_rows
from .paths import GRID_TOL, Path, group_rows

__all__ = ["pair_gauge", "pair_gauges", "BPResult", "NotEpsMaximal", "bp_search"]

# a gauge at or below this separates no two paths
_GAUGE_TOL = 1e-12


def pair_gauge(anchor: Path, g: Path) -> float:
    """Default gauge: time-augmented Upsilon^2 of the semigroup gap, symmetric
    in its arguments; the one-row case of `pair_gauge_rows`, anchored at the
    earlier path."""
    if anchor.n_nodes > g.n_nodes:
        anchor, g = g, anchor
    return pair_gauge_rows(anchor, g, g.samples[None])[0]


def pair_gauges(anchor: Path, paths) -> list:
    """`pair_gauge(anchor, g)` for each g of paths, none of which may end
    before the anchor, as a list of floats: the paths of one node count are
    one `pair_gauge_rows` block (`group_rows`). This is bp_search's default
    row gauge."""
    return group_rows(lambda rows, S: pair_gauge_rows(anchor, paths[rows[0]], S), paths).tolist()


class NotEpsMaximal(ValueError):
    """bp_search's precondition failed: f(start) is more than eps below the
    largest f over the net. Holds the witness f_start, f_max and eps."""

    def __init__(self, f_start: float, f_max: float, eps: float):
        super().__init__(f"start is not eps-maximal: f(start)={f_start}, max={f_max}, eps={eps}")
        self.f_start, self.f_max, self.eps = f_start, f_max, eps


@dataclass(frozen=True)
class BPResult:
    """The search's outcome. rho_terms[j] = deltas[j] * rho(anchors[j],
    maximizer) under the gauge the search ran with; sum_rho is their sum."""

    maximizer: Path
    anchors: tuple
    deltas: tuple
    anchor_times: tuple
    rho_terms: tuple
    f_start: float
    f_max_net: float
    sum_rho: float
    perturbed_value: float
    strict_gap: float
    stalled: bool
    iterations: int


def bp_search(
    f: Callable[[Path], float],
    net,
    start: Path,
    eps: float,
    *,
    rho: Callable[[Path, list], list] = pair_gauges,
    max_anchors: int = 64,
) -> BPResult:
    """Anchor-and-perturb argmax refinement over a finite net.

    Requires eps finite and > 0 (raises ValueError otherwise) and f(start)
    >= max f - eps over the net (raises NotEpsMaximal otherwise). Each
    stage maximizes f minus the anchored gauges accumulated so far, with
    weights 1, 1/2, 1/4, ... and ties resolved toward the incumbent; a
    stage that reproduces its incumbent, or one within _GAUGE_TOL of it,
    ends the search. Only paths at or after the incumbent's horizon
    compete.

    rho is a row gauge: rho(anchor, paths) gives the gauge from the anchor
    to each path, in order, none of them ending before the anchor. It is
    called once per anchor, when the anchor is set, over the paths that
    compete from then on; while every path competes, that is the net
    itself (a sequence of paths), so `pair_gauges` reads a `Net`'s
    grouping. A running perturbed value per path has the rows subtracted
    in anchor order, the same float sequence as summing the gauges afresh
    at every stage. The incumbent is always the last anchor, so its row
    also serves the stop test and the strictness scan.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not any(p is start for p in net):
        net = [*net, start]
    f_vals = [float(f(p)) for p in net]
    f_max = max(f_vals)
    f_start = float(f(start))
    if f_start < f_max - eps:
        raise NotEpsMaximal(f_start, f_max, eps)

    pert = list(f_vals)  # f minus the gauges of the anchors set so far
    anchors, deltas, rows = [], [], []  # rows[j]: {net index: gauge of anchor j}

    def set_anchor(i: int) -> list:
        """Make net[i] the next anchor; return the paths that compete from now on."""
        floor = net[i].horizon - GRID_TOL
        competing = [k for k, g in enumerate(net) if g.horizon >= floor]
        pool = net if len(competing) == len(net) else [net[k] for k in competing]
        row = [float(r) for r in rho(net[i], pool)]
        if len(row) != len(competing):
            raise ValueError(f"gauge row has {len(row)} entries for {len(competing)} paths")
        if any(r < 0.0 for r in row):
            raise ValueError("gauge returned a negative value")
        delta = 2.0 ** (-len(deltas))
        for k, r in zip(competing, row):
            pert[k] -= delta * r
        anchors.append(net[i])
        deltas.append(delta)
        rows.append(dict(zip(competing, row)))
        return competing

    inc = next(i for i, p in enumerate(net) if p is start)  # incumbent's index
    competing = set_anchor(inc)
    iterations = 0
    while iterations < max_anchors:
        iterations += 1
        best = inc
        for i in competing:
            if pert[i] > pert[best]:
                best = i
        if net[best] is net[inc] or rows[-1][best] <= _GAUGE_TOL:
            break
        inc = best
        competing = set_anchor(inc)

    # strictness over the final functional, distinct paths only
    gap = float("inf")
    for i in competing:
        if rows[-1][i] > _GAUGE_TOL:
            gap = min(gap, pert[inc] - pert[i])

    incumbent = net[inc]
    terms = tuple(d * row[inc] for d, row in zip(deltas, rows))
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
        perturbed_value=f_vals[inc] - sum_rho,
        strict_gap=gap,
        stalled=(incumbent.horizon <= start.horizon + GRID_TOL)
        and (incumbent is not start),
        iterations=iterations,
    )
