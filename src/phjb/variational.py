"""Perturbed maximization on finite path nets.

Given a bounded functional f on a net of paths and a start within eps of
the supremum, the search produces a nearby path that is the strict global
maximum of f minus a telescoping sum of anchored pair gauges. Weights
halve at every stage, so the accumulated perturbation at the output is
controlled by eps; anchor times never decrease, but the scheme is allowed
to stall at the starting horizon and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .gauge import eval_upsilon_pair
from .paths import GRID_TOL, Path

__all__ = ["pair_gauge", "BPResult", "bp_search"]

# a gauge at or below this separates no two paths
_GAUGE_TOL = 1e-12


def pair_gauge(anchor: Path, g: Path) -> float:
    """Default gauge: time-augmented Upsilon^2 of the semigroup gap."""
    return eval_upsilon_pair(2.0, anchor, g, with_time=True)


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
    rho: Callable[[Path, Path], float] = pair_gauge,
    max_anchors: int = 64,
) -> BPResult:
    """Anchor-and-perturb argmax refinement over a finite net.

    Requires f(start) >= max f - eps over the net (raises otherwise).
    Each stage maximizes f minus the anchored gauges accumulated so far,
    with weights 1, 1/2, 1/4, ... and ties resolved toward the incumbent; a
    stage that reproduces its incumbent, or one within _GAUGE_TOL of it,
    ends the search. Only paths at or after the incumbent's
    horizon compete.

    Each anchor's gauge row rho(anchor, g) is computed once per net path,
    and only for the paths that compete after the anchor is set, which all
    lie at or after its horizon. A running perturbed value per path has the
    rows subtracted in anchor order, the same float sequence as summing the
    gauges afresh at every stage. The incumbent is always the last anchor,
    so its row also serves the stop test and the strictness scan.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    net = list(net)
    if not any(p is start for p in net):
        net.append(start)
    f_vals = [float(f(p)) for p in net]
    f_max = max(f_vals)
    f_start = float(f(start))
    if f_start < f_max - eps:
        raise ValueError(
            f"start is not eps-maximal: f(start)={f_start}, max={f_max}, eps={eps}"
        )

    n = len(net)
    anchors = [start]
    deltas = [1.0]
    rows = [[None] * n]  # rows[j][i] = rho(anchors[j], net[i]), filled on demand
    pert = list(f_vals)  # f minus the gauges of the first done[i] anchors
    done = [0] * n
    inc = next(i for i, p in enumerate(net) if p is start)  # incumbent's index
    iterations = 0

    def perturbed(i: int) -> float:
        g = net[i]
        for j in range(done[i], len(anchors)):
            r = rho(anchors[j], g)
            if r < 0.0:
                raise ValueError("gauge returned a negative value")
            rows[j][i] = r
            pert[i] -= deltas[j] * r
        done[i] = len(anchors)
        return pert[i]

    def competitors() -> list:
        floor = net[inc].horizon - GRID_TOL
        return [i for i, g in enumerate(net) if g.horizon >= floor]

    while iterations < max_anchors:
        iterations += 1
        best, best_v = inc, perturbed(inc)
        for i in competitors():
            v = perturbed(i)
            if v > best_v:
                best, best_v = i, v
        if net[best] is net[inc] or rows[-1][best] <= _GAUGE_TOL:
            break
        anchors.append(net[best])
        deltas.append(2.0 ** (-len(deltas)))
        rows.append([None] * n)
        inc = best

    # strictness over the final functional, distinct paths only
    final_v = perturbed(inc)
    gap = float("inf")
    for i in competitors():
        v = perturbed(i)
        if rows[-1][i] <= _GAUGE_TOL:
            continue
        gap = min(gap, final_v - v)

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
