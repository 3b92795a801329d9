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

import numpy as np

from .gauge import pair_gauge_rows
from .paths import GRID_TOL, Net, Path, group_rows

__all__ = ["pair_gauge", "pair_gauges", "BPResult", "NotEpsMaximal", "bp_search"]

# a gauge at or below this separates no two paths
_GAUGE_TOL = 1e-12


def pair_gauge(anchor: Path, g: Path) -> float:
    """Default gauge: time-augmented Upsilon^2 of the semigroup gap, symmetric
    in its arguments; the one-row case of `pair_gauge_rows`, anchored at the
    earlier path."""
    if anchor.n_nodes > g.n_nodes:
        anchor, g = g, anchor
    return float(pair_gauge_rows(anchor, g, g.samples[None])[0])


def pair_gauges(anchor: Path, net: Net) -> np.ndarray:
    """`pair_gauge(anchor, g)` for each path g of net as a float array, 0.0
    for the paths that end before the anchor: the paths of one node count
    are one `pair_gauge_rows` block (`group_rows`), and the groups that end
    before the anchor are left out, as the premise scan leaves them out.
    This is bp_search's default row gauge."""
    floor, protos = anchor.horizon - GRID_TOL, net.protos
    kept = [(rows, S) for rows, S in net.groups.values() if net.horizons[rows[0]] >= floor]
    return group_rows(lambda rows, S: pair_gauge_rows(anchor, protos[S.shape[1]], S), net, kept)


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
    f,
    net: Net,
    eps: float,
    *,
    rho: Callable[[Path, Net], np.ndarray] = pair_gauges,
    max_anchors: int = 64,
) -> BPResult:
    """Anchor-and-perturb argmax refinement over a finite net.

    f holds the functional at each path of net, in net order, and the
    search starts at the net's point, as `viscosity_check` reads its values.
    Requires eps finite and > 0 (raises ValueError otherwise) and f[0] >=
    max f - eps (raises NotEpsMaximal otherwise). Each stage maximizes f
    minus the anchored gauges accumulated so far, with weights 1, 1/2,
    1/4, ... and ties resolved toward the incumbent; a stage that
    reproduces its incumbent (by index), or one within _GAUGE_TOL of it,
    ends the search. Only paths at or after the incumbent's horizon
    compete, and a NaN is passed over, as a strict `>` scan passes it.

    rho is a row gauge: rho(anchor, net) gives the gauge from the anchor to
    each net path, in net order, none of them negative; the paths that end
    before the anchor do not compete, so their entries take no part. It is
    called once per anchor, when the anchor is set. The perturbed values
    are an array over the net with the rows subtracted in anchor order,
    the same float sequence as summing the gauges afresh at every stage.
    The incumbent is always the last anchor, so its row also serves the
    stop test and the strictness scan.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    pert = np.array(f, dtype=np.float64)  # f minus the gauges of the anchors set so far
    if pert.shape != (len(net),):
        raise ValueError(f"f has shape {pert.shape}, expected one value per net path ({len(net)},)")
    f_vals = pert.tolist()
    f_max = max(f_vals)
    if f_vals[0] < f_max - eps:
        raise NotEpsMaximal(f_vals[0], f_max, eps)

    horizons, at, anchors, rows = net.horizons, [], [], []  # and each anchor's net index, path and gauge row
    inc, iterations = 0, 0  # inc: the incumbent's index, the last anchor
    while True:
        anchors.append(net.path(inc))
        row = np.asarray(rho(anchors[-1], net), dtype=np.float64)
        if row.shape != (len(net),):
            raise ValueError(f"gauge row has {row.size} entries for {len(net)} paths")
        if (row < 0.0).any():
            raise ValueError("gauge returned a negative value")
        pert -= 2.0 ** -len(rows) * row
        at.append(inc)
        rows.append(row)
        competing = horizons >= horizons[inc] - GRID_TOL
        if iterations >= max_anchors:
            break
        iterations += 1
        # the first of the largest competing values, NaN passed over
        v = np.where(competing & ~np.isnan(pert), pert, -np.inf)
        best = int(v.argmax())
        if not v[best] > pert[inc] or best == inc or row[best] <= _GAUGE_TOL:
            break
        inc = best

    # strictness over the final functional, distinct paths only: the first
    # of the smallest gaps, NaN passed over, as `min` keeps it
    gaps = pert[inc] - pert[competing & (row > _GAUGE_TOL)]
    gaps = gaps[~np.isnan(gaps)]
    gap = float(gaps[gaps.argmin()]) if gaps.size else math.inf

    deltas = tuple(2.0 ** -j for j in range(len(rows)))
    terms = tuple(d * float(row[inc]) for d, row in zip(deltas, rows))
    sum_rho = sum(terms)
    return BPResult(
        maximizer=anchors[-1],
        anchors=tuple(anchors),
        deltas=deltas,
        anchor_times=tuple(horizons[at].tolist()),
        rho_terms=terms,
        f_start=f_vals[0],
        f_max_net=f_max,
        sum_rho=sum_rho,
        perturbed_value=f_vals[inc] - sum_rho,
        strict_gap=gap,
        stalled=bool(horizons[inc] <= horizons[0] + GRID_TOL) and inc != 0,
        iterations=iterations,
    )
