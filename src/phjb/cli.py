"""phjb command line: run scenario checks and emit reports.

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 the config could not be read or parsed as JSON, 3 the config parsed
but failed validation.
"""

from __future__ import annotations

import functools
import json
import time

import click
import numpy as np

from . import __version__
from .checks import (
    build_net,
    classical_check,
    gauge_cases,
    ito_residual,
    stability_experiment,
    upsilon_margin,
    viscosity_check,
)
from .config import ConfigError, RunConfig, check_names, load_config
from .dynamics import (
    ControlSignal,
    _terminal_cost,
    validate_hypothesis,
    verify_state_estimates,
)
from .paths import Path, TimeGrid
from .report import CheckRecord, RunReport, write_report
from .scenarios import classical_candidate, has_certificates, touching_points
from .testfn import TestFunctionPhi
from .value import (
    BudgetExceeded,
    ValueTable,
    verify_dpp_consistency,
    verify_value_regularity,
)
from .variational import NotEpsMaximal, bp_search, pair_gauges

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


# check runners ---------------------------------------------------------


def _run_hypothesis(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    rep = validate_hypothesis(sc.coefficients, sc.space, sc.grid, seed=cfg.seed)
    name, ratio = rep.worst()
    return CheckRecord(
        name="hypothesis",
        passed=rep.passed,
        summary={"worst": name, "worst_ratio": ratio, "n_pairs": rep.n_pairs},
        rows=[{"inequality": k, "ratio": v} for k, v in sorted(rep.ratios.items())],
    )


def _run_estimates(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    rep = verify_state_estimates(sc.coefficients, sc.space, sc.grid, seed=cfg.seed)
    return CheckRecord(
        name="estimates",
        passed=rep.passed,
        summary={"gronwall_bound": rep.gronwall_bound},
        rows=[{"estimate": k, "constant": v} for k, v in sorted(rep.constants.items())],
    )


def _run_value(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    table = value_table()
    v = table.value(sc.initial)
    sig, traj = table.policy(sc.initial)
    summary = {"value": v, "horizon": sc.initial.horizon}
    passed = bool(np.isfinite(v))
    if sc.closed_form is not None:
        cf = sc.closed_form(sc.initial, sc.grid)
        summary["closed_form"] = cf
        summary["gap"] = abs(v - cf)
        passed = passed and summary["gap"] <= cfg.tolerances["residual"]
    rows = [
        {
            "controls": list(sig.values),
            "endpoint": traj.endpoint.tolist(),
            "terminal_cost": _terminal_cost(sc.coefficients, traj),
        }
    ]
    return CheckRecord(name="value", passed=passed, summary=summary, rows=rows)


def _run_dpp(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    table = value_table()
    residuals = verify_dpp_consistency(table, sc.initial)
    _, traj = table.policy(sc.initial)
    phi = _terminal_cost(sc.coefficients, traj)
    terminal_gap = abs(table.value(traj) - phi)
    worst = max(residuals.values(), default=0.0)
    tol = cfg.tolerances["residual"]
    return CheckRecord(
        name="dpp",
        passed=worst <= tol and terminal_gap <= tol,
        summary={"max_residual": worst, "terminal_gap": terminal_gap},
        rows=[{"s": s, "residual": r} for s, r in sorted(residuals.items())],
    )


def _run_regularity(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    rep = verify_value_regularity(value_table(), sc.space, seed=cfg.seed)
    return CheckRecord(
        name="regularity",
        passed=rep.passed,
        summary={"n_samples": rep.n_samples},
        rows=[{"constant": k, "value": v} for k, v in sorted(rep.constants.items())],
    )


def _run_ito(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    space, grid = sc.space, sc.grid
    g0 = Path.constant(space, grid.step, sc.initial.samples[0], horizon=0.0)
    u_val = sc.coefficients.control_set[-1]
    fine = TimeGrid(grid.T, grid.step / 2.0)
    g0f = Path.constant(space, fine.step, sc.initial.samples[0], horizon=0.0)
    functionals = [
        TestFunctionPhi.quadratic_endpoint(),
        TestFunctionPhi.linear_endpoint(np.ones(space.dim)),
    ]
    rows, ok = [], True
    for phi in functionals:
        r1 = ito_residual(
            sc.coefficients, phi, g0,
            ControlSignal.constant(u_val, 0.0, grid.T, grid.step),
        ).residual
        r2 = ito_residual(
            sc.coefficients, phi, g0f,
            ControlSignal.constant(u_val, 0.0, grid.T, fine.step),
        ).residual
        exact = abs(r1) <= 1e-12 and abs(r2) <= 1e-12
        rate = float(np.log2(abs(r1) / abs(r2))) if not exact and abs(r2) > 0 else None
        row_ok = exact or (rate is not None and rate >= 0.9)
        rows.append(
            {"phi": phi.label, "residual": r1, "refined": r2, "rate": rate, "ok": row_ok}
        )
        ok = ok and row_ok
    return CheckRecord(name="ito", passed=ok, summary={}, rows=rows)


def _run_gauge(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    c = sc.coefficients
    cases = gauge_cases(c, sc.space, sc.grid, seed=cfg.seed)
    margins = np.array([r.margin for r in upsilon_margin(c, cases)])
    floor = -cfg.tolerances["margin_c0"] * sc.grid.step
    return CheckRecord(
        name="gauge",
        passed=bool(margins.min() >= floor),
        summary={
            "min_margin": float(margins.min()),
            "mean_margin": float(margins.mean()),
            "floor": floor,
            "n": len(margins),
        },
        rows=[],
    )


def _run_viscosity(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    table = value_table()
    tol = cfg.tolerances["viscosity"]
    rows, ok = [], True
    for tp in touching_points(sc):
        net = build_net(sc.coefficients, tp.point, sc.grid, seed=cfg.seed)
        values = table.values(net)  # one value pass, read by both sides
        for side, phi, pack in (
            ("sub", tp.phi_sub, tp.pack_sub),
            ("super", tp.phi_super, tp.pack_super),
        ):
            r = viscosity_check(
                values, sc.coefficients, tp.point, phi, pack, side,
                net=net, tol=tol, label=tp.label,
            )
            rows.append(
                {
                    "label": tp.label,
                    "side": side,
                    "premise_ok": r.premise_ok,
                    "margin": r.margin,
                    "witness_gap": r.witness_gap,
                    "passed": r.passed,
                }
            )
            ok = ok and r.passed
    return CheckRecord(
        name="viscosity", passed=ok, summary={"points": len(rows) // 2}, rows=rows
    )


def _run_classical(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    w, points = classical_candidate(sc)
    res = classical_check(
        w, sc.coefficients, points, t_final=sc.grid.T, tol=cfg.tolerances["residual"]
    )
    summary = {"max_residual": res.max_residual, "n_flagged": res.n_flagged}
    if not any(row["kind"] == "interior" for row in res.rows):
        summary["reason"] = "no interior probe fits the grid"
    return CheckRecord(name="classical", passed=res.passed, summary=summary, rows=list(res.rows))


def _run_stability(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    res = stability_experiment(
        value_table(),
        cfg.perturbation,
        cfg.epsilons,
        [sc.initial],
        tol=cfg.tolerances["residual"],
    )
    summary = {"kind": res.kind, "monotone_ok": res.monotone_ok}
    passed = res.passed
    if has_certificates(sc):
        # the unperturbed member of the family must still pass a point check
        pts = touching_points(sc)
        if pts:
            tp = pts[0]
            net = build_net(sc.coefficients, tp.point, sc.grid, seed=cfg.seed)
            lim = viscosity_check(
                value_table().values(net), sc.coefficients, tp.point,
                tp.phi_sub, tp.pack_sub, "sub",
                net=net, tol=cfg.tolerances["viscosity"],
            )
            summary["limit_point_ok"] = lim.passed
            passed = passed and lim.passed
    return CheckRecord(
        name="stability", passed=passed, summary=summary, rows=list(res.rows)
    )


def _run_bp(cfg: RunConfig, value_table) -> CheckRecord:
    sc = cfg.scenario
    start = sc.initial
    net = build_net(sc.coefficients, start, sc.grid, seed=cfg.seed)
    t0, T = start.horizon, sc.grid.T
    rows, ok = [], True

    # the gauge from start to each net path, one row that both modes' f read
    # (keyed by identity; net keeps its paths alive)
    start_gauge = dict(zip(map(id, net), pair_gauges(start, net)))
    modes = [
        ("at-max", lambda g: -start_gauge[id(g)], 0.1),
        ("horizon-bonus", lambda g: g.horizon - start_gauge[id(g)], 0.3 * (T - t0) + 0.1),
    ]
    for label, f, eps in modes:
        try:
            res = bp_search(f, net, start, eps)
        except NotEpsMaximal as exc:  # a failed row with the witness
            rows.append(
                {
                    "mode": label,
                    "postconditions_ok": False,
                    "reason": "start is not eps-maximal",
                    "f_start": exc.f_start,
                    "f_max": exc.f_max,
                    "eps": exc.eps,
                }
            )
            ok = False
            continue
        terms = res.rho_terms
        post = (
            all(r <= eps / 2**i + 1e-12 for i, r in enumerate(terms))
            and res.sum_rho <= 2.0 * eps + 1e-12
            and res.strict_gap > 0.0
            and res.perturbed_value >= res.f_start - 1e-12
            and all(a <= b + 1e-12 for a, b in zip(res.anchor_times, res.anchor_times[1:]))
        )
        rows.append(
            {
                "mode": label,
                "iterations": res.iterations,
                "anchor_times": list(res.anchor_times),
                "sum_rho": res.sum_rho,
                "strict_gap": res.strict_gap,
                "stalled": res.stalled,
                "postconditions_ok": post,
            }
        )
        ok = ok and post
    return CheckRecord(
        name="bp", passed=ok, summary={"net_size": len(net)}, rows=rows
    )


_RUNNERS = {
    "hypothesis": _run_hypothesis,
    "estimates": _run_estimates,
    "value": _run_value,
    "dpp": _run_dpp,
    "regularity": _run_regularity,
    "ito": _run_ito,
    "gauge": _run_gauge,
    "viscosity": _run_viscosity,
    "classical": _run_classical,
    "stability": _run_stability,
    "bp": _run_bp,
}


# command plumbing ------------------------------------------------------


def execute(config_path, *, checks=None, grid=None, seed=None, fmt="json", out=None):
    """Load config, run the selected checks, emit a report; returns exit code."""
    try:
        cfg = load_config(config_path, grid_steps=grid, seed=seed)
        selected = cfg.checks if checks is None else check_names(checks, cfg.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: cannot read config: {exc}", err=True)
        return EXIT_PARSE
    except ConfigError as exc:
        click.echo(f"error: invalid config: {exc}", err=True)
        return EXIT_VALIDATION

    sc = cfg.scenario
    # one value table per run, built on first use; a check that runs it out of
    # budget drops it, so the next check starts from an empty memo
    value_table = functools.cache(
        lambda: ValueTable(sc.coefficients, sc.grid, budget=cfg.budget)
    )
    t_start = time.perf_counter()
    records = []
    for name in selected:
        try:
            records.append(_RUNNERS[name](cfg, value_table))
        except BudgetExceeded as exc:
            value_table.cache_clear()
            records.append(
                CheckRecord(name=name, passed=False, summary={"error": str(exc)})
            )
    report = RunReport(
        scenario=cfg.scenario.name,
        config=cfg.doc,
        seed=cfg.seed,
        grid={"T": cfg.scenario.grid.T, "step": cfg.scenario.grid.step},
        records=records,
        elapsed_s=time.perf_counter() - t_start,
    )
    click.echo(write_report(report, fmt, out), nl=False)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAIL


def _common(fn):
    fn = click.option("--grid", type=int, default=None, help="Override steps per horizon.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the RNG seed.")(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["json", "csv"]), default="json"
    )(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None)(fn)
    fn = click.argument("config", type=click.Path(dir_okay=False))(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="phjb")
def main():
    """Desk checks for path-dependent HJB machinery."""


def _command(name, forced, help_text):
    @main.command(name, help=help_text)
    @_common
    def cmd(config, grid, seed, fmt, out):
        raise SystemExit(
            execute(config, checks=forced, grid=grid, seed=seed, fmt=fmt, out=out)
        )

    cmd.__name__ = name.replace("-", "_")
    return cmd


_command("run", None, "Run every check listed in the config.")
_command("value", ("value", "dpp"), "Value, optimal control, and the recursion residuals.")
_command("check-ito", ("ito",), "Functional chain-rule residuals along the mild flow.")
_command(
    "check-viscosity",
    ("viscosity",),
    "Certificate-based sub/super checks of the computed value.",
)
_command(
    "check-classical",
    ("classical",),
    "Pointwise equation residuals of the closed-form candidate.",
)
_command("stability", ("stability",), "Value gaps under coefficient perturbations.")
_command("bp-search", ("bp",), "Perturbed maximization with anchored gauges.")


if __name__ == "__main__":
    main()
