"""phjb command line: run scenario checks and emit reports.

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 the config could not be read or parsed as JSON, 3 the config parsed
but failed validation.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import click

from . import __version__
from .checks import CHECKS
from .config import ConfigError, check_names, load_config
from .report import CheckRecord, RunReport, write_report
from .value import BudgetExceeded, ValueTable

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def execute(config_path, *, checks=None, grid=None, seed=None, fmt="json", out=None):
    """Load config, run the selected checks, emit a report; returns exit code."""
    try:
        cfg = load_config(config_path, grid_steps=grid, seed=seed)
        selected = cfg.checks if checks is None else check_names(checks, cfg.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: cannot read config: {exc}", sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        click.echo(f"error: invalid config: {exc}", sys.stderr)
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
            records.append(CHECKS[name](cfg, value_table))
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
    # the stream is named: click's own lookup of sys.stdout caches a stream
    # that needs no wrapper under itself, so a redirected stream is kept alive
    click.echo(write_report(report, fmt, out), sys.stdout, nl=False)
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
