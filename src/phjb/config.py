"""Run configuration: JSON in, validated scenario bundle out.

Numeric fields accept plain JSON numbers or decimal strings ("0.25"); the
string form survives tools that rewrite JSON with float mangling. Unknown
scenario names, malformed grids, dimension mismatches and unknown check
names are validation errors (ConfigError), distinct from unreadable or
unparseable files, which the CLI reports separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import CHECKS, PERTURBATIONS
from .paths import GRID_TOL, Path, TimeGrid
from .scenarios import SCENARIOS, Scenario, has_certificates

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

DEFAULT_TOLERANCES = {
    "residual": 1e-9,
    "viscosity": 1e-3,
    "margin_c0": 2.0,
}


class ConfigError(Exception):
    """Config is readable JSON but fails validation; carries a field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _num(value, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(where, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        out = float(value)
    elif isinstance(value, str):
        try:
            out = float(value)
        except ValueError:
            raise ConfigError(where, f"not a number: {value!r}") from None
    else:
        raise ConfigError(where, f"expected a number or numeric string, got {type(value).__name__}")
    if not np.isfinite(out):
        raise ConfigError(where, f"must be finite, got {out}")
    return out


def _int(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value  # as it is: a float round trip loses digits past 2**53
    out = _num(value, where)
    if out != int(out):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return int(out)


def _refuse_unknown(doc: dict, keys, section: str = "") -> None:
    for key in doc:  # the first key that is not one of keys, named within its section
        if key not in keys:
            raise ConfigError(f"{section}{key}", "unknown field")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    seed: int
    checks: tuple
    epsilons: tuple
    perturbation: str
    budget: int
    tolerances: dict
    doc: dict


def check_names(names, scenario: Scenario) -> tuple:
    """The check names as a tuple, refused unless a non-empty list of known
    ones that the scenario can run: viscosity and classical need its
    certificate library."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ConfigError("checks", "must be a non-empty list")
    for c in names:
        if c not in CHECKS:
            raise ConfigError("checks", f"unknown check {c!r}")
        if names.count(c) > 1:
            raise ConfigError("checks", f"repeated check {c!r}")
    if not has_certificates(scenario) and any(c in ("viscosity", "classical") for c in names):
        raise ConfigError(
            "checks",
            f"{scenario.name} has no certificate library; viscosity/classical unavailable",
        )
    return tuple(names)


def parse_config(
    doc: dict,
    *,
    grid_steps: Optional[int] = None,
    seed: Optional[int] = None,
) -> RunConfig:
    """Validate a config document; overrides replace the file's grid/seed."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    _refuse_unknown(doc, {
        "scenario", "grid", "initial", "seed", "checks",
        "epsilons", "perturbation", "budget", "tolerances",
    })

    name = doc.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(
            "scenario", f"expected one of {sorted(SCENARIOS)}, got {name!r}"
        )

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid", "must be an object")
    _refuse_unknown(grid_doc, ("T", "step"), "grid.")
    T = _num(grid_doc.get("T", 1.0), "grid.T")
    step = _num(grid_doc.get("step", 0.25), "grid.step")
    if grid_steps is not None:
        if grid_steps < 1:
            raise ConfigError("grid", f"steps override must be >= 1, got {grid_steps}")
        step = T / grid_steps
    try:
        TimeGrid(T=T, step=step)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None

    sc = SCENARIOS[name](T=T, step=step)

    init_doc = doc.get("initial")
    if init_doc is not None:
        if not isinstance(init_doc, dict):
            raise ConfigError("initial", "must be an object")
        _refuse_unknown(init_doc, ("samples",) if "samples" in init_doc else ("constant", "horizon"), "initial.")
        if "samples" in init_doc:
            rows = init_doc["samples"]
            if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
                raise ConfigError("initial.samples", "must be a non-empty list of lists")
            try:
                samples = np.array(
                    [[_num(v, "initial.samples") for v in row] for row in rows]
                )
            except ValueError:  # rows of unequal lengths
                raise ConfigError("initial.samples", "rows must be lists of one length") from None
            if samples.ndim != 2 or samples.shape[1] != sc.space.dim:
                raise ConfigError(
                    "initial.samples",
                    f"need shape (k, {sc.space.dim}), got {samples.shape}",
                )
            try:
                initial = Path(sc.space, sc.grid.step, samples)
            except ValueError as exc:
                raise ConfigError("initial.samples", str(exc)) from None
        elif "constant" in init_doc:
            vec = init_doc["constant"]
            if not isinstance(vec, list):
                raise ConfigError("initial.constant", "must be a list")
            value = np.array([_num(v, "initial.constant") for v in vec])
            if value.shape != (sc.space.dim,):
                raise ConfigError(
                    "initial.constant", f"need {sc.space.dim} components"
                )
            horizon = _num(init_doc.get("horizon", 0.0), "initial.horizon")
            try:
                initial = Path.constant(sc.space, sc.grid.step, value, horizon=horizon)
            except ValueError as exc:
                raise ConfigError("initial.horizon", str(exc)) from None
        else:
            raise ConfigError("initial", "need 'samples' or 'constant'")
        if initial.horizon > sc.grid.T + GRID_TOL:
            raise ConfigError("initial", "starts beyond the horizon")
        sc = Scenario(sc.name, sc.space, sc.grid, sc.coefficients, initial, sc.closed_form)

    seed_val = _int(doc.get("seed", 0) if seed is None else seed, "seed")
    if seed_val < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed_val}")

    checks = check_names(doc.get("checks", ["hypothesis", "value", "dpp"]), sc)

    eps_doc = doc.get("epsilons", ["0.1", "0.05", "0.025"])
    if not isinstance(eps_doc, list) or not eps_doc:
        raise ConfigError("epsilons", "must be a non-empty list")
    epsilons = tuple(_num(e, "epsilons") for e in eps_doc)
    if any(e <= 0 for e in epsilons):
        raise ConfigError("epsilons", "must be positive")

    pert = doc.get("perturbation", "drift_shift")
    if pert not in PERTURBATIONS:
        raise ConfigError("perturbation", f"expected one of {tuple(PERTURBATIONS)}, got {pert!r}")

    budget = _int(doc.get("budget", 10**6), "budget")
    if budget < 1:
        raise ConfigError("budget", "must be >= 1")

    tol = dict(DEFAULT_TOLERANCES)
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise ConfigError("tolerances", "must be an object")
    for key, val in tol_doc.items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{key}", "unknown tolerance")
        tol[key] = _num(val, f"tolerances.{key}")
        if tol[key] < 0:
            raise ConfigError(f"tolerances.{key}", "must be >= 0")

    return RunConfig(
        scenario=sc,
        seed=seed_val,
        checks=checks,
        epsilons=epsilons,
        perturbation=pert,
        budget=budget,
        tolerances=tol,
        doc=doc,
    )


def load_config(
    path: str,
    *,
    grid_steps: Optional[int] = None,
    seed: Optional[int] = None,
) -> RunConfig:
    """Read and validate; OSError/JSONDecodeError pass through to the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_config(doc, grid_steps=grid_steps, seed=seed)
