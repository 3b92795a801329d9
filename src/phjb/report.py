"""Check reports and their serialization.

Reports are plain dict trees with one volatile subtree: everything under
"timestamp" (wall-clock data) changes run to run, the rest is a pure
function of config + seed, so two runs compare byte for byte once that
subtree is removed. CSV output is a long-format flattening: one line
per (check, row index, field).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

__all__ = ["CheckRecord", "RunReport", "render", "write_report"]


@dataclass
class CheckRecord:
    name: str
    passed: bool
    summary: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)


@dataclass
class RunReport:
    scenario: str
    config: dict
    seed: int
    grid: dict
    records: list
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _clean(obj):
    """JSON-safe copy: numpy scalars to Python, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, str) or obj is None:
        return obj
    return str(obj)


def report_to_dict(report: RunReport) -> dict:
    return {
        "scenario": report.scenario,
        "config": _clean(report.config),
        "seed": report.seed,
        "grid": _clean(report.grid),
        "passed": report.passed,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "summary": _clean(r.summary),
                "rows": _clean(r.rows),
            }
            for r in report.records
        ],
        "timestamp": {
            "utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": report.elapsed_s,
        },
    }


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "row", "field", "value"])
    writer.writerow(["", "", "scenario", payload["scenario"]])
    writer.writerow(["", "", "seed", payload["seed"]])
    writer.writerow(["", "", "passed", payload["passed"]])
    for rec in payload["checks"]:
        writer.writerow([rec["name"], "", "passed", rec["passed"]])
        for key in sorted(rec["summary"]):
            writer.writerow([rec["name"], "", key, _cell(rec["summary"][key])])
        for i, row in enumerate(rec["rows"]):
            for key in sorted(row):
                writer.writerow([rec["name"], i, key, _cell(row[key])])
    return buf.getvalue()


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return "" if v is None else str(v)


def render(report: RunReport, fmt: str) -> str:
    payload = report_to_dict(report)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _to_csv(payload)
    raise ValueError(f"unknown format {fmt!r}")


def write_report(report: RunReport, fmt: str, out: Optional[str]) -> str:
    text = render(report, fmt)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
