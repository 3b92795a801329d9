"""phjb benchmark: named workloads through the public CLI entry, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload tree-certify --seed 1 --seconds 20 --trace 0

A cell is one `phjb.cli.execute(config, checks=(name,), grid=g, seed=seed)`
call; a pass runs every cell of the workload once, one cell at a time in this
one process. The run repeats passes for `--seconds`.

--trace 0 prints the end-to-end metrics: `wall_s`, `setup_s` (median time
from starting a fresh interpreter to `phjb.cli` imported, over ten
interpreters, half started before the passes and half after them) and
`peak_rss_mb` (this process). `wall_s` is the time of one pass with each
cell at its fastest over the run's passes (every pass has the same inputs).
Interference from other tenants of the machine only ever slows a cell; it
switches the machine between two speeds about 1.8x apart (see
`calibration_ms`) in spells from seconds to minutes, so a mean or median of
passes mostly measures the share of slow time, while the fastest repetition
of each cell varies less. Spells longer than a run still move `wall_s`, and
only longer runs damp them, which is why the benchmark has two workloads
measured for about a minute each rather than three shorter ones. Every run
also prints the same figure for each part of its workload.
--trace 1 alternates untraced passes with passes that have the spans of
`spans.py` installed, and prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. A cell fails when
it raises, exits with a code other than 0 or emits a report that does not
parse; `correct` is false when a report contradicts its cell (wrong scenario,
seed, grid or check) or says a check failed, or when two passes (traced or
not) gave different reports. A full result with provenance and the report
fingerprint is written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

SETUP_SAMPLES = 5  # before the passes, and as many after them
PROBE_SAMPLES = 5
SAMPLE_CHECKS = ("hypothesis", "estimates", "ito", "gauge", "classical", "bp")

WORKLOADS = {
    "tree-certify": "value recursion: feedback trees whose memo key rarely repeats, then runmax and eikonal certificates scanning nets over a shared memo",
    "sample": "every config at grid 16 on sampling checks: random prefixes, semigroup extensions and gauges, no value recursion",
}

# The two parts of tree-certify (see `part_of`). Each is reported on its own
# in the traced run (`bench.part_wall_s.<part>`, `value.hit_ratio.<part>`, 0 on
# sample) and on a human-readable line of every run.
PARTS = ("feedback-tree", "certify")


def cells_of(workload: str) -> list:
    """(config, grid, check) for each cell of one pass, in run order."""
    # tree-certify joins two parts in one workload: with two workloads instead
    # of three, each run can measure for 58 s instead of 40, and on a shared
    # 2-vCPU host whose speed changes in spells of about a minute, the longer
    # runs are what keeps `wall_s` steady from run to run.
    # feedback-tree: the 2-D endpoint key rarely repeats, so the control tree
    # is expanded nearly in full (memo writes, the stepper, path checks).
    # Its regularity check is left out: its random prefixes make its work
    # vary 2x from seed to seed (the tree below a prefix is 3^steps_left);
    # eikonal's regularity, whose memo collapses the tree, measures it instead.
    # certify: premise scans over comparison nets reading a shared memo, with
    # the two eikonal cells that raise ValueError at grid 8. runmax runs at
    # grid 8, not 10: its viscosity cell then takes about 2 s, not 4.
    if workload == "tree-certify":
        return (
            [("feedback", 7, c) for c in ("value", "dpp", "stability")]
            + [("runmax", 8, c) for c in ("value", "viscosity", "classical", "bp")]
            + [("eikonal", 8, c) for c in ("regularity", "viscosity", "stability")]
        )
    cells = []
    for name in ("eikonal", "runmax", "feedback"):
        listed = json.loads((CONFIGS / f"{name}.json").read_text())["checks"]
        cells += [(name, 16, c) for c in listed if c in SAMPLE_CHECKS]
    return cells


def part_of(workload: str, config: str) -> str:
    if workload == "sample":
        return "sample"
    return "feedback-tree" if config == "feedback" else "certify"


# -- one cell ----------------------------------------------------------------


@dataclass
class Cell:
    config: str
    grid: int
    check: str
    code: int | None  # None when execute raised
    error: str | None  # "Type: message" when it raised
    digest: str  # hash of the report without its timestamp subtree
    failed: bool
    problems: list  # ways the report contradicts the cell
    seconds: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.config}@{self.grid}/{self.check}"


def run_cell(execute, config: str, grid: int, check: str, seed: int) -> Cell:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = execute(str(CONFIGS / f"{config}.json"), checks=(check,), grid=grid, seed=seed)
    except Exception as exc:  # a crash is a failed cell, recorded with its type
        error = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(f"raised {type(exc).__name__}".encode()).hexdigest()
        return Cell(config, grid, check, None, error, digest, True, [])
    try:
        payload = json.loads(out.getvalue())
    except json.JSONDecodeError:
        digest = hashlib.sha256(f"unparsed exit {code}".encode()).hexdigest()
        return Cell(config, grid, check, code, None, digest, True, ["report does not parse"])
    payload.pop("timestamp", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    problems = _contradictions(payload, config, grid, check, seed, code)
    return Cell(config, grid, check, code, None, digest, code != 0, problems)


def _contradictions(payload, config, grid, check, seed, code) -> list:
    problems = []
    if payload.get("scenario") != config:
        problems.append(f"scenario {payload.get('scenario')!r}")
    if payload.get("seed") != seed:
        problems.append(f"seed {payload.get('seed')!r}")
    g = payload.get("grid") or {}
    if not isinstance(g.get("T"), float) or not isinstance(g.get("step"), float) or (
        abs(g["step"] * grid - g["T"]) > 1e-9 * max(1.0, g["T"])
    ):
        problems.append(f"grid {g!r} is not {grid} steps")
    records = payload.get("checks") or []
    if [r.get("name") for r in records] != [check]:
        problems.append(f"checks {[r.get('name') for r in records]!r}")
    if payload.get("passed") is not True or not all(r.get("passed") is True for r in records):
        problems.append("a check did not pass")
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


# -- passes ----------------------------------------------------------------


def run_pass(execute, cells: list, seed: int, tracer=None, first_id: int = 0) -> tuple:
    """Run every cell once; returns (seconds, [Cell])."""
    results = []
    t0 = time.perf_counter()
    for i, (config, grid, check) in enumerate(cells):
        if tracer is not None:
            tracer.cell = first_id + i
        t = time.perf_counter()
        cell = run_cell(execute, config, grid, check, seed)
        cell.seconds = time.perf_counter() - t
        results.append(cell)
    return time.perf_counter() - t0, results


def best_pass(passes: list, keep=None) -> float:
    """Seconds for one pass with each cell at its fastest over `passes`.

    `keep`, if given, is the set of cell indices to count.
    """
    per_cell = zip(*([c.seconds for c in r] for _, r in passes))
    return sum(min(times) for i, times in enumerate(per_cell) if keep is None or i in keep)


def fingerprint(results: list) -> str:
    return hashlib.sha256("\n".join(c.digest for c in results).encode()).hexdigest()


def run_for(seconds: float, one_pass) -> list:
    """Run passes for about `seconds`; at least one.

    A new pass starts only if at least half a pass of time is left, so runs
    end close to `seconds` instead of overrunning by up to a whole pass.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        spent = time.perf_counter() - t0
        if spent + 0.5 * spent / len(passes) > seconds:
            return passes


# -- set-up, calibration and provenance --------------------------------------


def setup_seconds() -> float:
    """Fresh interpreter started until `phjb.cli` is imported and ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import phjb.cli\nprint('ready', flush=True)"
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
    return t1 - t0


def calibration_ms() -> float:
    """A fixed probe of interpreter and numpy speed; recorded, never used to rescale."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    x = np.linspace(0.0, 1.0, 64)
    for i in range(4000):
        acc += float(np.exp(x * (i % 7)).sum()) * 1e-9 + (i * i) % 11
    return 1e3 * (time.perf_counter() - t0)


def provenance() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "cpu": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
    }


def git_sha():
    """HEAD of the enclosing git checkout, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- main ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be at least 0")
    missing = [p for p in (SRC / "phjb" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"error: not a phjb checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from phjb import cli

    cells = cells_of(args.workload)
    parts = [part_of(args.workload, config) for config, _, _ in cells]
    probes = [calibration_ms() for _ in range(PROBE_SAMPLES)]
    setup = [setup_seconds() for _ in range(SETUP_SAMPLES)] if not args.trace else []

    if args.trace:
        from spans import Tracer, aggregate, combine_passes, write_spans

        tracer = Tracer()
        traced_data = []

        def pair(j):
            # an untraced and a traced pass in turn, so both see nearly the same machine
            plain = run_pass(cli.execute, cells, args.seed)
            first = j * len(cells)
            tracer.install()
            try:
                traced = run_pass(cli.execute, cells, args.seed, tracer, first)
            finally:
                tracer.uninstall()
            spans, side, memos = tracer.take_pass()
            if j == 0:
                write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz", spans)
            info = {first + i: (c, parts[i]) for i, (_, _, c) in enumerate(cells)}
            traced_data.append(aggregate(spans, side, memos, info, PARTS))
            return plain, traced

        pairs = run_for(args.seconds, pair)
        passes, traced_passes = [p for p, _ in pairs], [t for _, t in pairs]
    else:
        passes = run_for(args.seconds, lambda _: run_pass(cli.execute, cells, args.seed))
        traced_passes = []
    probes += [calibration_ms() for _ in range(PROBE_SAMPLES)]
    if not args.trace:
        setup += [setup_seconds() for _ in range(SETUP_SAMPLES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_passes = passes + traced_passes
    first = passes[0][1]
    fp = fingerprint(first)
    attempted = sum(len(r) for _, r in all_passes)
    failed = sum(c.failed for _, r in all_passes for c in r)
    problems = sorted({f"{c.label}: {p}" for _, r in all_passes for c in r for p in c.problems})
    if any(fingerprint(r) != fp for _, r in all_passes):
        problems.append("passes with the same inputs gave different reports")

    wall_s = best_pass(passes)
    part_wall_s = {
        p: best_pass(passes, {i for i, q in enumerate(parts) if q == p}) for p in dict.fromkeys(parts)
    }
    share = failed / attempted
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    recorded = baseline.get("fingerprints", {}).get(args.workload, {}).get(str(args.seed))
    match = "unrecorded" if recorded is None else ("match" if recorded == fp else "MISMATCH")

    if args.trace:
        layer = combine_passes(traced_data)
        counts = [k for k, (_, unit) in layer.items() if unit == "count"]
        if any(p[k][0] != layer[k][0] for p in traced_data for k in counts):
            problems.append("counts differ between traced passes")
        layer["bench.trace_overhead_s"] = (best_pass(traced_passes) - wall_s, "s")
        for p in PARTS:
            layer[f"bench.part_wall_s.{p}"] = (part_wall_s.get(p, 0.0), "s")
        layer["bench.ops_failed_share"] = (share, "share")
        layer["bench.cells_failed"] = (sum(c.failed for c in first), "count")
        layer["bench.calibration_ms"] = (statistics.median(probes), "ms")
        metrics = layer
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "pass_wall_s": [w for w, _ in passes],
        "traced_pass_wall_s": [w for w, _ in traced_passes],
        "cell_s": [[c.seconds for c in r] for _, r in passes],
        "part_wall_s": part_wall_s,
        "setup_samples_s": setup,
        "calibration_ms": probes,
        "peak_rss_mb": peak_rss_mb,
        "ops_failed_share": share,
        "failed_cells": [
            {"cell": c.label, "error": c.error, "exit_code": c.code} for c in first if c.failed
        ],
        "problems": problems,
        "fingerprint": fp,
        "fingerprint_baseline": match,
        "provenance": provenance(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          + (f" + {len(traced_passes)} traced" if args.trace else ""))
    print(f"provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"calibration_ms median {statistics.median(probes):.3f} "
          f"(before {statistics.median(probes[:PROBE_SAMPLES]):.3f}, "
          f"after {statistics.median(probes[PROBE_SAMPLES:]):.3f})")
    print(f"ops_failed_share {share:.4f} share  "
          f"({sum(c.failed for c in first)} of {len(first)} cells failed per pass)")
    for p, seconds in part_wall_s.items():
        mine = [c for c, q in zip(first, parts) if q == p]
        print(f"  part {p}: wall_s {seconds:.6g} s, "
              f"{sum(c.failed for c in mine)} of {len(mine)} cells failed per pass")
    for c in first:
        if c.failed:
            print(f"  failed {c.label}: {c.error or f'exit code {c.code}'}")
    for p in problems:
        print(f"  problem {p}")
    print(f"fingerprint {fp} baseline {match}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
