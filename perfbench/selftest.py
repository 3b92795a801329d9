"""Benchmark self-test: two traced runs at one seed must agree exactly.

Run from the repository root:

    python3 perfbench/selftest.py [--seed 0] [--seconds 1] [WORKLOAD ...]

For each workload (all by default) this runs `run.py --trace 1` twice, each in
a fresh interpreter, and compares every per-layer metric whose unit is
`count` (the `*.calls` counts, `value.memo_*`, `checks.net_paths`, ...) and
the report fingerprint. It prints each difference and exits 1 if there is
any.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    subprocess.run(cmd, cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL)
    return json.loads((OUT / f"result-{workload}-seed{seed}-trace1.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    differences = 0
    for workload in args.workloads:
        a, b = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        counts = sorted(k for k, m in a["metrics"].items() if m["unit"] == "count")
        for key in counts + ["fingerprint"]:
            va = a["metrics"][key]["value"] if key != "fingerprint" else a[key]
            vb = b["metrics"][key]["value"] if key != "fingerprint" else b[key]
            if va != vb:
                differences += 1
                print(f"{workload} {key}: {va} != {vb}")
        for r in (a, b):
            for p in r["problems"]:
                differences += 1
                print(f"{workload} problem: {p}")
        print(f"{workload}: {len(counts)} counts and the fingerprint compared")
    print("self-test", "passed" if not differences else f"failed with {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
