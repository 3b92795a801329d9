"""Record the report fingerprints that `run.py` compares each run against.

Run from the repository root, on the commit whose reports are the baseline:

    python3 perfbench/record_baseline.py --seeds 0-31

Runs one untraced pass of every workload per seed and writes
`perfbench/baseline.json`. A later commit whose fingerprints match produced
byte-identical reports, once the volatile `timestamp` subtree is removed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BASELINE, SRC, WORKLOADS, cells_of, fingerprint, git_sha, run_pass  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(SRC))
    from phjb import cli

    prints = {}
    for workload in sorted(WORKLOADS):
        cells = cells_of(workload)
        prints[workload] = {
            str(seed): fingerprint(run_pass(cli.execute, cells, seed)[1])
            for seed in range(lo, hi + 1)
        }
        print(f"{workload}: seeds {lo}-{hi} recorded")
    BASELINE.write_text(
        json.dumps({"git_sha": git_sha(), "fingerprints": prints}, indent=1, sort_keys=True)
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
