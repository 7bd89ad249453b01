"""Run every workload once and print the end-to-end metrics side by side.

Usage, from the repository root:

    python3 perfbench/summary.py [--seed 1] [--seconds 30]

Each workload runs in its own process, one after another, as run.py does
for a single workload.  The table gives each metric with its unit, the
sample count behind the latency percentiles, and failed_frac.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        command = [*SPEC["command"], "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        command[0] = sys.executable
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((workload, result))

    print(f"seed {args.seed}, {args.seconds:g} reference seconds per workload")
    print(f"{'metric':<14}{'unit':<6}" + "".join(f"{w:>22}" for w, _ in rows))
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        cells = "".join(f"{r['metrics'][name]['value']:>22.6g}" for _, r in rows)
        print(f"{name:<14}{metric['unit']:<6}{cells}")
    print(f"{'failed_frac':<14}{'frac':<6}" + "".join(f"{r['failed'] / r['attempted']:>22.4f}" for _, r in rows))
    print(f"{'samples':<14}{'ops':<6}" + "".join(f"{r['attempted']:>22d}" for _, r in rows))
    print(f"{'correct':<14}{'':<6}" + "".join(f"{str(r['correct']):>22}" for _, r in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
