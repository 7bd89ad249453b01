"""Self-test of the benchmark at tiny sizes.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload once with tracing off and once with tracing on, and
checks that the last output line has the result keys (correct, attempted,
failed, metrics) and every metric of BENCHMARK.json with its unit.  It then
checks that a deliberately corrupted reference fingerprint is counted as a
failed operation, and that the benchmark refuses to run without the package
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    command = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", "--scale", "tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if done.returncode != 0 and done.stderr:
        print(done.stderr, file=sys.stderr)
    return done.returncode, last


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run("--workload", workload, "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{label}: exits 0 with a result line", failures)
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys", failures)
            expect(result["correct"] is True and result["attempted"] >= 1, f"{label}: correct", failures)
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in SPEC[group]}
            expect(set(metrics) == set(wanted), f"{label}: every {group} metric, no others", failures)
            expect(
                all(metrics.get(name, {}).get("unit") == unit for name, unit in wanted.items()),
                f"{label}: units match BENCHMARK.json",
                failures,
            )

    code, result = run("--workload", "exhaustive_large_n", "--trace", "0", "--corrupt-reference")
    expect(
        code == 0 and result is not None and result["failed"] >= 1 and result["correct"] is False,
        "a corrupted fingerprint counts as a failed operation",
        failures,
    )

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result = run("--workload", "suite_corpus", "--trace", "0", cwd=bare)
        expect(code != 0 and result is None, "without src/ the benchmark exits nonzero and prints no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
