"""Record the results fingerprint and cost of every operation any seed can produce.

Usage, from the repository root:

    python3 perfbench/record.py [workload ...]

Runs each operation of the workloads' universes (both scales) once and
writes ``perfbench/reference.json``: per category, the fingerprint of each
operation and its running time in microseconds.  The times only rank
inputs into strata (see ``Workload.select``).  The fingerprints pin the
outputs of the code they were recorded on; re-record only for a change that
is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from collections import Counter

from run import HERE, OUT, SRC, import_library, run_op
from workloads import WORKLOADS, fingerprint


def record(workload, scale: str, lib) -> dict[str, dict[str, list]]:
    keys = workload.universe(scale)
    per_category = len(keys) // len(workload.categories)
    out = {c: {"digest": [""] * per_category, "cost_us": [0] * per_category} for c in workload.categories}
    workdir = str(OUT / f"record-{os.getpid()}")
    failures: Counter = Counter()
    try:
        for op in workload.build(lib, keys, scale, workdir):
            result, error, elapsed = run_op(op)
            if error is not None:
                raise RuntimeError(f"{workload.name} {op.key} raised") from error
            checks, payload = op.verify(result)
            failures.update(name for name, ok in checks.items() if not ok)
            category, _, j = op.key.rpartition(":")
            out[category]["digest"][int(j)] = fingerprint(checks, payload)
            out[category]["cost_us"][int(j)] = round(elapsed * 1e6)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{workload.name}/{scale}: {len(keys)} ops, failed checks {dict(failures)}", flush=True)
    return out


def dump(reference: dict) -> str:
    """Indented JSON with each list on one line, so diffs stay readable."""
    text = json.dumps(reference, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text) + "\n"


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    lib = import_library()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or sorted(WORKLOADS):
        reference[name] = {scale: record(WORKLOADS[name], scale, lib) for scale in ("tiny", "full")}
        path.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
