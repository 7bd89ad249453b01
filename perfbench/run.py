"""Benchmark harness for assortopt.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite_corpus --seed 1 --seconds 30 --trace 0

One process runs one workload: a single client in a closed loop, each
operation starting after the previous one returns.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run.
Earlier lines are a readable report (run metadata, every metric with its
unit and sample count, failures by reason).  Times are in reference
seconds, scaled for the host's speed (see hostspeed.py and
perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import SETUP, Installation, Recorder, exact_counts, layer_metrics  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import RESERVED_SEED, WORKLOADS, Op, fingerprint  # noqa: E402

SETUP_REPEATS = 5
MODULES = ("models", "axioms", "assortment", "udp", "stackelberg", "multiperiod", "io", "generators", "cli")
# Longest a timed phase may run, whole passes or not, so a run ends in time.
PHASE_LIMIT_S = 120.0


def import_library() -> SimpleNamespace:
    """Import assortopt afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "assortopt" or n.startswith("assortopt.")]:
        del sys.modules[name]
    package = importlib.import_module("assortopt")
    if Path(package.__file__).resolve().parent != SRC / "assortopt":
        raise ImportError(f"assortopt imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("assortopt." + m) for m in MODULES})


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


class Tally:
    """Outcomes of the operations of one phase.

    ``failed`` counts operations with any failed check; ``diverged`` counts
    those that raised or whose fingerprint differs from the reference.
    """

    def __init__(self, expected: dict[str, str]):
        self.expected = expected  # operation key -> reference fingerprint
        self.intervals: list[tuple[float, float]] = []
        self.failed = 0
        self.diverged = 0
        self.reasons: Counter = Counter()

    def record(self, op, result, error, start: float, end: float) -> None:
        self.intervals.append((start, end))
        diverged = True
        if error is not None:
            failed_checks = [f"raised {type(error).__name__}"]
        else:
            try:
                checks, payload = op.verify(result)
            except Exception as verify_error:  # a malformed result is a failed operation
                failed_checks = [f"verify raised {type(verify_error).__name__}"]
            else:
                failed_checks = [name for name, ok in checks.items() if not ok]
                diverged = fingerprint(checks, payload) != self.expected.get(op.key)
                if diverged:
                    failed_checks.append("fingerprint")
        if failed_checks:
            self.failed += 1
            self.reasons.update(failed_checks)
        self.diverged += diverged

    @property
    def busy(self) -> float:
        return sum(end - start for start, end in self.intervals)

    def latencies(self, speed: HostSpeed) -> list[float]:
        """Per-operation latency in reference seconds."""
        return [speed.scale(start, end) for start, end in self.intervals]


def run_op(op):
    started = perf_counter()
    try:
        result, error = op.run(), None
    except Exception as raised:  # counted as a failed operation, never fatal
        result, error = None, raised
    return result, error, perf_counter() - started


def run_phase(ops, tally: Tally, speed: HostSpeed, finished) -> None:
    """Run ops in order, cycling, until ``finished(done, reference_s)``.

    reference_s estimates the operation time so far in reference seconds,
    from the latest calibration.  Checks and calibration happen between
    operations, outside their timing.
    """
    gc.collect()
    started = perf_counter()
    done = 0
    reference_s = 0.0
    while True:
        if speed.due():
            speed.calibrate()
        op = ops[done % len(ops)]
        begin = perf_counter()
        result, error, elapsed = run_op(op)
        tally.record(op, result, error, begin, begin + elapsed)
        done += 1
        reference_s += elapsed * speed.factors[-1]
        if finished(done, reference_s) or perf_counter() - started > PHASE_LIMIT_S:
            break
    speed.calibrate()


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, Harrell-Davis estimate.

    A weighted mean of all order statistics, with weights concentrated
    around rank q% of n.  Operation latencies cluster by input kind, and a
    plain order statistic jumps between clusters when a percentile falls
    on a gap between them; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "assortopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        revision = ref
    return {"git": revision, "source_sha256": digest.hexdigest()[:16]}


def print_report(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<48} {value:>16.6g} {unit:<6} {note}")


def end_to_end(workload, ops, setup_s: list[float], speed: HostSpeed, args, expected) -> dict:
    tally = Tally(expected)
    def finished(done: int, reference_s: float) -> bool:
        # Whole passes only, so every run times the same mix; stop at the
        # pass end nearest to --seconds.
        passes, partial = divmod(done, len(ops))
        return partial == 0 and reference_s * (1 + 0.5 / passes) >= args.seconds

    run_phase(ops, tally, speed, finished)
    lat = tally.latencies(speed)
    count = len(lat)
    busy = sum(lat)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "ops_per_s": (count / busy, "1/s", f"{count} ops in {busy:.2f} s ({tally.busy:.2f} s raw)"),
        "op_p50_ms": (quantile(lat, 50) * 1e3, "ms", f"{count} samples"),
        "op_p90_ms": (quantile(lat, 90) * 1e3, "ms", f"{count} samples, {count - int(0.9 * count)} above p90"),
        "peak_rss_mb": (peak_mb, "MB", "ru_maxrss of this process"),
    }
    factors = speed.factors
    print_report(
        f"end-to-end, tracing off ({workload.name}); times in reference seconds:",
        [(k, v, u, n) for k, (v, u, n) in metrics.items()]
        + [
            ("failed_frac", tally.failed / count, "frac", f"{tally.failed} of {count} ops"),
            ("time_scale_factor", statistics.median(factors), "x",
             f"median of {len(factors)} calibrations, range {min(factors):.3f}..{max(factors):.3f}"),
        ],
    )
    if tally.reasons:
        print("  failed checks:", dict(sorted(tally.reasons.items())))
    return {
        "correct": tally.diverged == 0,
        "attempted": count,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def _traced_op(op: Op, recorder: Recorder) -> Op:
    def run():
        recorder.begin_op(op.key)
        recorder.active = True
        try:
            return op.run()
        finally:
            recorder.active = False
            recorder.end_op()

    return Op(op.key, run, op.verify)


def traced(workload, keys, args, expected, workdir: str) -> dict:
    """Untraced pass, then two traced passes over the same fixed operations."""
    keys = keys[: workload.scales[args.scale].trace_ops]
    lib = import_library()
    speed = HostSpeed()
    tallies = {}
    recorders = {}
    for phase in ("untraced", "traced_a", "traced_b"):
        recorder = Recorder()
        installation = Installation(recorder) if phase != "untraced" else None
        try:
            recorder.begin_op(SETUP)
            recorder.active = installation is not None
            ops = workload.build(lib, keys, args.scale, workdir)
            recorder.active = False
            recorder.end_op()
            if installation is not None:
                ops = [_traced_op(op, recorder) for op in ops]
            tally = Tally(expected)
            run_phase(ops, tally, speed, lambda done, _: done == len(ops))
        finally:
            recorder.active = False
            if installation is not None:
                installation.remove()
        tallies[phase], recorders[phase] = tally, recorder

    metrics = layer_metrics(recorders["traced_a"])
    repeat = exact_counts(layer_metrics(recorders["traced_b"]))
    first = exact_counts(metrics)
    counts_repeat = first == repeat
    if not counts_repeat:
        differing = sorted(k for k in first if first[k] != repeat.get(k))
        print(f"exact counts differ between traced runs: {differing}", file=sys.stderr)
    untraced_rate = len(keys) / sum(tallies["untraced"].latencies(speed))
    traced_rate = len(keys) / sum(tallies["traced_a"].latencies(speed))
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "frac")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}-{args.seed}.json", "w", encoding="utf-8") as handle:
        json.dump(recorders["traced_a"].dump(), handle)
    print_report(
        f"per-layer, traced run of {len(keys)} ops ({workload.name}):",
        [(k, v, u, "") for k, (v, u) in metrics.items()],
    )
    print(f"  exact counts identical across two traced runs: {counts_repeat}")
    attempted = sum(len(t.intervals) for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    diverged = sum(t.diverged for t in tallies.values())
    return {
        "correct": diverged == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time to measure, in reference seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the self-test sizes")
    parser.add_argument("--corrupt-reference", action="store_true", help="flip one reference digest (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "assortopt" / "__init__.py").is_file():
        print(f"error: no assortopt package under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    # One CPU for the whole run: the two vCPUs of the machine this was
    # written on ran at speeds 1.25-1.7x apart, and a process moved between
    # them mid-run.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    recorded = load_reference()[workload.name][args.scale]
    keys = workload.select(args.seed, args.scale, {c: recorded[c]["cost_us"] for c in workload.categories})
    expected = {f"{c}:{j}": digest for c in workload.categories for j, digest in enumerate(recorded[c]["digest"])}
    if args.corrupt_reference:
        expected["%s:%d" % keys[0]] = "0" * 12

    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "held_out_data": args.seed == RESERVED_SEED,
                "scale": args.scale,
                "why": workload.why,
                "predicted_unmoved": workload.unmoved,
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "pinned_cpu": cpu,
                "loadavg_at_start": load_at_start,
                **source_revision(),
            }
        )
    )
    workdir = str(OUT / f"work-{os.getpid()}")
    try:
        if args.trace:
            result = traced(workload, keys, args, expected, workdir)
        else:
            speed = HostSpeed()
            speed.calibrate()
            setups = []
            for _ in range(SETUP_REPEATS):
                started = perf_counter()
                lib = import_library()
                ops = workload.build(lib, keys, args.scale, workdir)
                setups.append((started, perf_counter()))
                speed.calibrate()
            setup_s = [speed.scale(start, end) for start, end in setups]
            result = end_to_end(workload, ops, setup_s, speed, args, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
