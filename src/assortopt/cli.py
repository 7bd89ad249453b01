"""Command-line surface: generate, solve, verify, and batch-check instances.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad usage or a
bad flag value, an instance file that is unreadable, malformed, invalid or of
the wrong kind, or an instance beyond an enumeration guard (one line on stderr).

``main`` parses with one parser per process, built on its first call, so a
process that calls ``main`` many times (the tests, ``perfbench``) builds the
argparse tree once.  Because every call shares that parser, no argument may
have a mutable default (a list default or an ``append`` action): it would
carry values from one call into the next.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import sys
import time

from .assortment import (
    AssortmentInstance,
    brute_force_optimum,
    compute_bounds,
    revenue_ordered,
    verify_guarantee,
)
from .axioms import check_axioms
from .errors import GroundSetTooLarge, InvalidParams, RegularityViolation, SearchSpaceTooLarge
from .generators import generate
from .io import dumps, instance_from_dict, instance_to_dict, loads
from .multiperiod import (
    MultiPeriodInstance,
    check_marginal_value,
    check_nesting_monotonicity,
    lstar_delta,
    solve_dp,
)
from .reductions import reduce_pricing, solve_pricing, verify_reduction
from .stackelberg import StackelbergInstance
from .udp import UNPRICED, UdpMinInstance, UdpRankInstance

USAGE_ERROR = 2


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True, allow_nan=False))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")


def _load(path: str, *kinds: str):
    """The instance in the file at ``path``, which must be one of ``kinds``.

    A multiperiod file passes as its one-period base unless ``kinds``
    accepts multiperiod instances.  An unreadable, malformed or invalid
    file, or one of another kind, exits with a one-line message.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = loads(handle.read())
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot read {path}: {error}")
    try:
        instance = instance_from_dict(data)
    except KeyError as error:
        raise SystemExit(f"invalid instance file {path}: missing key {error}")
    except (TypeError, ValueError) as error:
        raise SystemExit(f"invalid instance file {path}: {error}")
    kind = data["kind"]
    if kind == "multiperiod" and kind not in kinds:
        instance, kind = instance.base, "assortment"
    if kind not in kinds:
        raise SystemExit(f"{path} holds a {kind} instance; expected {' or '.join(kinds)}")
    return instance


def _price(p):
    return "inf" if p == UNPRICED else p


def _bounds_dict(report) -> dict:
    return {
        "A": report.bound_a,
        "B_exact": report.bound_b_exact,
        "B_log": report.bound_b_log,
        "C_exact": report.bound_c_exact,
        "C_log": report.bound_c_log,
        "nu": report.nu,
        "lambda_tilde": report.lambda_tilde,
    }


def _cmd_gen(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as error:
        raise SystemExit(f"invalid --params: {error}")
    if not isinstance(params, dict):
        raise SystemExit(f"invalid --params: expected a JSON object, got {args.params}")
    seed = args.seed if args.seed is not None else int(os.environ.get("ASSORT_SEED", "0"))
    try:
        data = generate(args.kind, args.family, params, seed)
    except InvalidParams as error:
        print(f"invalid parameters: {error}", file=sys.stderr)
        return USAGE_ERROR
    text = dumps(data)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _solve_assortment(instance: AssortmentInstance, args) -> dict:
    report: dict = {}
    heuristic = revenue_ordered(instance)
    if args.method in ("revord", "both"):
        report["revord"] = float(heuristic.solution.revenue)
        report["revord_assortment"] = sorted(heuristic.solution.assortment)
    optimum = None
    if args.method in ("brute", "both"):
        optimum = brute_force_optimum(instance, guard=args.guard_n)
        report["opt"] = float(optimum.revenue)
        report["opt_assortment"] = sorted(optimum.assortment)
    if args.method == "both":
        opt_value = float(optimum.revenue)
        report["ratio"] = float(heuristic.solution.revenue) / opt_value if opt_value > 0 else 1.0
    if args.bounds:
        report["bounds"] = _bounds_dict(compute_bounds(instance, optimal=optimum))
    return report


def _cmd_solve(args) -> int:
    instance = _load(args.file, "assortment")
    _emit(_solve_assortment(instance, args), args.json)
    return 0


def _cmd_bounds(args) -> int:
    instance = _load(args.file, "assortment")
    optimum = brute_force_optimum(instance, guard=args.guard_n) if args.with_optimal else None
    _emit({"bounds": _bounds_dict(compute_bounds(instance, optimal=optimum))}, args.json)
    return 0


def _cmd_pricing(args) -> int:
    instance = _load(args.file, *args.kinds)
    if args.action == "solve":
        uniform, exact = solve_pricing(instance)
        if isinstance(exact.prices, dict):
            prices = {str(e): _price(p) for e, p in sorted(exact.prices.items())}
        else:
            prices = [_price(p) for p in exact.prices]
        _emit(
            {
                "uniform_price": uniform.price,
                "uniform_revenue": uniform.revenue,
                "opt_revenue": exact.revenue,
                "opt_prices": prices,
            },
            args.json,
        )
        return 0
    if args.action == "reduce":
        reduced = reduce_pricing(instance, guard=args.guard_n)
        sys.stdout.write(dumps(instance_to_dict(reduced, kind="assortment")))
        return 0
    report = verify_reduction(instance, guard=args.guard_n)
    _emit(
        {
            "opt_pricing": report.opt_pricing,
            "opt_assortment": float(report.opt_assortment),
            "opt_match": report.opt_match,
            "axioms_pass": report.axioms_pass,
            "uniform_equals_revenue_ordered": report.uniform_equals_revenue_ordered,
            "passed": report.passed,
        },
        args.json,
    )
    return 0 if report.passed else 1


def _cmd_multiperiod(args) -> int:
    instance = _load(args.file, "assortment", "multiperiod")
    try:
        if isinstance(instance, AssortmentInstance):
            if args.T is None or args.Q is None:
                raise SystemExit("an assortment instance needs --T and --Q")
            instance = MultiPeriodInstance(instance, args.T, args.Q)
        elif args.T is not None or args.Q is not None:
            instance = MultiPeriodInstance(
                instance.base,
                args.T if args.T is not None else instance.horizon,
                args.Q if args.Q is not None else instance.capacity,
            )
    except ValueError as error:
        raise SystemExit(f"cannot build the multiperiod instance: {error}")
    table = solve_dp(instance, guard=args.guard_n)
    report: dict = {
        "horizon": table.horizon,
        "capacity": table.capacity,
        "value": [list(row) for row in table.value],
        "lstar": [list(row) for row in table.lstar],
        "regularity_ok": table.regularity_ok,
    }
    passed = True
    if args.check:
        nesting = check_nesting_monotonicity(table)
        marginal = check_marginal_value(table)
        agreement = all(
            table.lstar[t][q] == lstar_delta(instance.base, -table.marginal(t - 1, q))
            for t in range(1, table.horizon + 1)
            for q in range(1, table.capacity + 1)
        )
        report["nesting_monotonicity"] = nesting.passed
        report["marginal_value"] = marginal.passed
        report["lstar_agreement"] = agreement
        passed = nesting.passed and marginal.passed and agreement
        report["passed"] = passed
    _emit(report, args.json)
    return 0 if passed else 1


def _suite_check_file(path: str, checks: list[str], guard: int) -> dict:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        return {"file": path, "error": str(error), "checks": {}, "timings": {}, "passed": False}
    record: dict = {
        "file": path,
        "digest": hashlib.sha256(raw).hexdigest(),
        "checks": {},
        "timings": {},
        "passed": True,
    }
    try:
        data = loads(raw.decode("utf-8"))
        instance = instance_from_dict(data)
    except Exception as error:  # malformed files must not kill the suite
        record["error"] = str(error)
        record["passed"] = False
        return record
    record["kind"] = data.get("kind")

    def run(name: str, thunk) -> None:
        if checks and name not in checks:
            return
        started = time.perf_counter()
        try:
            ok = bool(thunk())
        except RegularityViolation as error:
            record["checks"][name] = f"regularity violation: {error}"
            ok = False
        except Exception as error:
            record["checks"][name] = f"error: {error}"
            ok = False
        else:
            record["checks"][name] = ok
        record["timings"][name] = round(time.perf_counter() - started, 6)
        record["passed"] = record["passed"] and ok

    if isinstance(instance, AssortmentInstance):
        run("axioms", lambda: check_axioms(instance.table_within(guard)).passed)
        run("guarantees", lambda: verify_guarantee(instance, guard=guard).passed)
    elif isinstance(instance, (UdpMinInstance, UdpRankInstance, StackelbergInstance)):
        run("reduction", lambda: verify_reduction(instance, guard=guard).passed)
    elif isinstance(instance, MultiPeriodInstance):

        def monotone_ok() -> bool:
            table = solve_dp(instance, guard=guard)
            return (
                check_nesting_monotonicity(table).passed
                and check_marginal_value(table).passed
            )

        run("monotonicity", monotone_ok)
    return record


def _cmd_suite(args) -> int:
    paths: list[str] = []
    for pattern in args.files:
        if any(c in pattern for c in "*?["):
            paths.extend(sorted(glob.glob(pattern)))
        else:
            paths.append(pattern)
    checks = [c for c in (args.checks.split(",") if args.checks else []) if c]
    all_passed = True
    for path in paths:
        record = _suite_check_file(path, checks, args.guard_n)
        all_passed = all_passed and record["passed"]
        print(json.dumps(record, sort_keys=True))
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``assort`` command line; ``main`` reuses one."""
    parser = argparse.ArgumentParser(
        prog="assort",
        description="Assortment optimisation under regular discrete choice models.",
    )
    parser.add_argument("--guard-n", type=int, default=20, help="enumeration guard on ground-set size")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("kind", choices=["assortment", "udp_min", "udp_rank", "stackelberg", "multiperiod"])
    gen.add_argument("--family", default=None, help="model family for assortment/multiperiod kinds")
    gen.add_argument("--params", default=None, help="family parameters as a JSON object")
    gen.add_argument("--seed", type=int, default=None, help="defaults to $ASSORT_SEED or 0")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an assortment instance")
    solve.add_argument("file")
    solve.add_argument("--method", choices=["revord", "brute", "both"], default="both")
    solve.add_argument("--bounds", action="store_true")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    bounds = sub.add_parser("bounds", help="approximation bounds of an instance")
    bounds.add_argument("file")
    bounds.add_argument("--with-optimal", action="store_true", help="also compute the optimal-assortment bound")
    bounds.add_argument("--json", action="store_true")
    bounds.set_defaults(func=_cmd_bounds)

    udp = sub.add_parser("udp", help="unit-demand pricing commands")
    udp.add_argument("action", choices=["solve", "reduce", "verify"])
    udp.add_argument("file")
    udp.add_argument("--json", action="store_true")
    udp.set_defaults(func=_cmd_pricing, kinds=("udp_min", "udp_rank"))

    stackelberg = sub.add_parser("stackelberg", help="matroid pricing commands")
    stackelberg.add_argument("action", choices=["solve", "reduce", "verify"])
    stackelberg.add_argument("file")
    stackelberg.add_argument("--json", action="store_true")
    stackelberg.set_defaults(func=_cmd_pricing, kinds=("stackelberg",))

    multiperiod = sub.add_parser("multiperiod", help="capacity DP over revenue-ordered assortments")
    multiperiod.add_argument("file")
    multiperiod.add_argument("--T", type=int, default=None)
    multiperiod.add_argument("--Q", type=int, default=None)
    multiperiod.add_argument("--check", action="store_true", help="verify the monotonicity properties")
    multiperiod.add_argument("--json", action="store_true")
    multiperiod.set_defaults(func=_cmd_multiperiod)

    suite = sub.add_parser("suite", help="run verifications over instance files (JSON-lines output)")
    suite.add_argument("files", nargs="*", help="instance files or glob patterns")
    suite.add_argument("--checks", default=None, help="comma-separated subset of checks to run")
    suite.set_defaults(func=_cmd_suite)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, so importing the package does not pay for it.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GroundSetTooLarge, SearchSpaceTooLarge) as error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as error:
        if isinstance(error.code, str):
            print(error.code, file=sys.stderr)
            return USAGE_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())
