"""Command-line surface: generate, solve, verify, and batch-check instances.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad usage or a bad
flag value (``suite --checks`` takes only the names in ``SUITE_CHECKS``), a
``suite`` given no file or a glob pattern that matches none, an instance
file that is unreadable, malformed (JSON nested too deeply to parse
included), invalid or of the wrong kind, or an instance beyond an
enumeration guard or the float range (one line on stderr).

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
import math
import sys
import time

from .assortment import (
    AssortmentInstance,
    brute_force_optimum,
    compute_bounds,
    revenue_ordered,
    verify_guarantee,
)
from .errors import GroundSetTooLarge, InvalidParams, RegularityViolation, SearchSpaceTooLarge
from .generators import generate
from .io import dumps, instance_from_dict, instance_to_dict, loads
from .multiperiod import (
    MultiPeriodInstance,
    check_lstar_order,
    check_marginal_value,
    check_nesting_monotonicity,
    solve_dp,
)
from .reductions import reduce_pricing, solve_pricing, verify_reduction
from .udp import UNPRICED

USAGE_ERROR = 2
SUITE_CHECKS = ("axioms", "guarantees", "reduction", "monotonicity")


def _finite_numbers(row) -> bool:
    """Whether ``row`` is a list or tuple of ints and finite floats, which the
    JSON encoder always takes, told without encoding it.  An int past the
    float range overflows ``math.isfinite`` and is left to the encoder."""
    if type(row) not in (list, tuple) or not set(map(type, row)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, row))
    except OverflowError:
        return False


def _emit(data: dict, as_json: bool) -> None:
    """Print a report as ``json.dumps`` of it, or as one ``key: value`` line
    per entry, in the same bytes but written piece by piece, so a long table
    (the capacity DP's rows) is never held as one string.  In JSON the
    braces, keys and separators are written by hand, and each value, or
    each row of a list value, is one ``json.dumps``.  A NaN or infinite
    float refuses the JSON before any byte is written: each entry, row by
    row, in its order, is either a row of finite numbers or goes first
    through that encoder, which raises the error ``json.dumps`` of the
    whole report raises."""
    if as_json:
        encode = functools.partial(json.dumps, sort_keys=True, allow_nan=False)
        for key in sorted(data):
            for item in data[key] if isinstance(data[key], list) else [data[key]]:
                if not _finite_numbers(item):
                    encode(item)
        sys.stdout.write("{")
        for i, key in enumerate(sorted(data)):
            sys.stdout.write(f"{', ' * bool(i)}{json.dumps(key)}: ")
            if isinstance(data[key], list):
                sys.stdout.write("[")
                sys.stdout.writelines(f"{', ' * bool(j)}{encode(item)}" for j, item in enumerate(data[key]))
                sys.stdout.write("]")
            else:
                sys.stdout.write(encode(data[key]))
        print("}")
        return
    for key, value in data.items():
        if isinstance(value, list):  # its str, one item at a time
            print(f"{key}: [", end="")
            sys.stdout.writelines(f"{', ' * bool(i)}{item!r}" for i, item in enumerate(value))
            print("]")
        else:
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
    except (OSError, ValueError, RecursionError) as error:
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


def _bounds_dict(instance: AssortmentInstance, optimum) -> dict:
    report = compute_bounds(instance, optimal=optimum)
    return {
        "A": report.bound_a,
        "B_exact": float(report.bound_b_exact),
        "B_log": report.bound_b_log,
        "C_exact": None if report.bound_c_exact is None else float(report.bound_c_exact),
        "C_log": report.bound_c_log,
        "nu": report.nu,
    }


def _cmd_gen(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as error:
        raise SystemExit(f"invalid --params: {error}")
    if not isinstance(params, dict):
        raise SystemExit(f"invalid --params: expected a JSON object, got {args.params}")
    try:
        data = generate(args.kind, args.family, params, args.seed)
    except InvalidParams as error:
        print(f"invalid parameters: {error}", file=sys.stderr)
        return USAGE_ERROR
    text = dumps(data)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as error:
            raise SystemExit(f"cannot write {args.output}: {error}")
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
        optimum = brute_force_optimum(instance)
        report["opt"] = float(optimum.revenue)
        report["opt_assortment"] = sorted(optimum.assortment)
    if args.method == "both":
        opt_value = float(optimum.revenue)
        report["ratio"] = float(heuristic.solution.revenue) / opt_value if opt_value > 0 else 1.0
    if args.bounds:
        report["bounds"] = _bounds_dict(instance, optimum)
    return report


def _cmd_solve(args) -> int:
    instance = _load(args.file, "assortment")
    _emit(_solve_assortment(instance, args), args.json)
    return 0


def _cmd_bounds(args) -> int:
    instance = _load(args.file, "assortment")
    optimum = brute_force_optimum(instance) if args.with_optimal else None
    _emit({"bounds": _bounds_dict(instance, optimum)}, args.json)
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
    try:  # refuses an instance beyond a guard, or one whose reduced revenues overflow a float
        if args.action == "reduce":
            sys.stdout.write(dumps(instance_to_dict(reduce_pricing(instance))))
            return 0
        report = verify_reduction(instance)
    except ValueError as error:
        raise SystemExit(f"cannot {args.action} {args.file}: {error}")
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


def _dp_checks(table) -> dict:
    """The verdicts of ``multiperiod --check``, which ``suite`` also runs."""
    return {
        "nesting_monotonicity": check_nesting_monotonicity(table).passed,
        "marginal_value": check_marginal_value(table).passed,
        "lstar_agreement": check_lstar_order(table).passed,
    }


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
    table = solve_dp(instance)
    report: dict = {
        "horizon": table.horizon,
        "capacity": table.capacity,
        "value": [list(row) for row in table.value],
        "lstar": [list(row) for row in table.lstar],
        "regularity_ok": table.regularity_ok,
    }
    passed = True
    if args.check:
        checks = _dp_checks(table)
        passed = all(checks.values())
        report.update(checks, passed=passed)
    _emit(report, args.json)
    return 0 if passed else 1


def _suite_check_file(path: str, checks: list[str]) -> dict:
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
        applicable = {"axioms": lambda: instance.axioms.passed,
                      "guarantees": lambda: verify_guarantee(instance).passed}
    elif isinstance(instance, MultiPeriodInstance):
        applicable = {"monotonicity": lambda: all(_dp_checks(solve_dp(instance)).values())}
    else:  # a pricing instance
        applicable = {"reduction": lambda: verify_reduction(instance).passed}
    chosen = [name for name in applicable if not checks or name in checks]
    if not chosen:  # a record that runs nothing must not pass
        record["error"] = f"no requested check applies to a {record['kind']} file; its checks: {', '.join(applicable)}"
        record["passed"] = False
    for name in chosen:
        run(name, applicable[name])
    return record


def _cmd_suite(args) -> int:
    if not args.files:
        raise SystemExit("suite got no instance file or glob pattern")
    paths: list[str] = []
    for pattern in args.files:
        if any(c in pattern for c in "*?["):
            matched = sorted(glob.glob(pattern))
            if not matched:  # a run that checks nothing must not pass
                raise SystemExit(f"no file matches the pattern {pattern!r}")
            paths.extend(matched)
        else:
            paths.append(pattern)
    checks = [c for c in (args.checks.split(",") if args.checks else []) if c]
    unknown = [c for c in checks if c not in SUITE_CHECKS]
    if unknown:
        raise SystemExit(f"unknown --checks {', '.join(map(repr, unknown))}; accepted: {', '.join(SUITE_CHECKS)}")
    all_passed = True
    for path in paths:
        record = _suite_check_file(path, checks)
        all_passed = all_passed and record["passed"]
        print(json.dumps(record, sort_keys=True))
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``assort`` command line; ``main`` reuses one."""
    parser = argparse.ArgumentParser(
        prog="assort",
        description="Assortment optimisation under regular discrete choice models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("kind", choices=["assortment", "udp_min", "udp_rank", "stackelberg", "multiperiod"])
    gen.add_argument("--family", default=None, help="model family for assortment/multiperiod kinds")
    gen.add_argument("--params", default=None, help="family parameters as a JSON object")
    gen.add_argument("--seed", type=int, default=0)
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

    for name, text, kinds in (("udp", "unit-demand pricing commands", ("udp_min", "udp_rank")),
                              ("stackelberg", "matroid pricing commands", ("stackelberg",))):
        pricing = sub.add_parser(name, help=text)
        pricing.add_argument("action", choices=["solve", "reduce", "verify"])
        pricing.add_argument("file")
        pricing.add_argument("--json", action="store_true")
        pricing.set_defaults(func=_cmd_pricing, kinds=kinds)

    multiperiod = sub.add_parser("multiperiod", help="capacity DP over revenue-ordered assortments")
    multiperiod.add_argument("file")
    multiperiod.add_argument("--T", type=int, default=None)
    multiperiod.add_argument("--Q", type=int, default=None)
    multiperiod.add_argument("--check", action="store_true", help="verify the monotonicity properties")
    multiperiod.add_argument("--json", action="store_true")
    multiperiod.set_defaults(func=_cmd_multiperiod)

    suite = sub.add_parser("suite", help="run verifications over instance files (JSON-lines output)")
    suite.add_argument("files", nargs="*", help="instance files or glob patterns")
    suite.add_argument("--checks", default=None, help=f"comma-separated subset of {', '.join(SUITE_CHECKS)} (default: all)")
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
        print(error.code, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
