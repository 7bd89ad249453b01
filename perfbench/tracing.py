"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package: every public function of
interest is replaced, in every ``assortopt`` module that binds it, by a
wrapper that opens a span around the call.  ``evaluate`` and
``is_independent`` are wrapped on the classes, so every model and matroid
instance is covered.

Spans are kept in memory and folded, as they close, into one
calling-context tree per operation (one node per distinct chain of span
names), so memory stays bounded even for the millions of ``evaluate`` calls
of an exhaustive scan.  A span's self time is its duration minus the
durations of its child spans; the run is single-threaded, so child spans
never overlap.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Public functions wrapped as their callers see them, by module.
FUNCTIONS = {
    "axioms": ("check_axioms", "check_purchase_monotonicity", "check_demand_submodularity"),
    "assortment": ("verify_guarantee", "revenue_ordered", "compute_bounds", "brute_force_optimum"),
    "udp": ("reduce_min_to_assortment", "reduce_rank_to_assortment", "brute_force_pricing", "uniform_pricing"),
    "stackelberg": ("reduce_to_assortment", "brute_force_stackelberg"),
    "multiperiod": ("solve_dp", "lstar_delta", "check_nesting_monotonicity", "check_marginal_value", "revenue_ladder"),
    "io": ("loads", "instance_from_dict"),
    "cli": ("main",),
    "generators": ("generate",),
}

MODEL_CLASSES = (
    "MnlModel",
    "MixedMnlModel",
    "StochasticPreferenceModel",
    "MallowsModel",
    "HfamModel",
    "TightExampleModel",
    "TabularModel",
    "MinPricingChoiceModel",
    "RankPricingChoiceModel",
    "StackelbergChoiceModel",
)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _scan_work(result, args, kwargs):
    """3^n superset pairs, counted only for scans that ran to the end."""
    passed = result.regularity.passed if hasattr(result, "regularity") else result.passed
    return ("axioms.pairs", 3 ** _first_arg(args, kwargs).n) if passed else None


def _grid_work(result, args, kwargs):
    instance = _first_arg(args, kwargs)
    return ("udp.assignments", (len(instance.valuation_levels) + 1) ** instance.n)


# Computed work of one call, (counter, amount), derived from its inputs.
WORK = {
    "axioms.check_axioms": _scan_work,
    "axioms.check_purchase_monotonicity": _scan_work,
    "axioms.check_demand_submodularity": _scan_work,
    "assortment.brute_force_optimum": lambda r, a, k: ("assortment.subsets", 2 ** _first_arg(a, k).n),
    "udp.brute_force_pricing": _grid_work,
    "multiperiod.solve_dp": lambda r, a, k: ("multiperiod.cells", r.horizon * r.capacity * r.k),
}


class _Node:
    __slots__ = ("children", "calls", "total", "self_time")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node()
        return node

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "children": {name: node.to_dict() for name, node in self.children.items()},
        }


SETUP = "setup"


class Recorder:
    """Collects spans while ``active``: one calling-context tree per
    operation, plus the exact counts that need per-call inputs.  Spans of
    the set-up (label ``SETUP``) only feed ``generators.generate.total_s``."""

    def __init__(self):
        self.active = False
        self.trees: list[tuple[str, _Node]] = []
        self.work: dict[str, int] = {}
        self.work_self: dict[str, float] = {}
        self.distinct_evaluations = 0
        self.distinct_ladders = 0
        self._stack: list[list] = []
        self._counting = False

    def begin_op(self, label: str) -> None:
        root = _Node()
        self.trees.append((label, root))
        self._stack = [[root, 0.0]]
        self._counting = label != SETUP
        self._evaluations: set[int] = set()
        self._models: dict[int, tuple[int, object]] = {}
        self._ladders: dict[int, object] = {}

    def end_op(self) -> None:
        if self._counting:
            self.distinct_evaluations += len(self._evaluations)
            self.distinct_ladders += len(self._ladders)
        self._stack = []
        self._evaluations = set()
        self._models = {}
        self._ladders = {}

    def span(self, name: str, fn, args, kwargs, work=None):
        node = self._stack[-1][0].child(name)
        frame = [node, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self._stack[-1][1] += elapsed
            node.calls += 1
            node.total += elapsed
            node.self_time += elapsed - frame[1]
        if work is not None and self._counting:
            counted = work(result, args, kwargs)
            if counted is not None:
                counter, amount = counted
                self.work[counter] = self.work.get(counter, 0) + amount
                self.work_self[counter] = self.work_self.get(counter, 0.0) + elapsed - frame[1]
        return result

    def note_evaluation(self, model, x, S) -> None:
        entry = self._models.get(id(model))
        if entry is None:
            # Holding the model keeps its id from being reused within the op.
            entry = self._models[id(model)] = (len(self._models), model)
        members = S if isinstance(S, frozenset) else frozenset(S)
        self._evaluations.add(hash((entry[0], x, hash(members))))

    def note_ladder(self, instance) -> None:
        self._ladders[id(instance)] = instance

    def totals(self, setup: bool = False) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds], over the
        operations, or over the set-up when ``setup`` is true."""
        out: dict[str, list] = {}

        def walk(node: _Node) -> None:
            for name, child in node.children.items():
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += child.calls
                entry[1] += child.total
                entry[2] += child.self_time
                walk(child)

        for label, root in self.trees:
            if (label == SETUP) == setup:
                walk(root)
        return out

    def dump(self) -> list:
        return [{"op": label, "spans": root.to_dict()["children"]} for label, root in self.trees]


def _wrap_function(recorder: Recorder, name: str, fn):
    work = WORK.get(name)
    ladder = name == "multiperiod.revenue_ladder"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        if ladder:
            recorder.note_ladder(_first_arg(args, kwargs))
        return recorder.span(name, fn, args, kwargs, work)

    return wrapper


def _wrap_evaluate(recorder: Recorder, fn):
    @functools.wraps(fn)
    def evaluate(self, x, S):
        if not recorder.active:
            return fn(self, x, S)
        recorder.note_evaluation(self, x, S)
        return recorder.span("models.evaluate." + type(self).__name__, fn, (self, x, S), {})

    return evaluate


def _wrap_independent(recorder: Recorder, fn):
    @functools.wraps(fn)
    def is_independent(self, subset):
        if not recorder.active:
            return fn(self, subset)
        return recorder.span("stackelberg.is_independent", fn, (self, subset), {})

    return is_independent


def _with_subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


class Installation:
    """Wrappers installed on the loaded ``assortopt`` modules; ``remove``
    restores every original binding."""

    def __init__(self, recorder: Recorder):
        self._undo: list[tuple[object, str, object]] = []
        owners = [m for n, m in sorted(sys.modules.items()) if n == "assortopt" or n.startswith("assortopt.")]
        for module_name, names in FUNCTIONS.items():
            module = sys.modules["assortopt." + module_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = _wrap_function(recorder, f"{module_name}.{fn_name}", original)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._set(owner, attr, wrapper)
        wrappers = (
            (sys.modules["assortopt.models"].ChoiceModel, "evaluate", _wrap_evaluate),
            (sys.modules["assortopt.stackelberg"].Matroid, "is_independent", _wrap_independent),
        )
        for base, method, wrap in wrappers:
            for cls in _with_subclasses(base):
                if method in vars(cls):
                    self._set(cls, method, wrap(recorder, vars(cls)[method]))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""
    totals = recorder.totals()

    def stat(name: str, which: int) -> float:
        return totals.get(name, [0, 0.0, 0.0])[which]

    calls, total_s, self_s = 0, 1, 2
    out: dict[str, tuple[float, str]] = {}
    evaluations = sum(stat("models.evaluate." + cls, calls) for cls in MODEL_CLASSES)
    out["models.evaluate.calls"] = (evaluations, "count")
    out["models.evaluate.total_s"] = (sum(stat("models.evaluate." + c, total_s) for c in MODEL_CLASSES), "s")
    out["models.evaluate.distinct_frac"] = (
        recorder.distinct_evaluations / evaluations if evaluations else 0.0,
        "frac",
    )
    for cls in MODEL_CLASSES:
        out[f"models.evaluate.{cls}.calls"] = (stat("models.evaluate." + cls, calls), "count")
        out[f"models.evaluate.{cls}.total_s"] = (stat("models.evaluate." + cls, total_s), "s")

    out["axioms.check_axioms.calls"] = (stat("axioms.check_axioms", calls), "count")
    for module, names in FUNCTIONS.items():
        for fn_name in names:
            name = f"{module}.{fn_name}"
            if name == "generators.generate":
                out[name + ".total_s"] = (recorder.totals(setup=True).get(name, [0, 0.0])[total_s], "s")
            elif name != "multiperiod.revenue_ladder":
                out[name + ".self_s"] = (stat(name, self_s), "s")
    out["stackelberg.is_independent.calls"] = (stat("stackelberg.is_independent", calls), "count")
    out["multiperiod.lstar_delta.calls"] = (stat("multiperiod.lstar_delta", calls), "count")
    ladders = stat("multiperiod.revenue_ladder", calls)
    out["multiperiod.revenue_ladder.calls"] = (ladders, "count")
    out["multiperiod.revenue_ladder.useful_frac"] = (
        recorder.distinct_ladders / ladders if ladders else 0.0,
        "frac",
    )

    for counter in ("axioms.pairs", "assortment.subsets", "udp.assignments", "multiperiod.cells"):
        work, seconds = recorder.work.get(counter, 0), recorder.work_self.get(counter, 0.0)
        out[counter + "_computed"] = (work, "count")
        out[counter + "_per_s"] = (work / seconds if seconds > 0 else 0.0, "1/s")
    return out


EXACT_UNITS = ("count", "frac")


def exact_counts(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The metrics that must repeat exactly across two traced runs."""
    return {name: value for name, (value, unit) in metrics.items() if unit in EXACT_UNITS}
