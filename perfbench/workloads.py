"""The three benchmark workloads: inputs from a seed, operations, and checks.

Every workload draws its inputs from a fixed universe of generator seeds.
The universe has a development part, sampled by every ordinary ``--seed``,
and a held-out part that only ``RESERVED_SEED`` uses, so a claim can be
confirmed on data that was not looked at while it was written.  Because the
universe is finite, ``reference.json`` can hold the results fingerprint of
every operation any seed can produce.

An operation returns its raw result; ``verify`` then (outside the timed
region) turns it into named property checks and a fingerprint payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

RESERVED_SEED = 1606
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Checks that are reported but left out of the fingerprint: the l* tables
# change when the capacity DP's tie rule is fixed.
UNFINGERPRINTED = frozenset({"lstar_agreement"})


def canonical(value):
    """JSON-ready form: floats to 9 significant digits, Fractions exact."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (frozenset, set)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def fingerprint(checks: dict, payload) -> str:
    kept = {name: ok for name, ok in checks.items() if name not in UNFINGERPRINTED}
    text = json.dumps(canonical({"checks": kept, "out": payload}), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    verify: Callable[[object], tuple[dict, object]]


@dataclass(frozen=True)
class Scale:
    dev: int  # universe indices 0..dev-1, sampled by ordinary seeds
    held: int  # indices dev..dev+held-1, used only by RESERVED_SEED
    per_run: int  # indices drawn per category in one run, one per stratum
    trace_ops: int  # operations in each phase of the traced run
    sizes: dict


class Workload:
    name = ""
    why = ""
    unmoved = ""  # the layer this workload predicts will not move
    categories: tuple[str, ...] = ()
    scales: dict[str, Scale] = {}

    def select(self, seed: int, scale: str, costs: dict[str, list[int]]) -> list[tuple[str, int]]:
        """The (category, index) keys one run uses, in run order.

        Each category's pool is ranked by the cost recorded for it and cut
        into ``per_run`` strata; the seed picks one index per stratum, so
        every run holds the same spread of small and large inputs.  Rounds
        (one stratum of every category) follow a golden-ratio order, so any
        prefix of the list is spread over all sizes too.
        """
        cfg = self.scales[scale]
        rng = Random(seed)
        pool = range(cfg.dev, cfg.dev + cfg.held) if seed == RESERVED_SEED else range(cfg.dev)
        size = len(pool) // cfg.per_run
        picks = {}
        for category in self.categories:
            ranked = sorted(pool, key=lambda j: (costs[category][j], j))
            picks[category] = [rng.choice(ranked[s * size : (s + 1) * size]) for s in range(cfg.per_run)]
        keys = []
        for stratum in sorted(range(cfg.per_run), key=lambda s: (s * GOLDEN) % 1.0):
            round_ = [(category, picks[category][stratum]) for category in self.categories]
            rng.shuffle(round_)
            keys += round_
        return keys

    def universe(self, scale: str) -> list[tuple[str, int]]:
        cfg = self.scales[scale]
        return [(c, j) for c in self.categories for j in range(cfg.dev + cfg.held)]

    def generator_seed(self, category: str, j: int) -> int:
        return j * 100 + self.categories.index(category)

    def build(self, lib, keys, scale: str, workdir: str) -> list[Op]:
        raise NotImplementedError


def _isclose(a, b) -> bool:
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)


def _check_result(result) -> list:
    return [result.passed, result.witness, result.gap]


# --------------------------------------------------------------- suite_corpus


class SuiteCorpus(Workload):
    name = "suite_corpus"
    why = (
        "the batch path users run: assort suite over many short mixed files, so per-file overhead, "
        "parsing and tabulation show; predicts multiperiod does not move"
    )
    unmoved = "multiperiod"
    categories = (
        "assortment.mnl",
        "assortment.mixed_mnl",
        "assortment.stochastic_preference",
        "assortment.mallows",
        "assortment.hfam",
        "assortment.tight",
        "udp_min",
        "udp_rank",
        "stackelberg",
        "multiperiod",
    )
    scales = {
        "full": Scale(dev=160, held=80, per_run=80, trace_ops=200, sizes={"n_max": 9}),
        "tiny": Scale(dev=4, held=2, per_run=2, trace_ops=20, sizes={"n_max": 5}),
    }

    def build(self, lib, keys, scale, workdir):
        os.makedirs(workdir, exist_ok=True)
        n_max = self.scales[scale].sizes["n_max"]
        ops = []
        for where, (category, j) in enumerate(keys):
            seed = self.generator_seed(category, j)
            kind, _, family = category.partition(".")
            params: dict = {}
            if family == "tight":
                # The tight family ignores the seed; draw its size so files differ,
                # keeping n = k(k+1)/2 within n_max.
                rng = Random(seed)
                params = {"k": rng.randint(1, 3), "eps": rng.choice([0.5, 0.1, 0.01])}
            elif kind == "assortment":
                params = {"n_max": n_max}
            data = lib.generators.generate(kind, family or None, params, seed)
            path = os.path.join(workdir, f"{where:04d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(lib.io.dumps(data))
            ops.append(Op(f"{category}:{j}", _suite_runner(lib, path), _suite_verifier(lib, path, kind, family)))
        return ops


def _suite_runner(lib, path):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(["suite", path])
        return code, out.getvalue()

    return run


def _suite_verifier(lib, path, kind, family):
    def verify(result):
        code, out = result
        record = json.loads(out)
        checks = {"exit_zero": code == 0, "record_passed": record["passed"] is True}
        payload = {key: record.get(key) for key in ("kind", "digest", "checks", "passed")}
        instance = lib.io.read_instance(path)
        A = lib.assortment
        if kind == "assortment" and family == "mnl":
            optimum = A.brute_force_optimum(instance)
            ordered = A.revenue_ordered(instance).solution
            checks["mnl_revenue_ordered_optimal"] = _isclose(ordered.revenue, optimum.revenue)
            payload["optimum"] = [optimum.assortment, optimum.revenue]
            payload["revenue_ordered"] = [ordered.assortment, ordered.revenue]
        elif kind in ("udp_min", "udp_rank", "stackelberg"):
            if kind == "stackelberg":
                reduced = lib.stackelberg.reduce_to_assortment(instance)
                pricing = lib.stackelberg.brute_force_stackelberg(instance).revenue
            else:
                reduce = lib.udp.reduce_min_to_assortment if kind == "udp_min" else lib.udp.reduce_rank_to_assortment
                reduced = reduce(instance)
                pricing = lib.udp.brute_force_pricing(instance).revenue
            optimum = A.brute_force_optimum(reduced)
            checks["reduction_opt_exact"] = optimum.revenue == pricing
            payload["optimum"] = [optimum.assortment, optimum.revenue, pricing]
        return checks, payload

    return verify


# ---------------------------------------------------------- exhaustive_large_n


def _weights(rng: Random, count: int) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(count)]
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    return weights


def _utilities(rng: Random, n: int) -> list[float]:
    return [rng.gauss(0.0, 1.5) for _ in range(n)]


def _model_factory(lib, family: str, rng: Random, n: int):
    """Draw a model's parameters now; the factory builds a fresh instance, so
    no memo cache carries over between operations."""
    M = lib.models
    if family == "mnl":
        utilities = _utilities(rng, n)
        return lambda: M.MnlModel(utilities)
    if family == "mixed_mnl":
        components = [(w, _utilities(rng, n)) for w in _weights(rng, 3)]
        return lambda: M.MixedMnlModel(components)
    if family == "stochastic_preference":
        rankings = []
        for w in _weights(rng, 5):
            order = list(range(n + 1))
            rng.shuffle(order)
            rankings.append((w, tuple(order)))
        return lambda: M.StochasticPreferenceModel(n, rankings)
    if family == "tabular":
        table = M.MnlModel(_utilities(rng, n)).to_tabular()
        return lambda: table
    raise ValueError(family)


def _nonregular_table(lib, rng: Random, n: int):
    """An MNL table with P(n, {1..n}) raised just past P(n, {2..n}).

    Product 1 has the smallest utility, so {2..n} is the only subset whose
    drop to the full set is smaller than the raise; the regularity scan meets
    the witness (n, {2..n}, {1..n}) only at the second-to-last offer set.
    """
    utilities = _utilities(rng, n)
    utilities[0] = min(utilities) - 2.0
    model = lib.models.MnlModel(utilities)
    full = frozenset(range(1, n + 1))
    rest = full - {1}
    table = {}
    for subset in lib.models.enumerate_subsets(n):
        members = frozenset(subset)
        table[members] = {x: model.evaluate(x, members) for x in subset}
    table[full][n] += 1.5 * (model.evaluate(n, rest) - model.evaluate(n, full))
    return lib.models.TabularModel(n, table), (n, rest, full)


class ExhaustiveLargeN(Workload):
    name = "exhaustive_large_n"
    why = (
        "large single checks where 3^n pair scans and 2^n enumeration do nearly all the work, so a change "
        "to the exponent shows in full; predicts cli and io do not move"
    )
    unmoved = "cli, io"
    categories = (
        "axioms.mnl",
        "axioms.mixed_mnl",
        "axioms.stochastic_preference",
        "axioms.tabular",
        "monotonicity.mnl",
        "monotonicity.mixed_mnl",
        "monotonicity.stochastic_preference",
        "monotonicity.tabular",
        "submodularity.mnl",
        "submodularity.stochastic_preference",
        "guarantee.mnl",
        "optimum.small",
        "optimum.large",
        "nonregular.tabular",
    )
    scales = {
        "full": Scale(dev=10, held=3, per_run=1, trace_ops=14,
                      sizes={"axioms": 11, "submodularity": 10, "optimum.small": 14, "optimum.large": 16}),
        "tiny": Scale(dev=2, held=1, per_run=1, trace_ops=14,
                      sizes={"axioms": 6, "submodularity": 5, "optimum.small": 8, "optimum.large": 9}),
    }

    def build(self, lib, keys, scale, workdir):
        sizes = self.scales[scale].sizes
        return [self._op(lib, category, j, sizes) for category, j in keys]

    def _op(self, lib, category, j, sizes) -> Op:
        rng = Random(self.generator_seed(category, j))
        check, _, family = category.partition(".")
        A, X = lib.assortment, lib.axioms
        key = f"{category}:{j}"
        if check in ("axioms", "monotonicity"):
            make = _model_factory(lib, family, rng, sizes["axioms"])
            if check == "axioms":
                return Op(key, lambda: X.check_axioms(make()), _verify_axioms)
            return Op(key, lambda: X.check_purchase_monotonicity(make()),
                      lambda r: ({"purchase_monotone": r.passed}, _check_result(r)))
        if check == "submodularity":
            make = _model_factory(lib, family, rng, sizes["submodularity"])
            return Op(key, lambda: X.check_demand_submodularity(make()),
                      lambda r: ({"demand_submodular": r.passed}, _check_result(r)))
        if check == "guarantee":
            n = sizes["axioms"]
            make = _model_factory(lib, family, rng, n)
            revenue = [rng.uniform(0.5, 9.5) for _ in range(n)]
            return Op(key, lambda: A.verify_guarantee(A.AssortmentInstance(make(), revenue)), _verify_guarantee)
        if check == "optimum":
            n = sizes[category]
            make = _model_factory(lib, "mnl", rng, n)
            revenue = [rng.uniform(0.5, 9.5) for _ in range(n)]

            def run():
                instance = A.AssortmentInstance(make(), revenue)
                return A.brute_force_optimum(instance), A.revenue_ordered(instance).solution

            return Op(key, run, _verify_optimum)
        table, witness = _nonregular_table(lib, rng, sizes["axioms"])

        def verify_nonregular(report):
            others_pass = report.nonnegativity.passed and report.unavailable_zero.passed and report.substochastic.passed
            pinned = not report.regularity.passed and report.regularity.witness == witness
            return {"pinned_witness": others_pass and pinned}, _axiom_payload(report)

        return Op(key, lambda: X.check_axioms(table), verify_nonregular)


def _axiom_payload(report) -> list:
    return [
        _check_result(part)
        for part in (report.nonnegativity, report.unavailable_zero, report.substochastic, report.regularity)
    ]


def _verify_axioms(report):
    return {"regular": report.passed}, _axiom_payload(report)


def _verify_guarantee(report):
    payload = [
        report.passed,
        report.ratio,
        [report.optimum.assortment, report.optimum.revenue],
        [report.heuristic.assortment, report.heuristic.revenue],
        list(report.failures),
    ]
    return {"guarantee": report.passed}, payload


def _verify_optimum(result):
    optimum, ordered = result
    checks = {"mnl_revenue_ordered_optimal": _isclose(optimum.revenue, ordered.revenue)}
    return checks, [[optimum.assortment, optimum.revenue], [ordered.assortment, ordered.revenue]]


# ------------------------------------------------------------ capacity_dp_long


class CapacityDpLong(Workload):
    name = "capacity_dp_long"
    why = (
        "long-horizon capacity DPs checked as assort multiperiod --check does, the only workload where "
        "multiperiod does the work; predicts axioms does not move"
    )
    unmoved = "axioms"
    categories = ("mnl", "mixed_mnl", "stochastic_preference", "mallows", "hfam")
    scales = {
        "full": Scale(dev=40, held=20, per_run=20, trace_ops=30, sizes={"n_max": 6, "T": 100, "Q": 100}),
        "tiny": Scale(dev=4, held=2, per_run=2, trace_ops=10, sizes={"n_max": 4, "T": 8, "Q": 8}),
    }

    def build(self, lib, keys, scale, workdir):
        params = self.scales[scale].sizes
        ops = []
        for family, j in keys:
            data = lib.generators.generate("multiperiod", family, params, self.generator_seed(family, j))
            instance = lib.io.instance_from_dict(data)
            ops.append(Op(f"{family}:{j}", _capacity_runner(lib, instance), _verify_capacity))
        return ops


def _capacity_runner(lib, instance):
    mp = lib.multiperiod

    def run():
        table = mp.solve_dp(instance)
        nesting = mp.check_nesting_monotonicity(table)
        marginal = mp.check_marginal_value(table)
        # Every cell is compared (the CLI stops at the first disagreement), so
        # the work per operation does not depend on where l* disagrees.
        disagreeing = sum(
            table.lstar[t][q] != mp.lstar_delta(instance.base, -table.marginal(t - 1, q))
            for t in range(1, table.horizon + 1)
            for q in range(1, table.capacity + 1)
        )
        return table, nesting, marginal, disagreeing

    return run


def _verify_capacity(result):
    table, nesting, marginal, disagreeing = result
    checks = {
        "regularity_ok": table.regularity_ok is True,
        "nesting_monotonicity": nesting.passed,
        "marginal_value": marginal.passed,
        "lstar_agreement": disagreeing == 0,
    }
    payload = {
        "T": table.horizon,
        "Q": table.capacity,
        "k": table.k,
        "regularity_ok": table.regularity_ok,
        "marginal": [marginal.passed, marginal.witness],
        "value": table.value[table.horizon][table.capacity],
    }
    return checks, payload


WORKLOADS = {w.name: w for w in (SuiteCorpus(), ExhaustiveLargeN(), CapacityDpLong())}
