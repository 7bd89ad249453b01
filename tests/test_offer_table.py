"""One offer table per instance, and exact reduced models with int numerators.

Each exhaustive reader of an instance (the axiom checks, the exact optimum,
the revenue ladder and the bounds) shares ``AssortmentInstance.table``, so
one verification reads each offer set of the model once.  The reduced
pricing models declare a denominator and emit int numerators, while every
value that leaves the library stays the ``Fraction`` it was.
"""

import contextlib
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from assortopt import (
    AssortmentInstance,
    MnlModel,
    brute_force_optimum,
    revenue_ordered,
    verify_guarantee,
    verify_reduction,
)
from assortopt.axioms import check_axioms
from assortopt.cli import main
from assortopt.generators import ASSORTMENT_FAMILIES, generate
from assortopt.io import instance_from_dict
from assortopt.models import TabularModel, ascending_subsets, enumerate_subsets, members_of
from assortopt.reductions import reduce_pricing
from assortopt.stackelberg import StackelbergChoiceModel, greedy
from assortopt.udp import MinPricingChoiceModel, RankPricingChoiceModel
from test_models import evaluate_revenue

PRICING_KINDS = ("udp_min", "udp_rank", "stackelberg")


def _generated(kind, seed, family=None):
    params = {"k": seed % 3 + 1} if family == "tight" else {}
    return instance_from_dict(generate(kind, family, params, seed))


def _count_rows(monkeypatch, cls):
    """Record each offer set read through ``cls.columns``, the one place a
    model is read over many offer sets."""
    calls = []
    original = cls.columns

    def counted(self, c, high=0):
        highs = members_of(high, self.n)
        calls.extend(subset + highs for subset in ascending_subsets(c))
        return original(self, c, high)

    monkeypatch.setattr(cls, "columns", counted)
    return calls


# ------------------------------------------------------------ one read per offer set


def test_verify_guarantee_reads_each_offer_set_once(monkeypatch):
    rows = _count_rows(monkeypatch, MnlModel)
    instance = AssortmentInstance(MnlModel([0.3, -0.4, 1.1, 0.0, -1.2, 0.7]), [4, 2.5, 7, 1, 3, 7])
    verify_guarantee(instance)
    assert len(rows) == 2**6
    assert sorted(rows) == sorted(enumerate_subsets(6))


def test_suite_record_reads_each_offer_set_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mnl.json"
    assert main(["gen", "assortment", "--family", "mnl", "--params", '{"n_max": 9}', "--seed", "5", "-o", str(path)]) == 0
    n = len(json.loads(path.read_text())["payload"]["revenue"])
    rows = _count_rows(monkeypatch, MnlModel)
    assert main(["suite", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["checks"] == {"axioms": True, "guarantees": True}
    assert len(rows) == 2**n


@pytest.mark.parametrize(
    "kind, cls",
    [("udp_min", MinPricingChoiceModel), ("udp_rank", RankPricingChoiceModel), ("stackelberg", StackelbergChoiceModel)],
)
def test_verify_reduction_reads_each_offer_set_once(monkeypatch, kind, cls):
    instance = _generated(kind, 3)
    n = reduce_pricing(instance).n
    rows = _count_rows(monkeypatch, cls)
    assert verify_reduction(instance).passed
    assert len(rows) == 2**n


def test_checkers_take_the_table_or_the_model():
    instance = _generated("assortment", 4, "stochastic_preference")
    table = instance.table
    assert isinstance(table, TabularModel) and table.n == instance.n
    assert check_axioms(table) == check_axioms(instance.model) == instance.axioms
    assert instance.table is table and table.to_tabular() is table


def test_a_tabular_instance_reads_its_model_as_its_table():
    table = MnlModel([0.3, -0.4, 1.1, 0.0]).to_tabular()
    instance = AssortmentInstance(table, [4, 2.5, 7, 1])
    assert instance.table is table
    assert instance.axioms == check_axioms(table)


def test_a_tabular_instance_table_copies_nothing():
    rng = Random(12)
    table = MnlModel([rng.gauss(0.0, 1.5) for _ in range(12)]).to_tabular()
    instance = AssortmentInstance(table, [rng.uniform(0.5, 9.5) for _ in range(12)])
    tracemalloc.start()
    try:
        instance.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**12  # a copy of the 12 * 2^11 entries would take some 200 kB


def test_large_brute_force_streams_without_a_table():
    rng = Random(16)
    instance = AssortmentInstance(
        MnlModel([rng.gauss(0.0, 1.5) for _ in range(16)]), [rng.uniform(0.5, 9.5) for _ in range(16)]
    )
    tracemalloc.start()
    try:
        optimum = brute_force_optimum(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert "table" not in vars(instance)
    assert optimum.revenue == pytest.approx(revenue_ordered(instance).solution.revenue)


# ---------------------------------------------------------- exact reduced models


def _reference_probabilities(model, S):
    """P(x, S) for x in S as exact fractions, computed the direct way: one
    Fraction share per consumer (or per selected pair)."""
    if isinstance(model, StackelbergChoiceModel):
        offered = model._reds | {model.pairs[where - 1] for where in S}
        chosen = greedy(model._aux, offered, model._order)
        return {x: Fraction(int(model.pairs[x - 1] in chosen), len(model._instance.blue)) for x in S}
    instance, pairs = model._instance, model._catalogue.pairs
    totals = {x: Fraction(0) for x in S}
    for consumer in instance.consumers:
        if isinstance(model, MinPricingChoiceModel):
            relevant = [where for where in S if pairs[where - 1][0] in consumer.bundle]
            if not relevant:
                continue
            cheapest = min(pairs[where - 1][1] for where in relevant)
            if cheapest > consumer.valuation:
                continue
            chosen = [where for where in relevant if pairs[where - 1][1] == cheapest]
            for where in chosen:
                totals[where] += Fraction(1, instance.m * len(chosen))
        else:
            floor = model._catalogue.floor_prices(S, instance.n)
            for item in consumer.ranking:
                if floor[item - 1] <= consumer.valuations[item - 1]:
                    totals[model._catalogue.index[(item, floor[item - 1])]] += Fraction(1, instance.m)
                    break
    return totals


@pytest.mark.parametrize("kind", PRICING_KINDS)
def test_reduced_models_evaluate_to_the_same_fractions(kind):
    for seed in range(12):
        model = reduce_pricing(_generated(kind, seed)).model
        tabular = model.to_tabular()
        for subset in enumerate_subsets(model.n):
            S = frozenset(subset)
            expected = _reference_probabilities(model, S)
            got = {x: model.evaluate(x, S) for x in S}
            assert got == expected
            assert all(type(p) is Fraction for p in got.values())
            row = dict(zip(subset, tabular.choice_row(S)))
            assert row == expected
            assert all(type(p) is Fraction for p in row.values())
            assert model.evaluate(0, S) == 1 - sum(expected.values())


@pytest.mark.parametrize("kind", PRICING_KINDS)
def test_reduced_tables_are_int_numerators_over_the_declared_denominator(kind):
    model = reduce_pricing(_generated(kind, 6)).model
    table = model.to_tabular()
    assert table.denominator == model.denominator
    for subset in enumerate_subsets(model.n):
        row = table._choice_row(subset)
        assert all(type(p) is int for p in row)
        assert tuple(Fraction(p, table.denominator) for p in row) == model.choice_row(subset)


@pytest.mark.parametrize("kind", PRICING_KINDS)
def test_exact_optimum_is_the_fraction_sum(kind):
    for seed in range(8):
        reduced = reduce_pricing(_generated(kind, seed))
        model, revenue = reduced.model, reduced.revenue
        values = [
            (sum((p * revenue[x - 1] for x, p in zip(subset, model.choice_row(subset))), 0) if subset else 0, subset)
            for subset in enumerate_subsets(model.n)
        ]
        best = max(value for value, _ in values)
        first = min(subset for value, subset in values if value == best)
        streamed = brute_force_optimum(reduced)
        assert streamed.revenue == best and type(streamed.revenue) is type(best)
        assert streamed.assortment == frozenset(first)
        reduced.axioms
        assert brute_force_optimum(reduced) == streamed


@pytest.mark.parametrize("kind", PRICING_KINDS)
def test_streamed_and_tabulated_optima_of_an_exact_table_agree(kind):
    for seed in range(6):
        reduced = reduce_pricing(_generated(kind, seed))
        tabular = reduced.model.to_tabular()
        assert tabular.denominator is not None
        for revenue in (reduced.revenue, [r + 0.25 for r in reduced.revenue]):
            instance = AssortmentInstance(tabular, revenue)
            streamed = brute_force_optimum(instance)
            assert "table" not in vars(instance)
            instance.table
            tabulated = brute_force_optimum(instance)
            assert type(streamed.revenue) is type(tabulated.revenue)
            assert repr(streamed) == repr(tabulated)


def test_float_revenues_on_an_exact_model_multiply_the_float_probability():
    reduced = reduce_pricing(_generated("udp_min", 3))
    instance = AssortmentInstance(reduced.model, [r + 0.25 for r in reduced.revenue])
    expected = max(
        sum(float(p) * instance.revenue[x - 1] for x, p in zip(subset, reduced.model.choice_row(subset)))
        for subset in enumerate_subsets(instance.n)
    )
    assert brute_force_optimum(instance).revenue == expected


# ------------------------------------------------------ the ladder is the candidates


def _threshold_set(instance, level):
    """All products with revenue at least the given level."""
    return frozenset(x for x in range(1, instance.n + 1) if instance.revenue_of(x) >= level)


def _threshold_candidates(instance):
    """The revenue-ordered candidates as they were computed before the ladder:
    one threshold set and one revenue evaluation per level."""
    return [(level, evaluate_revenue(instance.model, instance.revenue, _threshold_set(instance, level)))
            for level in instance.levels]


def _generated_instances():
    for seed in range(6):
        for family in ASSORTMENT_FAMILIES:
            yield family, _generated("assortment", seed, family)
        for kind in PRICING_KINDS:
            yield kind, reduce_pricing(_generated(kind, seed))
        yield "multiperiod", _generated("multiperiod", seed).base


def test_revenue_ordered_candidates_match_the_threshold_sets():
    for label, instance in _generated_instances():
        expected = _threshold_candidates(instance)
        result = revenue_ordered(instance)
        assert [repr(c) for c in result.candidates] == [repr(c) for c in expected], label
        best = max(value for _, value in expected)
        top = max(level for level, value in expected if value == best)
        assert result.solution.assortment == _threshold_set(instance, top)
        assert repr(result.solution.revenue) == repr(best)


# ------------------------------------------------------------ suite output unchanged

# sha256 of the 50 suite records below, without timings and with bare file
# names, as written before the records were computed from a shared table.
SUITE_RECORDS_SHA256 = "88aea1f96ccbeae416aca15bb183273d13450a24c463f850f90d6081b0267826"


def test_suite_records_are_unchanged(tmp_path):
    lines = []
    for kind in ("assortment", "udp_min", "udp_rank", "stackelberg", "multiperiod"):
        for seed in range(10):
            path = tmp_path / f"{kind}-{seed}.json"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["gen", kind, "--seed", str(seed), "-o", str(path)]) == 0
                main(["suite", str(path)])
            record = json.loads(out.getvalue())
            del record["timings"]
            record["file"] = path.name
            lines.append(json.dumps(record, sort_keys=True))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SUITE_RECORDS_SHA256


def _reference_ladder(instance):
    """The ladder's revenues and sale probabilities as Fraction sums of choice_row."""
    ladder = instance.ladder
    rows = [instance.model.choice_row(members) for members in ladder.prefixes]
    revenues = [sum(p * instance.revenue_of(x) for x, p in zip(sorted(members), row))
                for members, row in zip(ladder.prefixes, rows)]
    return revenues, [float(v) for v in revenues], [float(sum(row)) for row in rows]


@pytest.mark.parametrize("kind", PRICING_KINDS)
@pytest.mark.parametrize("tabled", [False, True], ids=["streamed", "tabled"])
def test_exact_ladder_sums_ints_and_divides_once(kind, tabled):
    for seed in range(10):
        reduced = reduce_pricing(_generated(kind, seed))
        for revenue in (reduced.revenue, [r + 0.5 for r in reduced.revenue]):
            instance = AssortmentInstance(reduced.model, revenue)
            if tabled:
                instance.table
            ladder = instance.ladder
            revenues, expected, sold = _reference_ladder(instance)
            assert [(type(v), v) for v in ladder.revenues] == [(type(v), v) for v in revenues]
            assert list(map(repr, ladder.expected_revenue)) == list(map(repr, expected))
            assert list(map(repr, ladder.purchase_probability)) == list(map(repr, sold))
