"""Column tables: a model's bulk read over every offer set, and the exact
optimum summed from it in blocks.

``ChoiceModel.columns(c, high)`` gives P(x, L | high) for every mask L of
the products 1..c; MNL, mixed MNL, stochastic-preference and Mallows models
build it by recurrences over masks instead of one ``_choice_row`` per offer
set.  The reference functions below are the per-offer-set loops those
recurrences replace: one ``_choice_row`` per offer set, the row added left
to right from int 0 for the purchase probability, and the exact optimum as
one revenue added that way per offer set in canonical order.  Entries, sums
and revenues must match them bit for bit, type included.
"""

import functools
import json
import math
import operator
from fractions import Fraction
from random import Random

import pytest

from assortopt import (
    AssortmentInstance,
    CoverageCapacity,
    HfamModel,
    MallowsModel,
    MixedMnlModel,
    MnlModel,
    StochasticPreferenceModel,
    TabularModel,
    TightExampleModel,
    brute_force_optimum,
    check_axioms,
    verify_guarantee,
)
from assortopt import assortment
from assortopt.axioms import _tabulated
from assortopt.cli import main
from assortopt.generators import generate
from assortopt.io import instance_from_dict
from assortopt.models import ChoiceModel, ascending_subsets, enumerate_subsets, held_index, members_of, subset_sums
from assortopt.reductions import reduce_pricing


def _bits(value):
    """A value as compared here: its type and its repr, so NaN equals NaN
    and -0.0 differs from 0.0."""
    return type(value), repr(value)


def _mask(subset):
    return sum(1 << (x - 1) for x in subset)


def _fold(values):
    """The values added left to right from int 0, the one order in which the
    library adds floats on every Python (``sum`` compensates from 3.12)."""
    return functools.reduce(operator.add, values, 0)


# ------------------------------------------------------------------ references


def ref_columns(model, c, high):
    """columns(c, high) read one offer set at a time through _choice_row."""
    highs = members_of(high, model.n)
    columns = {x: [] for x in (*range(1, c + 1), *highs)}
    for subset in ascending_subsets(c):
        subset += highs
        for x, p in zip(subset, model._choice_row(subset)):
            columns[x].append(p)
    return list(columns.values())


def ref_table(model):
    """(entries by (x, mask), sold by mask, scale) from one _choice_row per
    offer set, integer-scaled as an exact table is."""
    rows = {subset: model._choice_row(subset) for subset in enumerate_subsets(model.n)}
    scale = model.denominator
    values = [p for row in rows.values() for p in row]
    if scale is None and any(type(p) is Fraction for p in values) and all(type(p) in (int, Fraction) for p in values):
        scale = math.lcm(*(Fraction(p).denominator for p in values))
        rows = {S: tuple(int(Fraction(p) * scale) for p in row) for S, row in rows.items()}
    entries = {(x, _mask(S)): p for S, row in rows.items() for x, p in zip(S, row)}
    sold = {_mask(S): _fold(row) for S, row in rows.items()}
    return entries, sold, scale


def ref_brute_force(instance):
    """The exact optimum as one revenue sum per offer set, in canonical
    order: a larger revenue wins, an equal one only for a lexicographically
    smaller subset, so a NaN never wins."""
    model, revenue = instance.model, instance.revenue
    scale = model.denominator
    exact = scale is not None and all(isinstance(r, int) for r in revenue)
    best_key, best_revenue = (), 0
    for subset in enumerate_subsets(model.n):
        row = model._choice_row(subset)
        if scale is not None and not exact:
            row = tuple(Fraction(p, scale) for p in row)
        value = _fold(p * revenue[x - 1] for x, p in zip(subset, row)) if subset else 0
        if value > best_revenue or (value == best_revenue and subset < best_key):
            best_key, best_revenue = subset, value
    if exact and best_key:
        best_revenue = Fraction(best_revenue, scale)
    return frozenset(best_key), best_revenue


# ---------------------------------------------------------------------- models


class SharedModel(ChoiceModel):
    """P(x, S) = 1 / |S| for each x of S, or NaN on the offer sets listed."""

    def __init__(self, n, nan_sets=()):
        super().__init__(n)
        self._nan = frozenset(nan_sets)

    def _choice_row(self, subset):
        share = math.nan if subset in self._nan else 1 / (len(subset) or 1)
        return (share,) * len(subset)


def _tabular(rng, n, kind):
    """A table of floats, Fractions, or both (one per entry, at random)."""
    table = {}
    for subset in enumerate_subsets(n):
        shares = [Fraction(rng.randint(1, 9), 9 * (len(subset) + 1)) for _ in subset]
        if kind == "float" or kind == "mixed":
            shares = [float(p) if kind == "float" or rng.random() < 0.5 else p for p in shares]
        table[subset] = dict(zip(subset, shares))
    return TabularModel(n, table)


def _hfam(rng, n):
    points = 4
    weights = [rng.uniform(0.05, 0.25) for _ in range(points)]
    covers = [[p for p in range(points) if rng.random() < 0.5] for _ in range(n)]
    preference = list(range(1, n + 1))
    rng.shuffle(preference)
    return HfamModel(preference, CoverageCapacity(weights, covers))


def _rankings(rng, n, count):
    rankings = []
    for weight in [0.125, 0.25, 0.0625, 0.5, 0.0625][:count]:
        order = list(range(n + 1))
        rng.shuffle(order)
        rankings.append((weight, order))
    rankings[-1] = (1.0 - sum(w for w, _ in rankings[:-1]), rankings[-1][1])
    return rankings


def _models(n):
    """One model of every family with n products, where the family has one."""
    rng = Random(1000 + n)
    models = {
        "mnl": MnlModel([rng.gauss(0.0, 2.0) for _ in range(n)]),
        "mixed_mnl": MixedMnlModel([(w, [rng.gauss(0.0, 1.5) for _ in range(n)]) for w in (0.2, 0.3, 0.5)]),
        "stochastic_preference": StochasticPreferenceModel(n, _rankings(rng, n, 5)),
        "hfam": _hfam(rng, n),
        "tabular_float": _tabular(rng, n, "float"),
        "tabular_fraction": _tabular(rng, n, "fraction"),
        "tabular_mixed": _tabular(rng, n, "mixed"),
    }
    if n <= 5:  # the reference reads all (n + 1)! rankings per offer set; SP covers n = 7
        central = list(range(n + 1))
        rng.shuffle(central)
        models["mallows"] = MallowsModel(central, rng.uniform(0.2, 2.0))
    tight = {1: 1, 3: 2, 6: 3}
    if n in tight:
        models["tight"] = TightExampleModel(tight[n], 0.25)
    return models


def _reduced_models():
    for kind in ("udp_min", "udp_rank", "stackelberg"):
        for seed in range(10):
            model = reduce_pricing(instance_from_dict(generate(kind, None, {}, seed))).model
            if model.n <= 7:
                yield f"{kind}-{seed}", model


def _all_models():
    for n in range(8):
        for name, model in _models(n).items():
            yield f"{name}-{n}", model
    yield from _reduced_models()


def _revenue(rng, model):
    if model.denominator is not None:
        return [rng.randint(1, 9) for _ in range(model.n)]
    return [rng.choice([1.0, 2.5, 4.0, rng.uniform(0.5, 9.5)]) for _ in range(model.n)]


# ------------------------------------------------------------------ equivalence


@pytest.mark.parametrize("label, model", list(_all_models()), ids=lambda v: v if isinstance(v, str) else "")
def test_columns_match_one_choice_row_per_offer_set(label, model):
    n = model.n
    for c in range(n + 1):
        for high in range(0, 1 << n, 1 << c):
            expected = [list(map(_bits, column)) for column in ref_columns(model, c, high)]
            assert [list(map(_bits, column)) for column in model.columns(c, high)] == expected, (c, high)


@pytest.mark.parametrize("label, model", list(_all_models()), ids=lambda v: v if isinstance(v, str) else "")
def test_offer_table_matches_the_row_loop(label, model):
    entries, sold, scale = ref_table(model)
    columns, table_sold, table_scale = _tabulated(model.to_tabular())
    assert table_scale == scale
    assert {(x, mask): _bits(columns[x - 1][held_index(mask, x)]) for x, mask in entries} == {
        key: _bits(p) for key, p in entries.items()
    }
    assert [len(column) for column in columns] == [1 << model.n >> 1] * model.n
    assert list(map(_bits, table_sold)) == [_bits(sold[mask]) for mask in range(1 << model.n)]


@pytest.mark.parametrize("label, model", list(_all_models()), ids=lambda v: v if isinstance(v, str) else "")
def test_brute_force_matches_the_row_loop(label, model):
    revenue = _revenue(Random(label), model)
    expected_set, expected_revenue = ref_brute_force(AssortmentInstance(model, revenue))
    streamed = AssortmentInstance(model, revenue)
    tabled = AssortmentInstance(model, revenue)
    tabled.table
    for instance in (streamed, tabled):
        optimum = brute_force_optimum(instance)
        assert optimum.assortment == expected_set
        assert optimum.revenue == expected_revenue
        assert _bits(optimum.revenue) == _bits(expected_revenue)


@pytest.mark.parametrize("n", [11, 12, 13])
def test_mnl_brute_force_across_the_block_edge(n):
    rng = Random(n)
    model = MnlModel([rng.gauss(0.0, 1.5) for _ in range(n)])
    revenue = [rng.uniform(0.5, 9.5) for _ in range(n)]
    expected_set, expected_revenue = ref_brute_force(AssortmentInstance(model, revenue))
    optimum = brute_force_optimum(AssortmentInstance(model, revenue))
    assert optimum.assortment == expected_set
    assert _bits(optimum.revenue) == _bits(expected_revenue)


def _screened_blocks(monkeypatch, model, revenue):
    """Brute force on a screened model, reading no column: returns the
    length of every list of subset sums it builds (each class's sums over
    the low products and over the products above them), and the (length,
    high) of each block it scores, in the order it scores them."""
    sums, blocks = [], []
    screen = assortment._screen

    def summed(values, c, high=0):
        totals = subset_sums(values, c, high)
        sums.append(len(totals))
        return totals

    def ranked(*args):
        order, score, keep, slack = screen(*args)

        def scored(high):
            scores = score(high)
            blocks.append((len(scores), high))
            return scores

        return order, scored, keep, slack

    for kind, name in ((MnlModel, "columns"), (MnlModel, "_divisors"), (MixedMnlModel, "columns")):
        monkeypatch.setattr(kind, name, None)  # no column is read
    monkeypatch.setattr(assortment, "subset_sums", summed)
    monkeypatch.setattr(assortment, "_screen", ranked)
    brute_force_optimum(AssortmentInstance(model, revenue))
    return sums, blocks


@pytest.mark.parametrize("n, reads", [(11, [(11, 0)]), (12, [(12, 0)]), (13, [(12, 0), (12, 1 << 12)])])
def test_streamed_blocks_hold_at_most_4096_offer_sets(monkeypatch, n, reads):
    # Mixed MNL is screened as MNL is (the test below), one class at a time:
    # reads lists the (c, high) of each block.  At equal revenues the whole
    # set is the clear optimum, so the last block is ranked first, and it is
    # the only one scored: no other block's bound reaches its cut.
    utilities = [0.1 * x for x in range(n)]
    model = MixedMnlModel([(0.5, utilities), (0.25, utilities[::-1]), (0.25, [0.0] * n)])
    sums, blocks = _screened_blocks(monkeypatch, model, [1.0] * n)
    assert max(sums) == 1 << reads[0][0] <= 1 << 12
    assert blocks == [(1 << c, high) for c, high in reads[-1:]]


@pytest.mark.parametrize("n, blocks", [(11, [0]), (12, [0]), (13, [0, 1 << 12])])
def test_screened_blocks_hold_at_most_4096_offer_sets(monkeypatch, n, blocks):
    size = 1 << min(n, 12)
    sums, seen = _screened_blocks(monkeypatch, MnlModel([0.1 * x for x in range(n)]), [1.0] * n)
    assert max(sums) == size <= 1 << 12
    assert seen == [(size, blocks[-1])]


@pytest.mark.parametrize("n", [13, 16])
@pytest.mark.parametrize("k", [1, 3])
def test_only_the_block_of_a_clear_optimum_is_scored(monkeypatch, n, k):
    # Revenue x + 1 for product x: the optimum holds every product above 12,
    # so it lies in the last block.  Scored in ascending order of high, the
    # first block would come first.
    classes = [[0.0] * n, [0.1 * x for x in range(n)], [0.2 - 0.05 * x for x in range(n)]][:k]
    model = MnlModel(classes[0]) if k == 1 else MixedMnlModel([(1 / k, utilities) for utilities in classes])
    revenue = [float(x + 2) for x in range(n)]
    optimum = brute_force_optimum(AssortmentInstance(model, revenue)).assortment
    last = (1 << n) - (1 << 12)
    assert set(members_of(last, n)) <= optimum
    sums, blocks = _screened_blocks(monkeypatch, model, revenue)
    assert max(sums) == 1 << 12
    assert blocks == [(1 << 12, last)]


# ------------------------------------------------------------------ ties and NaN


@pytest.mark.parametrize("n", [4, 13])
def test_revenue_ties_go_to_the_lexicographically_smallest_subset(n):
    # Every nonempty set of {1, n} earns 10.0 exactly; the others earn less.
    revenue = [10.0] + [1.0] * (n - 2) + [10.0]
    instance = AssortmentInstance(SharedModel(n), revenue)
    assert ref_brute_force(instance) == (frozenset({1}), 10.0)
    assert brute_force_optimum(instance).assortment == frozenset({1})
    equal = AssortmentInstance(SharedModel(n), [2.0] * n)
    expected_set, expected_revenue = ref_brute_force(equal)
    optimum = brute_force_optimum(equal)
    assert (optimum.assortment, _bits(optimum.revenue)) == (expected_set, _bits(expected_revenue))


@pytest.mark.parametrize("n", [4, 13])
def test_nan_revenues_never_win(n):
    # NaN at {1}, and at {n}, the first offer set of the last block when n = 13.
    model = SharedModel(n, nan_sets=[(1,), (n,)])
    instance = AssortmentInstance(model, [10.0] + [1.0] * (n - 2) + [10.0])
    expected = ref_brute_force(instance)
    assert expected == (frozenset({1, n}), 10.0)
    optimum = brute_force_optimum(instance)
    assert (optimum.assortment, optimum.revenue) == expected
    everything = AssortmentInstance(SharedModel(n, nan_sets=enumerate_subsets(n)[1:]), [1.0] * n)
    assert brute_force_optimum(everything).assortment == frozenset()
    assert _bits(brute_force_optimum(everything).revenue) == _bits(0)


def test_nan_entries_keep_their_place_in_the_table():
    model = SharedModel(4, nan_sets=[(2, 3)])
    entries, sold, _ = ref_table(model)
    columns, table_sold, _ = _tabulated(model.to_tabular())
    assert math.isnan(columns[1][held_index(0b0110, 2)])
    assert list(map(_bits, table_sold)) == [_bits(sold[mask]) for mask in range(16)]


# -------------------------------------------------------------- one axiom report


def _count_reports(monkeypatch):
    """Record the (model, table) of each axiom report an instance computes."""
    passes = []
    original = assortment._check_axioms
    monkeypatch.setattr(
        assortment, "_check_axioms", lambda model, table: passes.append((model, table)) or original(model, table)
    )
    return passes


def test_one_regularity_pass_per_assortment_record(tmp_path, monkeypatch, capsys):
    passes = _count_reports(monkeypatch)
    for family in ("mnl", "stochastic_preference", "hfam"):
        path = tmp_path / f"{family}.json"
        assert main(["gen", "assortment", "--family", family, "--seed", "2", "-o", str(path)]) == 0
        passes.clear()
        assert main(["suite", str(path)]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["checks"] == {"axioms": True, "guarantees": True}
        assert len(passes) == 1


def test_an_instance_keeps_its_report(monkeypatch):
    instance = AssortmentInstance(MnlModel([0.4, -0.2, 1.0]), [3.0, 2.0, 1.0])
    passes = _count_reports(monkeypatch)
    verify_guarantee(instance)
    report = instance.axioms
    verify_guarantee(instance)
    assert instance.axioms is report
    assert passes == [(instance.model, instance.table)]
    assert check_axioms(instance.model) == report


# ------------------------------------------------------------------ MNL overflow


def test_mnl_utilities_beyond_exp_range_are_shifted():
    model = MnlModel([800.0])
    assert model.evaluate(1, {1}) == 1.0
    assert model.evaluate(0, {1}) == pytest.approx(0.0, abs=1e-300)
    big = MnlModel([1000.0, 999.0, -5.0])
    e = math.exp(-1.0)
    assert [big.evaluate(x, {1, 2, 3}) for x in (1, 2)] == pytest.approx([1 / (1 + e), e / (1 + e)], rel=1e-12)
    assert big.evaluate(3, {3}) == pytest.approx(math.exp(-5.0) / (1 + math.exp(-5.0)), rel=1e-12)
    assert check_axioms(big).passed
    assert big.columns(3)[0] == [big.evaluate(1, S) for S in ({1}, {1, 2}, {1, 3}, {1, 2, 3})]
    assert ref_brute_force(AssortmentInstance(big, [1.0, 2.0, 3.0]))[0] == brute_force_optimum(
        AssortmentInstance(big, [1.0, 2.0, 3.0])
    ).assortment
    with pytest.raises(ValueError, match="float range"):
        MnlModel([2000.0, 0.0])


def test_mnl_utilities_within_exp_range_keep_their_floats():
    for utilities in ([700.0], [3.5, -2.0, 0.25], [705.0, 1.0]):
        model = MnlModel(utilities)
        weights = [math.exp(v) for v in utilities]
        denom = 1.0 + sum(weights)
        assert model.choice_row(range(1, len(utilities) + 1)) == tuple(w / denom for w in weights)


def test_a_file_of_huge_mnl_utilities_solves(tmp_path, capsys):
    path = tmp_path / "huge.json"
    payload = {"model": {"type": "mnl", "mean_utilities": [1000.0]}, "revenue": [2.0]}
    path.write_text(json.dumps({"kind": "assortment", "payload": payload}))
    assert main(["solve", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["opt"] == 2.0 and report["opt_assortment"] == [1]
