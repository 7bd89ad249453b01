"""Reduced pricing models read through floor vectors.

Offering a pair set S amounts to charging each element its cheapest offered
level, so the unit-demand and Stackelberg reductions depend on S only
through its floor, and ``columns`` runs one purchase simulation (or greedy)
per distinct floor instead of one per offer set.  The reference functions
below are the per-offer-set rows those columns replace: the cheapest-
affordable spread, the first-affordable scan and the follower's greedy, each
over the whole of S.  Entries must match them bit for bit, type included.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

from assortopt import (
    GraphicMatroid,
    StackelbergInstance,
    UdpMinInstance,
    UdpRankInstance,
    brute_force_optimum,
    compute_bounds,
    revenue_ordered,
    verify_reduction,
)
from assortopt import stackelberg as stackelberg_module
from assortopt import udp as udp_module
from assortopt.generators import generate
from assortopt.io import instance_from_dict
from assortopt.models import ascending_subsets, enumerate_subsets, members_of
from assortopt.reductions import reduce_pricing
from assortopt.stackelberg import StackelbergChoiceModel, greedy
from assortopt.udp import (MinPricingChoiceModel, RankPricingChoiceModel, _FloorChoiceModel, _PairCatalogue,
                          simulate_purchases_rank)


def _bits(value):
    return type(value), repr(value)


# ------------------------------------------------------------------ references


def ref_row(model, subset):
    """The numerators of one offer set's row, simulated over the whole set."""
    pairs = model.pairs
    if isinstance(model, StackelbergChoiceModel):
        chosen = greedy(model._aux, model._reds | {pairs[x - 1] for x in subset}, model._order)
        return tuple(int(pairs[x - 1] in chosen) for x in subset)
    instance = model._instance
    if isinstance(model, RankPricingChoiceModel):
        floor = model._catalogue.floor_prices(subset, instance.n)
        bought = simulate_purchases_rank(instance, floor).purchases
        totals = Counter(model._catalogue.index[(x, floor[x - 1])] for x in bought if x is not None)
        return tuple(totals.get(x, 0) for x in subset)
    totals = {}
    for consumer in instance.consumers:
        relevant = [x for x in subset if pairs[x - 1][0] in consumer.bundle]
        if not relevant:
            continue
        cheapest = min(pairs[x - 1][1] for x in relevant)
        if cheapest > consumer.valuation:
            continue
        chosen = [x for x in relevant if pairs[x - 1][1] == cheapest]
        for x in chosen:
            totals[x] = totals.get(x, 0) + model._ties // len(chosen)
    return tuple(totals.get(x, 0) for x in subset)


def ref_columns(model, c, high):
    """The default ``ChoiceModel.columns`` loop over ``ref_row``."""
    highs = members_of(high, model.n)
    columns = {x: [] for x in (*range(1, c + 1), *highs)}
    for subset in ascending_subsets(c):
        subset += highs
        for x, p in zip(subset, ref_row(model, subset)):
            columns[x].append(p)
    return list(columns.values())


# ---------------------------------------------------------------------- models


def harmonic_udp(m, rank=False):
    """Consumer i wants item i at L/i, L = lcm(1..m) (Guruswami et al., SODA 2005)."""
    top = math.lcm(*range(1, m + 1))
    if rank:
        return UdpRankInstance(m, [([i, *(x for x in range(1, m + 1) if x != i)], [top // i] * m)
                                   for i in range(1, m + 1)])
    return UdpMinInstance(m, [({i}, top // i) for i in range(1, m + 1)])


def harmonic_stackelberg(k):
    """A path of k vertex pairs, each joined by a red edge of cost L/i and a parallel blue edge."""
    top = math.lcm(*range(1, k + 1))
    edges = [(i - 1, i) for i in range(1, k + 1) for _ in range(2)]
    red = {2 * (i - 1): top // i for i in range(1, k + 1)}
    return StackelbergInstance(GraphicMatroid(k + 1, edges), red, [e for e in range(2 * k) if e not in red])


def _reduced_models():
    for kind in ("udp_min", "udp_rank", "stackelberg"):
        for seed in range(12):
            model = reduce_pricing(instance_from_dict(generate(kind, None, {}, seed))).model
            if model.n <= 8:
                yield f"{kind}-{seed}", model
    # Several levels per element, so blocks split an element's pairs between
    # the low products and ``high``: 3 x 3, 2 x 4 and 3 x 3 pairs.
    yield "udp_min-shared", reduce_pricing(UdpMinInstance(3, [({1, 2}, 2), ({2, 3}, 3), ({1, 3}, 5), ({2}, 3)])).model
    yield "udp_rank-harmonic", reduce_pricing(harmonic_udp(2, rank=True)).model
    rank = UdpRankInstance(2, [([1, 2], [4, 3]), ([2, 1], [2, 5]), ([1, 2], [5, 2])])
    yield "udp_rank-shared", reduce_pricing(rank).model
    yield "stackelberg-harmonic", reduce_pricing(harmonic_stackelberg(3)).model


REDUCED = list(_reduced_models())


@pytest.mark.parametrize("label, model", REDUCED, ids=[label for label, _ in REDUCED])
def test_floor_columns_match_the_per_offer_set_loop(label, model):
    n = model.n
    for c in range(n + 1):
        for high in range(0, 1 << n, 1 << c):
            expected = [list(map(_bits, column)) for column in ref_columns(model, c, high)]
            assert [list(map(_bits, column)) for column in model.columns(c, high)] == expected, (c, high)


@pytest.mark.parametrize("label, model", REDUCED, ids=[label for label, _ in REDUCED])
def test_choice_rows_read_the_floor_outcome(label, model):
    for subset in enumerate_subsets(model.n):
        assert list(map(_bits, model._choice_row(subset))) == list(map(_bits, ref_row(model, subset)))


def ref_floor(pairs, mask):
    """The lowest-indexed pair of each element held in mask."""
    first = {}
    for x in members_of(mask, len(pairs)):
        first.setdefault(pairs[x - 1][0], x)
    return sum(1 << (x - 1) for x in first.values())


@pytest.mark.parametrize("read", [lambda m: m.choice_row({1}), lambda m: m.columns(1)], ids=["choice_row", "columns"])
def test_a_floor_model_without_numerators_is_not_implemented(read):
    class Bare(_FloorChoiceModel):
        pass

    with pytest.raises(NotImplementedError, match="^Bare does not define _numerators$"):
        read(Bare(None, _PairCatalogue(1, (1,))))


def test_floor_masks_keep_each_elements_lowest_pair():
    # Item 1's pairs are 1..3 (levels 2, 3, 5).  In the block c = 2 under
    # high = {3, 8}, pair 3 is item 1's floor only while pairs 1 and 2 are
    # not offered, though it is the floor of high alone.
    catalogue = reduce_pricing(UdpMinInstance(3, [({1, 2}, 2), ({2, 3}, 3), ({1, 3}, 5)])).model._catalogue
    pairs = catalogue.pairs
    assert catalogue.floor_masks(2, 0b10000100) == [0b10000100, 0b10000001, 0b10000010, 0b10000001]
    for c in range(len(pairs) + 1):
        for high in range(0, 1 << len(pairs), 1 << c):
            assert catalogue.floor_masks(c, high) == [ref_floor(pairs, low | high) for low in range(1 << c)]


# ------------------------------------------------------------------ simulations


@pytest.mark.parametrize("build, target, name", [
    (lambda: harmonic_udp(4), MinPricingChoiceModel, "_numerators"),
    (lambda: harmonic_udp(4, rank=True), udp_module, "simulate_purchases_rank"),
    (lambda: harmonic_stackelberg(4), stackelberg_module, "greedy"),
], ids=["udp_min", "udp_rank", "stackelberg"])
def test_harmonic_table_simulates_each_floor_once(monkeypatch, build, target, name):
    # 4 elements x 4 levels: 2^16 offer sets, but 5^4 = 625 floors (each
    # element at one of its levels, or not offered).
    model = reduce_pricing(build()).model
    assert model.n == 16
    calls = []
    original = getattr(target, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(target, name, counted)
    table = model.to_tabular()
    assert len(calls) == 625
    assert all(type(p) is int for column in table.columns(model.n) for p in column)


@pytest.mark.parametrize("instance", [harmonic_udp(4), harmonic_stackelberg(4)], ids=["udp_min", "stackelberg"])
def test_harmonic_reductions_verify_with_the_harmonic_gap(instance):
    # Uniform pricing earns L = 12 and the optimum earns L * H_4 = 25.
    report = verify_reduction(instance)
    assert report.passed
    assert report.opt_assortment == 25 and report.opt_pricing == 25


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("build", [harmonic_udp, harmonic_stackelberg], ids=["udp_min", "stackelberg"])
def test_harmonic_reductions_attain_bounds_b_and_c_exactly(build, m):
    # Levels L/i and purchase masses (m - i + 1)/m: both sums are H_m, and
    # revenue-ordered earns L against the optimum's L * H_m.
    instance = reduce_pricing(build(m))
    optimum = brute_force_optimum(instance)
    report = compute_bounds(instance, optimum)
    expected = 1 / sum(Fraction(1, i) for i in range(1, m + 1))
    assert report.bound_b_exact == report.bound_c_exact == expected
    assert type(report.bound_b_exact) is type(report.bound_c_exact) is Fraction
    ratio = revenue_ordered(instance).solution.revenue / optimum.revenue
    assert ratio == expected and type(ratio) is Fraction
