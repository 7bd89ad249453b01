"""Model family evaluation against closed forms and hand-computed oracles."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import (
    ChoiceModel,
    CoverageCapacity,
    GraphicMatroid,
    HfamModel,
    InvalidEpsilon,
    MallowsModel,
    Matroid,
    MixedMnlModel,
    MnlModel,
    NonPositiveRevenue,
    StochasticPreferenceModel,
    TableCapacity,
    TabularModel,
    TightExampleModel,
    UdpMinInstance,
    UdpRankInstance,
    expand_ranking_model,
)
from assortopt.generators import ASSORTMENT_FAMILIES, generate
from assortopt.io import instance_from_dict
from assortopt.models import enumerate_subsets, ordered_sum
from assortopt.reductions import reduce_pricing


def evaluate_revenue(model: ChoiceModel, revenue, S):
    """Expected revenue sum_{x in S} P(x, S) * r(x) of offering S, the
    reference for the library's revenue sums.

    Revenues are indexed by product (revenue[x-1] is the price of x) and
    must all be positive.  Summation runs in ascending product order so the
    result is deterministic.
    """
    if len(revenue) != model.n:
        raise ValueError("one revenue per product is required")
    for x, r in enumerate(revenue, start=1):
        if not r > 0:
            raise NonPositiveRevenue(f"revenue of product {x} is {r}; must be > 0")
    members = sorted(frozenset(S))
    return ordered_sum(p * revenue[x - 1] for x, p in zip(members, model.choice_row(members)))


def test_product_set_bounds():
    model = MnlModel([0.0, 0.0, 0.0])
    for x in (1, 3):
        assert model.evaluate(x, {x}) == 0.5 and model.choice_row({x}) == (0.5,)
    with pytest.raises(ValueError, match="product 4 outside catalogue 1..3"):
        model.evaluate(4, {1})
    for bad in (0, 4):
        with pytest.raises(ValueError, match=rf"unknown products \[{bad}\]"):
            model.evaluate(1, {1, bad})
        with pytest.raises(ValueError, match=rf"unknown products \[{bad}\]"):
            model.choice_row({bad})
    empty = MnlModel([])
    assert empty.n == 0 and empty.evaluate(0, ()) == 1 and empty.choice_row(()) == ()
    with pytest.raises(ValueError, match="product 1 outside catalogue 1..0"):
        empty.evaluate(1, ())
    with pytest.raises(ValueError, match=re.escape("product count must be >= 0, got -1")):
        ChoiceModel(-1)


@pytest.mark.parametrize(
    "kind, family",
    [("assortment", family) for family in ASSORTMENT_FAMILIES] + [(kind, None) for kind in ("udp_min", "udp_rank", "stackelberg")],
)
def test_evaluate_reads_the_choice_row(kind, family):
    # One read rule for every model, bit for bit: P(x, S) is x's entry of
    # choice_row(S), and P(0, S) is 1 minus that row's ordered_sum, the
    # no-purchase probability check_axioms judges.
    for seed in range(30):
        params = {"k": seed % 3 + 1} if family == "tight" else {}
        instance = instance_from_dict(generate(kind, family, params, seed))
        model = instance.model if family else reduce_pricing(instance).model
        for subset in enumerate_subsets(model.n):
            row = model.choice_row(subset)
            assert repr(model.evaluate(0, subset)) == repr(1 - ordered_sum(row)), (seed, subset)
            assert [repr(model.evaluate(x, subset)) for x in subset] == list(map(repr, row)), (seed, subset)


def test_enumerate_subsets_order():
    assert enumerate_subsets(2) == [(), (1,), (2,), (1, 2)]
    subsets = enumerate_subsets(3)
    assert subsets.index((1, 3)) < subsets.index((2, 3))
    assert subsets.index((3,)) < subsets.index((1, 2))


class TestMnl:
    def test_single_product_closed_form(self):
        # e^0 / (1 + e^0) = 1/2
        model = MnlModel([0.0])
        assert model.evaluate(1, {1}) == 0.5
        assert evaluate_revenue(model, [10.0], {1}) == 5.0

    def test_matches_inline_formula(self):
        utilities = [0.3, -1.2, 2.0]
        model = MnlModel(utilities)
        for S in [{1}, {2, 3}, {1, 2, 3}]:
            denom = 1.0 + sum(math.exp(utilities[y - 1]) for y in S)
            for x in S:
                assert model.evaluate(x, S) == math.exp(utilities[x - 1]) / denom
        assert model.evaluate(2, {1, 3}) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_utilities(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MnlModel([0.0, bad])

    def test_completeness(self):
        model = MnlModel([0.5, -0.5, 1.0, 0.0])
        for subset in enumerate_subsets(4):
            total = model.evaluate(0, subset) + sum(model.evaluate(x, subset) for x in subset)
            assert abs(total - 1.0) <= 1e-12


class TestMixedMnl:
    def test_single_component_bitwise_equal(self):
        utilities = [0.7, -0.2, 1.9]
        plain = MnlModel(utilities)
        mixed = MixedMnlModel([(1.0, utilities)])
        for subset in enumerate_subsets(3):
            for x in list(subset) + [0]:
                assert mixed.evaluate(x, subset) == plain.evaluate(x, subset)

    def test_mixture_is_weighted_average(self):
        a, b = [0.0, 1.0], [1.0, -1.0]
        mixed = MixedMnlModel([(0.25, a), (0.75, b)])
        ma, mb = MnlModel(a), MnlModel(b)
        for subset in enumerate_subsets(2):
            for x in subset:
                expected = 0.25 * ma.evaluate(x, subset) + 0.75 * mb.evaluate(x, subset)
                assert mixed.evaluate(x, subset) == pytest.approx(expected, abs=1e-15)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedMnlModel([(0.5, [0.0]), (0.6, [1.0])])

    @pytest.mark.parametrize("weights", [(math.nan,), (math.nan, 1.0), (math.inf, 1.0)])
    def test_rejects_non_finite_weights(self, weights):
        # NaN compares false with both "< 0" and "sum differs from 1".
        with pytest.raises(ValueError, match="finite"):
            MixedMnlModel([(w, [float(i)]) for i, w in enumerate(weights)])


class TestStochasticPreference:
    def test_hand_computed_probabilities(self):
        model = StochasticPreferenceModel(
            2, [(0.6, (1, 0, 2)), (0.4, (2, 1, 0))]
        )
        assert model.evaluate(1, {1, 2}) == pytest.approx(0.6)
        assert model.evaluate(2, {1, 2}) == pytest.approx(0.4)
        assert model.evaluate(0, {1, 2}) == pytest.approx(0.0)
        assert model.evaluate(1, {1}) == pytest.approx(1.0)
        assert model.evaluate(2, {2}) == pytest.approx(0.4)

    def test_rejects_bad_rankings(self):
        with pytest.raises(ValueError):
            StochasticPreferenceModel(2, [(1.0, (1, 2))])
        with pytest.raises(ValueError):
            StochasticPreferenceModel(2, [(0.9, (0, 1, 2))])

    @pytest.mark.parametrize("weights", [(math.nan,), (math.nan, 1.0), (math.inf, 1.0)])
    def test_rejects_non_finite_weights(self, weights):
        orders = [(0, 1, 2), (2, 1, 0)]
        with pytest.raises(ValueError, match="finite"):
            StochasticPreferenceModel(2, list(zip(weights, orders)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=4))
    def test_completeness_property(self, data, n):
        count = data.draw(st.integers(min_value=1, max_value=4))
        raw = data.draw(
            st.lists(st.integers(min_value=1, max_value=9), min_size=count, max_size=count)
        )
        total = sum(raw)
        orders = [
            data.draw(st.permutations(list(range(n + 1)))) for _ in range(count)
        ]
        model = StochasticPreferenceModel(
            n, [(w / total, tuple(o)) for w, o in zip(raw, orders)]
        )
        for subset in enumerate_subsets(n):
            overall = model.evaluate(0, subset) + sum(model.evaluate(x, subset) for x in subset)
            assert abs(overall - 1.0) <= 1e-12


def kendall_distance(a, b):
    """Number of element pairs ordered differently by the two rankings: the
    reference that the Mallows expansion's distances are checked against."""
    if frozenset(a) != frozenset(b) or len(a) != len(b):
        raise ValueError("rankings must order the same elements")
    pos_b = {element: where for where, element in enumerate(b)}
    return sum(i > j for i, j in itertools.combinations([pos_b[element] for element in a], 2))


class TestKendall:
    def test_identity_and_reversal(self):
        assert kendall_distance((0, 1, 2), (0, 1, 2)) == 0
        assert kendall_distance((2, 1, 0), (0, 1, 2)) == 3
        assert kendall_distance((1, 0, 2), (0, 1, 2)) == 1

    def test_symmetry(self):
        a, b = (3, 0, 2, 1), (1, 2, 0, 3)
        assert kendall_distance(a, b) == kendall_distance(b, a)


class TestMallows:
    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_rejects_non_finite_theta(self, theta):
        # NaN compares false with "< 0", so the sign check alone accepts it.
        with pytest.raises(ValueError, match="finite"):
            MallowsModel((0, 1, 2), theta)

    def test_theta_zero_is_uniform(self):
        expanded = expand_ranking_model(MallowsModel((0, 1, 2), 0.0))
        weights = [w for w, _ in expanded.rankings]
        assert len(weights) == 6
        for w in weights:
            assert w == pytest.approx(1 / 6)

    def test_weights_sum_to_one(self):
        expanded = expand_ranking_model(MallowsModel((2, 0, 1, 3), 1.3))
        assert abs(sum(w for w, _ in expanded.rankings) - 1.0) <= 1e-9

    def test_large_theta_concentrates_on_central(self):
        # With theta = 50 and n = 2, the direct normalisation sum gives the
        # central ranking weight 1 / (1 + 2e^-50 + 2e^-100 + e^-150) > 0.99.
        central = (1, 2, 0)
        expanded = expand_ranking_model(MallowsModel(central, 50.0))
        by_order = {order: w for w, order in expanded.rankings}
        assert by_order[central] >= 0.99

    def test_normalisation_against_closed_form(self):
        # Independent oracle: sum_r q^{d(r, R)} = prod_{i=1..m} (1+q+...+q^{i-1}).
        for n, theta in [(2, 0.7), (3, 1.9)]:
            central = tuple(range(n + 1))
            q = math.exp(-theta)
            m = n + 1
            closed = 1.0
            for i in range(1, m + 1):
                closed *= sum(q**p for p in range(i))
            expanded = expand_ranking_model(MallowsModel(central, theta))
            for weight, order in expanded.rankings:
                expected = q ** kendall_distance(order, central) / closed
                assert weight == pytest.approx(expected, rel=1e-12)

    def test_expansion_guard(self):
        from assortopt import GroundSetTooLarge

        with pytest.raises(GroundSetTooLarge):
            expand_ranking_model(MallowsModel(tuple(range(9)), 1.0))


class TestHfam:
    def test_coverage_hand_computed(self):
        capacity = CoverageCapacity([0.3, 0.2, 0.1], [[0, 1], [1, 2]])
        front = HfamModel((1, 2), capacity)
        assert front.evaluate(1, {1, 2}) == pytest.approx(0.5)
        assert front.evaluate(2, {1, 2}) == pytest.approx(0.1)
        back = HfamModel((2, 1), capacity)
        assert back.evaluate(2, {1, 2}) == pytest.approx(0.3)
        assert back.evaluate(1, {1, 2}) == pytest.approx(0.3)

    def test_table_capacity_validation(self):
        with pytest.raises(ValueError):
            TableCapacity(1, {(): 0.1, (1,): 0.5})
        with pytest.raises(ValueError):
            TableCapacity(2, {(): 0.0, (1,): 0.5, (2,): 0.2, (1, 2): 0.4})
        not_submodular = {(): 0.0, (1,): 0.1, (2,): 0.1, (1, 2): 0.5}
        with pytest.raises(ValueError):
            TableCapacity(2, not_submodular)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_coverage_rejects_non_finite_point_weights(self, weight):
        with pytest.raises(ValueError, match="finite"):
            CoverageCapacity([weight], [[0]])

    def test_table_capacity_accepts_coverage_values(self):
        coverage = CoverageCapacity([0.4, 0.3], [[0], [0, 1]])
        values = {s: coverage.value(s) for s in enumerate_subsets(2)}
        table = TableCapacity(2, values)
        for s in enumerate_subsets(2):
            assert table.value(s) == coverage.value(s)


class TestTightExample:
    def test_pair_layout(self):
        model = TightExampleModel(3, 0.1)
        assert model.n == 6
        assert model.pairs[0] == (1, 1)
        assert model.pairs[5] == (3, 3)
        assert model.pairs.index((2, 1)) + 1 == 2

    def test_blocking_rule(self):
        model = TightExampleModel(3, 0.1)

        def coord(i, j):
            return model.pairs.index((i, j)) + 1

        # (2, 2) sells at epsilon^2 unless (2, 1) is present.
        assert model.evaluate(coord(2, 2), {coord(2, 2)}) == pytest.approx(0.01)
        assert model.evaluate(coord(2, 2), {coord(2, 1), coord(2, 2)}) == 0.0
        assert model.evaluate(coord(2, 1), {coord(2, 1), coord(2, 2)}) == pytest.approx(0.01)

    def test_full_offer_revenue_matches_geometric_sum(self):
        # (eps + eps^2) * eps^-1 = 1.1 for k = 2, eps = 0.1
        model = TightExampleModel(2, 0.1)
        revenue = [(1 / 0.1) ** j for (_, j) in model.pairs]
        assert evaluate_revenue(model, revenue, {1, 2, 3}) == pytest.approx(1.1)

    def test_epsilon_validation(self):
        with pytest.raises(InvalidEpsilon):
            TightExampleModel(2, 0.0)
        with pytest.raises(InvalidEpsilon):
            TightExampleModel(2, 0.6)
        with pytest.raises(ValueError):
            TightExampleModel(0, 0.1)


class TestTabular:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ({(1,): {1: math.nan}}, "P(1, [1]) = nan outside [0, 1]"),
            ({(1,): {1: math.inf}}, "P(1, [1]) = inf outside [0, 1]"),
            ({(1,): {1: -math.inf}}, "P(1, [1]) = -inf outside [0, 1]"),
            ({(1,): {1: 1.5}}, "P(1, [1]) = 1.5 outside [0, 1]"),
            ({(1,): {1: -0.25}}, "P(1, [1]) = -0.25 outside [0, 1]"),
            ({(1,): {1: 0.5}, (1, 2): {1: 0.25}}, "offer set [1, 2] names products outside 1..1"),
            ({}, "table is missing the offer set [1]"),
            ({(1,): {0: 0.5, 1: 0.5}}, "table assigns P(0, [1]) but 0 is not offered"),
        ],
        ids=["nan", "inf", "-inf", "above_one", "negative", "product_n_plus_1", "missing_set", "no_purchase"],
    )
    def test_refusals_name_what_is_wrong(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TabularModel(1, {(): {}, **rows})

    def test_explicit_no_purchase_consistency(self):
        for rows in ({(1,): {0: 0.9, 1: 0.5}}, {(1,): {0: 0.5, 1: 0.5}}):
            with pytest.raises(ValueError):
                TabularModel(1, {(): {}, **rows})
        model = TabularModel(1, {(): {}, (1,): {1: 0.5}})
        assert model.evaluate(0, {1}) == 0.5
        assert model.evaluate(0, set()) == 1.0

    def test_missing_subset_rejected(self):
        with pytest.raises(ValueError):
            TabularModel(2, {(): {}, (1,): {1: 0.5}})

    def test_round_trip_through_to_tabular(self):
        source = MnlModel([0.2, -0.4])
        table = source.to_tabular()
        for subset in enumerate_subsets(2):
            for x in list(subset) + [0]:
                assert table.evaluate(x, subset) == source.evaluate(x, subset)


def _coverage(n, weights=(0.5,), covers=None):
    return CoverageCapacity(list(weights), [{0}] * n if covers is None else covers)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MixedMnlModel([]), "a mixture needs at least one component"),
        (lambda: MixedMnlModel([(0.5, [0.0]), (0.5, [0.0, 1.0])]),
         "all mixture components must share the product count"),
        (lambda: MallowsModel((0, 1, 2), -0.5), "theta must be nonnegative"),
        (lambda: MallowsModel((0, 1, 1), 0.5), "(0, 1, 1) is not a permutation of 0..2"),
        (lambda: StochasticPreferenceModel(1, []), "at least one ranking is required"),
        (lambda: StochasticPreferenceModel(2, [(1.0, (0, 1, 1))]), "(0, 1, 1) is not a permutation of 0..2"),
        (lambda: HfamModel((1, 2), _coverage(1)), "capacity and preference must cover the same products"),
        (lambda: _coverage(1, weights=(0.5, -0.25)), "point weights must be nonnegative"),
        (lambda: _coverage(1, weights=(0.75, 0.5)), "point weights must sum to at most 1"),
        (lambda: _coverage(1, covers=[{1}]), "cover sets must reference ground points 0..len(weights)-1"),
        (lambda: _coverage(1, covers=[{-1}]), "cover sets must reference ground points 0..len(weights)-1"),
        (lambda: HfamModel((1, 1), _coverage(2)), "(1, 1) is not a permutation of 1..2"),
        (lambda: HfamModel((2, 1), _coverage(3)), "capacity and preference must cover the same products"),
        (lambda: TableCapacity(2, {(): 0.0, (1,): 0.5, (2,): 0.5}), "capacity table is missing subset [1, 2]"),
        (lambda: TableCapacity(1, {(): 0.0, (1,): 1.5}), "capacity 1.5 outside [0, 1] on [1]"),
        (lambda: Matroid(["a", "b", "a"]), "ground set elements must be distinct"),
        (lambda: GraphicMatroid(0, []), "at least one vertex is required"),
        (lambda: GraphicMatroid(2, [(0, 1), (1, 2)]), "edge (1, 2) references unknown vertices"),
        (lambda: UdpMinInstance(0, [({1}, 1.0)]), "at least one item is required"),
        (lambda: UdpMinInstance(1, []), "at least one consumer is required"),
        (lambda: UdpRankInstance(0, [((), ())]), "at least one item is required"),
        (lambda: UdpRankInstance(1, []), "at least one consumer is required"),
        (lambda: UdpRankInstance(2, [((2, 1), (1.0,))]), "one valuation per item is required"),
    ],
    ids=["mixture_empty", "mixture_counts", "mallows_theta", "mallows_permutation",
         "rankings_empty", "ranking_permutation",
         "cover_count", "point_weight_negative", "point_weights_above_one", "cover_point_above", "cover_point_below",
         "hfam_permutation", "hfam_capacity",
         "capacity_missing_subset", "capacity_above_one", "matroid_duplicates", "graph_no_vertex",
         "graph_unknown_vertex", "udp_min_no_item", "udp_min_no_consumer", "udp_rank_no_item",
         "udp_rank_no_consumer", "udp_rank_valuations"],
)
def test_constructor_refusals_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_evaluate_revenue_rejects_nonpositive():
    model = MnlModel([0.0])
    with pytest.raises(NonPositiveRevenue):
        evaluate_revenue(model, [0.0], {1})


def test_evaluate_revenue_empty_set_is_zero():
    assert evaluate_revenue(MnlModel([0.0, 1.0]), [1.0, 2.0], set()) == 0


def test_demand_is_purchase_probability():
    model = MnlModel([0.0, 0.0])
    assert ordered_sum(model.choice_row({1, 2})) == pytest.approx(2 / 3)


def test_fraction_probabilities_flow_through():
    # Reduction models return exact rationals; the evaluators must keep them.
    table = TabularModel(1, {(): {}, (1,): {1: Fraction(1, 3)}})
    assert evaluate_revenue(table, [3], {1}) == Fraction(1, 1)


@pytest.mark.parametrize(
    "read",
    [lambda m: m.evaluate(1, {1}), lambda m: m.evaluate(0, {1}), lambda m: m.columns(2), lambda m: m.choice_row({1})],
    ids=["evaluate", "no_purchase", "columns", "choice_row"],
)
def test_a_model_without_choice_rows_is_not_implemented(read):
    class Bare(ChoiceModel):
        pass

    with pytest.raises(NotImplementedError, match="Bare does not define _choice_row"):
        read(Bare(2))
