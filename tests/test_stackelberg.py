"""Matroid greedy machinery and the base-buying pricing reduction."""

import hashlib
import itertools
import math
import tracemalloc
from random import Random

import pytest

from assortopt import (
    GraphicMatroid,
    Matroid,
    StackelbergInstance,
    UNPRICED,
    brute_force_optimum,
    brute_force_stackelberg,
    check_axioms,
    cost_compatible_ordering,
    greedy,
    reduce_to_assortment,
    revenue_ordered,
    revenue_of_prices,
    uniform_pricing_stackelberg,
)
from assortopt.generators import random_stackelberg
from assortopt.errors import GroundSetTooLarge
from assortopt.stackelberg import PricedCopyMatroid, StackelbergChoiceModel
from matroid_checks import (
    FunctionMatroid,
    check_greedy_nesting,
    check_matroid_axioms,
    check_tiebreak_independence,
    is_cost_compatible,
)


def triangle():
    return GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])


# Downward closed but without the exchange property: from {2} one cannot
# reach size two because both {1,2}-ish extensions through 1 are forbidden.
def non_matroid_sentinel():
    blocked = {frozenset({1, 2}), frozenset({1, 3})}
    return FunctionMatroid([1, 2, 3], lambda S: len(S) <= 2 and S not in blocked)


def forest(n_vertices, edges, subset):
    """Whether the listed edges form a forest, by merging vertex labels over
    every vertex: a set test written apart from ``GraphicMatroid``'s scan."""
    component = list(range(n_vertices))
    for index in subset:
        u, v = (component[w] for w in edges[index])
        if u == v:
            return False
        component = [u if c == v else c for c in component]
    return True


@pytest.mark.parametrize(
    "read",
    [lambda m: m.is_independent(()), lambda m: m.rank(), lambda m: greedy(m, {1}, [1])],
    ids=["is_independent", "rank", "greedy"],
)
def test_a_matroid_without_an_extender_is_not_implemented(read):
    class Bare(Matroid):
        pass

    with pytest.raises(NotImplementedError, match="^Bare does not define extender$"):
        read(Bare([1]))


class TestGraphicMatroid:
    def test_forest_detection(self):
        g = triangle()
        assert g.is_independent({0, 1})
        assert not g.is_independent({0, 1, 2})

    def test_parallel_edges_form_cycle(self):
        g = GraphicMatroid(2, [(0, 1), (0, 1)])
        assert g.is_independent({0})
        assert not g.is_independent({0, 1})

    def test_self_loop_is_dependent(self):
        g = GraphicMatroid(2, [(0, 0), (0, 1)])
        assert not g.is_independent({0})
        assert g.is_independent({1})

    def test_axioms_hold(self):
        assert check_matroid_axioms(triangle())
        assert check_matroid_axioms(GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))

    def test_verdicts_match_a_union_find_over_every_vertex(self):
        rng = Random(31)
        for _ in range(40):
            n_vertices = rng.randint(1, 40)
            edges = [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(rng.randint(0, 6))]
            g = GraphicMatroid(n_vertices, edges)
            for size in range(len(edges) + 1):
                for subset in itertools.combinations(range(len(edges)), size):
                    assert g.is_independent(subset) == forest(n_vertices, edges, subset)

    def test_vertices_no_edge_touches_cost_nothing(self):
        far = 99_999
        g = GraphicMatroid(far + 1, [(0, 1), (far, 0), (1, far)])
        tracemalloc.start()
        try:
            verdicts = g.is_independent({0, 1}), g.is_independent({0, 1, 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdicts == (True, False)
        assert peak < 2**12  # a union-find over all 10^5 vertices takes some 800 kB


class TestGreedy:
    def test_independent_input_returned_whole(self):
        g = triangle()
        assert greedy(g, {0, 1}, [0, 1, 2]) == frozenset({0, 1})

    def test_triangle_takes_first_two(self):
        g = triangle()
        assert greedy(g, {0, 1, 2}, [2, 0, 1]) == frozenset({2, 0})

    def test_empty_input(self):
        assert greedy(triangle(), set(), [0, 1, 2]) == frozenset()

    def test_an_element_listed_twice_is_dependent(self):
        aux = PricedCopyMatroid(triangle(), frozenset({1}), [1, 2])
        assert not triangle().is_independent([0, 0])
        assert not aux.is_independent([0, 0]) and not aux.is_independent([(1, 1), (1, 1)])
        assert aux.is_independent([0, (1, 1)])

    def test_incremental_scans_match_rebuilt_tests(self):
        def independent(matroid, subset):
            """The set tests the scans must agree with, none of them a scan."""
            if isinstance(matroid, GraphicMatroid):
                return forest(matroid.n_vertices, matroid.edges, subset)
            if isinstance(matroid, PricedCopyMatroid):
                # At most one copy per blue element, and the projection
                # (reds plus the blues behind the copies) independent in the base.
                reds = [e for e in subset if e in matroid._reds]
                blues = [copy[0] for copy in subset if copy not in matroid._reds]
                return len(blues) == len(set(blues)) and independent(matroid._base, reds + blues)
            return matroid.is_independent(subset)  # a FunctionMatroid's callable

        def ref_greedy(matroid, F, order):
            selected = []
            for element in order:
                if element in F and independent(matroid, selected + [element]):
                    selected.append(element)
            return frozenset(selected)

        rng = Random(41)
        for _ in range(60):
            n_vertices = rng.randint(1, 7)
            edges = [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(rng.randint(0, 9))]
            graphic = GraphicMatroid(n_vertices, edges)
            blue = frozenset(e for e in graphic.ground if rng.random() < 0.5)
            levels = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
            as_callable = FunctionMatroid(graphic.ground, lambda S: forest(n_vertices, edges, S))
            matroids = [
                graphic,
                PricedCopyMatroid(graphic, blue, levels),
                PricedCopyMatroid(as_callable, blue, levels),
                PricedCopyMatroid(non_matroid_sentinel(), frozenset({2, 3}), levels),
            ]
            for matroid in matroids:
                ground = list(matroid.ground)
                for _ in range(4):
                    # Repeated elements too: a kept one is never kept twice.
                    order = ground + rng.sample(ground, min(3, len(ground)))
                    rng.shuffle(order)
                    F = frozenset(e for e in ground if rng.random() < 0.7)
                    assert greedy(matroid, F, order) == ref_greedy(matroid, F, order)

    def test_a_graphic_scan_keeps_one_union_find(self, monkeypatch):
        built = []
        extender = GraphicMatroid.extender

        def counted(self):
            built.append(self)
            return extender(self)

        monkeypatch.setattr(GraphicMatroid, "extender", counted)
        g = triangle()
        aux = PricedCopyMatroid(g, frozenset({1}), [1, 2])
        assert greedy(g, {0, 1, 2}, [2, 0, 1]) == frozenset({2, 0})
        assert greedy(aux, aux.ground, [(1, 2), (1, 1), 0, 2]) == frozenset({(1, 2), 0})
        assert built == [g, g]


class TestGreedyNesting:
    def test_graphic_matroids_pass(self):
        rng = Random(11)
        for trial in range(20):
            instance = random_stackelberg(rng, max_vertices=6)
            report = check_greedy_nesting(instance.matroid, 25, Random(trial))
            assert report.passed

    def test_equal_sets_trivially_pass(self):
        g = triangle()
        order = [0, 1, 2]
        full = greedy(g, {0, 1, 2}, order)
        assert len(full) == len(full) and ({0, 1, 2} & full) <= full

    def test_sentinel_is_not_a_matroid(self):
        assert not check_matroid_axioms(non_matroid_sentinel())

    def test_sentinel_fails_harness(self):
        report = check_greedy_nesting(non_matroid_sentinel(), 500, Random(5))
        assert not report.passed
        assert report.failures

    # Nothing is independent, or {1, 2} is but neither of its singletons.
    @pytest.mark.parametrize("predicate", [lambda S: False, lambda S: len(S) != 1], ids=["dependent empty set", "not hereditary"])
    def test_a_family_failing_the_first_two_axioms_is_not_a_matroid(self, predicate):
        assert not check_matroid_axioms(FunctionMatroid([1, 2], predicate))

    def test_single_excluded_pair_is_still_a_matroid(self):
        # "At most two elements except {1,2}" satisfies exchange after all:
        # it is the graphic matroid of two parallel edges plus a third edge.
        single = FunctionMatroid([1, 2, 3], lambda S: len(S) <= 2 and S != frozenset({1, 2}))
        assert check_matroid_axioms(single)
        assert check_greedy_nesting(single, 400, Random(1)).passed


def parallel_pair_instance(red_cost=5.0):
    # Two vertices joined by a red edge (index 0) and a parallel blue edge.
    matroid = GraphicMatroid(2, [(0, 1), (0, 1)])
    return StackelbergInstance(matroid, {0: red_cost}, [1])


class TestRevenueOfPrices:
    def test_unpriced_blue_buys_red_base(self):
        instance = parallel_pair_instance()
        outcome = revenue_of_prices(instance, {1: UNPRICED})
        assert outcome.revenue == 0
        assert outcome.bought_blue == frozenset()

    def test_blue_wins_cost_tie(self):
        instance = parallel_pair_instance(red_cost=5.0)
        outcome = revenue_of_prices(instance, {1: 5.0})
        assert outcome.revenue == 5.0
        assert outcome.bought_blue == frozenset({1})

    def test_red_wins_above_tie(self):
        instance = parallel_pair_instance(red_cost=5.0)
        outcome = revenue_of_prices(instance, {1: 5.0 + 1e-9})
        assert outcome.revenue == 0

    def test_ordering_is_compatible(self):
        rng = Random(3)
        for _ in range(20):
            instance = random_stackelberg(rng)
            prices = {e: rng.choice(instance.cost_levels) for e in instance.blue}
            order = cost_compatible_ordering(instance, prices)
            assert is_cost_compatible(order, instance.effective_costs(prices), instance.blue)


class TestCostCompatibility:
    def test_a_dearer_element_or_a_red_tie_first_is_refused(self):
        assert not is_cost_compatible([2, 1], {1: 1.0, 2: 2.0}, frozenset())
        assert not is_cost_compatible([1, 2], {1: 1.0, 2: 1.0}, frozenset({2}))
        assert is_cost_compatible([2, 1], {1: 1.0, 2: 1.0}, frozenset({2}))


class TestTiebreakIndependence:
    def test_a_sentinel_whose_greedy_depends_on_the_tie_order_fails(self):
        # Blues 1, 2, 3 tie at price 1; beyond singletons only {2, 3} is
        # independent, so greedy buys one blue when 1 comes first, else two.
        sentinel = FunctionMatroid([1, 2, 3, 4], lambda S: len(S) <= 1 or S == frozenset({2, 3}))
        instance = StackelbergInstance(sentinel, {4: 5.0}, [1, 2, 3])
        prices = dict.fromkeys([1, 2, 3], 1.0)
        assert revenue_of_prices(instance, prices).bought_blue == frozenset({1})
        assert not check_tiebreak_independence(instance, prices, 20, Random(0))

    def test_distinct_costs_single_ordering(self):
        matroid = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
        instance = StackelbergInstance(matroid, {0: 1.0, 1: 2.0}, [2])
        assert check_tiebreak_independence(instance, {2: 1.5}, 50, Random(0))

    def test_equal_price_blues_in_cycle(self):
        # Two blue edges at the same price close a cycle with the red path;
        # which one is bought depends on the ordering but the revenue not.
        matroid = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (0, 2)])
        instance = StackelbergInstance(matroid, {0: 2.0, 1: 2.0}, [2, 3])
        assert check_tiebreak_independence(instance, {2: 2.0, 3: 2.0}, 200, Random(1))

    def test_random_instances(self):
        rng = Random(8)
        for trial in range(100):
            instance = random_stackelberg(rng, max_vertices=6)
            levels = list(instance.cost_levels) + [UNPRICED]
            prices = {e: rng.choice(levels) for e in instance.blue}
            assert check_tiebreak_independence(instance, prices, 10, Random(trial))


class TestUniformPricing:
    def test_single_cost_level(self):
        instance = parallel_pair_instance(red_cost=3.0)
        result = uniform_pricing_stackelberg(instance)
        assert result.candidates == ((3.0, 3.0),)
        assert result.revenue == 3.0

    def test_no_blue_elements(self):
        matroid = GraphicMatroid(2, [(0, 1)])
        instance = StackelbergInstance(matroid, {0: 2.0}, [])
        result = uniform_pricing_stackelberg(instance)
        assert result.revenue == 0

    def test_log_bound_against_oracle(self):
        rng = Random(21)
        for _ in range(40):
            instance = random_stackelberg(rng)
            uniform = uniform_pricing_stackelberg(instance).revenue
            optimum = brute_force_stackelberg(instance).revenue
            levels = instance.cost_levels
            rho = levels[-1] / levels[0]
            assert uniform >= optimum / (1 + math.log(rho)) * (1 - 1e-9)


class TestBruteForce:
    def test_single_blue_is_priced_at_red_alternative(self):
        instance = parallel_pair_instance(red_cost=4.0)
        best = brute_force_stackelberg(instance)
        assert best.revenue == 4.0
        assert best.prices == {1: 4.0}

    def test_no_blue(self):
        matroid = GraphicMatroid(2, [(0, 1)])
        instance = StackelbergInstance(matroid, {0: 2.0}, [])
        assert brute_force_stackelberg(instance).revenue == 0

    def test_dominates_uniform(self):
        rng = Random(22)
        for _ in range(30):
            instance = random_stackelberg(rng)
            assert (
                brute_force_stackelberg(instance).revenue
                >= uniform_pricing_stackelberg(instance).revenue
            )


class TestConstruction:
    def test_rejects_red_without_base(self):
        matroid = GraphicMatroid(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            StackelbergInstance(matroid, {0: 1.0}, [1])

    def test_rejects_bad_partition(self):
        matroid = GraphicMatroid(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            StackelbergInstance(matroid, {0: 1.0}, [0, 1])


class TestReduction:
    def test_two_vertex_example(self):
        # One red edge at cost 2 and one parallel blue edge: a single product
        # priced |B| * 2 = 2, and both optima equal 2.
        instance = parallel_pair_instance(red_cost=2.0)
        reduced = reduce_to_assortment(instance)
        assert reduced.n == 1
        assert reduced.revenue == (2.0,)
        assert brute_force_optimum(reduced).revenue == 2.0
        assert brute_force_stackelberg(instance).revenue == 2.0

    def test_empty_blue_reduces_to_empty_catalogue(self):
        matroid = GraphicMatroid(2, [(0, 1)])
        instance = StackelbergInstance(matroid, {0: 2.0}, [])
        reduced = reduce_to_assortment(instance)
        assert reduced.n == 0
        assert brute_force_optimum(reduced).revenue == 0
        assert brute_force_stackelberg(instance).revenue == 0

    def test_guard_refuses_before_building_the_model(self, monkeypatch):
        built = []
        original = StackelbergChoiceModel.__init__

        def spy(self, instance):
            built.append(instance)
            original(self, instance)

        monkeypatch.setattr(StackelbergChoiceModel, "__init__", spy)
        # 21 blue edges parallel to one red edge: 21 x 1 pairs, one past the guard.
        matroid = GraphicMatroid(2, [(0, 1)] * 22)
        instance = StackelbergInstance(matroid, {0: 2.0}, range(1, 22))
        with pytest.raises(GroundSetTooLarge, match="21 blue elements x 1 cost levels"):
            reduce_to_assortment(instance)
        assert built == []

    def test_oracle_equality_axioms_and_bullets(self):
        rng = Random(23)
        for _ in range(30):
            instance = random_stackelberg(rng)
            reduced = reduce_to_assortment(instance)
            assert (
                brute_force_optimum(reduced).revenue
                == brute_force_stackelberg(instance).revenue
            )
            assert check_axioms(reduced.model).passed
            uniform = uniform_pricing_stackelberg(instance)
            ordered = revenue_ordered(reduced)
            blue_count = len(instance.blue)
            assert len(uniform.candidates) == len(ordered.candidates)
            for (level, u_rev), (threshold, r_rev) in zip(uniform.candidates, ordered.candidates):
                assert threshold == blue_count * level
                assert u_rev == r_rev

    def test_auxiliary_matroid_equals_parallel_copies(self):
        rng = Random(24)
        checked = 0
        for _ in range(30):
            instance = random_stackelberg(rng)
            graphic = instance.matroid
            levels = instance.cost_levels
            aux = PricedCopyMatroid(graphic, instance.blue, levels)
            if len(aux.ground) > 12:
                continue
            copies_edges = []
            id_map = {}
            for e in graphic.ground:
                if e not in instance.blue:
                    id_map[e] = len(copies_edges)
                    copies_edges.append(graphic.edges[e])
            for e in sorted(instance.blue):
                for q in levels:
                    id_map[(e, q)] = len(copies_edges)
                    copies_edges.append(graphic.edges[e])
            expanded = GraphicMatroid(graphic.n_vertices, copies_edges)
            for size in range(len(aux.ground) + 1):
                for combo in itertools.combinations(aux.ground, size):
                    assert aux.is_independent(combo) == expanded.is_independent(
                        [id_map[e] for e in combo]
                    )
            checked += 1
        assert checked >= 20


# sha256 of the lines below over seeds 0-399, as written while each matroid
# kept a set test beside its scan and the follower's tie rule was spelt twice.
STACKELBERG_SHA256 = "4f801ab3076bf4ce68c294ef8059475399ff620b49c621fa9f80f06dcb67fbb4"


def _stackelberg_lines(seed):
    instance = random_stackelberg(Random(seed), 7, 3)
    reduced = reduce_to_assortment(instance)
    levels = instance.cost_levels
    uniform = uniform_pricing_stackelberg(instance)
    best = brute_force_stackelberg(instance)
    middle = dict.fromkeys(instance.blue, levels[len(levels) // 2])
    return [repr(reduced.model._order), repr(reduced.table.columns(reduced.n)), repr((best.prices, best.revenue)),
            repr((uniform.price, uniform.revenue, uniform.candidates)),
            repr(cost_compatible_ordering(instance, middle))]


def test_reductions_and_pricing_results_are_unchanged():
    lines = [line for seed in range(400) for line in _stackelberg_lines(seed)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STACKELBERG_SHA256
