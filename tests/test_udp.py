"""Unit-demand pricing: simulation rules, oracles, and the reductions."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import (
    UNPRICED,
    PriceLadder,
    SearchSpaceTooLarge,
    UdpMinInstance,
    UdpRankInstance,
    brute_force_optimum,
    brute_force_pricing,
    check_axioms,
    reduce_min_to_assortment,
    reduce_rank_to_assortment,
    revenue_ordered,
    simulate_purchases_min,
    simulate_purchases_rank,
    uniform_pricing,
)
from assortopt.errors import GroundSetTooLarge
from assortopt.generators import random_udp_min, random_udp_rank
from assortopt.udp import _PairCatalogue


class TestSimulateMin:
    def test_all_unpriced_sells_nothing(self):
        instance = UdpMinInstance(2, [({1, 2}, 5.0)])
        outcome = simulate_purchases_min(instance, (UNPRICED, UNPRICED))
        assert outcome.purchases == (None,)
        assert outcome.revenue == 0

    def test_buys_cheapest(self):
        instance = UdpMinInstance(2, [({1, 2}, 5.0)])
        outcome = simulate_purchases_min(instance, (3.0, 2.0))
        assert outcome.purchases == (2,)
        assert outcome.revenue == 2.0

    def test_price_tie_goes_to_lowest_index(self):
        instance = UdpMinInstance(2, [({1, 2}, 5.0)])
        outcome = simulate_purchases_min(instance, (2.0, 2.0))
        assert outcome.purchases == (1,)

    def test_shared_item_uniform_price(self):
        # Valuations 1, 2, 4 against price 2: exactly two buyers.
        instance = UdpMinInstance(1, [({1}, 1.0), ({1}, 2.0), ({1}, 4.0)])
        outcome = simulate_purchases_min(instance, (2.0,))
        assert outcome.purchases == (None, 1, 1)
        assert outcome.revenue == 4.0


class TestSimulateRank:
    def test_unaffordable_everywhere(self):
        instance = UdpRankInstance(2, [((1, 2), (1.0, 1.0))])
        outcome = simulate_purchases_rank(instance, (5.0, 5.0))
        assert outcome.revenue == 0

    def test_skips_unaffordable_first_choice(self):
        # Checks item 2 first (price 3 > valuation 1), then buys item 1 at 5.
        instance = UdpRankInstance(2, [((2, 1), (10.0, 1.0))])
        outcome = simulate_purchases_rank(instance, (5.0, 3.0))
        assert outcome.purchases == (1,)
        assert outcome.revenue == 5.0

    def test_everyone_buys_at_min_first_choice_valuation(self):
        instance = UdpRankInstance(
            2, [((1, 2), (3.0, 9.0)), ((2, 1), (9.0, 3.0))]
        )
        outcome = simulate_purchases_rank(instance, (3.0, 3.0))
        assert outcome.purchases == (1, 2)
        assert outcome.revenue == 6.0


class TestUniformPricing:
    def test_identical_valuations(self):
        instance = UdpMinInstance(2, [({1}, 1.0), ({2}, 1.0), ({1, 2}, 1.0)])
        result = uniform_pricing(instance)
        assert result.price == 1.0
        assert result.revenue == 3.0

    def test_candidate_revenues_and_tie_break(self):
        # Candidates earn 3, 4, 4; the tie resolves to the higher price 4.
        instance = UdpMinInstance(1, [({1}, 1.0), ({1}, 2.0), ({1}, 4.0)])
        result = uniform_pricing(instance)
        assert result.candidates == ((1.0, 3.0), (2.0, 4.0), (4.0, 4.0))
        assert result.price == 4.0
        assert result.revenue == 4.0

    def test_rank_uniform_by_simulation(self):
        instance = UdpRankInstance(2, [((2, 1), (4.0, 2.0))])
        result = uniform_pricing(instance)
        # Price 2 sells item 2; price 4 sells item 1 (2 unaffordable).
        assert dict(result.candidates) == {2.0: 2.0, 4.0: 4.0}
        assert result.price == 4.0


class TestBruteForcePricing:
    def test_single_item_three_valuations(self):
        instance = UdpMinInstance(1, [({1}, 1.0), ({1}, 2.0), ({1}, 4.0)])
        best = brute_force_pricing(instance)
        assert best.revenue == 4.0
        assert best.prices == (2.0,) or best.prices == (4.0,)

    def test_disjoint_singletons_price_at_valuations(self):
        instance = UdpMinInstance(2, [({1}, 3.0), ({2}, 7.0)])
        best = brute_force_pricing(instance)
        assert best.revenue == 10.0
        assert best.prices == (3.0, 7.0)

    def test_ladder_never_beats_unconstrained(self):
        rng = Random(5)
        for _ in range(40):
            instance = random_udp_min(rng)
            free = brute_force_pricing(instance)
            ladder = PriceLadder(tuple(range(1, instance.n + 1)))
            constrained = brute_force_pricing(instance, ladder=ladder)
            assert constrained.revenue <= free.revenue
            assert ladder.is_feasible(constrained.prices)

    @pytest.mark.parametrize("psi", [(1, 2, 3), (1,)])
    def test_ladder_of_another_length_is_refused(self, psi):
        instance = UdpMinInstance(2, [({1}, 1.0), ({2}, 2.0)])
        with pytest.raises(ValueError, match=f"orders {len(psi)} items but the instance has 2"):
            brute_force_pricing(instance, ladder=PriceLadder(psi))

    def test_guard(self):
        consumers = [({x}, float(x)) for x in range(1, 10)]
        wide = UdpMinInstance(9, consumers)
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_pricing(wide, guard=100)

    def test_guard_refuses_before_computing_the_grid_size(self):
        # 3^10000 has 4,772 digits; formatting it would exceed the int-to-str limit.
        huge = UdpMinInstance(10**4, [({1}, 1), ({2}, 2)])
        with pytest.raises(SearchSpaceTooLarge, match=r"3\^10000 price assignments"):
            brute_force_pricing(huge)

    def test_guard_at_the_boundary_is_exact(self):
        # 3^2 = 9 assignments: a guard of 9 admits them, a guard of 8 does not.
        instance = UdpMinInstance(2, [({1}, 1), ({2}, 2)])
        assert brute_force_pricing(instance, guard=9).revenue == 3
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_pricing(instance, guard=8)

    def test_reduction_guard_builds_no_pair_catalogue(self, monkeypatch):
        built = []
        original = _PairCatalogue.__init__

        def spy(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(_PairCatalogue, "__init__", spy)
        huge = UdpMinInstance(10**4, [({1}, 1), ({2}, 2)])
        with pytest.raises(GroundSetTooLarge, match="10000 items x 2 valuation levels"):
            reduce_min_to_assortment(huge)
        assert built == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_uniform_pricing_is_always_ladder_feasible(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    price = data.draw(st.floats(min_value=0.5, max_value=9.5, allow_nan=False))
    psi = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    assert PriceLadder(psi).is_feasible((price,) * n)


class TestMinReduction:
    def test_single_consumer_single_item(self):
        instance = UdpMinInstance(1, [({1}, 3.0)])
        reduced = reduce_min_to_assortment(instance)
        assert reduced.n == 1
        assert reduced.revenue == (3.0,)
        assert reduced.model.evaluate(1, {1}) == 1
        assert brute_force_optimum(reduced).revenue == 3.0

    def test_oracle_equality_and_axioms(self):
        rng = Random(42)
        for _ in range(40):
            instance = random_udp_min(rng)
            reduced = reduce_min_to_assortment(instance)
            assert brute_force_optimum(reduced).revenue == brute_force_pricing(instance).revenue
            assert check_axioms(reduced.model).passed

    def test_candidate_value_sets_match(self):
        rng = Random(43)
        for _ in range(25):
            instance = random_udp_min(rng)
            reduced = reduce_min_to_assortment(instance)
            uniform = uniform_pricing(instance)
            ordered = revenue_ordered(reduced)
            assert len(uniform.candidates) == len(ordered.candidates)
            for (price, u_rev), (threshold, r_rev) in zip(uniform.candidates, ordered.candidates):
                assert threshold == instance.m * price
                assert u_rev == r_rev


class TestRankReduction:
    def test_single_consumer_identity_ranking(self):
        instance = UdpRankInstance(1, [((1,), (2.0,))])
        reduced = reduce_rank_to_assortment(instance)
        assert brute_force_optimum(reduced).revenue == 2.0
        assert brute_force_pricing(instance).revenue == 2.0

    def test_oracle_equality_and_axioms(self):
        rng = Random(44)
        for _ in range(40):
            instance = random_udp_rank(rng)
            reduced = reduce_rank_to_assortment(instance)
            assert brute_force_optimum(reduced).revenue == brute_force_pricing(instance).revenue
            assert check_axioms(reduced.model).passed

    def test_candidate_value_sets_match(self):
        rng = Random(45)
        for _ in range(25):
            instance = random_udp_rank(rng)
            reduced = reduce_rank_to_assortment(instance)
            uniform = uniform_pricing(instance)
            ordered = revenue_ordered(reduced)
            assert len(uniform.candidates) == len(ordered.candidates)
            for (price, u_rev), (threshold, r_rev) in zip(uniform.candidates, ordered.candidates):
                assert threshold == instance.m * price
                assert u_rev == r_rev


class TestUniformPricingGuarantees:
    def test_min_log_bounds(self):
        rng = Random(46)
        for _ in range(50):
            instance = random_udp_min(rng)
            optimum = brute_force_pricing(instance).revenue
            uniform = uniform_pricing(instance).revenue
            levels = instance.valuation_levels
            rho = levels[-1] / levels[0]
            assert uniform >= optimum / (1 + math.log(rho)) * (1 - 1e-9)
            assert uniform >= optimum / (1 + math.log(instance.m)) * (1 - 1e-9)

    def test_rank_log_bound(self):
        rng = Random(47)
        for _ in range(50):
            instance = random_udp_rank(rng)
            optimum = brute_force_pricing(instance).revenue
            uniform = uniform_pricing(instance).revenue
            levels = instance.valuation_levels
            rho = levels[-1] / levels[0]
            assert uniform >= optimum / (1 + math.log(rho)) * (1 - 1e-9)
            assert uniform >= optimum / (1 + math.log(instance.m)) * (1 - 1e-9)
