"""Axiom checkers: the counterexample table, constructed violators, guards."""

from fractions import Fraction
from random import Random

import pytest

from assortopt import (
    GroundSetTooLarge,
    MnlModel,
    StochasticPreferenceModel,
    TabularModel,
    check_axioms,
    check_demand_submodularity,
    check_purchase_monotonicity,
    generate_tight_instance,
)
from assortopt.models import ordered_sum

# The three-product table where enlarging the offer set raises total demand
# faster than submodularity allows, while regularity still holds.
COUNTEREXAMPLE_ROWS = {
    (): {},
    (1,): {1: 0.5},
    (2,): {2: 0.5},
    (3,): {3: 0.5},
    (1, 2): {1: 0.3, 2: 0.3},
    (1, 3): {1: 0.3, 3: 0.3},
    (2, 3): {2: 0.3, 3: 0.3},
    (1, 2, 3): {1: 0.25, 2: 0.25, 3: 0.25},
}


@pytest.fixture
def counterexample_table():
    return TabularModel(3, COUNTEREXAMPLE_ROWS)


# Regularity violated at product 1 between {1} and {1, 2}; everything else
# chosen so no earlier pair in canonical order violates.
VIOLATOR_ROWS = {
    (): {},
    (1,): {1: 0.3},
    (2,): {2: 0.5},
    (1, 2): {1: 0.5, 2: 0.2},
}


class TestCheckAxioms:
    def test_counterexample_table_is_regular(self, counterexample_table):
        report = check_axioms(counterexample_table)
        assert report.passed
        assert report.regularity.passed

    def test_mnl_passes_all_axioms(self):
        report = check_axioms(MnlModel([0.4, -1.1, 2.2]))
        assert report.passed

    def test_constructed_violation_with_witness(self):
        report = check_axioms(TabularModel(2, VIOLATOR_ROWS))
        assert not report.regularity.passed
        assert report.regularity.witness == (1, frozenset({1}), frozenset({1, 2}))
        assert report.regularity.gap == pytest.approx(0.2)

    def test_guard(self):
        with pytest.raises(GroundSetTooLarge):
            check_axioms(MnlModel([0.0] * 25))


class TestPurchaseMonotonicity:
    def test_regular_model_passes(self, counterexample_table):
        assert check_purchase_monotonicity(counterexample_table).passed

    def test_column_sum_of_full_set(self, counterexample_table):
        assert ordered_sum(counterexample_table.choice_row({1, 2, 3})) == pytest.approx(0.75)

    def test_violator_fails_with_witness(self):
        # Total demand drops from 0.3 to 0.2 when 2 joins the offer set.
        rows = {
            (): {},
            (1,): {1: 0.3},
            (2,): {2: 0.5},
            (1, 2): {1: 0.1, 2: 0.1},
        }
        result = check_purchase_monotonicity(TabularModel(2, rows))
        assert not result.passed
        assert result.witness == (frozenset({1}), frozenset({1, 2}))
        # A purchase-probability drop always implies a regularity violation.
        assert not check_axioms(TabularModel(2, rows)).regularity.passed

    def test_random_regular_models_pass(self):
        rng = Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            count = rng.randint(1, 4)
            raw = [rng.randint(1, 9) for _ in range(count)]
            total = sum(raw)
            rankings = []
            for w in raw:
                order = list(range(n + 1))
                rng.shuffle(order)
                rankings.append((w / total, tuple(order)))
            model = StochasticPreferenceModel(n, rankings)
            assert check_purchase_monotonicity(model).passed


class TestDemandSubmodularity:
    def test_counterexample_gap_and_witness(self, counterexample_table):
        result = check_demand_submodularity(counterexample_table)
        assert not result.passed
        assert result.witness == (frozenset({1}), frozenset({1, 2}), 3)
        assert abs(result.gap - 0.05) <= 1e-12

    def test_exact_table_reports_first_witness_of_maximal_gap(self):
        # The maximal gap 1/3 is not a float, so a running maximum rounded
        # to float would let a later triple attaining it replace the first.
        third, quarter = Fraction(1, 3), Fraction(1, 4)
        rows = {(): {}}
        for subset in ((1,), (2,), (3,)):
            rows[subset] = {x: third for x in subset}
        for subset in ((1, 2), (1, 3), (2, 3)):
            rows[subset] = {x: quarter for x in subset}
        rows[(1, 2, 3)] = {1: third, 2: third, 3: third}
        exact = check_demand_submodularity(TabularModel(3, rows))
        rounded = check_demand_submodularity(
            TabularModel(3, {s: {x: float(p) for x, p in row.items()} for s, row in rows.items()})
        )
        assert exact.witness == rounded.witness == (frozenset({1}), frozenset({1, 2}), 3)
        assert exact.gap == float(third)

    def test_random_mnl_passes(self):
        # Random-utility demand is submodular; exhaustive check on n <= 6.
        rng = Random(123)
        for _ in range(20):
            n = rng.randint(1, 6)
            model = MnlModel([rng.gauss(0, 1.5) for _ in range(n)])
            assert check_demand_submodularity(model).passed

    def test_single_product_vacuous(self):
        assert check_demand_submodularity(MnlModel([0.7])).passed


def test_tight_family_passes_axioms():
    for epsilon in (0.5, 0.1):
        instance = generate_tight_instance(3, epsilon)
        assert check_axioms(instance.model).passed


def test_ranking_distributions_satisfy_all_axioms():
    rng = Random(55)
    for _ in range(30):
        n = rng.randint(1, 5)
        count = rng.randint(1, 4)
        raw = [rng.randint(1, 9) for _ in range(count)]
        total = sum(raw)
        rankings = []
        for w in raw:
            order = list(range(n + 1))
            rng.shuffle(order)
            rankings.append((w / total, tuple(order)))
        assert check_axioms(StochasticPreferenceModel(n, rankings)).passed


def test_attention_models_satisfy_regularity():
    from assortopt import CoverageCapacity, HfamModel

    rng = Random(56)
    for _ in range(30):
        n = rng.randint(1, 5)
        points = rng.randint(2, 5)
        weights = [rng.uniform(0.05, 1.0) for _ in range(points)]
        total = sum(weights) * 1.2
        weights = [w / total for w in weights]
        covers = [[p for p in range(points) if rng.random() < 0.5] for _ in range(n)]
        preference = list(range(1, n + 1))
        rng.shuffle(preference)
        model = HfamModel(preference, CoverageCapacity(weights, covers))
        assert check_axioms(model).passed
