"""Revenue-ordered heuristic, exact oracle, bounds, and the tight family."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from assortopt import assortment
from assortopt.generators import ASSORTMENT_FAMILIES, random_assortment_instance
from assortopt.models import ordered_sum
from assortopt import (
    AssortmentInstance,
    AssortmentSolution,
    BoundReport,
    GroundSetTooLarge,
    MnlModel,
    NonPositiveRevenue,
    RegularityViolation,
    StochasticPreferenceModel,
    TabularModel,
    brute_force_optimum,
    compute_bounds,
    generate_tight_instance,
    revenue_ordered,
    verify_guarantee,
)

FLOAT_BOUNDS_SHA256 = "284bc971c1c588218c44ea47800ede1b3dd3527a2646ca06c03e7764f85ac932"


def random_ranking_instance(rng, n_max=6):
    n = rng.randint(1, n_max)
    count = rng.randint(1, 5)
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    rankings = []
    for w in raw:
        order = list(range(n + 1))
        rng.shuffle(order)
        rankings.append((w / total, tuple(order)))
    model = StochasticPreferenceModel(n, rankings)
    revenue = [rng.randint(1, 5) if rng.random() < 0.5 else rng.uniform(0.5, 9.5) for _ in range(n)]
    return AssortmentInstance(model, revenue)


class TestInstance:
    def test_levels_are_distinct_sorted(self):
        instance = AssortmentInstance(MnlModel([0, 0, 0]), [2.0, 1.0, 2.0])
        assert instance.levels == (1.0, 2.0)
        assert instance.ladder.prefixes == (frozenset({1, 2, 3}), frozenset({1, 3}))

    def test_rejects_nonpositive_revenue(self):
        with pytest.raises(NonPositiveRevenue):
            AssortmentInstance(MnlModel([0.0]), [-1.0])

    def test_rejects_infinite_revenue(self):
        with pytest.raises(ValueError, match="finite"):
            AssortmentInstance(MnlModel([0.0, 0.0]), [1.0, math.inf])


class TestRevenueOrdered:
    def test_single_product(self):
        # One product selling with probability 0.4 at revenue 5.
        model = TabularModel(1, {(): {}, (1,): {1: 0.4}})
        result = revenue_ordered(AssortmentInstance(model, [5.0]))
        assert result.solution.assortment == frozenset({1})
        assert result.solution.revenue == pytest.approx(2.0)
        assert result.candidates == ((5.0, pytest.approx(2.0)),)

    def test_tight_instance_candidates(self):
        # Direct evaluation of all candidates: threshold eps^-i earns
        # 1 + eps + ... + eps^(k-i), so the largest assortment wins.
        eps, k = 0.01, 4
        instance = generate_tight_instance(k, eps)
        result = revenue_ordered(instance)
        for (level, value), i in zip(result.candidates, range(1, k + 1)):
            assert level == pytest.approx(eps ** -i)
            assert value == pytest.approx(sum(eps**p for p in range(k - i + 1)))
        assert result.solution.revenue == pytest.approx(1 + eps + eps**2 + eps**3)
        assert result.solution.assortment == frozenset(range(1, instance.n + 1))

    def test_tie_breaks_to_largest_threshold(self):
        # Both thresholds earn exactly 0.5; keep the smaller set.
        rows = {
            (): {},
            (1,): {1: 0.5},
            (2,): {2: 0.25},
            (1, 2): {1: 0.5, 2: 0.0},
        }
        instance = AssortmentInstance(TabularModel(2, rows), [1.0, 2.0])
        result = revenue_ordered(instance)
        assert result.solution.assortment == frozenset({2})

    def test_mnl_equals_brute_force(self):
        rng = Random(6)
        for _ in range(30):
            n = rng.randint(1, 6)
            instance = AssortmentInstance(
                MnlModel([rng.gauss(0, 1.5) for _ in range(n)]),
                [rng.uniform(0.5, 9.5) for _ in range(n)],
            )
            best = revenue_ordered(instance).solution.revenue
            opt = brute_force_optimum(instance).revenue
            assert best == pytest.approx(opt, rel=1e-9)


class TestBruteForce:
    def test_tight_diagonal_is_optimal(self):
        instance = generate_tight_instance(3, 0.1)
        model = instance.model
        solution = brute_force_optimum(instance)
        assert solution.revenue == pytest.approx(3.0)
        assert solution.assortment == frozenset(
            {model.index_of(1, 1), model.index_of(2, 2), model.index_of(3, 3)}
        )

    def test_empty_demand_yields_zero(self):
        dead = TabularModel(2, {s: {x: 0.0 for x in s} for s in [(), (1,), (2,), (1, 2)]})
        solution = brute_force_optimum(AssortmentInstance(dead, [1.0, 2.0]))
        assert solution.revenue == 0
        assert solution.assortment == frozenset()

    def test_guard(self):
        with pytest.raises(GroundSetTooLarge):
            brute_force_optimum(AssortmentInstance(MnlModel([0.0] * 21), [1.0] * 21))


class TestBounds:
    def test_single_level_bounds_are_one(self):
        instance = AssortmentInstance(MnlModel([0.0, 1.0]), [3.0, 3.0])
        report = compute_bounds(instance)
        assert report.n_levels == 1
        assert report.bound_a == 1.0
        assert report.bound_b_exact == 1.0
        opt = brute_force_optimum(instance)
        assert revenue_ordered(instance).solution.revenue == pytest.approx(opt.revenue)

    def test_log_bound_two_levels(self):
        # r = (1, e) gives rho = e, so the log bound is 1/2.
        instance = AssortmentInstance(MnlModel([0.0, 0.0]), [1.0, math.e])
        report = compute_bounds(instance)
        assert report.bound_b_log == pytest.approx(0.5)

    def test_log_bound_of_a_spread_too_wide_for_one_quotient(self):
        # 1e300 / 1e-300 overflows; ln rho = 600 ln 10 does not.
        instance = AssortmentInstance(MnlModel([0.0, 0.0]), [1e-300, 1e300])
        report = compute_bounds(instance)
        assert report.bound_b_log == pytest.approx(1.0 / (1.0 + 600 * math.log(10)))
        assert report.bound_b_log <= report.bound_b_exact

    def test_log_bound_of_an_exact_spread_beyond_the_float_range(self):
        # The exact quotient 10**600 has no float; each level does.
        instance = AssortmentInstance(MnlModel([0.0, 0.0]), [Fraction(1, 10**300), Fraction(10**300)])
        report = compute_bounds(instance)
        assert report.bound_b_log == pytest.approx(1.0 / (1.0 + 600 * math.log(10)))
        assert report.bound_b_log <= report.bound_b_exact

    def test_bounds_of_an_exact_revenue_below_the_float_range(self):
        # Fraction(1, 10**400) is positive, but its float is 0.0.
        instance = AssortmentInstance(MnlModel([0.0, 0.0]), [Fraction(1, 10**400), 1])
        report = compute_bounds(instance, brute_force_optimum(instance))
        # The levels are exact, so bound B is too; its float is 0.5.
        assert report.bound_b_exact == 1 / (2 - Fraction(1, 10**400))
        assert (report.bound_a, float(report.bound_b_exact)) == (0.5, 0.5)
        assert report.bound_b_log == pytest.approx(1.0 / (1.0 + 400 * math.log(10)))
        fields = [report.bound_a, report.bound_b_log]
        fields += [report.bound_c_exact, report.bound_c_log, report.nu, *report.n_masses]
        assert all(type(value) is float for value in fields)

    def test_exact_bound_formula(self):
        instance = AssortmentInstance(MnlModel([0.0] * 3), [1.0, 2.0, 4.0])
        report = compute_bounds(instance)
        expected = 1.0 / (1 / 1 + (2 - 1) / 2 + (4 - 2) / 4)
        assert report.bound_b_exact == pytest.approx(expected)
        assert report.bound_b_exact >= report.bound_b_log

    def test_tight_purchase_masses(self):
        # N_i = eps^i + ... + eps^k on the diagonal optimum.
        eps, k = 0.01, 3
        instance = generate_tight_instance(k, eps)
        model = instance.model
        diagonal = frozenset(model.index_of(i, i) for i in range(1, k + 1))
        solution = AssortmentSolution(diagonal, instance.assortment_revenue(diagonal))
        report = compute_bounds(instance, solution)
        for i, mass in enumerate(report.n_masses, start=1):
            assert mass == pytest.approx(sum(eps**p for p in range(i, k + 1)))
        total = 1.0 / report.bound_c_exact
        assert abs(total - k) <= 0.05
        assert report.bound_c_exact >= report.bound_c_log

    def test_bound_c_unavailable_when_nothing_sells(self):
        dead = TabularModel(1, {(): {}, (1,): {1: 0.0}})
        instance = AssortmentInstance(dead, [1.0])
        solution = AssortmentSolution(frozenset({1}), 0.0)
        report = compute_bounds(instance, solution)
        assert report == compute_bounds(instance) and report.bound_c_exact is None

    def test_an_empty_catalogue_loses_nothing(self):
        instance = AssortmentInstance(TabularModel(0, {(): {}}), [])
        optimum = brute_force_optimum(instance)
        expected = BoundReport(n_levels=0, bound_a=1.0, bound_b_exact=1.0, bound_b_log=1.0)
        assert compute_bounds(instance) == compute_bounds(instance, optimum) == expected
        assert verify_guarantee(instance).passed

    @pytest.mark.parametrize("kind", [Fraction, int])
    def test_exact_bound_b_of_harmonic_levels(self, kind):
        # Levels L/i for L = 12 and i = 4, 3, 2, 1: the sum is H_4 = 25/12.
        instance = AssortmentInstance(MnlModel([0.0] * 4), [kind(r) for r in (3, 4, 6, 12)])
        report = compute_bounds(instance)
        assert report.bound_b_exact == Fraction(12, 25)
        assert type(report.bound_b_exact) is Fraction

    def test_bound_b_of_levels_with_a_float_sums_floats(self):
        # Int levels 1 and 3 below a float level: the float sum 1.0 + 2/3 +
        # 0.5/3.5 of a 0.0 start, not the rounded exact sum 5/3 + 0.5/3.5.
        instance = AssortmentInstance(MnlModel([0.0] * 3), [1, 3, 3.5])
        assert repr(compute_bounds(instance).bound_b_exact) == "0.5526315789473685"

    def test_bound_c_of_an_exact_table_is_a_fraction(self):
        # The optimum {1, 2} sells N_1 = 1/2 + 1/3 and N_2 = 1/3, so the sum
        # is (N_1 - N_2) / N_1 + 1 = 8/5 and bound C is 5/8.
        third = Fraction(1, 3)
        rows = {(): {}, (1,): {1: third}, (2,): {2: third}, (1, 2): {1: Fraction(1, 2), 2: third}}
        instance = AssortmentInstance(TabularModel(2, rows), [1, 2])
        report = compute_bounds(instance, AssortmentSolution(frozenset({1, 2}), Fraction(7, 6)))
        assert report.bound_c_exact == Fraction(5, 8) and type(report.bound_c_exact) is Fraction
        assert report.n_masses == (float(Fraction(5, 6)), float(third))
        assert report.nu == float(Fraction(5, 6)) / float(third)
        assert all(type(value) is float for value in (report.bound_c_log, report.nu, *report.n_masses))

    def test_float_bounds_are_unchanged(self):
        # sha256 of the reports below, as written while bound C summed floats
        # on every instance: float rows keep their floats bit for bit.
        lines = []
        for family in ASSORTMENT_FAMILIES:
            for seed in range(30):
                instance = random_assortment_instance(family, Random(seed))
                lines.append(repr(compute_bounds(instance, brute_force_optimum(instance))))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FLOAT_BOUNDS_SHA256

    def test_bounds_in_unit_interval(self):
        rng = Random(99)
        for _ in range(40):
            instance = random_ranking_instance(rng)
            report = compute_bounds(instance, brute_force_optimum(instance))
            values = [report.bound_a, report.bound_b_exact, report.bound_b_log]
            if report.bound_c_exact is not None:
                values += [report.bound_c_exact, report.bound_c_log]
            for value in values:
                assert 0.0 < value <= 1.0 + 1e-12


class TestVerifyGuarantee:
    def test_random_ranking_instances_pass(self):
        rng = Random(2)
        for _ in range(200):
            report = verify_guarantee(random_ranking_instance(rng))
            assert report.passed, report.failures

    def test_tight_ratio_near_one_over_k(self):
        eps, k = 0.01, 4
        report = verify_guarantee(generate_tight_instance(k, eps))
        assert report.passed
        expected = (1 + eps + eps**2 + eps**3) / k
        assert report.ratio == pytest.approx(expected, rel=1e-9)
        assert abs(report.ratio - 0.25) <= 2 * eps * k

    def test_a_bound_above_the_ratio_fails_with_its_numbers(self, monkeypatch):
        instance = generate_tight_instance(2, 0.1)
        bounds = compute_bounds(instance)
        monkeypatch.setattr(assortment, "compute_bounds", lambda *args, **kwargs: replace(bounds, bound_a=1.0))
        report = verify_guarantee(instance)
        heuristic, optimum = float(report.heuristic.revenue), float(report.optimum.revenue)
        assert heuristic < optimum
        assert not report.passed
        assert report.failures == (f"bound A: revord {heuristic} < 1.0 * OPT {optimum}",)

    def test_mnl_ratio_is_one(self):
        rng = Random(10)
        for _ in range(20):
            n = rng.randint(1, 6)
            instance = AssortmentInstance(
                MnlModel([rng.gauss(0, 1) for _ in range(n)]),
                [rng.uniform(1, 9) for _ in range(n)],
            )
            report = verify_guarantee(instance)
            assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_irregular_model_is_rejected(self):
        rows = {
            (): {},
            (1,): {1: 0.3},
            (2,): {2: 0.5},
            (1, 2): {1: 0.5, 2: 0.2},
        }
        instance = AssortmentInstance(TabularModel(2, rows), [1.0, 2.0])
        with pytest.raises(RegularityViolation) as excinfo:
            verify_guarantee(instance)
        assert excinfo.value.witness == (1, frozenset({1}), frozenset({1, 2}))


def check_technical_bound(instance, optimal):
    """revenue(S_i) >= r_i * sum_{x in S* and S_i} P(x, S*), for every level i:
    the workhorse inequality behind all three guarantees, checked on its own."""
    S_star = optimal.assortment
    probs = dict(zip(sorted(S_star), instance.model.choice_row(S_star)))
    ladder = instance.ladder
    for level, S_i, lhs in zip(ladder.levels, ladder.prefixes, ladder.revenues):
        rhs = level * ordered_sum(p for x, p in probs.items() if x in S_i)
        if lhs < rhs - assortment.RTOL * max(1.0, abs(rhs)):
            return False
    return True


class TestTechnicalBound:
    def test_holds_on_random_regular_instances(self):
        rng = Random(17)
        for _ in range(60):
            instance = random_ranking_instance(rng)
            optimum = brute_force_optimum(instance)
            assert check_technical_bound(instance, optimum)

    def test_holds_on_tight_family(self):
        instance = generate_tight_instance(4, 0.1)
        assert check_technical_bound(instance, brute_force_optimum(instance))

    def test_fails_without_the_product_half_of_regularity(self):
        # A decoy: offering 3 makes 1 certain, and offering everything
        # makes 3 certain; every other entry is 1/1000.  RO/OPT is delta,
        # the revenue of 3, for every delta down to 3/2000.
        rows = {S: dict.fromkeys(S, Fraction(1, 1000)) for S in [(1,), (2,), (3,), (1, 2), (2, 3)]}
        rows.update({(): {}, (1, 3): {1: Fraction(1), 3: Fraction(0)}, (1, 2, 3): {1: 0, 2: 0, 3: Fraction(1)}})
        for delta in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 500)):
            instance = AssortmentInstance(TabularModel(3, rows), [Fraction(1), Fraction(1, 2), delta])
            optimum = brute_force_optimum(instance)
            assert not check_technical_bound(instance, optimum)
            regularity = instance.axioms.regularity
            assert (regularity.witness, regularity.gap) == ((1, frozenset({1}), frozenset({1, 3})), 0.999)
            assert revenue_ordered(instance).solution.revenue / optimum.revenue == delta
            with pytest.raises(RegularityViolation):
                verify_guarantee(instance)

    @pytest.mark.parametrize("epsilon", [Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6)], ids=str)
    def test_fails_without_the_no_purchase_half_of_regularity(self, epsilon):
        # No product's share ever rises, but offering 1 next to 2 turns 2's
        # certain sale into 2 epsilon: the no-purchase share rises from 0.
        # OPT is {2} at 1/2, RO/OPT is 3 epsilon, against bound A = 1/2.
        rows = {(): {}, (1,): {1: epsilon}, (2,): {2: Fraction(1)}, (1, 2): {1: epsilon, 2: epsilon}}
        instance = AssortmentInstance(TabularModel(2, rows), [Fraction(1), Fraction(1, 2)])
        report = instance.axioms
        assert [name for name in ("nonnegativity", "unavailable_zero", "substochastic", "regularity")
                if not getattr(report, name).passed] == ["regularity"]
        assert report.regularity.witness == (0, frozenset({2}), frozenset({1, 2}))
        assert report.regularity.gap == float(1 - 2 * epsilon)
        optimum = brute_force_optimum(instance)
        assert (optimum.assortment, optimum.revenue) == (frozenset({2}), Fraction(1, 2))
        ratio = revenue_ordered(instance).solution.revenue / optimum.revenue
        assert type(ratio) is Fraction and ratio == 3 * epsilon
        assert not check_technical_bound(instance, optimum)
        with pytest.raises(RegularityViolation):
            verify_guarantee(instance)


class TestTightInstance:
    def test_one_level_collapses(self):
        instance = generate_tight_instance(1, 0.3)
        assert instance.n == 1
        heuristic = revenue_ordered(instance).solution.revenue
        assert heuristic == pytest.approx(brute_force_optimum(instance).revenue)

    def test_half_epsilon_still_valid(self):
        from assortopt import check_axioms

        instance = generate_tight_instance(3, 0.5)
        assert instance.n == 6
        assert check_axioms(instance.model).passed

    def test_ratio_grows_as_epsilon_shrinks(self):
        k = 3
        ratios = []
        for eps in (0.5, 0.1, 0.01, 0.001):
            instance = generate_tight_instance(k, eps)
            heuristic = revenue_ordered(instance).solution.revenue
            optimum = brute_force_optimum(instance).revenue
            ratios.append(float(optimum) / float(heuristic))
        assert ratios == sorted(ratios)
        assert ratios[-1] > k - 0.1

    def test_k4_ratio_exceeds_3_9(self):
        instance = generate_tight_instance(4, 0.01)
        heuristic = revenue_ordered(instance).solution.revenue
        optimum = brute_force_optimum(instance).revenue
        assert float(optimum) / float(heuristic) >= 3.9
