"""The screened MNL optimum against a left-to-right reference.

``brute_force_optimum`` scores every offer set of an MNL model by N/D and
computes the revenue only of the sets whose score can tie the best.  The
reference below computes every offer set's revenue as the column path does:
D = outside + the weights added in ascending order from int 0, p = w / D,
and the p * r added in ascending order from int 0, each in an explicit loop
of its own, in the one order the library adds floats in
(``models.ordered_sum``).  The set and the revenue, by type and ``repr``,
must be the reference's.
"""

import math
from fractions import Fraction
from random import Random

import pytest

from assortopt import assortment
from assortopt.assortment import AssortmentInstance, brute_force_optimum
from assortopt.models import (
    MnlModel,
    block_sums,
    column_sums,
    enumerate_subsets,
    members_of,
    subset_sums,
)


def _bits(value):
    return type(value), repr(value)


def ref_revenue(model, revenue, subset):
    weights, outside = model._weight_of, model._outside
    partial = 0
    for x in subset:
        partial = partial + weights[x]
    denom = outside + partial
    value = 0
    for x in subset:
        value = value + weights[x] / denom * revenue[x - 1]
    return value


def ref_optimum(model, revenue):
    """Every offer set's revenue; the largest wins, ties going to the
    lexicographically smallest set.  Also returns how many sets tie it."""
    best_key, best_revenue, ties = (), 0, 1
    for subset in enumerate_subsets(model.n):
        value = ref_revenue(model, revenue, subset)
        if value > best_revenue:
            best_key, best_revenue, ties = subset, value, 1
        elif value == best_revenue and subset:
            ties += 1
            best_key = min(best_key, subset)
    return frozenset(best_key), best_revenue, ties


def check(model, revenue, instance=None):
    """The screened optimum equals the reference; returns how many sets tie."""
    expected_set, expected_revenue, ties = ref_optimum(model, revenue)
    optimum = brute_force_optimum(instance or AssortmentInstance(model, revenue))
    assert optimum.assortment == expected_set
    assert _bits(optimum.revenue) == _bits(expected_revenue)
    return ties


def _refused(self, c, high=0):
    raise AssertionError("the screened optimum read columns")


@pytest.fixture
def screened(monkeypatch):
    """Fails the test if brute force reads MNL columns instead of screening."""
    monkeypatch.setattr(MnlModel, "columns", _refused)


# ------------------------------------------------------------ the reference


@pytest.mark.parametrize("c, high", [(0, 0), (3, 0), (2, 0b11000), (5, 0)])
def test_reference_is_the_column_path(c, high):
    # column_sums and columns add left to right from int 0, as the reference
    # does, so this holds on every Python.
    rng = Random(c * 31 + high)
    model = MnlModel([rng.gauss(0.0, 2.0) for _ in range(5)])
    revenue = [rng.choice([rng.uniform(0.1, 9.0), rng.randint(1, 9), Fraction(rng.randint(1, 99), 7)]) for _ in range(5)]
    products = (*range(1, c + 1), *members_of(high, 5))
    values = column_sums(model.columns(c, high), c, [revenue[x - 1] for x in products])
    for low in range(1 << c):
        assert _bits(values[low]) == _bits(ref_revenue(model, revenue, members_of(low | high, 5)))


@pytest.mark.parametrize("n, c", [(0, 0), (4, 0), (5, 2), (7, 3), (6, 6)])
def test_block_sums_are_subset_sums(n, c):
    rng = Random(n + c)
    values = [rng.choice([rng.random(), 0.0, 1e-300, 3]) for _ in range(n)]
    blocks = list(block_sums(values, c))
    assert sorted(high for high, _ in blocks) == list(range(0, 1 << n, 1 << c))
    for high, totals in blocks:
        assert [_bits(t) for t in totals] == [_bits(t) for t in subset_sums(values, c, high)]


# ------------------------------------------------------------- the optimum


@pytest.mark.parametrize("n", [1, 11, 12, 13, 16])
def test_random_utilities_and_revenues(screened, n):
    rng = Random(1000 + n)
    for _ in range(1 if n == 16 else 3):
        model = MnlModel([rng.gauss(0.0, 1.5) for _ in range(n)])
        check(model, [rng.uniform(0.5, 9.5) for _ in range(n)])


@pytest.mark.parametrize("n", [1, 3, 12, 13])
def test_a_built_table_is_screened_too(monkeypatch, n):
    rng = Random(n)
    model = MnlModel([rng.gauss(0.0, 1.0) for _ in range(n)])
    revenue = [rng.uniform(1.0, 4.0) for _ in range(n)]
    instance = AssortmentInstance(model, revenue)
    instance.table  # read from the columns
    monkeypatch.setattr(MnlModel, "columns", _refused)
    check(model, revenue, instance)


@pytest.mark.parametrize("n", [2, 6, 12, 16])
def test_utilities_above_709_shift_the_weights(screened, n):
    rng = Random(n)
    model = MnlModel([800.0 + rng.uniform(-3.0, 3.0) for _ in range(n)])
    assert model._outside < 1e-40
    # The largest weight is near the float maximum / e(n + 1), so revenues
    # above about 1.3 overflow unscaled scores: those are screened on
    # revenues scaled by a power of two.
    check(model, [rng.uniform(0.1, 0.6) for _ in range(n)])
    revenue = [rng.uniform(1.0, 9.5) for _ in range(n)]
    assert math.isinf(2 * n * max(model._weight_of) * max(revenue))
    check(model, revenue)
    # One product far above the rest makes the outside weight w_0 = w_2
    # subnormal.  Product 2 alone earns 1e-10 / 2, the most, yet its score
    # w_2 * 1e-10 underflows to 0 below product 1's 1e-300: only the cut's
    # absolute slack, which grows as 1 / w_0, keeps it a candidate.
    tiny = MnlModel([1450.0, 0.0] + [rng.uniform(-1.0, 1.0) for _ in range(n - 2)])
    assert 0 < tiny._outside < 2.0**-1070 and tiny._weight_of[2] == tiny._outside
    revenue = [1e-300, 1e-10] + [1e-11] * (n - 2)
    assert tiny._weight_of[2] * revenue[1] == 0.0
    check(tiny, revenue)
    assert 2 in brute_force_optimum(AssortmentInstance(tiny, revenue)).assortment


@pytest.mark.parametrize("n", [5, 10])
def test_utilities_below_minus_745_give_weights_of_zero(screened, n):
    # Every set with or without the weightless products ties bit for bit.
    # The smallest key takes every weightless product below the largest
    # product that sells (all but n), not one above it.
    utilities = [-800.0] * n
    utilities[n // 2] = 0.5
    utilities[n - 2] = 0.25
    revenue = [float(x) for x in range(1, n + 1)]
    ties = check(MnlModel(utilities), revenue)
    assert ties == 1 << (n - 2)
    optimum = brute_force_optimum(AssortmentInstance(MnlModel(utilities), revenue))
    assert optimum.assortment == frozenset(range(1, n))
    # Nothing sells at all: the empty set keeps its int 0.
    nothing = AssortmentInstance(MnlModel([-800.0] * n), revenue)
    optimum = brute_force_optimum(nothing)
    assert (optimum.assortment, _bits(optimum.revenue)) == (frozenset(), _bits(0))


@pytest.mark.parametrize("n", [2, 9, 13])
def test_revenues_from_1e_minus_300_to_1e300(screened, n):
    rng = Random(n)
    exponents = [-300 + 600 * x // max(n - 1, 1) for x in range(n)]
    rng.shuffle(exponents)
    model = MnlModel([rng.gauss(0.0, 2.0) for _ in range(n)])
    check(model, [10.0**e for e in exponents])
    check(model, [rng.uniform(1.0, 2.0) * 1e-300 for _ in range(n)])


@pytest.mark.parametrize("n", [4, 12, 13])
def test_int_and_fraction_revenues(screened, n):
    rng = Random(n)
    model = MnlModel([rng.gauss(0.0, 1.0) for _ in range(n)])
    check(model, [rng.randint(1, 50) for _ in range(n)])
    check(model, [Fraction(rng.randint(1, 500), rng.randint(1, 30)) for _ in range(n)])
    # Below the float range a Fraction's float is 0.0, yet it is positive.
    check(model, [Fraction(1, 10**400)] * (n - 1) + [Fraction(3, 2)])
    check(model, [Fraction(1, 10**400)] * n)


@pytest.mark.parametrize("n", [5, 13])
def test_identical_products(screened, n):
    check(MnlModel([0.3] * n), [2.5] * n)
    check(MnlModel([0.0] * n), [1.0, 2.0] * (n // 2) + [1.0] * (n % 2))


def test_ties_that_straddle_a_block(screened):
    # {1} earns 1/2 * 2 = 1.0 and so does {1, 13}, whose product 13 sits in
    # the second block: the first, smaller key wins.
    revenue = [2.0] + [0.5] * 11 + [1.0]
    model = MnlModel([0.0] * 13)
    assert ref_revenue(model, revenue, (1,)) == ref_revenue(model, revenue, (1, 13)) == 1.0
    assert check(model, revenue) >= 2
    # A weightless product below the others joins the smallest key.
    utilities = [-800.0] + [0.0] * 11 + [0.7]
    check(MnlModel(utilities), [1.0] * 12 + [5.0])
    assert brute_force_optimum(AssortmentInstance(MnlModel(utilities), [1.0] * 12 + [5.0])).assortment == {1, 13}


def test_products_priced_at_the_optimum_tie_it_up_to_rounding(screened):
    # A product whose revenue equals the optimum's leaves the exact revenue
    # of a set unchanged, so such sets differ in revenue and in score by
    # rounding alone, and not always in the same direction: the cut's
    # relative slack keeps them all.  {1} earns 3/2 and so does {1, 3}.
    check(MnlModel([0.0, 1.0, 1.0]), [3.0, 1.0, 1.5])
    check(MnlModel([0.0, 1.0, 0.1, 0.0, -1.0, 0.0]), [0.3, 1.5, 0.5, 3.0, 1.5, 0.3])
    rng = Random(5)
    for _ in range(300):
        n = rng.randint(2, 6)
        utilities = [rng.choice([0.0, 0.5, 1.0, -1.0, 0.1]) for _ in range(n)]
        check(MnlModel(utilities), [rng.choice([1.0, 2.0, 3.0, 0.5, 1.5, 0.1, 0.3]) for _ in range(n)])


def test_ties_across_many_small_blocks(screened, monkeypatch):
    monkeypatch.setattr(assortment, "BLOCK_BITS", 2)  # n = 8 screens 64 blocks
    rng = Random(8)
    for _ in range(20):
        utilities = [rng.choice([-800.0, 0.0, 0.5]) for _ in range(8)]
        revenue = [rng.choice([1, 2, Fraction(3, 2), 1.0, 2.0]) for _ in range(8)]
        check(MnlModel(utilities), revenue)


def test_overflowing_products_are_screened_on_scaled_revenues(screened):
    # w * r near 1e304 * 1e10 overflows, so the scores weigh the revenues
    # scaled by a power of two; each candidate's revenue stays unscaled.
    model = MnlModel([700.0, 699.0, 1.0])
    revenue = [1e10, 2e10, 3.0]
    assert math.isinf(model._weight_of[1] * revenue[0])
    check(model, revenue)
    # Scaled by 2^-1013, 1e-10 turns subnormal: the cut's absolute slack
    # absorbs its rounding.
    check(model, [1.7e308, 1e-10, 3.0])
    check(MnlModel([706.0, 0.0, -700.0]), [Fraction(10**308, 1), 9, 1e300])


def test_extreme_utilities_and_revenues(screened):
    rng = Random(24)
    centres = [800.0, 1450.0, -800.0, 690.0, 700.0, 712.0, 0.0]
    revenues = [5e-324, 1e-300, 1e-10, 1.0, 3, 1e10, 1e300, 1.7e308, 10**300, Fraction(10**307, 3), Fraction(1, 10**400)]
    for _ in range(200):
        n = rng.randint(1, 7)
        # Jitter only downwards: above about 1450 even the outside weight underflows.
        utilities = [rng.choice(centres) - rng.choice([0.0, rng.uniform(0.0, 4.0)]) for _ in range(n)]
        check(MnlModel(utilities), [rng.choice(revenues) for _ in range(n)])
