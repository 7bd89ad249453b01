"""The screened MNL and mixed-MNL optimum against a left-to-right reference.

``brute_force_optimum`` scores the offer sets of an MNL model, or of a
mixture of MNL classes, by sum_k a_k N_k / D_k, block by block, best bound
first, skipping the blocks whose bound cannot reach the cut, and computes
the revenue only of the sets whose score can tie the best.  The reference below computes
every offer set's revenue as the column path does: per class,
D = outside + the weights added in ascending order from int 0 and
p = w / D; for a mixture, P = the a_k * p added in class order from int 0;
and the P * r added in ascending order from int 0, each in an explicit loop
of its own, in the one order the library adds floats in
(``models.ordered_sum``).  The set and the revenue, by type and ``repr``,
must be the reference's.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import assortment
from assortopt.assortment import AssortmentInstance, brute_force_optimum
from assortopt.models import (
    MixedMnlModel,
    MnlModel,
    column_sums,
    enumerate_subsets,
    members_of,
)


def _bits(value):
    return type(value), repr(value)


def ref_probabilities(model, subset):
    """P(x, S) of an MNL model for each x of the sorted subset S."""
    weights, outside = model._weight_of, model._outside
    partial = 0
    for x in subset:
        partial = partial + weights[x]
    denom = outside + partial
    return [weights[x] / denom for x in subset]


def ref_revenue(model, revenue, subset):
    if isinstance(model, MixedMnlModel):
        probabilities = [0] * len(subset)
        for weight, component in zip(model._weights, model._models):
            for i, p in enumerate(ref_probabilities(component, subset)):
                probabilities[i] = probabilities[i] + weight * p
    else:
        probabilities = ref_probabilities(model, subset)
    value = 0
    for x, p in zip(subset, probabilities):
        value = value + p * revenue[x - 1]
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


def mixture(utilities, weights=None):
    """A mixed MNL model of the given classes, equally weighted unless weights are given."""
    weights = weights or [1 / len(utilities)] * len(utilities)
    return MixedMnlModel(list(zip(weights, utilities)))


def _refused(self, c, high=0):
    raise AssertionError("the screened optimum read columns")


@pytest.fixture
def screened(monkeypatch):
    """Fails the test if brute force reads MNL or mixed-MNL columns instead of screening."""
    monkeypatch.setattr(MnlModel, "columns", _refused)
    monkeypatch.setattr(MixedMnlModel, "columns", _refused)


# ------------------------------------------------------------ the reference


@pytest.mark.parametrize("c, high", [(0, 0), (3, 0), (2, 0b11000), (5, 0)])
def test_reference_is_the_column_path(c, high):
    # column_sums and columns add left to right from int 0, as the reference
    # does, so this holds on every Python.
    rng = Random(c * 31 + high)
    mnl = MnlModel([rng.gauss(0.0, 2.0) for _ in range(5)])
    classes = [[rng.gauss(0.0, 2.0) for _ in range(5)] for _ in range(3)]
    classes[1][2] = 800.0  # one class shifts its weights
    mixed = mixture(classes, [0.25, 0.75, 0.0])
    revenue = [rng.choice([rng.uniform(0.1, 9.0), rng.randint(1, 9), Fraction(rng.randint(1, 99), 7)]) for _ in range(5)]
    products = (*range(1, c + 1), *members_of(high, 5))
    for model in (mnl, mixed):
        values = column_sums(model.columns(c, high), c, [revenue[x - 1] for x in products])
        for low in range(1 << c):
            assert _bits(values[low]) == _bits(ref_revenue(model, revenue, members_of(low | high, 5)))


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
        check(mixture([utilities, utilities[::-1], [rng.choice([0.0, 0.5]) for _ in range(8)]]), revenue)


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


# ----------------------------------------------------------- mixed MNL


@pytest.mark.parametrize("n", [1, 5, 12, 13])
@pytest.mark.parametrize("k", [2, 4])
def test_random_mixtures(screened, n, k):
    rng = Random(100 * n + k)
    for _ in range(1 if n > 12 else 3):
        weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
        weights = [w / sum(weights) for w in weights]
        model = mixture([[rng.gauss(0.0, 1.5) for _ in range(n)] for _ in range(k)], weights)
        check(model, [rng.uniform(0.5, 9.5) for _ in range(n)])


def test_a_built_mixture_table_is_screened_too(monkeypatch):
    rng = Random(7)
    model = mixture([[rng.gauss(0.0, 1.0) for _ in range(9)] for _ in range(3)])
    revenue = [rng.uniform(1.0, 4.0) for _ in range(9)]
    instance = AssortmentInstance(model, revenue)
    instance.table  # read from the columns
    monkeypatch.setattr(MixedMnlModel, "columns", _refused)
    check(model, revenue, instance)


def test_ties_across_classes(screened):
    # Mirrored classes over mirrored revenues: a set and its mirror earn the
    # same exact revenue, but add their classes' shares in the other order,
    # so their floats tie or differ by rounding alone.
    for n in (4, 7, 12):
        utilities = [0.25 * x for x in range(n)]
        revenue = [1.0 + abs(x - (n - 1) / 2) for x in range(n)]
        check(mixture([utilities, utilities[::-1]]), revenue)
        check(mixture([utilities, utilities[::-1], [0.5] * n]), [2.0] * n)
    # Identical classes tie every product of equal utility and revenue.
    check(mixture([[0.0, 1.0, 1.0, 0.0]] * 3), [3.0, 1.0, 1.0, 3.0])
    rng = Random(5)
    for _ in range(300):
        n = rng.randint(2, 6)
        classes = [[rng.choice([0.0, 0.5, 1.0, -1.0, 0.1]) for _ in range(n)] for _ in range(rng.randint(2, 3))]
        check(mixture(classes), [rng.choice([1.0, 2.0, 3.0, 0.5, 1.5, 0.1, 0.3]) for _ in range(n)])


@pytest.mark.parametrize("n", [3, 13])
def test_a_class_of_weight_zero(screened, n):
    # 0 + 1.0 p + 0.0 p' is p: the mixture earns what its one weighted class does.
    rng = Random(n)
    utilities = [rng.gauss(0.0, 1.0) for _ in range(n)]
    revenue = [rng.uniform(1.0, 5.0) for _ in range(n)]
    model = mixture([utilities, [800.0] * n], [1.0, 0.0])
    check(model, revenue)
    mixed = brute_force_optimum(AssortmentInstance(model, revenue))
    alone = brute_force_optimum(AssortmentInstance(MnlModel(utilities), revenue))
    assert (mixed.assortment, _bits(mixed.revenue)) == (alone.assortment, _bits(alone.revenue))


@pytest.mark.parametrize("n", [2, 6, 13])
def test_utilities_above_709_in_one_class_only(screened, n):
    rng = Random(n)
    high = [800.0 + rng.uniform(-3.0, 3.0) for _ in range(n)]
    low = [rng.gauss(0.0, 1.0) for _ in range(n)]
    model = mixture([low, high], [0.6, 0.4])
    assert model._models[1]._outside < 1e-40 and model._models[0]._outside == 1.0
    check(model, [rng.uniform(0.1, 0.6) for _ in range(n)])
    # The shifted class's weights are near the float maximum / e(n + 1), so
    # these revenues are screened scaled by a power of two.
    revenue = [rng.uniform(1.0, 9.5) for _ in range(n)]
    assert math.isinf(2 * n * max(model._models[1]._weight_of) * max(revenue))
    check(model, revenue)
    # One product far above the rest of its class leaves the others' weights
    # near the shifted outside weight, which then decides their share.
    lifted = mixture([low, [800.0] + [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]], [0.1, 0.9])
    check(lifted, [1e-3] + [rng.uniform(1.0, 9.5) for _ in range(n - 1)])
    # A subnormal outside weight in the first class or a later one.  Without
    # product 1 every weighted revenue of that class underflows to 0, so its
    # scores are 0 where it earns the most: only the cut's absolute slack,
    # which grows as the sum of 1 / w_k0, keeps those sets candidates.
    shifted = [1450.0, 0.0] + [rng.uniform(-1.0, 1.0) for _ in range(n - 2)]
    revenue = [1e-300, 1e-10] + [1e-11] * (n - 2)
    for weights, classes in (([0.5, 0.5], [shifted, low]), ([0.01, 0.99], [[0.0, -30.0] + [2.0] * (n - 2), shifted])):
        model = mixture(classes, weights)
        tiny = model._models[classes.index(shifted)]
        assert 0 < tiny._outside < 2.0**-1070 and tiny._weight_of[2] * revenue[1] == 0.0
        check(model, revenue)


@pytest.mark.parametrize("n", [3, 13])
def test_a_shifted_class_whose_outside_weight_decides(screened, n):
    # The shifted class's weights of products 2..n equal its outside weight,
    # near 1e-41, so that weight decides their shares, and it outweighs the
    # other class, which prefers another product: a score that took any
    # other outside weight for it would miss the optimum.  First the
    # favoured product n earns least; then it earns most, and at n = 13 it
    # sits in the second block.  The shifted class comes second, then first.
    shifted = [800.0] + [0.0] * (n - 1)
    cheap = [1e-3] + [5.0 - 0.25 * x for x in range(n - 2)] + [1.0]
    dear = cheap[:-1] + [6.0]
    for order in (1, -1):
        check(mixture([[0.0] + [-3.0] * (n - 2) + [3.0], shifted][::order], [0.05, 0.95][::order]), cheap)
        model = mixture([[0.0] + [-3.0] * (n - 3) + [3.0, -3.0], shifted][::order], [0.05, 0.95][::order])
        check(model, dear)
        assert n in brute_force_optimum(AssortmentInstance(model, dear)).assortment


def test_an_overflowing_class_is_screened_on_scaled_revenues(screened):
    # In the shifted class w_1 * 10 overflows, so unscaled scores would put
    # {1} and {1, 2} at inf above the optimum {2}, whose w_2 * 1e20 is
    # finite: the scale must come from the largest weight of every class.
    shifted, plain = [800.0, 750.0], [0.0, 0.0]
    for classes in ([shifted, plain], [plain, shifted]):
        model = mixture(classes)
        assert math.isinf(max(model._models[classes.index(shifted)]._weight_of) * 10.0)
        assert check(model, [10.0, 1e20]) == 1
        assert brute_force_optimum(AssortmentInstance(model, [10.0, 1e20])).assortment == {2}


@pytest.mark.parametrize("n", [2, 9, 13])
def test_mixture_revenues_from_1e_minus_300_to_1e300(screened, n):
    rng = Random(n)
    exponents = [-300 + 600 * x // max(n - 1, 1) for x in range(n)]
    rng.shuffle(exponents)
    model = mixture([[rng.gauss(0.0, 2.0) for _ in range(n)] for _ in range(3)])
    check(model, [10.0**e for e in exponents])
    check(model, [rng.uniform(1.0, 2.0) * 1e-300 for _ in range(n)])
    check(model, [1.7e308] + [rng.uniform(1.0, 2.0) * 1e300 for _ in range(n - 1)])


@pytest.mark.parametrize("n", [4, 12, 13])
def test_mixture_int_and_fraction_revenues(screened, n):
    rng = Random(n)
    model = mixture([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(2)], [0.3, 0.7])
    check(model, [rng.randint(1, 50) for _ in range(n)])
    check(model, [Fraction(rng.randint(1, 500), rng.randint(1, 30)) for _ in range(n)])
    check(model, [Fraction(1, 10**400)] * (n - 1) + [Fraction(3, 2)])
    check(model, [Fraction(1, 10**400)] * n)


def test_extreme_mixtures(screened):
    rng = Random(42)
    centres = [800.0, 1450.0, -800.0, 690.0, 712.0, 0.0]
    revenues = [5e-324, 1e-300, 1.0, 3, 1e300, 1.7e308, 10**300, Fraction(1, 10**400)]
    for _ in range(100):
        n, k = rng.randint(1, 6), rng.randint(2, 4)
        classes = [[rng.choice(centres) - rng.choice([0.0, rng.uniform(0.0, 4.0)]) for _ in range(n)] for _ in range(k)]
        check(mixture(classes), [rng.choice(revenues) for _ in range(n)])


def test_more_classes_than_a_fixed_slack_covers(screened):
    # A relative slack of 1e-12 covers the screen's 2 gamma only up to
    # m = 2n + K + 2 = 4503 rounding factors, K = 4459 at n = 20; the cut's
    # slack grows with m instead.  4460 classes of a few utilities each tie
    # many sets exactly or up to rounding.
    rng = Random(4460)
    for n in (3, 5):
        classes = [[rng.choice([0.0, 0.5, 1.0]) for _ in range(n)] for _ in range(4460)]
        check(mixture(classes), [rng.choice([1.0, 2.0, 1.5, 3]) for _ in range(n)])
        check(mixture(classes), [2.0] * n)


# ------------------------------------------------------- bounded blocks


def ceilings(model, revenue, c):
    """(ceiling, largest score, high) of each block of the screen over the
    products 1..c, in the order brute force scores them."""
    blocks, score, _, _ = assortment._screen(model, revenue, c)
    return [(ceiling, max(score(high)), high) for high, ceiling in blocks]


UTILITIES = [0.0, 0.5, -1.0, 1.0, -800.0]
REVENUES = [1.0, 2.0, 2.5, 1e-300, 1e300, 1.7e308, 5e-324, 3, 7, Fraction(3, 2), Fraction(1, 10**400), Fraction(10**307, 3)]


@st.composite
def screened_instances(draw):
    """(model, revenue, c): one to four classes over c + 1 to c + 3 products,
    c <= 6, drawing ties in utility and revenue, weights of 0.0 (utility
    -800), classes of mixture weight 0, classes shifted past utility 709
    (one of them with a subnormal outside weight), and float, int and
    ``Fraction`` revenues up to 1.7e308."""
    c = draw(st.integers(0, 6))
    n = c + draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    utility = st.one_of(st.sampled_from(UTILITIES), st.floats(-3.0, 3.0))
    classes = []
    for _ in range(k):
        utilities = draw(st.lists(utility, min_size=n, max_size=n))
        shift = draw(st.sampled_from([0.0, 0.0, 800.0, 1450.0]))
        if shift == 1450.0:  # one product far above the rest: a subnormal outside weight
            utilities[draw(st.integers(0, n - 1))] = shift
        else:
            utilities = [u + shift for u in utilities]
        classes.append(utilities)
    weights = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=k, max_size=k).filter(any))
    weights = [w / sum(weights) for w in weights]
    model = MnlModel(classes[0]) if k == 1 and weights[0] == 1.0 else mixture(classes, weights)
    revenue = draw(st.lists(st.one_of(st.sampled_from(REVENUES), st.floats(0.5, 9.5)), min_size=n, max_size=n))
    return model, revenue, c


@settings(max_examples=200, deadline=None)
@given(screened_instances())
def test_a_ceiling_bounds_every_score_of_its_block(instance):
    model, revenue, c = instance
    blocks = ceilings(model, revenue, c)
    assert sorted(high for _, _, high in blocks) == list(range(0, 1 << len(revenue), 1 << c))
    for ceiling, top, high in blocks:
        assert top <= ceiling
    assert [ceiling for ceiling, _, _ in blocks] == sorted((ceiling for ceiling, _, _ in blocks), reverse=True)


def test_a_ceiling_counts_the_empty_prefix_and_the_fixed_products():
    # Products 1 and 2 earn little, so the best set of the block of product
    # 3 is {3} alone: only the sums over the fixed product 3 plus the empty
    # prefix of the low products reach its score.  That block comes first.
    revenue = [1.0, 1.5, 9.0]
    for model in (MnlModel([0.0, 0.0, 0.0]), mixture([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])):
        blocks, score, _, _ = assortment._screen(model, revenue, 2)
        scores = score(0b100)
        assert max(scores) == scores[0]
        assert blocks[0][0] == 0b100 and blocks[0][1] >= scores[0]


def test_a_ceiling_covers_the_rounding_of_the_scores():
    # A set's score adds its low products in ascending order, its prefix
    # ratio in descending order of ratio, so the score may round above the
    # bound: the ceiling's relative margin covers that.
    rng = Random(41)
    for _ in range(300):
        c = rng.randint(0, 4)
        n, k = c + rng.randint(1, 3), rng.randint(1, 2)
        classes = [[rng.choice([0.0, 0.5, -1.0, 1.0, rng.uniform(-3.0, 3.0)]) for _ in range(n)] for _ in range(k)]
        revenue = [rng.choice([1.0, 2.0, 2.5, 3, rng.uniform(0.5, 9.5)]) for _ in range(n)]
        for ceiling, top, _ in ceilings(MnlModel(classes[0]) if k == 1 else mixture(classes), revenue, c):
            assert top <= ceiling


def test_a_ceiling_covers_a_subnormal_quotient_that_rounds_up():
    # Products 1 to 3 each have n_x = 5e-324 (3 * 5e-324 times a weight near
    # 1/3), so {1, 2, 3} scores 3 * 5e-324 / (1 + w_1 + w_2 + w_3).  Added in
    # ascending order, the denominator is 2.0 and the score rounds half-even
    # up to 1e-323; added in ratio order it is 2.0000000000000004 and the
    # prefix ratio rounds down to 5e-324.  No relative margin lifts a bound
    # of 5e-324; the ceiling's absolute margin does.
    model = MnlModel([-0.9518245986635809, -1.2569227734481545, -1.110373961527303, -50.0])
    revenue = [1.5e-323] * 3 + [5e-324]
    for ceiling, top, _ in ceilings(model, revenue, 3):
        assert top == 1e-323 and top <= ceiling
    check(model, revenue)


@pytest.mark.parametrize("bits", [2, 3])
def test_ranked_blocks_match_the_reference(screened, monkeypatch, bits):
    # Many small blocks, scored best bound first and skipped below the cut.
    monkeypatch.setattr(assortment, "BLOCK_BITS", bits)
    rng = Random(bits)
    for n in range(5, 13):
        for k in range(1, 5):
            for _ in range(2 if n < 10 else 1):
                classes = [[rng.choice([0.0, 0.5, 1.0, -1.0, rng.gauss(0.0, 1.5)]) for _ in range(n)] for _ in range(k)]
                revenue = [rng.choice([1.0, 2.0, 3, Fraction(3, 2), rng.uniform(0.5, 9.5)]) for _ in range(n)]
                check(MnlModel(classes[0]) if k == 1 else mixture(classes), revenue)


@pytest.mark.parametrize("bits", [2, 3])
@pytest.mark.parametrize("n", [5, 9, 12])
def test_ties_across_ranked_blocks(screened, monkeypatch, bits, n):
    monkeypatch.setattr(assortment, "BLOCK_BITS", bits)
    # Products 1 and n earn 3 at utility 0, so {1, n} earns 2.  Product 2, a
    # low product, and product n - 1, a high one, earn 2 at utility 1: adding
    # either leaves the exact revenue at 2, so those sets' floats tie or
    # differ by rounding alone, and {1, 2, n} and {1, n - 1, n}, in two
    # blocks, add the same floats in the same order and tie bit for bit.
    utilities = [0.0, 1.0] + [-1.0] * (n - 4) + [1.0, 0.0]
    revenue = [3.0, 2.0] + [1.0] * (n - 4) + [2.0, 3.0]
    assert ref_revenue(MnlModel(utilities), revenue, (1, 2, n)) == ref_revenue(MnlModel(utilities), revenue, (1, n - 1, n))
    check(MnlModel(utilities), revenue)
    check(mixture([utilities] * 3), revenue)
    check(mixture([utilities, [-1.0] * n], [0.75, 0.25]), revenue)


@pytest.mark.parametrize("bits", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_an_optimum_without_low_products(screened, monkeypatch, bits, k):
    # The low products earn 1e-3 and the others 5 to 9, so the optimum holds
    # no low product, and its block's bound is its empty prefix.
    monkeypatch.setattr(assortment, "BLOCK_BITS", bits)
    rng = Random(10 * bits + k)
    n = 8
    classes = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(k)]
    model = MnlModel(classes[0]) if k == 1 else mixture(classes)
    revenue = [1e-3] * bits + [rng.uniform(5.0, 9.0) for _ in range(n - bits)]
    check(model, revenue)
    optimum = brute_force_optimum(AssortmentInstance(model, revenue)).assortment
    assert optimum and min(optimum) > bits
