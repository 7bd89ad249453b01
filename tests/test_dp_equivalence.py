"""The capacity DP's one-scoring fill of the q >= t cells agrees with the
plain recursion that searches every cell.

The reference below is the straightforward implementation: every cell
(t, q) is scored on R_l + P_l * delta with its own delta, and l* is the
least level within the relative tolerance of the maximum.  It is kept here
only as the specification ``solve_dp`` must reproduce, float for float.
"""

from random import Random

import pytest

from assortopt import (
    AssortmentInstance,
    MnlModel,
    MultiPeriodInstance,
    TabularModel,
    solve_dp,
)
from assortopt.generators import ASSORTMENT_FAMILIES, random_assortment_instance
from assortopt.multiperiod import RTOL


def _ref_argmin_level(values, best, rtol):
    slack = rtol * max(1.0, abs(best))
    for where, value in enumerate(values):
        if best - value <= slack:
            return where + 1
    raise AssertionError("the maximum is always within tolerance of itself")


def _ref_best_level(ladder, delta, rtol):
    scores = [r + p * delta for r, p in zip(ladder.expected_revenue, ladder.purchase_probability)]
    best = max(scores)
    return _ref_argmin_level(scores, best, rtol), best


def _ref_tables(instance, rtol=RTOL):
    ladder = instance.ladder
    T, Q = instance.horizon, instance.capacity
    value = [[0.0] * (Q + 1) for _ in range(T + 1)]
    lstar = [[1] * (Q + 1) for _ in range(T + 1)]
    for t in range(1, T + 1):
        previous, row, choice = value[t - 1], value[t], lstar[t]
        for q in range(1, Q + 1):
            choice[q], best = _ref_best_level(ladder, -(previous[q] - previous[q - 1]), rtol)
            row[q] = previous[q] + best
    return tuple(tuple(row) for row in value), tuple(tuple(row) for row in lstar)


def _assert_same(instance):
    table = solve_dp(instance)
    value, lstar = _ref_tables(instance)
    assert table.value == value
    assert table.lstar == lstar


@pytest.mark.parametrize("family", ASSORTMENT_FAMILIES)
@pytest.mark.parametrize("horizon, capacity", [(9, 4), (4, 9), (1, 6), (6, 1), (1, 1), (7, 7)])
def test_every_family_and_shape(family, horizon, capacity):
    rng = Random(f"{family}-{horizon}-{capacity}")
    for _ in range(4):
        base = random_assortment_instance(family, rng, n_max=6)
        _assert_same(MultiPeriodInstance(base, horizon, capacity))


def test_long_horizons_both_ways():
    rng = Random(11)
    for i in range(20):
        base = random_assortment_instance(ASSORTMENT_FAMILIES[i % 5], rng, n_max=6)
        _assert_same(MultiPeriodInstance(base, rng.randint(1, 60), rng.randint(1, 60)))


def test_single_level_ladder():
    base = AssortmentInstance(MnlModel([0.0, 0.3]), [2.0, 2.0])
    assert base.ladder.k == 1
    for horizon, capacity in [(5, 3), (3, 5), (1, 1)]:
        _assert_same(MultiPeriodInstance(base, horizon, capacity))


def test_irregular_model():
    rows = {
        (): {},
        (1,): {1: 0.05},
        (2,): {2: 0.9},
        (1, 2): {1: 0.9, 2: 0.05},
    }
    base = AssortmentInstance(TabularModel(2, rows), [5.0, 1.0])
    for horizon, capacity in [(4, 3), (3, 4), (8, 8)]:
        _assert_same(MultiPeriodInstance(base, horizon, capacity))
