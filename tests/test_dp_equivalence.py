"""The capacity DP's one-scoring fill of the q >= t cells agrees with the
plain recursion that searches every cell, and its kernels agree with the
loops they replace.

The reference below is the straightforward implementation: every cell
(t, q) is scored on R_l + P_l * delta with its own delta, and l* is the
least level within the relative tolerance of the maximum.  It is kept here
only as the specification ``solve_dp`` must reproduce, float for float.
``_best_level`` must return what ``_ref_best_level`` does on the ladder's
lines, and ``check_marginal_value``, which scans each row's marginals at
once, the verdict and witness of the per-cell loop ``_ref_check_marginal_value``.

The ``check_*`` functions take plain values, so they can be driven without
hypothesis too.  Both sides of every comparison read the same floats and
apply the same operations in the same order, so this file holds on every
supported Python.
"""

import math
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import (
    AssortmentInstance,
    MnlModel,
    MultiPeriodInstance,
    TabularModel,
    solve_dp,
)
from assortopt.axioms import CheckResult
from assortopt.generators import ASSORTMENT_FAMILIES, random_assortment_instance
from assortopt.multiperiod import RTOL, DpTable, _best_level, check_marginal_value


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


# ------------------------------------------------------------- the level kernel


def _outcome(kernel, *args):
    """The kernel's result by repr, or the type of what it raised."""
    try:
        return repr(kernel(*args))
    except AssertionError as error:
        return type(error)


def check_best_level(lines, delta):
    lines = tuple(lines)
    ladder = SimpleNamespace(
        expected_revenue=tuple(r for r, _ in lines), purchase_probability=tuple(p for _, p in lines)
    )
    assert _outcome(_best_level, lines, delta) == _outcome(_ref_best_level, ladder, delta, RTOL)


# Both sides of the unit floor of the slack, signed zeros, and magnitudes
# whose products and sums overflow.
_EDGES = [0.0, -0.0, 1.0, -1.0, 1.0 - 2**-53, 1.0 + 2**-52, -1.0 - 2**-52, 1.5, -1.5, 1e-300, 1e300, -1e300, 1.7e308]
_values = st.one_of(st.sampled_from(_EDGES), st.floats(-4.0, 4.0), st.floats(allow_nan=False))
# Distances below the top score in units of the slack: inside, on and just
# outside the tolerance.
_GAPS = [0.0, -0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 1e9]


@st.composite
def _lines_and_delta(draw):
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        top = draw(_values)
        slack = RTOL * max(1.0, abs(top))
        lines = [(top - draw(st.sampled_from(_GAPS)) * slack, draw(st.floats(0.0, 1.0))) for _ in range(k)]
        return lines, draw(st.sampled_from([0.0, -0.0]))
    return [(draw(_values), draw(st.floats(0.0, 1.0))) for _ in range(k)], draw(_values)


@settings(max_examples=400, deadline=None)
@given(_lines_and_delta())
def test_best_level_matches_reference(case):
    check_best_level(*case)


def test_best_level_on_fixed_lines():
    lines = [(1.0, 0.25), (1.0 - RTOL, 0.5), (2.0, 0.0), (2.0 - 2 * RTOL, 1.0)]
    for delta in [0.0, -0.0, 1.0, -1.0, 4 * RTOL, 1e300, -1e300, math.inf, -math.inf, math.nan]:
        check_best_level(lines, delta)
    for top in [0.5, 1.0, 1.0 + 2**-52, 1.5, -1.5, 3.0, -3.0, 1e300, 0.0, -0.0]:
        slack = RTOL * max(1.0, abs(top))
        for gap in _GAPS:
            check_best_level([(top - gap * slack, 0.5), (top, 0.5)], 0.0)


# ------------------------------------------------------- the marginal-value scan


def _ref_check_marginal_value(table):
    slack = RTOL * max(1.0, table.value[table.horizon][table.capacity])
    for t in range(0, table.horizon + 1):
        for q in range(2, table.capacity + 1):
            if table.marginal(t, q - 1) < table.marginal(t, q) - slack:
                return CheckResult(False, ("concavity", t, q))
    for t in range(1, table.horizon + 1):
        for q in range(1, table.capacity + 1):
            if table.marginal(t, q) < table.marginal(t - 1, q) - slack:
                return CheckResult(False, ("time", t, q))
    return CheckResult(True)


def check_marginal_scan(table):
    assert repr(check_marginal_value(table)) == repr(_ref_check_marginal_value(table))


def _table(rows):
    rows = tuple(tuple(row) for row in rows)
    horizon, capacity = len(rows) - 1, len(rows[0]) - 1
    lstar = tuple((1,) * (capacity + 1) for _ in rows)
    return DpTable(horizon, capacity, 1, rows, lstar, None)


def _perturbed(table, bumps):
    """The table with value[t][q] raised by each (t, q, amount) of bumps."""
    value = [list(row) for row in table.value]
    for t, q, amount in bumps:
        value[t][q] += amount
    return _table(value)


@pytest.mark.parametrize("family", ASSORTMENT_FAMILIES)
def test_marginal_scan_on_regular_tables(family):
    rng = Random(f"marginal-{family}")
    for horizon, capacity in [(9, 4), (4, 9), (1, 6), (6, 1), (1, 1), (30, 30)]:
        table = solve_dp(MultiPeriodInstance(random_assortment_instance(family, rng, n_max=6), horizon, capacity))
        check_marginal_scan(table)
        assert check_marginal_value(table).passed


ZERO = [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "rows, witness",
    [
        ([ZERO, [0.0, 1.0, 3.0]], ("concavity", 1, 2)),
        ([ZERO, [0.0, 2.0, 3.0], [0.0, 1.0, 1.5]], ("time", 2, 1)),
        # A time drop at t = 2 and a concavity breach at t = 3: concavity is
        # scanned over every t first.
        ([ZERO, [0.0, 2.0, 3.0], [0.0, 1.0, 1.5], [0.0, 1.0, 3.0]], ("concavity", 3, 2)),
        ([ZERO, [0.0, 2.0, 3.0], [0.0, 2.0, 3.0], [0.0, 1.0, 1.5]], ("time", 3, 1)),
        # Within the slack at the unit floor, then just outside it.
        ([ZERO, [0.0, 0.5, 1.0 + 0.5 * RTOL]], None),
        ([ZERO, [0.0, 0.5, 1.0 + 4 * RTOL]], ("concavity", 1, 2)),
        # A NaN compares false, so it hides a breach from both loops.
        ([ZERO, [0.0, math.nan, 3.0]], None),
        ([ZERO, [0.0, -1.0, -2.0]], ("time", 1, 1)),
    ],
)
def test_marginal_scan_witness_order(rows, witness):
    table = _table(rows)
    check_marginal_scan(table)
    assert check_marginal_value(table).witness == witness


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.integers(1, 8),
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([-1.0, -1e-9, 1e-9, 0.5, 2.0])), max_size=4
    ),
)
def test_marginal_scan_on_perturbed_tables(seed, horizon, capacity, bumps):
    family = ASSORTMENT_FAMILIES[seed % len(ASSORTMENT_FAMILIES)]
    base = random_assortment_instance(family, Random(seed), n_max=5)
    table = solve_dp(MultiPeriodInstance(base, horizon, capacity))
    check_marginal_scan(_perturbed(table, [(t % (horizon + 1), q % (capacity + 1), a) for t, q, a in bumps]))
