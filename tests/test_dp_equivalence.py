"""The capacity DP's one-scoring fill of the q >= t cells agrees with the
plain recursion that searches every cell, and its kernels agree with the
loops they replace.

The reference below is the straightforward implementation: every cell
(t, q) is scored on R_l + P_l * delta with its own delta, and l* is the
least level within the relative tolerance of the maximum.  It is kept here
only as the specification ``solve_dp`` must reproduce, float for float.
``_best_level``, which reads most answers off the ladder's screen, must
return what ``_ref_best_level`` does on the ladder's lines;
``check_marginal_value``, which scans each row's marginals at once, the
verdict and witness of the per-cell loop ``_ref_check_marginal_value``; and
``check_lstar_order``, which sorts the cells only when its one pass fails,
those of the plain sort ``_ref_check_lstar_order``; ``lstar_delta``,
which accepts a float shift by comparing it with an interval cached on the
ladder, the level or the error (type and message) of ``_ref_lstar_delta``,
which re-derives its range check; and ``check_nesting_monotonicity``, which
screens each row in one pass, the verdict and witness of the double loop
``_ref_check_nesting``.

The ``check_*`` functions take plain values, so they can be driven without
hypothesis too.  Both sides of every comparison read the same floats and
apply the same operations in the same order, so this file holds on every
supported Python.
"""

import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import (
    AssortmentInstance,
    MnlModel,
    MultiPeriodInstance,
    TabularModel,
    multiperiod,
    solve_dp,
)
from assortopt.assortment import RevenueLadder
from assortopt.axioms import CheckResult
from assortopt.errors import DeltaOutOfRange
from assortopt.generators import ASSORTMENT_FAMILIES, random_assortment_instance
from assortopt.models import enumerate_subsets, finite
from assortopt.multiperiod import (
    RTOL,
    DpTable,
    _best_level,
    check_lstar_order,
    check_marginal_value,
    check_nesting_monotonicity,
    lstar_delta,
)


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


@pytest.mark.parametrize("family", ASSORTMENT_FAMILIES)
def test_two_hundred_periods_and_units(family):
    base = random_assortment_instance(family, Random(f"long-{family}"), n_max=6)
    _assert_same(MultiPeriodInstance(base, 200, 200))


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


def _ladder(lines):
    """A ladder whose (R_l, P_l) lines are these; the kernel reads nothing else."""
    levels = tuple(range(1, len(lines) + 1))
    return RevenueLadder(levels, (), (), tuple(r for r, _ in lines), tuple(p for _, p in lines))


def check_best_level(lines, delta):
    ladder = _ladder(tuple(lines))
    assert _outcome(_best_level, ladder, delta) == _outcome(_ref_best_level, ladder, delta, RTOL)


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


# ------------------------------------------------------------ the level screen


def _steps(x, count):
    """x moved count ulps up (count > 0) or down."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.copysign(math.inf, count))
    return x


def _band(lines):
    """The screen's margin T0, as its docstring defines it."""
    top = max(abs(r) for r, _ in lines)
    size = top + max(abs(p) for _, p in lines) * (2 * top + 1)
    return 4 * RTOL * max(1.0, size + 1)


_R = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, 1e-300, 1e300, -1e300]))
_P = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, -0.25]))
_NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def _screen_cases(draw):
    """Lines with parallel, duplicate and all-equal members, k = 1 and
    non-finite entries, and deltas where the screen decides: at each pairwise
    crossing and each interval end, a few ulps either side, and one and two
    band widths either side of each crossing."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["free", "parallel", "duplicates", "equal"]))
    if shape == "equal":
        lines = [(draw(_R), draw(_P))] * k
    elif shape == "duplicates":
        pool = [(draw(_R), draw(_P)) for _ in range(2)]
        lines = [draw(st.sampled_from(pool)) for _ in range(k)]
    elif shape == "parallel":
        slope = draw(_P)
        lines = [(draw(_R), slope) for _ in range(k)]
    else:
        lines = [(draw(_R), draw(_P)) for _ in range(k)]
    if draw(st.integers(0, 9)) == 0:
        where, side = draw(st.integers(0, k - 1)), draw(st.integers(0, 1))
        line = list(lines[where])
        line[side] = draw(st.sampled_from(_NON_FINITE))
        lines[where] = tuple(line)
    lines = tuple(lines)
    deltas = list(_NON_FINITE) + [0.0, -0.0]
    if all(map(math.isfinite, itertools.chain(*lines))):
        band = _band(lines)
        for (r, p), (r2, p2) in itertools.combinations(lines, 2):
            if p != p2:
                crossing = (r2 - r) / (p - p2)
                width = band / abs(p - p2)
                deltas += [crossing + m * width for m in (-2, -1, 1, 2)]
                deltas += [_steps(crossing, m) for m in range(-3, 4)]
        starts, spans = _ladder(lines).screen
        ends = [span[0] for span in spans]
        deltas += [_steps(end, m) for end in starts + ends for m in range(-3, 4)]
    deltas = [d for d in deltas if not math.isfinite(d) or abs(d) < 1e308]
    return lines, draw(st.lists(st.sampled_from(deltas), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(_screen_cases())
def test_screened_kernel_matches_reference(case):
    lines, deltas = case
    for delta in deltas:
        check_best_level(lines, delta)


def test_screen_of_equal_and_non_finite_lines():
    starts, spans = _ladder(((1.5, 0.5),) * 3).screen
    assert (starts, spans) == ([-2 * 1.5 - 1], [(2 * 1.5 + 1, 1, 1.5, 0.5)])
    # A later copy of an earlier line never wins, so only the first of the pair can.
    assert {level for _, level, _, _ in _ladder(((1.0, 0.25), (2.0, 0.5), (1.0, 0.25))).screen[1]} <= {1, 2}
    for bad in _NON_FINITE:
        assert _ladder(((1.0, 0.25), (bad, 0.5))).screen == ([], [])
        assert _ladder(((1.0, bad), (2.0, 0.5))).screen == ([], [])
    # M overflows: no intervals, so every delta is scanned.
    assert _ladder(((1e308, 1.0), (-1e308, 0.5))).screen == ([], [])


def _all_equal_instance():
    """Only the top product sells, so every prefix has the line (1.5, 0.5)."""
    rows = {S: ({1: 0.5} if 1 in S else {}) for S in enumerate_subsets(3)}
    return AssortmentInstance(TabularModel(3, rows), [3.0, 2.0, 1.0])


@pytest.mark.parametrize(
    "base",
    [random_assortment_instance("mnl", Random(5), n_max=6), _all_equal_instance()],
    ids=["mnl", "all-equal-lines"],
)
def test_the_screen_answers_most_cells(base, monkeypatch):
    calls = {"kernel": 0, "scan": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(multiperiod, "_best_level", counted("kernel", multiperiod._best_level))
    monkeypatch.setattr(multiperiod, "_scan_levels", counted("scan", multiperiod._scan_levels))
    solve_dp(MultiPeriodInstance(base, 100, 100))
    assert calls["kernel"] == 1 + 99 * 100 // 2
    assert calls["scan"] <= 0.1 * calls["kernel"]


# ----------------------------------------------------- the shifted-revenue query


def _ref_lstar_delta(instance, delta):
    """``lstar_delta`` as it was before its range check read the ladder's
    cached floor: the same checks, re-derived on every call."""
    ladder = instance.ladder
    if not ladder.levels:
        raise ValueError("l* is undefined for an empty catalogue")
    top = ladder.levels[-1]
    if not finite(delta) or not top + delta >= -RTOL * max(1.0, top):
        raise DeltaOutOfRange(f"shift {delta} is not finite or drives the top revenue {top} negative")
    return _best_level(ladder, delta)[0]


def _query_outcome(query, instance, delta):
    """The level, or the type and message of what the query raised."""
    try:
        return query(instance, delta)
    except Exception as error:  # the comparison is of the errors themselves
        return type(error), str(error)


def check_lstar_delta(instance, delta):
    assert _query_outcome(lstar_delta, instance, delta) == _query_outcome(_ref_lstar_delta, instance, delta)


# Revenues of each type, below 1, at 1 and above 1 (at most 10**6, or huge).
_REVENUES = {
    "int": {"below": st.nothing(), "at": st.just(1), "above": st.one_of(st.integers(2, 10**6), st.just(2**53 + 1))},
    "fraction": {
        "below": st.builds(lambda a, b: Fraction(a, a + b), st.integers(1, 10**6), st.integers(1, 10**6)),
        "at": st.just(Fraction(1)),
        "above": st.builds(lambda a, b: Fraction(a + b, b), st.integers(1, 10**6), st.integers(1, 10**3)),
    },
    "float": {
        "below": st.one_of(st.floats(1e-6, 1.0, exclude_max=True), st.just(1.0 - 2**-53)),
        "at": st.just(1.0),
        "above": st.one_of(st.floats(1.0, 1e6, exclude_min=True), st.sampled_from([1.0 + 2**-52, 1e300])),
    },
}


@st.composite
def _shift_cases(draw):
    """An instance whose top revenue lies below, at or above 1, its revenues
    ints, Fractions and floats, and shifts of every class lstar_delta sees:
    signed zeros, NaN, infinities, ints and Fractions past the float range,
    ints, floats, the floor boundary of the range check a few ulps (and a
    tiny Fraction) either side, and the ends of the ladder's float interval:
    its low end and two ulps either side, the least subnormal and the
    largest finite float."""
    side = draw(st.sampled_from(["below", "at", "above"]))
    kinds = ["fraction", "float"] if side == "below" else ["int", "fraction", "float"]
    n = draw(st.integers(1, 4))
    revenue = [draw(_REVENUES[draw(st.sampled_from(kinds))][side]) for _ in range(n)]
    if side == "at":
        # The top is 1, and every other revenue lies below it.
        revenue[1:] = [draw(_REVENUES[draw(st.sampled_from(["fraction", "float"]))]["below"]) for _ in revenue[1:]]
    instance = AssortmentInstance(MnlModel([draw(st.floats(-2.0, 2.0)) for _ in range(n)]), revenue)
    top = max(revenue)
    floor = -RTOL * max(1.0, top)
    edge = floor - float(top)
    deltas = [0.0, -0.0, math.nan, math.inf, -math.inf, Fraction(10**400), -Fraction(10**400), 10**400, None]
    deltas += [draw(st.integers(-(10**6), 10**6)), draw(st.floats()), -top, -math.ceil(top) - 1]
    deltas += [_steps(edge, m) for m in range(-2, 3)]
    deltas += [Fraction(floor) - top + Fraction(m, 10**30) for m in (-1, 0, 1)]
    low = instance.ladder.shift_interval[0]
    deltas += [_steps(low, m) for m in range(-2, 3)] + [5e-324, sys.float_info.max]
    return instance, deltas


@settings(max_examples=200, deadline=None)
@given(_shift_cases())
def test_lstar_delta_matches_the_reference(case):
    instance, deltas = case
    for delta in deltas:
        check_lstar_delta(instance, delta)


def test_lstar_delta_of_an_empty_catalogue():
    for delta in (0.0, math.nan, Fraction(10**400)):
        check_lstar_delta(AssortmentInstance(MnlModel([]), []), delta)


def test_an_empty_catalogues_interval_accepts_no_float():
    empty = AssortmentInstance(MnlModel([]), [])
    low, high = empty.ladder.shift_interval
    floats = (-sys.float_info.max, -1.0, -0.0, 0.0, 5e-324, 1.0, sys.float_info.max, -math.inf, math.inf)
    assert not any(low <= delta <= high for delta in floats)
    for delta in floats:
        check_lstar_delta(empty, delta)


def test_lstar_delta_calls_the_kernel_once_per_accepted_shift(monkeypatch):
    base = random_assortment_instance("mnl", Random(5), n_max=6)
    table = solve_dp(MultiPeriodInstance(base, 40, 40))
    calls = []
    kernel = multiperiod._best_level

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(multiperiod, "_best_level", counted)
    cells = [(t, q) for t in range(1, 41) for q in range(1, 41)]
    assert all(table.lstar[t][q] == lstar_delta(base, -table.marginal(t - 1, q)) for t, q in cells)
    assert len(calls) == len(cells)
    for delta in (math.nan, math.inf, -base.ladder.levels[-1] - 1.0, Fraction(10**400)):
        with pytest.raises(DeltaOutOfRange):
            lstar_delta(base, delta)
    assert len(calls) == len(cells)


def test_only_the_level_kernel_reads_the_screen():
    readers = set()
    for path in Path(multiperiod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(sub, ast.Attribute) and sub.attr == "screen" for sub in ast.walk(node)):
                    readers.add(node.name)
    assert readers == {"_best_level"}


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


# -------------------------------------------------------- the nesting check


def _ref_check_nesting(table):
    for t in range(1, table.horizon + 1):
        for q in range(2, table.capacity + 1):
            if table.lstar[t][q] > table.lstar[t][q - 1]:
                return CheckResult(False, ("capacity", t, q))
    for t in range(2, table.horizon + 1):
        for q in range(1, table.capacity + 1):
            if table.lstar[t][q] < table.lstar[t - 1][q]:
                return CheckResult(False, ("time", t, q))
    return CheckResult(True)


@st.composite
def _nesting_tables(draw):
    """A table of levels 1..4 that passes the check, non-increasing in q and
    non-decreasing in t from row 1, with up to four cells then set to any
    level, most of them in the first or last row (row 0 included) and the
    first or last columns (column 0 included)."""
    T, Q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lstar = [[1] * (Q + 1) for _ in range(T + 1)]
    for t in range(1, T + 1):
        for q in range(1, Q + 1):
            least = lstar[t - 1][q] if t > 1 else 1
            most = lstar[t][q - 1] if q > 1 else 4
            lstar[t][q] = draw(st.integers(least, most))
    rows = st.one_of(st.sampled_from([0, 1, T]), st.integers(0, T))
    columns = st.one_of(st.sampled_from([0, 1, min(2, Q), Q]), st.integers(0, Q))
    for t, q, level in draw(st.lists(st.tuples(rows, columns, st.integers(1, 4)), max_size=4)):
        lstar[t][q] = level
    value = tuple((0.0,) * (Q + 1) for _ in range(T + 1))
    return DpTable(T, Q, 4, value, tuple(map(tuple, lstar)), None)


@settings(max_examples=300, deadline=None)
@given(_nesting_tables())
def test_nesting_check_matches_the_reference(table):
    assert repr(check_nesting_monotonicity(table)) == repr(_ref_check_nesting(table))


# ------------------------------------------------------------ the l* order check


def _ref_check_lstar_order(table):
    cells = sorted(
        (-table.marginal(t - 1, q), table.lstar[t][q], t, q)
        for t in range(1, table.horizon + 1)
        for q in range(1, table.capacity + 1)
    )
    rise = next((cell for before, cell in zip(cells, cells[1:]) if cell[1] > before[1]), None)
    return CheckResult(True) if rise is None else CheckResult(False, ("delta", *rise[2:]))


def check_lstar_sort(table):
    assert repr(check_lstar_order(table)) == repr(_ref_check_lstar_order(table))


def _edited(table, bumps=(), levels=()):
    """The table with value[t][q] raised by each (t, q, amount) of bumps and
    lstar[t][q] set by each (t, q, level) of levels."""
    value = [list(row) for row in table.value]
    for t, q, amount in bumps:
        value[t][q] += amount
    lstar = [list(row) for row in table.lstar]
    for t, q, level in levels:
        lstar[t][q] = level
    return DpTable(table.horizon, table.capacity, table.k, tuple(map(tuple, value)), tuple(map(tuple, lstar)), None)


def _rows(value, lstar):
    return DpTable(len(value) - 1, len(value[0]) - 1, 3, value, lstar, None)


@pytest.mark.parametrize(
    "table, witness",
    [
        # Row 0 is all zero, so row 1 has delta -0.0 everywhere: equal deltas need equal levels.
        (_rows(((0.0, 0.0, 0.0),) * 2, ((1, 1, 1), (1, 2, 2))), None),
        (_rows(((0.0, 0.0, 0.0),) * 2, ((1, 1, 1), (1, 2, 1))), ("delta", 1, 1)),
        # Row 1's marginals 2 and 1 give deltas -2 < -1 for levels 2 and 3 at t = 2.
        (_rows(((0.0,) * 3, (0.0, 2.0, 3.0), (0.0,) * 3), ((1,) * 3, (1, 1, 1), (1, 3, 2))), None),
        (_rows(((0.0,) * 3, (0.0, 2.0, 3.0), (0.0,) * 3), ((1,) * 3, (1, 1, 1), (1, 2, 3))), ("delta", 2, 2)),
        # Non-finite, int and Fraction values take the sort.  Level 3's deltas
        # are NaN and -1: min and max would skip the NaN, but the sort does not.
        (
            _rows(((0.0, 0.0), (math.nan, 3.0), (2.0, 3.0), (1.0, 2.0)), ((1, 1), (1, 1), (3, 3), (1, 3))),
            ("delta", 2, 1),
        ),
        (_rows(((0.0,) * 3, (0.0, math.nan, 3.0), (0.0,) * 3), ((1,) * 3, (1, 1, 1), (1, 2, 3))), ("delta", 2, 1)),
        (_rows(((0.0,) * 3, (0.0, math.inf, 3.0), (0.0,) * 3), ((1,) * 3, (1, 1, 1), (1, 3, 2))), ("delta", 2, 2)),
        (_rows(((0,) * 3, (0, 10**400, 3), (0,) * 3), ((1,) * 3, (1, 1, 1), (1, 2, 3))), ("delta", 2, 2)),
        (_rows(((0,) * 3, (0, Fraction(1, 3), 3), (0,) * 3), ((1,) * 3, (1, 1, 1), (1, 1, 1))), None),
    ],
)
def test_lstar_order_witness(table, witness):
    check_lstar_sort(table)
    assert check_lstar_order(table).witness == witness


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 12),
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from([-1.0, -1e-9, 0.5, 2.0])), max_size=2),
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 7)), max_size=3),
)
def test_lstar_order_on_random_tables(seed, horizon, capacity, bumps, levels):
    family = ASSORTMENT_FAMILIES[seed % len(ASSORTMENT_FAMILIES)]
    base = random_assortment_instance(family, Random(seed), n_max=6)
    table = solve_dp(MultiPeriodInstance(base, horizon, capacity))
    check_lstar_sort(table)
    bumps = [(t % (horizon + 1), q % (capacity + 1), a) for t, q, a in bumps]
    levels = [((t - 1) % horizon + 1, (q - 1) % capacity + 1, level) for t, q, level in levels]
    check_lstar_sort(_edited(table, bumps, levels))
