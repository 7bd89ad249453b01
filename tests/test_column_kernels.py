"""The column kernels against the map-based kernels they replace.

``MnlModel.columns``, ``MixedMnlModel.columns`` (each entry t + a * (w / d),
divided from its classes' weights) and ``column_sums`` apply each operator
in a list comprehension instead of through ``map`` and a bound method,
``brute_force_optimum`` passes its revenues to ``column_sums`` as
factors instead of building an "earned" list per column, and
``TabularModel.columns`` slices its stored columns instead of reading one
``_choice_row`` per offer set.  The references below are the map-based
kernels, the default ``ChoiceModel.columns`` and, for tables, the dict a
table is built from; results must equal theirs
by type and ``repr`` (or raise the same exception) on entries that mix NaN,
signed zeros, infinities, ints and Fractions (for tables, the ones a table
accepts: signed zeros, floats, ints and Fractions).

The ``check_*`` functions take plain values, so they can be driven without
hypothesis too.
"""

import itertools
import math
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import assortment
from assortopt.assortment import AssortmentInstance, brute_force_optimum
from assortopt.models import ChoiceModel, MixedMnlModel, MnlModel, TabularModel, column_sums, enumerate_subsets, held
from assortopt.models import held_parts, members_of


def _bits(values):
    return [(type(v), repr(v)) for v in values]


def _outcome(kernel, *args):
    """The kernel's lists by type and repr, or the type of what it raised."""
    try:
        result = kernel(*args)
    except ArithmeticError as error:
        return type(error)
    return [_bits(column) for column in result]


# ------------------------------------------------------------------ references


def ref_mnl_divisors(model, c, high):
    """(w_x, the denominators of x's column) for each column, as the map-based kernel builds them."""
    weight_of = model._weight_of
    partial = [0]
    for x in range(1, c + 1):
        partial += map(weight_of[x].__radd__, partial[:])
    highs = members_of(high, model.n)
    for x in highs:
        partial = list(map(weight_of[x].__radd__, partial))
    denoms = list(map(model._outside.__add__, partial))
    low = [(weight_of[x], held(denoms, 1 << (x - 1))) for x in range(1, c + 1)]
    return low + [(weight_of[x], denoms) for x in highs]


def ref_mnl_columns(model, c, high):
    return [list(map(w.__truediv__, denoms)) for w, denoms in ref_mnl_divisors(model, c, high)]


def ref_mixed_columns(weights, component_columns):
    # operator.mul, not weight.__mul__: an int weight scales the float quotients of its class.
    # The totals start from 0.0, as the kernel's do, so a class of Fractions mixes into floats.
    mixed = itertools.repeat(itertools.repeat(0.0))
    for weight, columns in zip(weights, component_columns):
        mixed = [
            list(map(operator.add, total, map(operator.mul, itertools.repeat(weight), column)))
            for total, column in zip(mixed, columns)
        ]
    return mixed


def ref_mixed_mnl_columns(weights, models, c, high):
    """The mixture's columns from each class's lazy quotients, so every entry
    divides, scales and adds in turn, class by class, as the kernel does, and
    an arithmetic error is raised at the same entry."""
    lazy = ([map(w.__truediv__, denoms) for w, denoms in ref_mnl_divisors(model, c, high)] for model in models)
    return ref_mixed_columns(weights, lazy)


def ref_column_sums(columns, c):
    size = 1 << c
    total = [0] * size
    for x, column in enumerate(columns, start=1):
        if x > c:
            total = list(map(operator.add, total, column))
            continue
        for where, at in held_parts(size, 1 << (x - 1)):
            total[where] = map(operator.add, total[where], column[at])
    return total


def ref_earned_then_summed(columns, c, factors):
    earned = [list(map(operator.mul, column, itertools.repeat(r))) for column, r in zip(columns, factors)]
    return ref_column_sums(earned, c)


# ---------------------------------------------------------------- the checks


def _assert_defined(outcome):
    # The map kernels put NotImplemented where a reflected operator declines
    # an operand type; the strategies draw only operands both kernels take.
    assert not isinstance(outcome, list) or all(
        kind is not type(NotImplemented) for column in outcome for kind, _ in column
    )


def _mnl(weights, outside):
    """An MNL model with the given weights and no-purchase weight injected."""
    model = MnlModel([0.0] * len(weights))
    model._weight_of = (0.0, *weights)
    model._outside = outside
    return model


def check_mnl(weights, outside, c, high):
    model = _mnl(weights, outside)
    expected = _outcome(ref_mnl_columns, model, c, high)
    _assert_defined(expected)
    assert _outcome(model.columns, c, high) == expected


def check_mixed(weights, classes, c, high):
    """``classes`` holds each class's (weights, no-purchase weight)."""
    models = [_mnl(*params) for params in classes]
    model = MixedMnlModel([(1.0, [0.0] * models[0].n)])
    model._weights = tuple(weights)
    model._models = tuple(models)
    expected = _outcome(ref_mixed_mnl_columns, weights, models, c, high)
    _assert_defined(expected)
    assert _outcome(model.columns, c, high) == expected


def check_column_sums(columns, c, factors):
    def plain(kernel):
        return _outcome(lambda: [kernel(columns, c)])

    def scaled(kernel):
        return _outcome(lambda: [kernel(columns, c, factors)])

    assert plain(column_sums) == plain(ref_column_sums)
    assert scaled(column_sums) == scaled(ref_earned_then_summed)


# --------------------------------------------------------------- strategies

SPECIALS = [math.nan, 0.0, -0.0, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=True, allow_infinity=True))
INTS = st.integers(-3, 3)
# Every Fraction with denominator at most 12, as st.fractions(max_denominator=12)
# draws them, but without the strategy that flatmap builds for each draw.
FRACTIONS = st.one_of(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 2)]),
                      st.builds(Fraction, st.integers(), st.integers(1, 12)))
ENTRIES = st.one_of(st.sampled_from([*SPECIALS, 0, 1, -1, Fraction(1, 3), Fraction(-1, 2)]), FLOATS, INTS, FRACTIONS)

# The reflected operators of the map kernels take an int or a value of their
# own type, and a float or a Fraction takes an int: so the MNL weights and
# the no-purchase weight of a class share one kind.  A mixture weight that is
# not a Fraction scales only classes of floats and ints.
MNL_KINDS = [FLOATS, INTS, FRACTIONS]
MIXING = [(FRACTIONS, MNL_KINDS), (FLOATS, [FLOATS, INTS]), (INTS, [INTS])]


@st.composite
def split(draw):
    """(n, c, high): products 1..c vary, a mask ``high`` of the others is fixed."""
    n = draw(st.integers(0, 6))
    c = draw(st.integers(0, n))
    above = draw(st.lists(st.booleans(), min_size=n - c, max_size=n - c))
    return n, c, sum(1 << (c + i) for i, on in enumerate(above) if on)


def _column_lengths(n, c, high):
    return [1 << c >> 1] * c + [1 << c] * len(members_of(high, n))


def _cut(entries, lengths):
    """``entries`` cut into consecutive lists of the given lengths."""
    ends = list(itertools.accumulate(lengths))
    return [entries[end - m : end] for m, end in zip(lengths, ends)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=split(), kind=st.sampled_from(MNL_KINDS))
def test_mnl_recurrence_and_quotients(data, shape, kind):
    n, c, high = shape
    weights = data.draw(st.lists(kind, min_size=n, max_size=n))
    check_mnl(weights, data.draw(kind), c, high)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=split(), kinds=st.sampled_from(MIXING), k=st.integers(1, 3))
def test_mixed_mnl_mixing(data, shape, kinds, k):
    weight_kind, class_kinds = kinds
    n, c, high = shape
    weights = data.draw(st.lists(weight_kind, min_size=k, max_size=k))
    classes = []
    for _ in range(k):
        kind = data.draw(st.sampled_from(class_kinds))
        classes.append((data.draw(st.lists(kind, min_size=n, max_size=n)), data.draw(kind)))
    check_mixed(weights, classes, c, high)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=split())
def test_column_sums_with_and_without_factors(data, shape):
    n, c, high = shape
    lengths = _column_lengths(n, c, high)
    size = sum(lengths) + len(lengths)
    # One draw holds every column and, after them, one factor per column.
    *columns, factors = _cut(data.draw(st.lists(ENTRIES, min_size=size, max_size=size)), [*lengths, len(lengths)])
    check_column_sums(columns, c, factors)


# ----------------------------------------------------------------- brute force


def _exact_table(n, rng):
    """An exact MNL-like table: P(x, S) = w_x / (1 + sum of w over S), integer w."""
    weight = [rng.randint(1, 5) for _ in range(n + 1)]
    return TabularModel(
        n, {subset: {x: Fraction(weight[x], 1 + sum(weight[y] for y in subset)) for x in subset}
            for subset in enumerate_subsets(n)}
    )


def test_brute_force_fuses_what_it_earned_then_summed(monkeypatch):
    sums = []

    def compared(columns, c, factors=None):
        columns = list(columns)
        values = column_sums(columns, c, factors)
        assert _bits(values) == _bits(ref_earned_then_summed(columns, c, factors))
        sums.append(c)
        return values

    monkeypatch.setattr(assortment, "column_sums", compared)
    monkeypatch.setattr(assortment, "BLOCK_BITS", 2)  # n = 5 streams in 8 blocks
    rng = Random(3)
    for n in (1, 3, 5):
        model = _exact_table(n, rng)
        assert model.denominator is not None
        revenue = [rng.choice([0.1, 1 / 3, 2.5, 7.25, 1e-3]) for _ in range(n)]
        streamed, tabled = AssortmentInstance(model, revenue), AssortmentInstance(model, revenue)
        tabled.table
        sums.clear()
        streamed_optimum = brute_force_optimum(streamed)
        assert sums == [min(n, 2)] * (1 << max(n - 2, 0))
        sums.clear()
        tabled_optimum = brute_force_optimum(tabled)
        assert sums == [min(n, 2)] * (1 << max(n - 2, 0))
        assert repr(streamed_optimum) == repr(tabled_optimum)
        assert type(tabled_optimum.revenue) is float


# -------------------------------------------------------------- tabular rows


def _sparse_table(n, rng):
    """A table, as the dict it is built from, whose rows each miss some
    entries, of signed zeros, ints and Fractions as well as floats."""
    pool = [0.25, 0.0, -0.0, 1, 0, Fraction(1, 3)]
    table = {frozenset(subset): {x: rng.choice(pool) for x in subset if rng.random() < 0.6}
             for subset in enumerate_subsets(n)}
    return table, TabularModel(n, table)


def _high_masks(n, c, rng):
    above = [0, ((1 << n) - 1) >> c << c]
    return above + [rng.randrange(1 << n) >> c << c for _ in range(2)]


def _stored(model, p):
    """The entry a table stores for the given P: its numerator over the
    declared denominator of an exact table, else p as it is."""
    D = model.denominator
    return p if D is None else p.numerator * (D // p.denominator)


def test_tabular_columns_read_missing_entries_as_zero():
    rng = Random(11)
    for n in range(7):
        table, model = _sparse_table(n, rng)
        for c in range(n + 1):
            for high in _high_masks(n, c, rng):
                got = model.columns(c, high)
                assert _outcome(lambda: got) == _outcome(ChoiceModel.columns, model, c, high), (n, c, high)
                for x, column in zip((*range(1, c + 1), *members_of(high, n)), got):
                    for at, entry in enumerate(column):
                        mask = at if x > c else (at >> (x - 1) << x) | 1 << (x - 1) | (at & ((1 << (x - 1)) - 1))
                        expected = _stored(model, table[frozenset(members_of(mask | high, n))].get(x, 0.0))
                        assert (type(entry), repr(entry)) == (type(expected), repr(expected)), (n, c, high, x, at)
                        assert entry == expected
