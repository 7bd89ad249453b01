"""The superset transforms' kernels against the loops they replace.

``axioms._superset_extreme`` combines pairs with a comparison comprehension
instead of ``map(max | min, ...)``, keeps a sweep's low half as it is when
every low entry already wins, and returns its input when a full transform
moves nothing; ``check_demand_submodularity`` transforms only the offer sets
without x, in one transform when no gain is below zero;
``axioms._first_flagged`` scans only the offer sets of the smallest flagged
size instead of every offer set.  The references below are the map-based
sweep, the whole-lattice submodularity loop and the canonical scan; results
must equal theirs by type and ``repr`` (and be the very objects the sweep
would return), on entries that mix NaN, signed zeros, infinities, ints and
Fractions.
"""

import math
import operator
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from assortopt import axioms
from assortopt.axioms import CheckResult, _first_flagged, _superset_extreme, _supersets, check_demand_submodularity
from assortopt.generators import generate
from assortopt.io import instance_from_dict
from assortopt.models import ChoiceModel, MnlModel, StochasticPreferenceModel, TabularModel, enumerate_subsets
from assortopt.models import column_sums, offer_masks
from assortopt.reductions import reduce_pricing


def _bits(values):
    return [(type(v), repr(v)) for v in values]


def ref_superset_extreme(values, n, pick):
    for _ in range(n):
        low, high = values[0::2], values[1::2]
        values = list(map(pick, low, high)) + high
    return values


ENTRIES = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 0, 1, -1, Fraction(1, 3), Fraction(-1, 2)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(), st.integers(1, 12)),  # every Fraction of denominator <= 12
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), pick=st.sampled_from([max, min]))
def test_comprehension_returns_what_map_returns(data, n, pick):
    values = data.draw(st.lists(ENTRIES, min_size=1 << n, max_size=1 << n))
    assert _bits(_superset_extreme(values, n, pick)) == _bits(ref_superset_extreme(values, n, pick))


# ---------------------------------------------------------------- keep path


def _picks():
    """Records the sweeps that go through ``_pick`` rather than keep their low half."""
    return mock.patch.object(axioms, "_pick", wraps=axioms._pick)


def _assert_as_map(values, n, pick):
    """The transform equals the map-based sweep by type and repr, entry for
    entry the very same objects; returns it."""
    got, expected = _superset_extreme(values, n, pick), ref_superset_extreme(values, n, pick)
    assert _bits(got) == _bits(expected)
    assert all(a is b for a, b in zip(got, expected))
    return got


# Ordered values: no NaN, and small enough that x - 1 < x < x + 1.
ORDERED = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, Fraction(1), -1, Fraction(1, 3)]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-3, 3),
    # Every Fraction in [-10, 10] of denominator d <= 12: k * d // 12 takes
    # every numerator from -10d to 10d as k runs from -120 to 120.
    st.builds(lambda k, d: Fraction(k * d // 12, d), st.integers(-120, 120), st.integers(1, 12)),
)


def _ordered(values, pick):
    """values sorted so that a mask's value wins against every superset's
    (descending for max, ascending for min): every sweep keeps its low half."""
    return sorted(values, reverse=pick is max)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), pick=st.sampled_from([max, min]))
def test_ordered_values_keep_every_sweep(data, n, pick):
    values = _ordered(data.draw(st.lists(ORDERED, min_size=1 << n, max_size=1 << n)), pick)
    with _picks() as picks:
        got = _assert_as_map(values, n, pick)
    assert all(a is b for a, b in zip(got, values))  # every entry kept, object for object
    assert not picks.called


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), pick=st.sampled_from([max, min]), k=st.integers(0, 5))
def test_one_losing_last_pair_picks_one_sweep(data, n, pick, k):
    # Sorted values with the mask full ^ (1 << k) moved past the full mask's
    # value: only sweep k compares those two, and they are its last pair.
    values = _ordered(data.draw(st.lists(ORDERED, min_size=1 << n, max_size=1 << n)), pick)
    k %= n
    full = (1 << n) - 1
    values[full ^ 1 << k] = values[full] - 1 if pick is max else values[full] + 1
    with _picks() as picks:
        got = _assert_as_map(values, n, pick)
    assert [len(call.args[1]) for call in picks.call_args_list] == [1 << n >> 1]
    assert got[full ^ 1 << k] is values[full]
    assert all(a is b for at, (a, b) in enumerate(zip(got, values)) if at != full ^ 1 << k)


TIES = st.sampled_from([0.0, -0.0, 0, 1, Fraction(1), 1.0, math.inf, -math.inf, math.nan])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), pick=st.sampled_from([max, min]))
def test_ties_and_nan_return_what_map_returns(data, n, pick):
    _assert_as_map(data.draw(st.lists(TIES, min_size=1 << n, max_size=1 << n)), n, pick)


@pytest.mark.parametrize("pick", [max, min])
@pytest.mark.parametrize(
    "pair",
    [(0.0, -0.0), (-0.0, 0.0), (1, Fraction(1)), (Fraction(1), 1), (1, 1.0), (math.inf, math.inf),
     (-math.inf, -math.inf), (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)],
    ids=repr,
)
def test_tied_pairs_keep_the_low_object(pair, pick):
    low, high = pair
    values = [low, high, low, high]
    with _picks() as picks:
        got = _assert_as_map(values, 2, pick)
    if any(v != v for v in pair):  # a NaN fails the keep test, so the sweep picks
        assert picks.called
    else:
        assert not picks.called and got[0] is low and got[2] is low


# ------------------------------------------------------------ first flagged


def ref_first_flagged(n, flagged):
    return next(((subset, mask) for subset, mask in offer_masks(n) if flagged[mask]), None)


def test_first_flagged_is_the_canonical_scan():
    rng = Random(17)
    for trial in range(400):
        n = trial % 9
        density = rng.choice([0.0, 0.01, 0.1, 0.5, 1.0])
        flagged = [rng.random() < density for _ in range(1 << n)]
        if trial % 7 == 0:  # only the full set, last in canonical order
            flagged = [False] * ((1 << n) - 1) + [True]
        if trial % 7 == 1:  # every set of one size, and the last set of a smaller one
            size = rng.randint(0, n)
            flagged = [mask.bit_count() == size for mask in range(1 << n)]
            flagged[(1 << n) - (1 << (n - size // 2))] = True
        assert _first_flagged(n, flagged) == ref_first_flagged(n, flagged), (n, flagged)


# ------------------------------------------------------------ submodularity


def ref_demand_submodularity(table):
    """The whole-lattice loop: one transform of all 2^n gains per product."""
    n, scale = table.n, table.denominator
    sold = column_sums(table.columns(n), n)
    worst = 0
    flagged = [False] * len(sold)
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        gains = [sold[mask | bit] - sold[mask] for mask in range(len(sold))]
        gaps = list(map(operator.sub, ref_superset_extreme(gains, n, max), gains))
        most = max(gaps)
        if most > worst:
            worst = most
            flagged = [False] * len(sold)
        if most == worst and most > 0:
            for mask, gap in enumerate(gaps):
                if gap == worst:
                    flagged[mask] = True
    threshold = 1e-9 if scale is None else math.floor(Fraction(1e-9) * scale)
    if not worst > threshold:
        return CheckResult(True)
    subset, mask = _first_flagged(n, flagged)

    def gain(at, x):
        return sold[at | 1 << (x - 1)] - sold[at]

    witness = next(
        (frozenset(subset), larger, x)
        for larger_mask, larger in _supersets(subset, mask, n)
        for x in range(1, n + 1)
        if gain(larger_mask, x) - gain(mask, x) == worst
    )
    return CheckResult(False, witness, float(worst) if scale is None else float(Fraction(worst, scale)))


class Rows(ChoiceModel):
    """Every entry drawn from a pool, unvalidated."""

    def __init__(self, n, pool, seed):
        super().__init__(n)
        rng = Random(seed)
        self._rows = {subset: tuple(rng.choice(pool) for _ in subset) for subset in enumerate_subsets(n)}

    def _choice_row(self, subset):
        return self._rows[subset]


POOLS = {
    "nan": [0.0, -0.0, 0.25, 0.5, 0.125, math.nan, 0.75, 1 / 3],
    "signed_zero": [0.0, -0.0, 0.5, 0.25, 0.1],
    "infinite": [0.0, -0.0, 0.25, 0.5, math.inf, -math.inf, math.nan, 0.1],
    "mixed": [0, Fraction(1, 3), 0.25, Fraction(1, 2), 0.5, -0.0, Fraction(1, 4)],
    "exact": [0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), Fraction(-1, 4)],
    "negative": [0.0, -0.25, 0.25, 0.5, -0.5, 0.1],
}


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_halved_submodularity_matches_the_whole_lattice(pool):
    failures = 0
    for seed in range(120):
        n = Random(seed).randint(1, 6)
        table = Rows(n, POOLS[pool], seed).to_tabular()
        got = check_demand_submodularity(table)
        expected = ref_demand_submodularity(table)
        assert repr(got) == repr(expected), seed
        failures += not got.passed
    assert 0 < failures < 120  # both verdicts are covered


def _generated_tables():
    rng = Random(5)
    for n in range(1, 8):
        yield MnlModel([rng.gauss(0.0, 1.5) for _ in range(n)]).to_tabular()
        orders = [list(range(n + 1)) for _ in range(3)]
        for order in orders:
            rng.shuffle(order)
        yield StochasticPreferenceModel(n, list(zip([0.5, 0.25, 0.25], orders))).to_tabular()
    for kind in ("udp_min", "udp_rank", "stackelberg"):
        for seed in range(6):
            model = reduce_pricing(instance_from_dict(generate(kind, None, {}, seed))).model
            if model.n <= 8:
                yield model.to_tabular()
    table = {subset: {x: Fraction(1, 1 + len(subset)) for x in subset} for subset in enumerate_subsets(4)}
    yield TabularModel(4, table)


def test_halved_submodularity_matches_on_model_tables():
    for table in _generated_tables():
        assert repr(check_demand_submodularity(table)) == repr(ref_demand_submodularity(table))


# -------------------------------------------------- a transform that moves nothing


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), pick=st.sampled_from([max, min]), ordered=st.booleans())
def test_a_full_transform_returns_its_input_exactly_when_no_sweep_picks(data, n, pick, ordered):
    values = data.draw(st.lists(ORDERED if ordered else st.one_of(ORDERED, TIES), min_size=1 << n, max_size=1 << n))
    if ordered:
        values = _ordered(values, pick)
    with _picks() as picks:
        got = _superset_extreme(values, n, pick)
    assert (got is values) is (not picks.called)
    assert not ordered or got is values
    assert _bits(got) == _bits(ref_superset_extreme(values, n, pick))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), pick=st.sampled_from([max, min]), k=st.integers(1, 5))
def test_a_partial_transform_never_returns_its_input(data, n, pick, k):
    # k < n sweeps over 2^n values leave them rotated by k, even when no sweep picks.
    k = 1 + k % (n - 1)
    values = _ordered(data.draw(st.lists(ORDERED, min_size=1 << n, max_size=1 << n)), pick)
    with _picks() as picks:
        got = _superset_extreme(values, k, pick)
    assert got is not values and not picks.called
    assert _bits(got) == _bits(axioms._rotated(values, k))


def _int_table(n, choose):
    """A table of int entries 0 and 1: choose(S) is the product bought from S, or None."""
    return TabularModel(n, {S: {x: int(x == choose(S)) for x in S} for S in enumerate_subsets(n)})


def _cannibal(one):
    """Product 3 shrinks every share it joins: the gain of 3 is below zero at
    {1}, {2} and {1, 2}, so the zeros of the sets holding 3 are merged in."""
    rows = {}
    for S in enumerate_subsets(3):
        rows[S] = {x: one / 4 for x in S} if 3 not in S else {x: one / 8 if x != 3 else one / 16 for x in S}
    return TabularModel(3, rows)


SHORTCUT_TABLES = {
    "mnl_exact": TabularModel(
        4, {S: {x: Fraction(x, 1 + sum(S)) for x in S} for S in enumerate_subsets(4)}
    ),  # MNL with weights 1..4: submodular, so every x returns its gains
    "cannibal_float": _cannibal(1.0),
    "cannibal_exact": _cannibal(Fraction(1)),
    "int_first_member": _int_table(4, lambda S: min(S, default=None)),  # sold is 1 on every S but {}
    "int_pairs_only": _int_table(4, lambda S: min(S) if len(S) >= 2 else None),  # supermodular at a pair
    "int_no_sale_with_3": _int_table(3, lambda S: None if 3 in S else min(S, default=None)),
}


@pytest.mark.parametrize("name", sorted(SHORTCUT_TABLES))
def test_submodularity_with_and_without_the_zero_merge(name):
    table = SHORTCUT_TABLES[name]
    with mock.patch.object(axioms, "_rotated", wraps=axioms._rotated) as merges, _picks() as picks:
        got = check_demand_submodularity(table)
    assert repr(got) == repr(ref_demand_submodularity(table))
    merged = name.startswith("cannibal") or name == "int_no_sale_with_3"  # some gain is below zero
    assert merges.called is merged
    assert got.passed is (name in ("mnl_exact", "int_first_member"))
    assert picks.called is not got.passed  # on the two that pass, every transform returns its gains
    if name == "mnl_exact":
        assert table.denominator is not None and all(type(p) is int for p in table.columns(4)[0])
