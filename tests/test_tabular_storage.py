"""What a ``TabularModel`` keeps once built: its columns and nothing else.

A table is stored as ``columns(n)`` lays it out, so it holds one list slot
and one entry object per (x, S) pair: at most 80 bytes per entry, whether it
came from ``to_tabular`` or from a validated dict that the caller then
dropped.  A table of offer-set rows held about 185 bytes per entry at n = 12.
``to_tabular`` keeps the source model's columns over its declared
denominator.  The axiom checkers read those stored columns, never a copy.
"""

import gc
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from assortopt.axioms import check_axioms, check_demand_submodularity, check_purchase_monotonicity
from assortopt.models import MnlModel, TabularModel, enumerate_subsets
from assortopt.udp import UdpMinInstance, reduce_min_to_assortment

N = 12
ENTRIES = N << (N - 1)  # one per product of every offer set
BYTES_PER_ENTRY = 80


def _utilities():
    rng = Random(12)
    return [rng.gauss(0.0, 1.5) for _ in range(N)]


def _retained(build):
    """What build() returns, and the bytes it still holds once built."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build()
        gc.collect()
        return model, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _bits(columns):
    return [[(type(p), repr(p)) for p in column] for column in columns]


def test_to_tabular_holds_at_most_80_bytes_per_entry():
    utilities = _utilities()
    model, retained = _retained(lambda: MnlModel(utilities).to_tabular())
    assert retained <= BYTES_PER_ENTRY * ENTRIES, retained / ENTRIES
    assert _bits(model.columns(N)) == _bits(MnlModel(utilities).columns(N))


def test_validated_table_holds_at_most_80_bytes_per_entry_once_its_dict_is_dropped():
    source = MnlModel(_utilities())

    def build():
        table = {frozenset(S): {x: source.evaluate(x, S) for x in S} for S in enumerate_subsets(N)}
        return TabularModel(N, table)  # the dict is dropped when build returns

    model, retained = _retained(build)
    assert retained <= BYTES_PER_ENTRY * ENTRIES, retained / ENTRIES
    for subset in enumerate_subsets(N)[:: 37]:
        assert model.choice_row(subset) == tuple(source.evaluate(x, subset) for x in subset)


def _check_exact_round_trip(reduced_model):
    tabular = reduced_model.to_tabular()
    assert tabular.denominator == reduced_model.denominator
    for subset in enumerate_subsets(reduced_model.n):
        row = tabular.choice_row(subset)
        assert row == reduced_model.choice_row(subset)
        assert all(type(p) is Fraction for p in row)


def test_to_tabular_of_a_reduced_model_keeps_its_denominator():
    # Two consumers who always buy alike: every probability is 0, 1/2 or 1,
    # so the lcm of the reduced Fractions (2) is below the declared 2 * 2.
    alike = UdpMinInstance(2, [([1, 2], 3), ([1, 2], 3)])
    reduced = reduce_min_to_assortment(alike).model
    assert reduced.denominator == 4
    _check_exact_round_trip(reduced)
    rng = Random(19)
    for _ in range(5):
        consumers = [(rng.sample([1, 2, 3], rng.randint(1, 3)), rng.randint(1, 4)) for _ in range(3)]
        _check_exact_round_trip(reduce_min_to_assortment(UdpMinInstance(3, consumers)).model)


# A copy of the columns would add a list slot per entry to a checker's
# peak: at N = 12 it took check_axioms from 13 to 21 bytes per entry.
PEAK_BYTES_PER_ENTRY = {check_axioms: 16, check_purchase_monotonicity: 13, check_demand_submodularity: 21}


@pytest.mark.parametrize("check", list(PEAK_BYTES_PER_ENTRY), ids=lambda check: check.__name__)
def test_checkers_read_the_stored_columns_without_a_copy(check):
    table = MnlModel(_utilities()).to_tabular()
    stored = _bits(table.columns(N))
    gc.collect()
    tracemalloc.start()
    try:
        report = check(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_PER_ENTRY[check] * ENTRIES, peak / ENTRIES
    assert _bits(table.columns(N)) == stored
    assert report == check(MnlModel(_utilities()))
