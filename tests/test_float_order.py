"""One float summation order: every float total in the library adds its
terms left to right from int 0 (``models.ordered_sum``), the order of the
column kernels, so a result is the same float on every supported Python
and whichever path computed it.  ``sum`` compensates float additions from
Python 3.12 on, so it would give other floats there.
"""

from fractions import Fraction
from random import Random

import pytest

from assortopt import AssortmentInstance, MixedMnlModel, MnlModel
from assortopt.models import ordered_sum


def test_ordered_sum_adds_left_to_right_from_int_0():
    assert ordered_sum([0.1] * 10) == 0.9999999999999999  # sum() gives 1.0 from 3.12 on
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(iter([0.5, 0.25])) == 0.75
    assert type(ordered_sum([])) is int and ordered_sum([]) == 0
    assert ordered_sum([Fraction(1, 3)] * 3) == 1 and type(ordered_sum([Fraction(1, 3)])) is Fraction


def _model(family, rng, n):
    utilities = [rng.gauss(0.0, 1.5) for _ in range(n)]
    if family == "mnl":
        return MnlModel(utilities)
    weight = rng.uniform(0.1, 0.9)
    return MixedMnlModel([(weight, utilities), (1.0 - weight, [rng.gauss(0.0, 1.5) for _ in range(n)])])


@pytest.mark.parametrize("family", ["mnl", "mixed_mnl"])
def test_the_ladder_does_not_depend_on_whether_the_table_was_built(family):
    # The ladder reads its rows from instance.table once that is built (the
    # column kernels' sums), else from the model's _choice_row.
    rng = Random(21)
    differing = []
    for trial in range(200):
        n = 3 + trial % 7
        model = _model(family, rng, n)
        revenue = [round(rng.uniform(0.5, 10.0), 3) for _ in range(n)]
        fresh, tabled = AssortmentInstance(model, revenue), AssortmentInstance(model, revenue)
        tabled.table
        if repr(fresh.ladder) != repr(tabled.ladder):
            differing.append(trial)
    assert differing == []
