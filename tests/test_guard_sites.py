"""The enumeration guard is one constant, compared where each reader enumerates.

``models.GUARD`` bounds every reader of all 2^n offer sets, and
``models.CAPACITY_GUARD`` the subsets a ``TableCapacity`` checks.  Each test
stubs the work the guard protects, so a check that moved after that work
would fail here rather than run for 2^21 offer sets.
"""

import pytest

from assortopt import assortment, models
from assortopt.assortment import AssortmentInstance, brute_force_optimum
from assortopt.errors import GroundSetTooLarge
from assortopt.models import GUARD, MixedMnlModel, MnlModel, TableCapacity
from assortopt.multiperiod import MultiPeriodInstance, solve_dp

WIDE = GUARD + 1


def _refuse(*args, **kwargs):
    raise AssertionError("the guard must refuse before this work starts")


def test_instance_table_refuses_past_the_guard(monkeypatch):
    monkeypatch.setattr(MnlModel, "columns", _refuse)
    instance = AssortmentInstance(MnlModel([0.0] * WIDE), [1.0] * WIDE)
    with pytest.raises(GroundSetTooLarge, match=f"n={WIDE} exceeds the enumeration guard {GUARD}"):
        instance.table
    assert "table" not in vars(instance)


def test_solve_dp_past_the_guard_reports_no_verdict_and_builds_no_table(monkeypatch):
    monkeypatch.setattr(MnlModel, "columns", _refuse)
    base = AssortmentInstance(MnlModel([0.1 * x for x in range(WIDE)]), [1.0 + x for x in range(WIDE)])
    table = solve_dp(MultiPeriodInstance(base, 3, 2))
    assert table.regularity_ok is None
    assert "table" not in vars(base)


@pytest.mark.parametrize("model", [MnlModel([0.0] * WIDE), MixedMnlModel([(1.0, [0.0] * WIDE)])])
def test_brute_force_refuses_before_screen_or_blocks(monkeypatch, model):
    monkeypatch.setattr(assortment, "subset_sums", _refuse)  # the screen's first work
    monkeypatch.setattr(type(model), "columns", _refuse)
    with pytest.raises(GroundSetTooLarge, match=f"exceeds the enumeration guard {GUARD}"):
        brute_force_optimum(AssortmentInstance(model, [1.0] * WIDE))


def test_table_capacity_refuses_past_its_guard_before_enumerating(monkeypatch):
    monkeypatch.setattr(models, "enumerate_subsets", _refuse)
    with pytest.raises(GroundSetTooLarge, match="n=17 exceeds the enumeration guard 16"):
        TableCapacity(models.CAPACITY_GUARD + 1, {})
