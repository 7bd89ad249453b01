"""The shared reduction verifier behind `udp verify`, `stackelberg verify` and `suite`."""

from dataclasses import replace
from fractions import Fraction

import pytest

import assortopt.reductions
from assortopt import (
    GraphicMatroid,
    MnlModel,
    ReductionReport,
    StackelbergInstance,
    verify_reduction,
)
from assortopt.assortment import AssortmentInstance
from assortopt.generators import generate
from assortopt.io import instance_from_dict


@pytest.mark.parametrize("kind", ["udp_min", "udp_rank", "stackelberg"])
@pytest.mark.parametrize("seed", [0, 3, 6])
def test_generated_reductions_pass(kind, seed):
    report = verify_reduction(instance_from_dict(generate(kind, None, {}, seed)))
    assert report.opt_match and report.axioms_pass and report.uniform_equals_revenue_ordered
    assert report.passed
    assert isinstance(report.opt_assortment, Fraction)


def test_empty_blue_passes():
    # No priceable element: the reduced catalogue is empty, so there are no
    # thresholds and every uniform candidate must earn 0.
    instance = StackelbergInstance(GraphicMatroid(2, [(0, 1)]), {0: 2.0}, [])
    report = verify_reduction(instance)
    assert report.opt_match
    assert report.opt_pricing == 0 and report.opt_assortment == 0
    assert report.passed


def test_candidate_mismatch_fails(monkeypatch):
    honest = assortopt.reductions.uniform_pricing

    def off_by_one(instance):
        result = honest(instance)
        (level, revenue), *rest = result.candidates
        return replace(result, candidates=((level, revenue + 1), *rest))

    monkeypatch.setattr(assortopt.reductions, "uniform_pricing", off_by_one)
    report = verify_reduction(instance_from_dict(generate("udp_min", None, {}, 6)))
    assert report.opt_match and report.axioms_pass
    assert not report.uniform_equals_revenue_ordered
    assert not report.passed


def test_report_derives_match_and_verdict():
    report = ReductionReport(2.0, Fraction(2), True, True)
    assert report.opt_match and report.passed
    assert not replace(report, opt_assortment=Fraction(3, 2)).opt_match
    assert not replace(report, opt_assortment=Fraction(3, 2)).passed
    assert not replace(report, axioms_pass=False).passed
    assert not replace(report, uniform_equals_revenue_ordered=False).passed


def test_rejects_a_non_pricing_instance():
    with pytest.raises(TypeError, match="no pricing reduction"):
        verify_reduction(AssortmentInstance(MnlModel([0.0]), [1.0]))
