"""One verifier for the pricing-to-assortment reductions.

Unit-demand and Stackelberg pricing restate as assortment problems over
(item, price level) pairs, under which uniform pricing is the
revenue-ordered strategy; `verify_reduction` checks that claim exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .assortment import AssortmentInstance, brute_force_optimum, revenue_ordered
from .stackelberg import (
    StackelbergInstance,
    brute_force_stackelberg,
    reduce_to_assortment,
    uniform_pricing_stackelberg,
)
from .udp import (
    UdpMinInstance,
    UdpRankInstance,
    brute_force_pricing,
    reduce_min_to_assortment,
    reduce_rank_to_assortment,
    uniform_pricing,
)


@dataclass(frozen=True)
class ReductionReport:
    """The three checks of `verify_reduction`; ``passed`` needs all of them."""

    opt_pricing: float
    opt_assortment: Fraction
    axioms_pass: bool
    uniform_equals_revenue_ordered: bool

    @property
    def opt_match(self) -> bool:
        return self.opt_assortment == self.opt_pricing

    @property
    def passed(self) -> bool:
        return self.opt_match and self.axioms_pass and self.uniform_equals_revenue_ordered


def reduce_pricing(instance) -> AssortmentInstance:
    """The assortment instance equivalent to a udp_min, udp_rank or Stackelberg instance."""
    if isinstance(instance, UdpMinInstance):
        return reduce_min_to_assortment(instance)
    if isinstance(instance, UdpRankInstance):
        return reduce_rank_to_assortment(instance)
    if isinstance(instance, StackelbergInstance):
        return reduce_to_assortment(instance)
    raise TypeError(f"no pricing reduction for {type(instance).__name__}")


def solve_pricing(instance):
    """``(uniform, exact)``: uniform pricing and the grid-search optimum of a pricing instance.
    The grid search runs first, so its guard is checked before any other work."""
    stackelberg = isinstance(instance, StackelbergInstance)
    exact = (brute_force_stackelberg if stackelberg else brute_force_pricing)(instance)
    return (uniform_pricing_stackelberg if stackelberg else uniform_pricing)(instance), exact


def verify_reduction(instance) -> ReductionReport:
    """Check the reduction of a pricing instance against the pricing oracles.

    The exact optima must agree, the reduced model must pass its axiom
    report (``reduced.axioms``), and the uniform-pricing candidates must earn
    exactly the revenue-ordered candidates, threshold by threshold, all read
    from one ``table`` of the reduced model.  With no priceable element (an empty
    reduced catalogue) there are no thresholds, so every uniform candidate
    must earn 0 instead.
    """
    reduced = reduce_pricing(instance)
    uniform, exact = solve_pricing(instance)
    axioms = reduced.axioms
    optimum = brute_force_optimum(reduced)
    revenues = [revenue for _, revenue in uniform.candidates]
    if reduced.n == 0:
        pointwise = all(revenue == 0 for revenue in revenues)
    else:
        pointwise = revenues == [revenue for _, revenue in revenue_ordered(reduced).candidates]
    return ReductionReport(exact.revenue, optimum.revenue, axioms.passed, pointwise)
