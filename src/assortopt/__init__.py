"""Assortment optimisation under regular discrete choice models."""

from .assortment import (
    AssortmentInstance,
    AssortmentSolution,
    BoundReport,
    GuaranteeReport,
    RevenueOrderedResult,
    brute_force_optimum,
    compute_bounds,
    generate_tight_instance,
    revenue_ordered,
    verify_guarantee,
)
from .axioms import (
    AxiomReport,
    CheckResult,
    check_axioms,
    check_demand_submodularity,
    check_purchase_monotonicity,
)
from .errors import (
    DeltaOutOfRange,
    GroundSetTooLarge,
    InvalidEpsilon,
    InvalidParams,
    NonPositiveRevenue,
    RegularityViolation,
    SearchSpaceTooLarge,
)
from .models import (
    ChoiceModel,
    CoverageCapacity,
    HfamModel,
    MallowsModel,
    MixedMnlModel,
    MnlModel,
    StochasticPreferenceModel,
    TableCapacity,
    TabularModel,
    TightExampleModel,
    evaluate_revenue,
    expand_ranking_model,
)
from .multiperiod import (
    DpTable,
    MultiPeriodInstance,
    check_lstar_order,
    check_marginal_value,
    check_nesting_monotonicity,
    lstar_delta,
    revenue_ladder,
    solve_dp,
)
from .reductions import ReductionReport, verify_reduction
from .stackelberg import (
    GraphicMatroid,
    Matroid,
    PricedCopyMatroid,
    StackelbergInstance,
    brute_force_stackelberg,
    cost_compatible_ordering,
    greedy,
    reduce_to_assortment,
    revenue_of_prices,
    uniform_pricing_stackelberg,
)
from .udp import (
    UNPRICED,
    UdpMinInstance,
    UdpRankInstance,
    brute_force_pricing,
    reduce_min_to_assortment,
    reduce_rank_to_assortment,
    simulate_purchases_min,
    simulate_purchases_rank,
    uniform_pricing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
