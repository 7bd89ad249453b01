"""Revenue-ordered assortments, the exact oracle, and approximation bounds.

An assortment instance pairs a choice model with a positive revenue per
product.  The revenue-ordered strategy evaluates one candidate set per
distinct revenue level (all products priced at least that level) and keeps
the best.  Three lower bounds relate that value to the true optimum: one in
the number of distinct revenues, one in the spread of revenues, and one in
the distribution of purchases inside an optimal assortment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .axioms import AxiomReport, _check_axioms
from .errors import NonPositiveRevenue, RegularityViolation
from .models import (
    GUARD,
    ChoiceModel,
    MnlModel,
    TabularModel,
    TightExampleModel,
    as_probabilities,
    check_guard,
    column_sums,
    evaluate_revenue,
    finite,
    members_of,
    ordered_sum,
)

# Offer sets per block of the streamed exact optimum: 2^12 of them.
BLOCK_BITS = 12

# The MNL screen's cut (see brute_force_optimum): a relative slack rho, and
# an absolute one alpha = (n + 1) * max(1, max f, 1 / w_0) * SCREEN_ATOL.
SCREEN_RTOL = 1e-12
SCREEN_ATOL = 2.0**-1068

RTOL = 1e-9


class AssortmentInstance:
    """A choice model plus a positive revenue for each product."""

    def __init__(self, model: ChoiceModel, revenue: Sequence[float]):
        if len(revenue) != model.n:
            raise ValueError(f"expected {model.n} revenues, got {len(revenue)}")
        for x, r in enumerate(revenue, start=1):
            if not r > 0:
                raise NonPositiveRevenue(f"revenue of product {x} is {r}; must be > 0")
            if not finite(r):
                raise ValueError(f"revenue of product {x} must be finite as a float")
        self._model = model
        self._revenue = tuple(revenue)

    @property
    def model(self) -> ChoiceModel:
        return self._model

    @property
    def revenue(self) -> tuple:
        return self._revenue

    @property
    def n(self) -> int:
        return self._model.n

    def revenue_of(self, x: int):
        return self._revenue[x - 1]

    @property
    def levels(self) -> tuple:
        """Distinct revenue values r_1 < ... < r_k (exact-equality dedup)."""
        return tuple(sorted(set(self._revenue)))

    def threshold_set(self, level) -> frozenset[int]:
        """All products with revenue at least the given level."""
        return frozenset(x for x in range(1, self.n + 1) if self._revenue[x - 1] >= level)

    def assortment_revenue(self, S: Iterable[int]):
        return evaluate_revenue(self._model, self._revenue, S)

    @cached_property
    def ladder(self) -> "RevenueLadder":
        """The nested revenue-ordered offer sets, built on first use and then
        kept: the instance is read-only, so the ladder never goes stale."""
        return revenue_ladder(self)

    @cached_property
    def table(self) -> TabularModel:
        """``model.to_tabular()``, the model read over all 2^n offer sets (the
        model itself if it is a table), built on first use and then kept for
        every exhaustive reader of the instance; an n above ``GUARD`` raises
        GroundSetTooLarge and builds nothing."""
        return self._model.to_tabular()

    @cached_property
    def axioms(self) -> AxiomReport:
        """``check_axioms`` of the model, read from ``table`` on first use and
        then kept; unavailable_zero is judged on the model, not the table."""
        return _check_axioms(self._model, self.table)


def _numerator_rows(instance: AssortmentInstance, offer_sets) -> list[tuple]:
    """Each offer set's row as ``model._choice_row`` gives it (numerators
    over the model's denominator, if it declares one), read from
    ``instance.table`` if it has been built, else from the model."""
    source = vars(instance).get("table", instance.model)
    return [source._choice_row(tuple(sorted(instance.model._as_subset(S)))) for S in offer_sets]


def _choice_rows(instance: AssortmentInstance, offer_sets) -> list[tuple]:
    """``model.choice_row`` of each offer set, read from ``instance.table``
    if it has been built, else from the model."""
    return [as_probabilities(row, instance.model.denominator) for row in _numerator_rows(instance, offer_sets)]


@dataclass(frozen=True)
class RevenueLadder:
    """Products re-indexed by non-increasing revenue, plus the per-threshold
    offer sets and their one-period statistics.

    levels are the distinct revenues r_1 < ... < r_k; prefix l contains the
    j(l) products priced at least r_l, so larger indices mean smaller sets.
    revenues[l-1] is the exact one-period revenue of offering prefix l,
    expected_revenue[l-1] that revenue as a float, and
    purchase_probability[l-1] the float sale probability of prefix l.
    lines[l-1] pairs those two floats: prefix l scores R_l + P_l * delta
    when every revenue is shifted by delta.
    """

    order: tuple[int, ...]
    levels: tuple
    prefix_sizes: tuple[int, ...]
    prefixes: tuple[frozenset, ...]
    revenues: tuple
    expected_revenue: tuple[float, ...]
    purchase_probability: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.levels)

    @cached_property
    def lines(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.expected_revenue, self.purchase_probability))

    @cached_property
    def screen(self) -> tuple[list[float], list[tuple[float, int, float, float]]]:
        """The shifts delta at which one level's score is the clear maximum.

        Level w owns the closed float interval [start, end] of delta on
        which, for every other line l, (R_w - R_l) + (P_w - P_l) * delta >=
        T0 = 4 RTOL max(1, M + 1), evaluated as written, and |delta| <= D.
        Here D = 2 max|R| + 1 and M = max|R| + max|P| D, so every score at
        such a delta is at most M in size.  The result is the sorted starts,
        and per interval its end, its level and the line (R_w, P_w).  A line
        equal to an earlier one has no interval (the earlier one wins every
        tie), and a later line equal to w's is no competitor, since it
        scores the same float.  With a non-finite line, M or T0 there are
        no intervals.

        On an interval, the score R_w + P_w * delta is the float maximum,
        and every earlier level misses the tie slack RTOL max(1, |max|) of
        the full scan, so the scan would return that level and that float.
        Each float score is within about 3u M of its exact value (u =
        2^-53; underflow adds multiples of 2^-1074), and rounding the
        endpoints moves the exact gap at an endpoint by about 30u M.  Both
        are about 10^6 times smaller than the factor-2 reserve of T0 over
        twice the slack, so every float gap exceeds the slack.  For the same
        reason the intervals are disjoint, and a delta falls in at most the
        one whose start is the largest not above it.
        """
        lines = self.lines
        if not all(finite(r) and finite(p) for r, p in lines):
            return [], []
        top = max((abs(r) for r, _ in lines), default=0.0)
        reach = 2 * top + 1
        size = top + max((abs(p) for _, p in lines), default=0.0) * reach
        if not finite(size):  # nor then are D and T0
            return [], []
        margin = 4 * RTOL * max(1.0, size + 1)
        spans = []
        for w, line in enumerate(lines):
            if line in lines[:w]:
                continue
            r, p = line
            start, end = -reach, reach
            for other in lines:
                # The half-line (r - R_l) + (p - P_l) * delta >= margin.
                need = margin - (r - other[0])
                slope = p - other[1]
                if slope > 0:
                    start = max(start, need / slope)
                elif slope < 0:
                    end = min(end, need / slope)
                elif need > 0 and other != line:
                    end = -math.inf
            if start <= end:
                spans.append((start, end, w + 1, r, p))
        spans.sort()
        return [span[0] for span in spans], [span[1:] for span in spans]


def revenue_ladder(instance: AssortmentInstance) -> RevenueLadder:
    """Precompute the nested revenue-ordered assortments of an instance.

    Callers that hold an instance read the cached ``instance.ladder``."""
    order = tuple(sorted(range(1, instance.n + 1), key=lambda x: (-instance.revenue_of(x), x)))
    levels = instance.levels
    prefix_sizes = tuple(sum(1 for x in order if instance.revenue_of(x) >= level) for level in levels)
    prefixes = tuple(frozenset(order[:size]) for size in prefix_sizes)
    rows, scale = _numerator_rows(instance, prefixes), instance.model.denominator
    # Integer-scaled rows with int revenues sum ints and divide once, as the
    # exact optimum does: the same Fractions, and so the same floats.
    exact = scale is not None and all(isinstance(r, int) for r in instance.revenue)
    revenues = []
    sold = []
    for members, row in zip(prefixes, rows):
        if not exact:
            row = as_probabilities(row, scale)
        revenue = ordered_sum(p * instance.revenue_of(x) for x, p in zip(sorted(members), row))
        total = ordered_sum(row)
        if exact:
            revenue, total = Fraction(revenue, scale), Fraction(total, scale)
        revenues.append(revenue)
        sold.append(float(total))
    expected = tuple(float(value) for value in revenues)
    return RevenueLadder(order, levels, prefix_sizes, prefixes, tuple(revenues), expected, tuple(sold))


@dataclass(frozen=True)
class AssortmentSolution:
    """An offer set with its expected revenue and the method that found it."""

    assortment: frozenset[int]
    revenue: float
    method: str


@dataclass(frozen=True)
class RevenueOrderedResult:
    """Best revenue-ordered assortment plus the revenue of every candidate.

    candidates lists (threshold, revenue) pairs in increasing threshold
    order, one per distinct revenue level.
    """

    solution: AssortmentSolution
    candidates: tuple[tuple[float, float], ...]


def revenue_ordered(instance: AssortmentInstance) -> RevenueOrderedResult:
    """Keep the best threshold set of the instance's revenue ladder.

    Ties are broken toward the largest threshold, i.e. the smallest
    candidate set.
    """
    ladder = instance.ladder
    best = max(range(ladder.k), key=lambda l: (ladder.revenues[l], l), default=None)
    if best is None:
        return RevenueOrderedResult(AssortmentSolution(frozenset(), 0.0, "revenue-ordered"), ())
    return RevenueOrderedResult(
        AssortmentSolution(ladder.prefixes[best], ladder.revenues[best], "revenue-ordered"),
        tuple(zip(ladder.levels, ladder.revenues)),
    )


def brute_force_optimum(instance: AssortmentInstance) -> AssortmentSolution:
    """Exact optimum by enumerating every subset (the empty set included).

    Each offer set's revenue adds p * r in ascending product order from
    int 0, the same value as :func:`assortopt.models.evaluate_revenue`.  The
    largest revenue wins, ties going to the lexicographically smallest
    subset, so the result is deterministic; a NaN revenue never wins.
    ``GUARD`` is checked first, before the screen or any block.

    Reads the columns in blocks of at most 2^BLOCK_BITS offer sets (the low
    products 1..c, under each fixed set of the others), from
    ``instance.table`` if it has been built, else from the model, which is
    then never held whole.  Revenues add column by column (they are the
    factors of :func:`assortopt.models.column_sums`); integer-scaled
    columns with int revenues sum ints and divide once.

    An MNL model is screened instead, table or not, at O(1) work per offer
    set.  With weights w_x and outside weight w_0 the revenue of S is
    N(S) / D(S), N = sum w_x * r_x and D = w_0 + sum w_x over x in S.
    :meth:`MnlModel.screen` scores every set s = fl(N^ / D^) over the same
    blocks, where D^ is the denominator the model's columns divide by and
    N^ adds fl(w_x * float(r_x)) in ascending order from int 0.  Only the
    candidates, the sets with s >= s_max * (1 - 2 rho) - 2 alpha, get their
    revenue v^ computed, as the columns give it: p = w_x / D^, and the p * r
    added in ascending order by ``ordered_sum``, so the same float on every
    Python.  So that no sum can overflow, the scores weigh each product by
    f_x = float(r_x) * 2^-e instead of float(r_x), with e the least e >= 0
    for which 2 n max(1, max w) max f is finite; e is 0 wherever that holds
    of the revenues themselves, and scaling by a power of two is exact
    unless f_x is subnormal.  The revenue v^ stays unscaled.

    Every set that attains v* = max v^ is a candidate.  Each of v^ and s is
    N/D times at most 2n + 2 rounding factors (1 + d), |d| <= u = 2^-53, so
    its relative error is at most gamma = (2n+2)u / (1 - (2n+2)u), below
    5e-15 at n <= 20.  Measured in the scores' units (v^ times 2^-e), on top
    of that come underflow errors, multiples of eta = 2^-1074: at most
    a_v = 2.1 n eta max(1, max f) for v^ (p, float(r) and each p * r may
    underflow) and a_s = (1.1 (n + 1) / w_0 + n / 2) eta for s (each
    underflowed w_x * f_x, over D >= w_0, and each subnormal f_x, whose
    error of at most eta / 2 adds at most that to N / D as w_x <= D).  With
    q = (1 - gamma) / (1 + gamma), a set S with v^(S) = v* has
    s(S) >= q (v* - a_v) - a_s, while s_max <= (v* + a_v) / q + a_s.  So
    s(S) clears the cut once q^2 >= 1 - 2 rho, which rho >= 2 gamma gives
    (rho = SCREEN_RTOL = 1e-12, a hundred times that), and
    alpha >= 1.01 a_v + a_s, which
    alpha = (n + 1) max(1, max f, 1 / w_0) SCREEN_ATOL covers sixteen times
    (SCREEN_ATOL = 2^-1068 = 64 eta).  The cut's own roundings fall far
    inside both margins.  All tied sets, so the smallest key among them,
    and the empty set's int 0 are therefore those of the full enumeration.
    """
    n, model, revenue, scale = instance.n, instance.model, instance.revenue, instance.model.denominator
    check_guard(n, GUARD)
    if isinstance(model, MnlModel):
        return _screened_optimum(model, revenue)
    source = vars(instance).get("table", model)
    c = min(n, BLOCK_BITS)
    blocks = ((high, source.columns(c, high)) for high in range(0, 1 << n, 1 << c))
    exact = scale is not None and all(isinstance(r, int) for r in revenue)
    best_key: tuple[int, ...] = ()
    best_revenue = 0  # the empty set's, in the first block
    for high, columns in blocks:
        products = (*range(1, c + 1), *members_of(high, n))
        if scale is not None and not exact:
            columns = ([Fraction(p, scale) for p in column] for column in columns)
        values = column_sums(columns, c, [revenue[x - 1] for x in products])
        top = max(values)  # only a NaN first hides the rest from max
        if top != top:
            top = max((value for value in values if value == value), default=top)
        if not top >= best_revenue:  # an all-NaN block fails too
            continue
        tied = [values.index(top)] if values.count(top) == 1 else [m for m, value in enumerate(values) if value == top]
        key, mask = min((members_of(m | high, n), m) for m in tied)
        if top > best_revenue or key < best_key:
            best_key, best_revenue = key, values[mask]
    if exact and best_key:
        best_revenue = Fraction(best_revenue, scale)
    return AssortmentSolution(frozenset(best_key), best_revenue, "brute-force")


def _screened_optimum(model: MnlModel, revenue: Sequence) -> AssortmentSolution:
    """The MNL optimum of :func:`brute_force_optimum`, by the screen its
    docstring derives, on the revenues scaled by the least 2^-e that keeps
    every weighted sum finite."""
    n, weights, outside = model.n, model._weight_of, model._outside
    reach = 2 * n * max(1.0, max(weights))  # finite: the weights leave room for n + 1 of them
    top = max(map(float, revenue), default=0.0)
    # reach * top >= 2^(a + b - 2) for their frexp exponents a and b, so every smaller e overflows.
    e = max(0, math.frexp(reach)[1] + math.frexp(top)[1] - 1025)
    while not finite(reach * math.ldexp(top, -e)):
        e += 1
    factors = [math.ldexp(float(r), -e) for r in revenue]
    slack = 2 * (n + 1) * max(SCREEN_ATOL * max(1.0, math.ldexp(top, -e)), SCREEN_ATOL / outside)
    keep = 1 - 2 * SCREEN_RTOL
    best_score = cut = -math.inf
    candidates = []  # (score, mask, D^) of every set that might clear the final cut
    for high, partial, scores in model.screen(factors, min(n, BLOCK_BITS)):
        top = max(scores)
        if top < cut:
            continue
        if top > best_score:
            best_score, cut = top, top * keep - slack
        candidates += [(s, high | m, outside + partial[m]) for m, s in enumerate(scores) if s >= cut]
    best_key: tuple[int, ...] = ()
    best_revenue = 0  # the empty set's
    for s, mask, denom in candidates:
        if s < cut:
            continue
        members = members_of(mask, n)
        value = ordered_sum(weights[x] / denom * revenue[x - 1] for x in members)
        if value > best_revenue or (value == best_revenue and members < best_key):
            best_key, best_revenue = members, value
    return AssortmentSolution(frozenset(best_key), best_revenue, "brute-force")


@dataclass(frozen=True)
class BoundReport:
    """The three lower bounds on the revenue-ordered approximation ratio.

    At k = 0 (an empty catalogue) no level loses any revenue, so bounds
    A and B are 1.0 and lambda_tilde is 0.0.

    bound_a: 1/k for k distinct revenue levels.
    bound_b_exact: 1 / sum_i (r_i - r_{i-1}) / r_i, with r_0 = 0; a
        ``Fraction`` when the levels are.
    bound_b_log: 1 / (1 + ln rho), rho = r_k / r_1; never above bound_b_exact.
    bound_c_*: analogous bounds from the purchase masses N_i inside a
        supplied optimal assortment; None when no optimum was supplied or
        nothing sells in it.
    nu: N_1 / N_ell.
    lambda_tilde: purchase probability when offering only the top-revenue
        products; on instances with an optimum supplied, nu <= 1/lambda_tilde.
    n_masses: the N_i themselves (diagnostics), None without an optimum.
    """

    n_levels: int
    bound_a: float
    bound_b_exact: float | Fraction
    bound_b_log: float
    lambda_tilde: float
    bound_c_exact: float | None = None
    bound_c_log: float | None = None
    nu: float | None = None
    ell: int | None = None
    n_masses: tuple[float, ...] | None = None


def _bound_c(instance: AssortmentInstance, optimal: AssortmentSolution) -> dict:
    """The BoundReport fields of the purchase-mass bound w.r.t. an optimal
    assortment; none if nothing sells."""
    levels = instance.levels
    k = len(levels)
    S = optimal.assortment
    probs = dict(zip(sorted(S), _choice_rows(instance, [S])[0]))
    masses = []
    for level in levels:
        masses.append(float(ordered_sum(p for x, p in probs.items() if instance.revenue_of(x) >= level)))
    if not masses or masses[0] <= 0:
        return {}
    ell = max(i + 1 for i in range(k) if masses[i] > 0)
    padded = masses + [0.0]
    total = ordered_sum((padded[i] - padded[i + 1]) / padded[i] for i in range(ell))
    nu = masses[0] / masses[ell - 1]
    return dict(
        bound_c_exact=1.0 / total,
        bound_c_log=1.0 / (1.0 + math.log(nu)),
        nu=nu,
        ell=ell,
        n_masses=tuple(masses),
    )


def _log(level) -> float:
    """ln of a positive revenue; a ``Fraction`` as ln(numerator) -
    ln(denominator), which holds below the float range, where its float is 0."""
    if isinstance(level, Fraction):
        return math.log(level.numerator) - math.log(level.denominator)
    return math.log(level)


def compute_bounds(instance: AssortmentInstance, optimal: AssortmentSolution | None = None) -> BoundReport:
    """Compute the approximation-ratio bounds for an instance.

    The purchase-mass bound needs an optimal assortment; its fields stay
    None when none is supplied or when nothing sells in it.
    """
    levels = instance.levels
    k = len(levels)
    if k == 0:
        return BoundReport(n_levels=0, bound_a=1.0, bound_b_exact=1.0, bound_b_log=1.0, lambda_tilde=0.0)
    # Both start at int 0, so exact levels (below the float range too) sum
    # exactly, and float levels to the floats a 0.0 start gives.
    ratio_sum = previous = 0
    for level in levels:
        ratio_sum += (level - previous) / level
        previous = level
    rho = levels[-1] / levels[0]
    # A spread too wide for one float quotient still has a finite logarithm.
    log_rho = math.log(rho) if finite(rho) else _log(levels[-1]) - _log(levels[0])
    lambda_tilde = instance.ladder.purchase_probability[-1]
    report = BoundReport(
        n_levels=k,
        bound_a=1.0 / k,
        bound_b_exact=1 / ratio_sum,
        bound_b_log=1.0 / (1.0 + log_rho),
        lambda_tilde=lambda_tilde,
    )
    return report if optimal is None else replace(report, **_bound_c(instance, optimal))


def check_technical_bound(instance: AssortmentInstance, optimal: AssortmentSolution) -> bool:
    """revenue(S_i) >= r_i * sum_{x in S* and S_i} P(x, S*), for every level i.

    The workhorse inequality behind all three guarantees; exposed so it can
    be verified on its own.
    """
    S_star = optimal.assortment
    probs = dict(zip(sorted(S_star), _choice_rows(instance, [S_star])[0]))
    ladder = instance.ladder
    for level, S_i, lhs in zip(ladder.levels, ladder.prefixes, ladder.revenues):
        rhs = level * ordered_sum(p for x, p in probs.items() if x in S_i)
        if lhs < rhs - RTOL * max(1.0, abs(rhs)):
            return False
    return True


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of checking the revenue-ordered guarantees on one instance."""

    passed: bool
    ratio: float
    optimum: AssortmentSolution
    heuristic: AssortmentSolution
    bounds: BoundReport
    failures: tuple[str, ...]


def verify_guarantee(instance: AssortmentInstance) -> GuaranteeReport:
    """Assert revord >= bound * OPT for every applicable bound.

    The guarantees are only claimed for regular models, so a failed
    regularity check raises RegularityViolation.  The realized ratio
    revord/OPT is reported (1.0 when the optimum revenue is zero).
    """
    report = instance.axioms
    if not report.regularity.passed:
        raise RegularityViolation(
            f"model violates regularity at witness {report.regularity.witness}",
            witness=report.regularity.witness,
        )
    optimum = brute_force_optimum(instance)
    heuristic = revenue_ordered(instance).solution
    bounds = compute_bounds(instance, optimal=optimum)
    opt_value = float(optimum.revenue)
    heuristic_value = float(heuristic.revenue)
    applicable = [("A", bounds.bound_a), ("B", float(bounds.bound_b_exact))]
    if bounds.bound_c_exact is not None:
        applicable.append(("C", bounds.bound_c_exact))
    failures = tuple(
        f"bound {name}: revord {heuristic_value} < {factor} * OPT {opt_value}"
        for name, factor in applicable
        if heuristic_value < factor * opt_value * (1.0 - RTOL)
    )
    ratio = heuristic_value / opt_value if opt_value > 0 else 1.0
    return GuaranteeReport(not failures, ratio, optimum, heuristic, bounds, failures)


def generate_tight_instance(k: int = 3, epsilon: float = 0.1) -> AssortmentInstance:
    """Worst-case instance: the ratio OPT/revord approaches k as epsilon -> 0.

    Pair (i, j) earns epsilon^{-j}, so the distinct revenue levels are
    exactly epsilon^{-1} .. epsilon^{-k}.
    """
    model = TightExampleModel(k, epsilon)
    revenue = [(1.0 / model.epsilon) ** j for (_, j) in model.pairs]
    return AssortmentInstance(model, revenue)
