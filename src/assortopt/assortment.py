"""Revenue-ordered assortments, the exact oracle, and approximation bounds.

An assortment instance pairs a choice model with a positive revenue per
product.  The revenue-ordered strategy evaluates one candidate set per
distinct revenue level (all products priced at least that level) and keeps
the best.  Three lower bounds relate that value to the true optimum: one in
the number of distinct revenues, one in the spread of revenues, and one in
the distribution of purchases inside an optimal assortment.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .axioms import AxiomReport, _check_axioms
from .errors import NonPositiveRevenue, RegularityViolation
from .models import (
    GUARD,
    ChoiceModel,
    MixedMnlModel,
    MnlModel,
    TabularModel,
    TightExampleModel,
    as_probabilities,
    check_guard,
    column_sums,
    finite,
    members_of,
    ordered_sum,
    subset_sums,
)

# Offer sets per block of the exact optimum, screened or read from columns: 2^12 of them.
BLOCK_BITS = 12

# The screen's cut (see brute_force_optimum): a relative slack rho = m *
# SCREEN_RTOL for m = 2n + K + 2 rounding factors, and an absolute one
# alpha = (n + 1) * (K + 1) * (max(1, max f) + sum_k 1 / w_k0) * SCREEN_ATOL.
SCREEN_RTOL = 2.0**-46
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


@dataclass(frozen=True)
class RevenueLadder:
    """The per-threshold offer sets and their one-period statistics.

    levels are the distinct revenues r_1 < ... < r_k; prefix l contains the
    products priced at least r_l, so larger indices mean smaller sets.
    revenues[l-1] is the exact one-period revenue of offering prefix l,
    expected_revenue[l-1] that revenue as a float, and
    purchase_probability[l-1] the float sale probability of prefix l.
    lines[l-1] pairs those two floats: prefix l scores R_l + P_l * delta
    when every revenue is shifted by delta.
    """

    levels: tuple
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
    def shift_floor(self) -> float:
        """-RTOL max(1, r_k): the least value the top revenue may take after a
        shift.  ``lstar_delta`` checks a shift that is not a float of
        ``shift_interval`` against it.  Needs a level."""
        return -RTOL * max(1.0, self.levels[-1])

    @cached_property
    def shift_interval(self) -> tuple[float, float]:
        """A closed interval [low, high] of float shifts delta that all pass
        ``lstar_delta``'s range check: delta finite and r_k + delta >=
        ``shift_floor``, evaluated as the check writes it.  Whatever the type
        of r_k, that sum is the float sum float(r_k) + delta, monotone in
        delta, so once low passes every float up to high, the largest finite
        float, passes too.  low is the first passing float at or above
        shift_floor - float(r_k), the boundary rounded to nearest; a float
        below low that passed would only take the full check.  An empty
        catalogue's interval, (inf, -inf), holds no float."""
        if not self.levels:
            return math.inf, -math.inf
        top, floor = self.levels[-1], self.shift_floor
        low = floor - float(top)  # -inf when it overflows, which fails
        while not top + low >= floor:
            low = math.nextafter(low, math.inf)
        return low, sys.float_info.max

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
    levels = instance.levels
    prefixes = tuple(frozenset(x for x, r in enumerate(instance.revenue, start=1) if r >= level) for level in levels)
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
    return RevenueLadder(levels, prefixes, tuple(revenues), expected, tuple(sold))


@dataclass(frozen=True)
class AssortmentSolution:
    """An offer set with its expected revenue."""

    assortment: frozenset[int]
    revenue: float


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
        return RevenueOrderedResult(AssortmentSolution(frozenset(), 0.0), ())
    return RevenueOrderedResult(
        AssortmentSolution(ladder.prefixes[best], ladder.revenues[best]),
        tuple(zip(ladder.levels, ladder.revenues)),
    )


def brute_force_optimum(instance: AssortmentInstance) -> AssortmentSolution:
    """Exact optimum by enumerating every subset (the empty set included).

    Each offer set's revenue is the ``ordered_sum`` of p * r in ascending
    product order, as ``column_sums`` adds it with revenues as factors.  The
    largest revenue wins, ties going to the lexicographically smallest
    subset, so the result is deterministic; a NaN revenue never wins.
    ``GUARD`` is checked first, before the screen or any block.

    Offer sets come in blocks of at most 2^BLOCK_BITS (the low products
    1..c, under each fixed set ``high`` of the others), each block as a list
    of scores.  A block's candidates are its sets whose score is at least
    keep * (the best score so far) - slack; each gets its revenue at once,
    and the best revenue so far, with its key, is kept.  The cut only rises,
    so every set that clears the final cut is evaluated; the blocks of the
    screen below come best first, and are skipped once they cannot reach
    the cut.

    A model other than MNL is read from its columns, from ``instance.table``
    if it has been built, else from the model, which is then never held
    whole.  A set's score is its revenue, added column by column (the
    revenues are the factors of :func:`assortopt.models.column_sums`;
    integer-scaled columns with int revenues sum ints and divide once), and
    keep = 1 and slack = 0, so the candidates tie at the best revenue.

    An MNL model, or a mixture of K MNL classes, is screened instead, table
    or not, at O(K) work per offer set; MNL is the mixture of one class of
    weight 1.0.  Class k has weights w_kx, outside weight w_k0 and mixture
    weight a_k, and the revenue of S is V(S) = sum_k a_k N_k(S) / D_k(S),
    with N_k = sum w_kx r_x and D_k = w_k0 + sum w_kx over x in S.  Each
    class's sums of w_kx and of a_k * (w_kx * f_x) over every mask L of the
    products 1..c are built once (``subset_sums``).  A block adds to them
    the sums over its products in high, so it scores every set in one
    comprehension per class, s = sum_k (N_k[L] + N_k(high)) / (D_k[L] +
    (w_k0 + D_k(high))), and a / (w_k0 + d) in the first block.  The cut is
    s_max (1 - 2 rho) - 2 alpha, and a candidate's revenue v^ is computed as
    the columns give it, through ``_choice_row``: D^ = w_k0 + the
    ``ordered_sum`` of the members' weights, p_kx = w_kx / D^, P_x the
    a_k * p_kx added in class order from int 0, and the P_x * r_x added in
    ascending order by ``ordered_sum``, so the same float on every Python.
    So that no sum can overflow, the scores weigh each product by
    f_x = float(r_x) * 2^-e instead of float(r_x), with e = max(0, a + b -
    1023) for the ``frexp`` exponents a of 2 n max(1, max w) and b of
    max float(r), so that 2 n max(1, max w) max f < 2^1023 is finite; e is
    0 wherever 2 n max(1, max w) max r < 2^1022, and scaling by a power of
    two is exact unless f_x is subnormal.  The revenue v^ stays unscaled.

    Every set that attains v* = max v^ is a candidate.  Every term is
    nonnegative, so each of v^ and s is V times at most m = 2n + K + 2
    rounding factors (1 + d), |d| <= u = 2^-53, per term.  For v^ these are
    |S| for D^, one each for p, a_k p, float(r) and P r, K - 1 for the sum
    over classes and |S| - 1 for the sum over products; for s, one each for
    float(r), w f and a_k (w f), |S| - 1 for N, |S| for D, one for the
    quotient and K - 1 for the sum over classes.  So the relative error of
    each is at most gamma = m u / (1 - m u).  Measured in the scores' units
    (v^ times 2^-e), on top of that come underflow errors, multiples of
    eta = 2^-1074: at most a_v = 1.02 n (K + 1) eta M for v^, with
    M = max(1, max f) (p and a_k p may underflow in each class, and
    float(r) and P r once per product), and a_s = 1.03 eta (n sum_k 1 / w_k0
    + (n + K) / 2) for s (each underflowed w f and a_k (w f), over
    D_k >= w_k0, each subnormal f_x, whose error of at most eta / 2 adds at
    most a_k eta / 2 to N_k / D_k as w_kx <= D_k, and each quotient).  With
    q = (1 - gamma) / (1 + gamma), a set S with v^(S) = v* has
    s(S) >= q (v* - a_v) - a_s, while s_max <= (v* + a_v) / q + a_s.  So
    s(S) clears the cut once q^2 >= 1 - 2 rho, which rho >= 2 gamma gives,
    and alpha >= 1.01 a_v + a_s.  rho = m SCREEN_RTOL = 128 m u is at
    least 2 gamma while m u <= 63/64, so for every K; a fixed rho of 1e-12,
    as MNL once had, would cover 2 gamma only while m <= 4503, which at
    n = GUARD is K <= 4459.  And alpha = (n + 1) (K + 1) (M + sum_k 1 /
    w_k0) SCREEN_ATOL covers 1.01 a_v + a_s forty times (SCREEN_ATOL =
    2^-1068 = 64 eta).  The cut's own roundings fall far inside both
    margins.  All tied sets, so the smallest key among them, and the empty
    set's int 0 are therefore those of the full enumeration.

    With more than one block, each block is bounded before it is scored,
    and the blocks are scored in descending order of the bound U, ties by
    high ascending.  For class k, let A_k and D_k be the sums a block's
    scores add over its products in high (a_k (w_kx f_x), and w_k0 plus
    w_kx), and order the products 1..c of positive weight by the exact
    ratio n_kx / w_kx of their floats n_kx = a_k (w_kx f_x) and w_kx, the
    largest first (a product of weight 0.0 has n_kx = 0.0 and changes no
    score).  For nonnegative numbers with D > 0, (A + sum_L n_x) / (D +
    sum_L w_x) is largest over all L at a prefix of that order: at its
    maximum lambda, the set of the x with n_x > lambda w_x, a prefix, also
    maximises A - lambda D + sum_L (n_x - lambda w_x), which is 0 there, so
    its own ratio is lambda (the threshold lemma of fractional
    programming).  So U_k, the largest of the c + 1 prefix ratios, empty
    prefix included, is at least the exact class-k term of every set of
    the block, and U = sum_k U_k at least the exact sum of its terms, a sum
    of maxima being at least the maximum of the sum.  A prefix ratio is
    computed as (A_k + P_j) / (D_k + Q_j) from the float sums P_j and Q_j
    of its first j n_kx and w_kx, added from int 0: 2j + 1 rounding
    factors, and K - 1 for the sum over classes, at most m, as for s; and
    each quotient of a prefix ratio or of s may underflow by eta / 2.  So
    every score of the block is at most U (1 + gamma) / (1 - gamma) +
    1.01 K eta, which the ceiling U (1 + 2 rho) + 2 alpha exceeds:
    (1 + gamma) / (1 - gamma) = 1 + 2 m u / (1 - 2 m u) is at most
    1 + 4 m u while m u <= 1/4, far below 1 + 2 rho = 1 + 256 m u even
    after the ceiling's own two roundings, and 2 alpha >= 128 (K + 1) eta.
    The first block whose ceiling is below the cut is skipped with every
    block after it, as rounding keeps their ceilings no larger and the cut
    only rises; none of their scores reaches the cut, so none of their sets
    clears the final cut.  The winner is the largest v^ of the evaluated
    sets, the smallest key among ties, and every set with v^ = v* clears
    every cut and is evaluated, so neither the order of the blocks nor the
    skipping changes the set or the float.  With one block (n <= c) no
    bound is computed.
    """
    n, model, revenue, scale = instance.n, instance.model, instance.revenue, instance.model.denominator
    check_guard(n, GUARD)
    c = min(n, BLOCK_BITS)
    exact = scale is not None and all(isinstance(r, int) for r in revenue)
    screened = isinstance(model, (MnlModel, MixedMnlModel))
    source = vars(instance).get("table", model)
    blocks, score, keep, slack = _screen(model, revenue, c) if screened else _revenue_blocks(source, revenue, c, exact)
    best_key: tuple[int, ...] = ()
    best_revenue = 0  # the empty set's
    cut = -math.inf
    for high, ceiling in blocks:
        if ceiling < cut:  # and so is every later block's ceiling
            break
        scores = score(high)
        top = max(scores)  # only a NaN first hides the rest from max
        if top != top:
            top = max((s for s in scores if s == s), default=top)
        if not top >= cut:  # an all-NaN block fails too
            continue
        cut = max(cut, top * keep - slack)
        for m in [m for m, s in enumerate(scores) if s >= cut]:
            members = members_of(high | m, n)
            value = scores[m] if not screened else ordered_sum(  # as column_sums adds it
                p * revenue[x - 1] for x, p in zip(members, model._choice_row(members)))
            if value > best_revenue or (value == best_revenue and members < best_key):
                best_key, best_revenue = members, value
    if exact and best_key:
        best_revenue = Fraction(best_revenue, scale)
    return AssortmentSolution(frozenset(best_key), best_revenue)


def _revenue_blocks(source: ChoiceModel, revenue: Sequence, c: int, exact: bool) -> tuple[list, Callable, int, int]:
    """(blocks, score, 1, 0) of the column path: blocks lists (high, inf)
    for every mask high of the products above c, in ascending order, and
    score(high) is the revenue of L | high for every mask L of the products
    1..c, summed from ``source.columns``: a declared denominator's
    numerators are kept when ``exact`` and read as ``Fraction``s otherwise."""
    n, scale = source.n, source.denominator

    def score(high):
        columns = source.columns(c, high)
        if scale is not None and not exact:
            columns = ([Fraction(p, scale) for p in column] for column in columns)
        return column_sums(columns, c, [revenue[x - 1] for x in (*range(1, c + 1), *members_of(high, n))])

    return [(high, math.inf) for high in range(0, 1 << n, 1 << c)], score, 1, 0


def _screen(model: MnlModel | MixedMnlModel, revenue: Sequence, c: int) -> tuple[list, Callable, float, float]:
    """(blocks, score, keep, slack) of the screen :func:`brute_force_optimum`
    derives, on the revenues scaled by 2^-e: score(high) is the score of
    L | high for every mask L of the products 1..c; blocks lists (high, a
    ceiling on its block's scores) for every mask high of the others, in
    descending order of the bound U(high), ties by high, or (0, inf) alone
    if there is one block; and a set whose score is below keep * the best
    score so far - slack cannot be optimal."""
    classes = tuple(zip(model._weights, model._models)) if isinstance(model, MixedMnlModel) else ((1.0, model),)
    n, k = len(revenue), len(classes)
    reach = 2 * n * max(1.0, *(max(mnl._weight_of) for _, mnl in classes))  # finite: n + 1 weights sum
    top = max(map(float, revenue), default=0.0)
    # reach * top < 2^(a + b) for their frexp exponents a and b, so this e leaves it below 2^1023.
    e = max(0, math.frexp(reach)[1] + math.frexp(top)[1] - 1023)
    factors = [math.ldexp(float(r), -e) for r in revenue]
    # Per class: the sums of a_k (w_kx f_x) and of w_kx over every mask of
    # 1..c; A_k and D_k, the sums of a_k (w_kx f_x) and of w_kx plus w_k0 over
    # every mask of the others, which a block's bound and its scores share;
    # and, if there is more than one block, the sums of both over each prefix
    # of the low products of positive weight in descending order of their
    # exact ratio, the empty prefix first.
    sums = []
    for weight, mnl in classes:
        weights = mnl._weight_of[1:]
        numerators = [weight * (w * f) for w, f in zip(weights, factors)]
        ladder = sorted(((Fraction(a) / Fraction(w), a, w) for a, w in zip(numerators[:c], weights) if w), reverse=True) if n > c else []
        sums.append((subset_sums(numerators, c), subset_sums(weights, c), subset_sums(numerators[c:], n - c),
                     [mnl._outside + d for d in subset_sums(weights[c:], n - c)],
                     list(zip(itertools.accumulate((a for _, a, _ in ladder), initial=0),
                              itertools.accumulate((w for _, _, w in ladder), initial=0)))))
    atol = ordered_sum(SCREEN_ATOL / mnl._outside for _, mnl in classes) + SCREEN_ATOL * max(1.0, math.ldexp(top, -e))
    keep, slack = 1 - 2 * (2 * n + k + 2) * SCREEN_RTOL, 2 * (n + 1) * (k + 1) * atol

    def score(high):
        scores, h = None, high >> c
        for low_numerators, low_weights, high_numerators, high_weights, _ in sums:
            a0, d0 = high_numerators[h], high_weights[h]
            if high:
                scores = ([(a + a0) / (d + d0) for a, d in zip(low_numerators, low_weights)] if scores is None else
                          [s + (a + a0) / (d + d0) for s, a, d in zip(scores, low_numerators, low_weights)])
            else:
                scores = ([a / (d0 + d) for a, d in zip(low_numerators, low_weights)] if scores is None else
                          [s + a / (d0 + d) for s, a, d in zip(scores, low_numerators, low_weights)])
        return scores

    if n == c:
        return [(0, math.inf)], score, keep, slack
    bounds = itertools.repeat(0)  # U of every block: per class its largest prefix ratio, added in class order
    for _, _, high_numerators, high_weights, prefixes in sums:
        ratios = [[(a0 + a) / (d0 + d) for a0, d0 in zip(high_numerators, high_weights)] for a, d in prefixes]
        bounds = [u + max(column) for u, column in zip(bounds, zip(*ratios))]
    order = sorted(range(len(bounds)), key=lambda h: (-bounds[h], h))
    return [(h << c, bounds[h] * (2 - keep) + slack) for h in order], score, keep, slack


@dataclass(frozen=True)
class BoundReport:
    """The three lower bounds on the revenue-ordered approximation ratio.

    At k = 0 (an empty catalogue) no level loses any revenue, so bounds
    A and B are 1.0.

    bound_a: 1/k for k distinct revenue levels.
    bound_b_exact: 1 / sum_i (r_i - r_{i-1}) / r_i, with r_0 = 0; a
        ``Fraction`` when every level is an int or a ``Fraction``.
    bound_b_log: 1 / (1 + ln rho), rho = r_k / r_1; never above bound_b_exact.
    bound_c_*: analogous bounds from the purchase masses N_i inside a
        supplied optimal assortment; None when no optimum was supplied or
        nothing sells in it.  bound_c_exact is a ``Fraction`` when the
        model declares a denominator (its rows are exact).
    nu: N_1 / N_ell, for the last level ell at which N_ell > 0.
    n_masses: the N_i themselves (diagnostics), None without an optimum.
    """

    n_levels: int
    bound_a: float
    bound_b_exact: float | Fraction
    bound_b_log: float
    bound_c_exact: float | Fraction | None = None
    bound_c_log: float | None = None
    nu: float | None = None
    n_masses: tuple[float, ...] | None = None


def _bound_c(instance: AssortmentInstance, optimal: AssortmentSolution) -> dict:
    """The BoundReport fields of the purchase-mass bound w.r.t. an optimal
    assortment; none if nothing sells.  On an exact row (int numerators over
    the model's denominator) the masses and the bound's terms are summed as
    ``Fraction``s, so bound_c_exact is one; the reported masses, nu and
    bound_c_log are floats either way."""
    S = optimal.assortment
    scale = instance.model.denominator
    row = dict(zip(sorted(S), _numerator_rows(instance, [S])[0]))
    sums = [ordered_sum(p for x, p in row.items() if instance.revenue_of(x) >= level) for level in instance.levels]
    if scale is not None:
        sums = [Fraction(total, scale) for total in sums]
    masses = [float(total) for total in sums]
    if not masses or masses[0] <= 0:
        return {}
    ell = max(i + 1 for i, mass in enumerate(masses) if mass > 0)
    padded = (masses if scale is None else sums) + [0]
    total = ordered_sum((padded[i] - padded[i + 1]) / padded[i] for i in range(ell))
    nu = masses[0] / masses[ell - 1]
    return dict(
        bound_c_exact=1 / total,
        bound_c_log=1.0 / (1.0 + math.log(nu)),
        nu=nu,
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
        return BoundReport(n_levels=0, bound_a=1.0, bound_b_exact=1.0, bound_b_log=1.0)
    # Both start at int 0.  Int and Fraction levels (below the float range
    # too) sum exact Fractions; a level set with a float in it sums as the
    # floats a 0.0 start gives.
    exact = all(isinstance(level, (int, Fraction)) for level in levels)
    ratio_sum = previous = 0
    for level in levels:
        ratio_sum += (Fraction(level - previous) if exact else level - previous) / level
        previous = level
    rho = levels[-1] / levels[0]
    # A spread too wide for one float quotient still has a finite logarithm.
    log_rho = math.log(rho) if finite(rho) else _log(levels[-1]) - _log(levels[0])
    report = BoundReport(
        n_levels=k,
        bound_a=1.0 / k,
        bound_b_exact=1 / ratio_sum,
        bound_b_log=1.0 / (1.0 + log_rho),
    )
    return report if optimal is None else replace(report, **_bound_c(instance, optimal))


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
        applicable.append(("C", float(bounds.bound_c_exact)))
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
