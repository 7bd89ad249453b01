"""Exhaustive checkers for the behavioural axioms of a choice model.

Every checker reads an :class:`OfferTable`, the model read once through
:func:`assortopt.models.offer_rows`: its rows in canonical order and the
purchase probability sold(S) = sum_{x in S} P(x, S) indexed by bitmask.  A
checker takes a model, tabulated afresh, or a table such as the cached
``AssortmentInstance.table``.  Conditions over all 3^n pairs S subset of S'
are decided with superset transforms on that table (the max form of the
fast zeta transform on the subset lattice; Yates 1937, Bjorklund, Husfeldt,
Kaski and Koivisto, STOC 2007): n sweeps of 2^n elements give max (or min)
over S' superset of S for every S at once, so a check costs O(n^2 2^n)
instead of O(n 3^n).

Rounded subtraction and addition are monotone, so the extreme value over the
supersets of S decides the same comparison as the worst single pair, for
floats and for exact fractions alike.  The transform therefore finds the
first violating S in the canonical order of
:func:`assortopt.models.enumerate_subsets`; only the supersets of that S are
then scanned pair by pair, in the order of the full pair scan, to report the
same witness and gap it would.  Probabilities are compared with an absolute
tolerance of 1e-9; strict violations beyond tolerance fail.

Exact tables hold each entry p as the int p * D and 1 as D: a model that
declares its denominator D (the pricing reductions do) emits those ints;
a table of int and Fraction entries, at least one a Fraction, is scaled by
the lcm D of its denominators.  A test v > t on the table's values becomes
the int test v * D > floor(t * D), which is exact for every D, and each
reported gap is converted back, so verdicts, witnesses and gaps are those of
the Fraction arithmetic at a fraction of its cost.  Float tables are not
scaled.

unavailable_zero holds by construction for every model that keeps
:meth:`ChoiceModel.evaluate`, which returns 0.0 for an unoffered product;
only a model that overrides ``evaluate`` is scanned over all (x, S) with x
not in S.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .models import ChoiceModel, offer_rows

ATOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single check: a verdict, an optional witness, and the
    largest violation magnitude seen (0.0 on a pass)."""

    passed: bool
    witness: tuple | None = None
    gap: float = 0.0

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for a choice model.

    nonnegativity: P(x, S) >= 0 everywhere.
    unavailable_zero: P(x, S) = 0 whenever x is not offered.
    substochastic: sum_{x in S} P(x, S) <= 1 for every S.
    regularity: P(x, S) >= P(x, S') whenever S is a subset of S', for every
        x in S union {0}.
    """

    nonnegativity: CheckResult
    unavailable_zero: CheckResult
    substochastic: CheckResult
    regularity: CheckResult

    @property
    def passed(self) -> bool:
        return (
            self.nonnegativity.passed
            and self.unavailable_zero.passed
            and self.substochastic.passed
            and self.regularity.passed
        )


@dataclass(frozen=True, eq=False, repr=False)
class OfferTable:
    """A model read once: (S, mask, row) for every offer set in canonical
    order, as offer_rows yields them, sold[mask] = sum(row), and the scale D
    of an integer-scaled table (None for plain values)."""

    model: ChoiceModel
    n: int
    rows: list
    sold: list
    scale: int | None


def offer_table(model: ChoiceModel, guard: int = 20) -> OfferTable:
    """Tabulate a model over every offer set, integer-scaled if it is exact."""
    rows = list(offer_rows(model, guard))
    scale = model.denominator
    kinds = set() if scale is not None else set(map(type, itertools.chain.from_iterable(row for _, _, row in rows)))
    if any(issubclass(t, Fraction) for t in kinds) and all(issubclass(t, (int, Fraction)) for t in kinds):
        denominators = {p.denominator for _, _, row in rows for p in row}
        scale = math.lcm(*denominators)
        factors = {d: scale // d for d in denominators}
        rows = [(S, mask, tuple(p.numerator * factors[p.denominator] for p in row)) for S, mask, row in rows]
    sold = [0] * (1 << model.n)
    for _, mask, row in rows:
        sold[mask] = sum(row)
    return OfferTable(model, model.n, rows, sold, scale)


def _threshold(value: float, scale: int | None):
    """value on the table's scale: itself for an unscaled table, else
    floor(value * D), so that v > threshold is exact for every int v."""
    return value if scale is None else math.floor(Fraction(value) * scale)


def _magnitude(value, scale: int | None) -> float:
    """A table value (or difference) as the float a report carries."""
    return float(value) if scale is None else float(Fraction(value, scale))


def _superset_extreme(values: list, n: int, pick) -> list:
    """out[mask] = pick over all supersets of mask, for pick in (max, min).

    Each sweep combines every mask whose lowest index bit is clear with its
    partner, then rotates the index bits right by one, so after n sweeps
    every bit has been processed and the indices are back in place.
    """
    for _ in range(n):
        low, high = values[0::2], values[1::2]
        values = list(map(pick, low, high)) + high
    return values


def _first_flagged(rows, flagged):
    """The first row in canonical order whose mask is flagged, or None."""
    return next((entry for entry in rows if flagged[entry[1]]), None)


def _supersets(subset: tuple[int, ...], mask: int, n: int):
    """Yield (mask', S') for every S' superset of S, in the pair scan's order:
    S grown by the subsets of its complement, by size then lexicographic."""
    rest = [x for x in range(1, n + 1) if not mask >> (x - 1) & 1]
    members = frozenset(subset)
    for extra in itertools.chain.from_iterable(itertools.combinations(rest, size) for size in range(len(rest) + 1)):
        yield mask | sum(1 << (x - 1) for x in extra), members | frozenset(extra)


def check_axioms(model: "ChoiceModel | OfferTable", guard: int = 20, atol: float = ATOL) -> AxiomReport:
    """Verify the four axioms of a regular discrete choice model.

    Takes the model, or its :class:`OfferTable`.  Witnesses are (x, S) for
    nonnegativity and availability, (S,) for the at-most-one-purchase axiom,
    and (x, S, S') for regularity.
    """
    table = model if isinstance(model, OfferTable) else offer_table(model, guard)
    model, n, rows, sold, scale = table.model, table.n, table.rows, table.sold, table.scale
    one, tol = scale or 1, _threshold(atol, scale)

    # Rounded 1 - s falls as s grows, so the least no-purchase share is
    # one - max(sold); the row-by-row scan runs only if some entry fails
    # (or the least entry is NaN, which min cannot look past).
    nonnegativity = CheckResult(True)
    least_entry = min(itertools.chain.from_iterable(map(operator.itemgetter(2), rows)), default=0)
    if not least_entry >= -tol or one - max(sold) < -tol:
        entries = ((x, p, subset) for subset, mask, row in rows for x, p in (*zip(subset, row), (0, one - sold[mask])))
        negative = next((entry for entry in entries if entry[1] < -tol), None)
        if negative is not None:
            x, p, subset = negative
            nonnegativity = CheckResult(False, (x, frozenset(subset)), _magnitude(-p, scale))

    # ChoiceModel.evaluate returns 0.0 for an unoffered product, so only a
    # model that overrides evaluate can fail this check.
    unavailable_zero = CheckResult(True)
    if type(model).evaluate is not ChoiceModel.evaluate:
        unoffered = ((x, frozenset(S)) for S, mask, _ in rows for x in range(1, n + 1) if not mask >> (x - 1) & 1)
        leak = next(((x, S, p) for x, S in unoffered if abs(p := model.evaluate(x, S)) > atol), None)
        if leak is not None:
            unavailable_zero = CheckResult(False, leak[:2], float(abs(leak[2])))

    substochastic = CheckResult(True)
    cap = _threshold(1 + atol, scale)
    if max(sold) > cap:
        subset, mask, _ = _first_flagged(rows, [total > cap for total in sold])
        substochastic = CheckResult(False, (frozenset(subset),), _magnitude(sold[mask] - one, scale))

    # Regularity: S violates iff some x in S has max_{S'} P(x, S') - P(x, S)
    # beyond tolerance, or the no-purchase share rises at min_{S'} sold(S').
    # Every superset of a set holding x holds x, so P(x, .) is transformed
    # over the 2^(n-1) masks with bit x set only, with bit x removed.
    size = len(sold)
    columns = [[0] * size for _ in range(n)]
    for subset, mask, row in rows:
        for x, p in zip(subset, row):
            columns[x - 1][mask] = p
    flagged = [False] * size
    for x, column in enumerate(columns, start=1):
        width = 1 << (x - 1)
        blocks = map(slice, range(width, size, 2 * width), range(2 * width, size + 1, 2 * width))
        held = list(itertools.chain.from_iterable(map(column.__getitem__, blocks)))
        rises = list(map(operator.sub, _superset_extreme(held, n - 1, max), held))
        if not max(rises, default=0) <= tol:  # a NaN first would hide the rest from max
            for c, rise in enumerate(rises):
                if rise > tol:
                    flagged[(c >> (x - 1) << x) | width | (c & (width - 1))] = True
    for mask, (low, total) in enumerate(zip(_superset_extreme(sold, n, min), sold)):
        if (one - low) - (one - total) > tol:
            flagged[mask] = True

    regularity = CheckResult(True)
    first = _first_flagged(rows, flagged)
    if first is not None:
        subset, mask, row = first

        def drops():
            for larger_mask, larger in _supersets(subset, mask, n):
                for x, p in zip(subset, row):
                    yield x, larger, columns[x - 1][larger_mask] - p
                yield 0, larger, (one - sold[larger_mask]) - (one - sold[mask])

        x, larger, drop = next(found for found in drops() if found[2] > tol)
        regularity = CheckResult(False, (x, frozenset(subset), larger), _magnitude(drop, scale))

    return AxiomReport(nonnegativity, unavailable_zero, substochastic, regularity)


def check_purchase_monotonicity(model: "ChoiceModel | OfferTable", guard: int = 20, atol: float = ATOL) -> CheckResult:
    """Check that the purchase probability never drops when the offer grows.

    Takes the model or its table.  The witness on failure is the pair
    (S, S').  Regular models always pass.
    """
    table = model if isinstance(model, OfferTable) else offer_table(model, guard)
    n, rows, sold, scale = table.n, table.rows, table.sold, table.scale
    tol = _threshold(atol, scale)
    least = _superset_extreme(sold, n, min)
    flagged = [total > low + tol for total, low in zip(sold, least)]
    first = _first_flagged(rows, flagged)
    if first is None:
        return CheckResult(True)
    subset, mask, _ = first
    drops = ((at, larger) for at, larger in _supersets(subset, mask, n) if sold[mask] > sold[at] + tol)
    larger_mask, larger = next(drops)
    return CheckResult(False, (frozenset(subset), larger), _magnitude(sold[mask] - sold[larger_mask], scale))


def check_demand_submodularity(model: "ChoiceModel | OfferTable", guard: int = 20, atol: float = ATOL) -> CheckResult:
    """Check submodularity of the demand f(S) = sum_{x in S} P(x, S).

    Takes the model or its table.  Over every pair S subset of S' and every
    product x, reports the maximal violation of f(S' + x) - f(S') <= f(S + x)
    - f(S) as the gap, witnessed by the first (S, S', x) attaining it in the
    order S, then S', then x.  Random-utility models pass; regularity alone
    does not imply a pass.
    """
    table = model if isinstance(model, OfferTable) else offer_table(model, guard)
    n, rows, sold, scale = table.n, table.rows, table.sold, table.scale

    # worst is kept exact; flagged marks the offer sets S whose gap reaches it.
    worst = 0
    flagged = [False] * len(sold)
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        gains = [sold[mask | bit] - sold[mask] for mask in range(len(sold))]
        gaps = list(map(operator.sub, _superset_extreme(gains, n, max), gains))
        most = max(gaps)
        if most > worst:
            worst = most
            flagged = [False] * len(sold)
        if most == worst and most > 0:
            for mask, gap in enumerate(gaps):
                if gap == worst:
                    flagged[mask] = True
    if not worst > _threshold(atol, scale):
        return CheckResult(True)

    subset, mask, _ = _first_flagged(rows, flagged)

    def gain(at: int, x: int):
        return sold[at | 1 << (x - 1)] - sold[at]

    witness = next(
        (frozenset(subset), larger, x)
        for larger_mask, larger in _supersets(subset, mask, n)
        for x in range(1, n + 1)
        if gain(larger_mask, x) - gain(mask, x) == worst
    )
    return CheckResult(False, witness, _magnitude(worst, scale))
