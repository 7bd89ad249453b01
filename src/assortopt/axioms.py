"""Exhaustive checkers for the behavioural axioms of a choice model.

Every checker takes a model, a ``TabularModel`` included, and reads its
table ``model.to_tabular()``, which refuses n above ``GUARD`` and is the
model itself when it is already a table: one column per product x, holding
P(x, S) for the 2^(n-1) offer sets S that hold x, indexed by the bitmask of
S with bit x-1 removed (``columns(n)``).  From the columns a checker adds
the purchase probability sold(S) = sum_{x in S} P(x, S), indexed by
bitmask.  ``AssortmentInstance.axioms`` keeps the ``check_axioms`` report
of its cached ``table``, so the checks of one instance read it once.

Conditions over all 3^n pairs S subset of S' are decided with superset
transforms on that table (the max form of the fast zeta transform on the
subset lattice; Yates 1937, Bjorklund, Husfeldt, Kaski and Koivisto, STOC
2007): n sweeps of 2^n elements give max (or min) over S' superset of S
for every S at once, so a check costs O(n^2 2^n) instead of O(n 3^n).  A
sweep whose lower half already wins every pair keeps that half as it is and
skips the pairwise pick, which on a regular model is almost every sweep.  A
transform that moves nothing returns its input, so the checkers skip the
difference pass, which could flag nothing.  Every superset of a set holding
x holds x, so regularity transforms each column as it is, and demand
submodularity transforms the gains of x over the sets without x.

Rounded subtraction and addition are monotone, so the extreme value over the
supersets of S decides the same comparison as the worst single pair, for
floats and for exact fractions alike.  The transform therefore finds the
first violating S in the canonical order of
:func:`assortopt.models.enumerate_subsets`, by a scan of the offer sets of
the smallest flagged size alone; only the supersets of that S are then
scanned pair by pair, in the order of the full pair scan, to report the
same witness and gap it would.  Probabilities are compared with an absolute
tolerance of ATOL = 1e-9; strict violations beyond tolerance fail.

Exactness is the model's declaration: a table is on the scale of the
``denominator`` D it declares, its model's (the pricing reductions and an
exact ``TabularModel`` declare one), and holds each entry p as the int
p * D the model emits and 1 as D.  A test v > t on the table's values
becomes the int test v * D > floor(t * D), which is exact for every D, and
each reported gap is converted back, so verdicts, witnesses and gaps are
those of the Fraction arithmetic at a fraction of its cost.  Other tables
hold the model's values as they are.

unavailable_zero holds by construction for every model that keeps
:meth:`ChoiceModel.evaluate`, which returns 0.0 for an unoffered product;
only a model that overrides ``evaluate`` is scanned over all (x, S) with x
not in S, on the model, not on its table.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .models import ChoiceModel, TabularModel, column_sums, held, held_index, offer_masks, sized_masks

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


def _tabulated(table: TabularModel) -> tuple[list, list, int | None]:
    """(columns, sold, D) of a model's table: its stored ``columns(n)``, the
    purchase probability of each offer set by mask, and its denominator.

    Every table is whole, so its own lists are read without a copy; no
    checker writes to them."""
    columns = table._columns
    return columns, column_sums(columns, table.n), table.denominator


def _threshold(value: float, scale: int | None):
    """value on the table's scale: itself for an unscaled table, else
    floor(value * D), so that v > threshold is exact for every int v."""
    return value if scale is None else math.floor(Fraction(value) * scale)


def _magnitude(value, scale: int | None) -> float:
    """A table value (or difference) as the float a report carries."""
    return float(value) if scale is None else float(Fraction(value, scale))


def _pick(pick, low: list, high: list) -> list:
    """``list(map(pick, low, high))`` for pick in (max, min), as a comprehension.

    CPython defines the two-argument ``max(l, h)`` as ``h if h > l else l``
    and ``min(l, h)`` as ``h if h < l else l``, so this returns the very
    objects the map would: a NaN on the left is kept, one on the right is
    passed over, ties keep the left entry (0.0 against -0.0, an int against
    an equal Fraction), and mixed types compare as they do there.  It only
    skips a call per pair.
    """
    if pick is max:
        return [h if h > l else l for l, h in zip(low, high)]
    return [h if h < l else l for l, h in zip(low, high)]


def _superset_extreme(values: list, n: int, pick) -> list:
    """out[mask] = pick over all supersets of mask, for pick in (max, min).

    Each sweep combines every mask whose lowest index bit is clear with its
    partner, then rotates the index bits right by one, so after n sweeps
    over n index bits every bit has been processed and the indices are back
    in place; fewer sweeps leave them as :func:`_rotated` does.  Pairs are
    combined by :func:`_pick`, whose comprehension returns the very objects
    ``map(pick, low, high)`` would, since CPython defines the two-argument
    max and min by the same comparison.  A sweep whose every low entry
    already wins (l >= h for max, l <= h for min) keeps the low half as it
    is, since the pick would return each l itself; a NaN fails the test, so
    its sweep is picked as before.  A full transform whose every sweep kept
    its low half returns values itself; a partial one, its rotated list.
    """
    keep = operator.ge if pick is max else operator.le
    out, moved = values, False
    for _ in range(n):
        low, high = out[0::2], out[1::2]
        if not all(map(keep, low, high)):
            low, moved = _pick(pick, low, high), True
        out = low + high
    return out if moved or len(values) != 1 << n else values


def _rotated(values: list, k: int) -> list:
    """values with their index bits rotated right by k, the layout that k
    sweeps of :func:`_superset_extreme` leave."""
    for _ in range(k):
        values = values[0::2] + values[1::2]
    return values


def _first_flagged(n: int, flagged: list):
    """(S, mask) of the first offer set in canonical order whose mask is
    flagged, or None: the size of the smallest flagged set is read off the
    flagged masks, and only the sets of that size are scanned."""
    size = min(map(int.bit_count, itertools.compress(range(len(flagged)), flagged)), default=None)
    if size is None:
        return None
    return next(entry for entry in sized_masks(n, size) if flagged[entry[1]])


def _supersets(subset: tuple[int, ...], mask: int, n: int):
    """Yield (mask', S') for every S' superset of S, in the pair scan's order:
    S grown by the subsets of its complement, by size then lexicographic."""
    rest = [x for x in range(1, n + 1) if not mask >> (x - 1) & 1]
    members = frozenset(subset)
    for extra in itertools.chain.from_iterable(itertools.combinations(rest, size) for size in range(len(rest) + 1)):
        yield mask | sum(1 << (x - 1) for x in extra), members | frozenset(extra)


def check_axioms(model: ChoiceModel) -> AxiomReport:
    """Verify the four axioms of a regular discrete choice model.

    Takes any model, a table included, and keeps no report; an instance
    keeps its own as ``AssortmentInstance.axioms``.  Witnesses are (x, S)
    for nonnegativity and availability, (S,) for the at-most-one-purchase
    axiom, and (x, S, S') for regularity.
    """
    return _check_axioms(model, model.to_tabular())


def _check_axioms(model: ChoiceModel, table: TabularModel) -> AxiomReport:
    """The ``check_axioms`` report of model, read from its table
    ``model.to_tabular()``; unavailable_zero is judged on model itself."""
    n = table.n
    columns, sold, scale = _tabulated(table)
    one, tol = scale or 1, _threshold(ATOL, scale)

    # Rounded 1 - s falls as s grows, so the least no-purchase share is
    # one - max(sold); the scan in canonical order runs only if some entry
    # fails (or the least entry is NaN, which min cannot look past).
    nonnegativity = CheckResult(True)
    least_entry = min(itertools.chain.from_iterable(columns), default=0)
    if not least_entry >= -tol or one - max(sold) < -tol:
        entries = (
            (x, p, subset)
            for subset, mask in offer_masks(n)
            for x, p in (*zip(subset, table._choice_row(subset)), (0, one - sold[mask]))
        )
        negative = next((entry for entry in entries if entry[1] < -tol), None)
        if negative is not None:
            x, p, subset = negative
            nonnegativity = CheckResult(False, (x, frozenset(subset)), _magnitude(-p, scale))

    # ChoiceModel.evaluate returns 0.0 for an unoffered product, so only a
    # model that overrides evaluate can fail this check.
    unavailable_zero = CheckResult(True)
    if type(model).evaluate is not ChoiceModel.evaluate:
        unoffered = (
            (x, frozenset(S)) for S, mask in offer_masks(n) for x in range(1, n + 1) if not mask >> (x - 1) & 1
        )
        leak = next(((x, S, p) for x, S in unoffered if abs(p := model.evaluate(x, S)) > ATOL), None)
        if leak is not None:
            unavailable_zero = CheckResult(False, leak[:2], float(abs(leak[2])))

    substochastic = CheckResult(True)
    cap = _threshold(1 + ATOL, scale)
    if max(sold) > cap:
        subset, mask = _first_flagged(n, [total > cap for total in sold])
        substochastic = CheckResult(False, (frozenset(subset),), _magnitude(sold[mask] - one, scale))

    # Regularity: S violates iff some x in S has max_{S'} P(x, S') - P(x, S)
    # beyond tolerance, or the no-purchase share rises at min_{S'} sold(S').
    # Every superset of a set holding x holds x, so P(x, .) is transformed
    # over x's column, the 2^(n-1) masks with bit x set, with bit x removed.
    # A transform that returns its input moved nothing: every rise is 0 (NaN
    # at an infinity), so its difference pass is skipped.
    flagged = [False] * len(sold)
    if (least := _superset_extreme(sold, n, min)) is not sold:
        flagged = [(one - low) - (one - total) > tol for low, total in zip(least, sold)]
    for x, held in enumerate(columns, start=1):
        if (top := _superset_extreme(held, n - 1, max)) is held:
            continue
        rises = list(map(operator.sub, top, held))
        if not max(rises, default=0) <= tol:  # a NaN first would hide the rest from max
            width = 1 << (x - 1)
            for c, rise in enumerate(rises):
                if rise > tol:
                    flagged[(c >> (x - 1) << x) | width | (c & (width - 1))] = True

    regularity = CheckResult(True)
    first = _first_flagged(n, flagged)
    if first is not None:
        subset, mask = first
        row = table._choice_row(subset)

        def drops():
            for larger_mask, larger in _supersets(subset, mask, n):
                for x, p in zip(subset, row):
                    yield x, larger, columns[x - 1][held_index(larger_mask, x)] - p
                yield 0, larger, (one - sold[larger_mask]) - (one - sold[mask])

        x, larger, drop = next(found for found in drops() if found[2] > tol)
        regularity = CheckResult(False, (x, frozenset(subset), larger), _magnitude(drop, scale))

    return AxiomReport(nonnegativity, unavailable_zero, substochastic, regularity)


def check_purchase_monotonicity(model: ChoiceModel) -> CheckResult:
    """Check that the purchase probability never drops when the offer grows.

    Takes any model, a table included.  The witness on failure is the pair
    (S, S').  Regular models always pass.
    """
    n = model.n
    _, sold, scale = _tabulated(model.to_tabular())
    tol = _threshold(ATOL, scale)
    least = _superset_extreme(sold, n, min)
    if least is sold:  # no sweep moved, so no total exceeds its least superset's
        return CheckResult(True)
    flagged = [total > low + tol for total, low in zip(sold, least)]
    first = _first_flagged(n, flagged)
    if first is None:
        return CheckResult(True)
    subset, mask = first
    drops = ((at, larger) for at, larger in _supersets(subset, mask, n) if sold[mask] > sold[at] + tol)
    larger_mask, larger = next(drops)
    return CheckResult(False, (frozenset(subset), larger), _magnitude(sold[mask] - sold[larger_mask], scale))


def check_demand_submodularity(model: ChoiceModel) -> CheckResult:
    """Check submodularity of the demand f(S) = sum_{x in S} P(x, S).

    Takes any model, a table included.  Over every pair S subset of S' and every
    product x, reports the maximal violation of f(S' + x) - f(S') <= f(S + x)
    - f(S) as the gap, witnessed by the first (S, S', x) attaining it in the
    order S, then S', then x.  Random-utility models pass; regularity alone
    does not imply a pass.
    """
    n = model.n
    _, sold, scale = _tabulated(model.to_tabular())

    # worst is kept exact; flagged marks the offer sets S whose gap reaches it.
    # Only an S without x can be flagged: at a set S' holding x the gain of x
    # is sold[S'] - sold[S'], a zero (NaN where sold is NaN or infinite), and
    # so is every gap there.  So the 2^(n-1) sets without x are transformed
    # alone, in x's column layout (the mask with bit x-1 removed).  The whole
    # lattice's sweep x would pair each S with S + x while the value there is
    # still that zero; the same entries are merged in at the same sweep, which
    # keeps every value the whole transform gives S, NaN and -inf included.
    # With no gain below zero those zeros pick nothing, so one transform does;
    # if it returns the gains, every gap is 0 (NaN at an infinity).
    worst = 0
    flagged = [False] * len(sold)
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        with_x = held(sold, bit)
        gains = list(map(operator.sub, with_x, held(sold, bit, clear=True)))
        if min(gains) >= 0:  # a NaN first fails this, and a later one is passed over
            if (top := _superset_extreme(gains, n - 1, max)) is gains:
                continue
        else:
            top = _superset_extreme(gains, x - 1, max)
            top = _pick(max, top, _rotated(list(map(operator.sub, with_x, with_x)), x - 1))
            top = _superset_extreme(top, n - x, max)
        gaps = list(map(operator.sub, top, gains))
        most = max(gaps)
        if most > worst:
            worst = most
            flagged = [False] * len(sold)
        if most == worst and most > 0:
            for c, gap in enumerate(gaps):
                if gap == worst:
                    flagged[(c >> (x - 1) << x) | (c & (bit - 1))] = True
    if not worst > _threshold(ATOL, scale):
        return CheckResult(True)

    subset, mask = _first_flagged(n, flagged)

    def gain(at: int, x: int):
        return sold[at | 1 << (x - 1)] - sold[at]

    witness = next(
        (frozenset(subset), larger, x)
        for larger_mask, larger in _supersets(subset, mask, n)
        for x in range(1, n + 1)
        if gain(larger_mask, x) - gain(mask, x) == worst
    )
    return CheckResult(False, witness, _magnitude(worst, scale))
