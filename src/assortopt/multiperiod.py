"""Finite-horizon, capacity-limited selling with revenue-ordered offer sets.

One customer arrives per period.  The firm, restricted to revenue-ordered
assortments, picks a threshold each period given the remaining horizon t and
inventory q.  The value recursion is

    J_t(q, l) = sum_x P(x, A_l) * (r(x) + J_{t-1}(q-1)) + P(0, A_l) * J_{t-1}(q)

with J = 0 once t or q hits zero and J_t(q) = max_l J_t(q, l).  Writing
R_l and P_l for the one-period revenue and sale probability of A_l and
delta = -(J_{t-1}(q) - J_{t-1}(q-1)) for the negated marginal value of a
unit, J_t(q, l) = J_{t-1}(q) + R_l + P_l * delta.  The offset J_{t-1}(q) is
common to every threshold, so the DP scores the levels on R_l + P_l * delta
alone, takes l*_t(q) as the least maximising level under a relative
tolerance at that scale, and sets J_t(q) = J_{t-1}(q) + max_l (R_l + P_l *
delta).  That is the static problem with every revenue shifted by delta,
which ``lstar_delta`` solves with the same function.  For regular models l*
is monotone in both state variables and never rises with delta (nesting by
fare order); ``check_lstar_order`` reads that last order off the table in
one pass over each level's least and greatest delta, and sorts the cells
for the witness only when it fails.  The three table checks return an
``axioms.CheckResult`` with gap 0.0 and the first violating cell as its
witness.

The maximum of R_l + P_l * delta is the upper envelope of the ladder's
lines, so one level wins on whole intervals of delta.  The ladder's
``screen`` holds, per level w, the float interval on which w's score beats
every other line by at least T0 = 4 RTOL max(1, M + 1), M bounding every
score for |delta| <= D = 2 max|R| + 1.  Rounding moves a score or a gap by
some 30u M at most (u = 2^-53), about 10^6 times less than T0's factor-2
reserve over twice the tie slack, so on such an interval the scan would
pick w and the float R_w + P_w * delta.  The kernel bisects delta into the
sorted interval starts and returns that pair when delta lies in one; any
other delta, NaN and infinities included, is scanned as before.

Capacity cannot bind while it covers the rest of the horizon (q >= t).  By
induction from J_0 = 0, row t-1 holds the one float J_{t-1}(t-1) at every
q >= t-1, so each cell (t, q) with q >= t has delta = -0.0, the scores of
delta = 0, the same l* and J_t(q) = J_{t-1}(t-1) + max_l R_l; row t is then
one float at q >= t in turn.  The DP scores the ladder at delta = 0 once per
solve, fills those cells from it, and searches cell by cell only for q < t.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from math import isfinite
from operator import gt, lt

# revenue_ladder is re-exported for the callers that import it from here.
from .assortment import RTOL, AssortmentInstance, RevenueLadder, revenue_ladder  # noqa: F401
from .axioms import CheckResult
from .errors import DeltaOutOfRange, SearchSpaceTooLarge
from .models import CELL_GUARD, GUARD, finite


class MultiPeriodInstance:
    """An assortment instance with a selling horizon and an inventory cap.

    ``base`` (the ``AssortmentInstance``), ``horizon`` and ``capacity`` are
    plain attributes, so the DP and its per-cell checks read them with no
    property call.  They are set once, by the checked constructor, and
    cannot be reassigned.
    """

    def __init__(self, base: AssortmentInstance, horizon: int, capacity: int):
        if type(horizon) is not int or type(capacity) is not int:
            raise ValueError(f"horizon and capacity must be ints, got {horizon!r} and {capacity!r}")
        if horizon < 1 or capacity < 1:
            raise ValueError("horizon and capacity must be positive")
        if base.n < 1:
            raise ValueError("the catalogue must contain at least one product")
        if not finite(min(horizon, capacity) * max(base.revenue)):  # bounds every J the DP forms
            raise ValueError("min(horizon, capacity) x the top revenue overflows a float")
        vars(self).update(base=base, horizon=horizon, capacity=capacity)

    def __setattr__(self, name, value):
        raise AttributeError(f"MultiPeriodInstance.{name} cannot be assigned")

    @property
    def ladder(self) -> RevenueLadder:
        return self.base.ladder


@dataclass(frozen=True)
class DpTable:
    """Tabulated values of the capacity DP.

    value[t][q] holds J_t(q) = J_{t-1}(q) + max_l (R_l + P_l * delta) with
    delta = -marginal(t-1, q); lstar[t][q] is the least l whose score
    R_l + P_l * delta is within the relative tolerance of that maximum (1 on
    boundary cells, where every choice is worthless).  The tolerance scales
    with the score, not with J, so it does not grow with the horizon.
    regularity_ok is None when the model was too large to check.
    """

    horizon: int
    capacity: int
    k: int
    value: tuple[tuple[float, ...], ...]
    lstar: tuple[tuple[int, ...], ...]
    regularity_ok: bool | None

    def marginal(self, t: int, q: int) -> float:
        """Delta J_t(q) = J_t(q) - J_t(q-1), the value of one inventory unit."""
        row = self.value[t]
        return row[q] - row[q - 1]


def _best_level(ladder: RevenueLadder, delta: float) -> tuple[int, float]:
    """The least level maximising R_l + P_l * delta within tolerance, and
    that maximum: read off the ladder's screen when delta lies in a level's
    interval, where that level's score is the same float the scan takes as
    the maximum, else by the scan.  A NaN or infinite delta lies in none."""
    starts, spans = ladder.screen
    i = bisect_right(starts, delta)
    if i:
        end, level, r, p = spans[i - 1]
        if delta <= end:
            return level, r + p * delta
    return _scan_levels(ladder.lines, delta)


def _scan_levels(lines: tuple[tuple[float, float], ...], delta: float) -> tuple[int, float]:
    """``_best_level`` by scoring every line; lines is the ladder's (R_l, P_l) pairs."""
    scores = [r + p * delta for r, p in lines]
    best = max(scores)
    # Relative tolerance with a unit floor: near-zero values would otherwise
    # never tie, and ties there are exactly the degenerate all-worthless cells.
    # The same float as RTOL * max(1.0, abs(best)), NaN included.
    a = abs(best)
    slack = RTOL * a if a > 1.0 else RTOL
    level = 1
    for value in scores:
        if best - value <= slack:
            return level, best
        level += 1
    raise AssertionError("the maximum is always within tolerance of itself")


def solve_dp(instance: MultiPeriodInstance) -> DpTable:
    """Tabulate J and the least optimal thresholds.

    A horizon x capacity above ``CELL_GUARD`` raises SearchSpaceTooLarge
    before anything is read or built.  The monotonicity guarantees assume a
    regular model, so the table records a regularity verdict (a warning
    flag, not an error: the DP itself is well defined regardless), the
    instance's cached ``axioms`` report; None, with no table built, when n
    exceeds ``GUARD``.

    Cells with q >= t, where the inventory covers every remaining period,
    have delta = 0 because J_{t-1}(q) and J_{t-1}(q-1) are the same float
    there (see the module docstring).  They are filled from one scoring at
    delta = 0; only cells with q < t are searched one by one.
    """
    T, Q = instance.horizon, instance.capacity
    if T * Q > CELL_GUARD:
        raise SearchSpaceTooLarge(f"T x Q = {T} x {Q} cells exceed the DP guard {CELL_GUARD}")
    ladder = instance.ladder
    regularity_ok: bool | None = None
    if instance.base.n <= GUARD:
        regularity_ok = instance.base.axioms.regularity.passed

    value = [[0.0] * (Q + 1) for _ in range(T + 1)]
    lstar = [[1] * (Q + 1) for _ in range(T + 1)]
    level0, best0 = _best_level(ladder, 0.0)
    for t in range(1, T + 1):
        previous, row, choice = value[t - 1], value[t], lstar[t]
        for q in range(1, min(t, Q + 1)):
            # The same float DpTable.marginal(t - 1, q) returns, negated.
            choice[q], best = _best_level(ladder, -(previous[q] - previous[q - 1]))
            row[q] = previous[q] + best
        if t <= Q:
            row[t:] = [previous[t - 1] + best0] * (Q + 1 - t)
            choice[t:] = [level0] * (Q + 1 - t)
    return DpTable(
        horizon=T,
        capacity=Q,
        k=ladder.k,
        value=tuple(tuple(row) for row in value),
        lstar=tuple(tuple(row) for row in lstar),
        regularity_ok=regularity_ok,
    )


def check_nesting_monotonicity(table: DpTable) -> CheckResult:
    """l*_t(q) never grows with remaining capacity and never shrinks with
    remaining time; the witness names the first violating cell.  Each row is
    screened in one pass; only the first failing row is searched by index."""
    T, Q = table.horizon, table.capacity
    for t in range(1, T + 1):
        row = table.lstar[t]
        if any(map(gt, row[2 : Q + 1], row[1:Q])):
            return CheckResult(False, ("capacity", t, next(q for q in range(2, Q + 1) if row[q] > row[q - 1])))
    for t in range(2, T + 1):
        row, before = table.lstar[t], table.lstar[t - 1]
        if any(map(lt, row[1 : Q + 1], before[1 : Q + 1])):
            return CheckResult(False, ("time", t, next(q for q in range(1, Q + 1) if row[q] < before[q])))
    return CheckResult(True)


def check_marginal_value(table: DpTable) -> CheckResult:
    """The marginal value of capacity is concave in q and non-decreasing in t.

    These hold for any choice model (regular or not); the tolerance only
    absorbs floating-point noise.  Each row's marginals are formed once, as
    the floats ``DpTable.marginal`` returns, in one pass over two rows; the
    first time drop is returned once every row is concave, as if scanned last.
    """
    slack = RTOL * max(1.0, table.value[table.horizon][table.capacity])
    drop = previous = None
    for t, values in enumerate(table.value):
        row = [b - a for a, b in zip(values, values[1:])]  # row[q - 1] is marginal(t, q)
        q = _first_drop(row, row[1:], slack)
        if q is not None:
            return CheckResult(False, ("concavity", t, q + 2))
        if drop is None and t and (q := _first_drop(row, previous, slack)) is not None:
            drop = CheckResult(False, ("time", t, q + 1))
        previous = row
    return CheckResult(True) if drop is None else drop


def _first_drop(lower: list[float], upper: list[float], slack: float) -> int | None:
    """The first index i with lower[i] < upper[i] - slack, or None."""
    i = 0
    for a, b in zip(lower, upper):
        if a < b - slack:
            return i
        i += 1
    return None


def check_lstar_order(table: DpTable) -> CheckResult:
    """l*_t(q) never rises as delta = -marginal(t-1, q) grows.  The cells are
    sorted by (delta, l*), so equal deltas need equal thresholds; the witness
    is the first cell whose l* exceeds its predecessor's.  That order holds
    iff each occurring level's deltas all lie below those of the next lower
    occurring level, which one pass over the table reads off each level's
    least and greatest delta; the cells are sorted only when it fails."""
    if _levels_ordered(table):
        return CheckResult(True)
    cells = sorted(
        (-table.marginal(t - 1, q), table.lstar[t][q], t, q)
        for t in range(1, table.horizon + 1)
        for q in range(1, table.capacity + 1)
    )
    rise = next((cell for before, cell in zip(cells, cells[1:]) if cell[1] > before[1]), None)
    return CheckResult(True) if rise is None else CheckResult(False, ("delta", *rise[2:]))


def _levels_ordered(table: DpTable) -> bool:
    """Whether, for consecutive occurring levels l < l', every cell of l' has
    a greater marginal (so a smaller delta) than every cell of l.  False for
    a table whose deltas may not be finite, whose sort this cannot follow."""
    low: dict[int, float] = {}  # per level, the least and greatest marginal(t-1, q) of its cells
    high: dict[int, float] = {}
    for t in range(1, table.horizon + 1):
        previous = table.value[t - 1]
        try:
            if not all(map(isfinite, previous)):
                return False
        except OverflowError:  # an int or Fraction beyond the float range
            return False
        marginals = [b - a for a, b in zip(previous, previous[1:])]
        q = 0
        for level, run in groupby(table.lstar[t][1:]):
            end = q + len(tuple(run))
            least, greatest = min(marginals[q:end]), max(marginals[q:end])
            if level in low:
                least, greatest = min(least, low[level]), max(greatest, high[level])
            low[level], high[level] = least, greatest
            q = end
    levels = sorted(low)
    return all(low[upper] > high[lower] for lower, upper in zip(levels, levels[1:]))


def lstar_delta(instance: AssortmentInstance, delta: float) -> int:
    """Least optimal threshold after shifting every revenue by delta.

    The shift must be finite (inf - inf is NaN, so an infinite one would tie
    no level with the maximum) and keep the top revenue nonnegative: r_k +
    delta >= ``RevenueLadder.shift_floor``.  A float shift is accepted by two
    comparisons with ``RevenueLadder.shift_interval``, floats that all pass
    that check, cached on the ladder; every other shift (an int, a Fraction,
    NaN, an infinity, a float outside the interval, any shift on an empty
    catalogue) goes through the finite and floor checks themselves.  One
    ``_best_level`` call then picks the level.  As delta grows the result can
    only decrease (larger assortments become optimal), which is what makes
    the DP thresholds monotone.  With delta = -marginal(t-1, q) this is the
    choice ``solve_dp`` makes at cell (t, q).
    """
    ladder = instance.ladder
    low, high = ladder.shift_interval
    if type(delta) is not float or not low <= delta <= high:
        levels = ladder.levels
        if not levels:
            raise ValueError("l* is undefined for an empty catalogue")
        try:
            finite_shift = isfinite(delta)
        except OverflowError:  # an int or Fraction beyond the float range
            finite_shift = False
        if not (finite_shift and levels[-1] + delta >= ladder.shift_floor):
            raise DeltaOutOfRange(f"shift {delta} is not finite or drives the top revenue {levels[-1]} negative")
    return _best_level(ladder, delta)[0]
