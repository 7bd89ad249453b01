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
which ``lstar_delta`` solves with the same function, so the two agree on
every cell.  For regular models l* is monotone in both state variables
(nesting by fare order).

Capacity cannot bind while it covers the rest of the horizon (q >= t).  By
induction from J_0 = 0, row t-1 holds the one float J_{t-1}(t-1) at every
q >= t-1, so each cell (t, q) with q >= t has delta = -0.0, the scores of
delta = 0, the same l* and J_t(q) = J_{t-1}(t-1) + max_l R_l; row t is then
one float at q >= t in turn.  The DP scores the ladder at delta = 0 once per
solve, fills those cells from it, and searches cell by cell only for q < t.
"""

from __future__ import annotations

from dataclasses import dataclass

# revenue_ladder is re-exported for the callers that import it from here.
from .assortment import AssortmentInstance, RevenueLadder, revenue_ladder  # noqa: F401
from .axioms import check_axioms
from .errors import DeltaOutOfRange

RTOL = 1e-9


class MultiPeriodInstance:
    """An assortment instance with a selling horizon and an inventory cap."""

    def __init__(self, base: AssortmentInstance, horizon: int, capacity: int):
        if horizon < 1 or capacity < 1:
            raise ValueError("horizon and capacity must be positive")
        if base.n < 1:
            raise ValueError("the catalogue must contain at least one product")
        self._base = base
        self._horizon = horizon
        self._capacity = capacity

    @property
    def base(self) -> AssortmentInstance:
        return self._base

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def ladder(self) -> RevenueLadder:
        return self._base.ladder


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
        return self.value[t][q] - self.value[t][q - 1]


def _best_level(ladder: RevenueLadder, delta: float, rtol: float) -> tuple[int, float]:
    """The least level maximising R_l + P_l * delta within tolerance, and
    that maximum."""
    scores = [r + p * delta for r, p in zip(ladder.expected_revenue, ladder.purchase_probability)]
    best = max(scores)
    # Relative tolerance with a unit floor: near-zero values would otherwise
    # never tie, and ties there are exactly the degenerate all-worthless cells.
    slack = rtol * max(1.0, abs(best))
    for level, value in enumerate(scores, 1):
        if best - value <= slack:
            return level, best
    raise AssertionError("the maximum is always within tolerance of itself")


def solve_dp(instance: MultiPeriodInstance, rtol: float = RTOL, guard: int = 20) -> DpTable:
    """Tabulate J and the least optimal thresholds.

    The monotonicity guarantees assume a regular model, so the table records a
    regularity verdict (a warning flag, not an error: the DP itself is well
    defined regardless).

    Cells with q >= t, where the inventory covers every remaining period,
    have delta = 0 because J_{t-1}(q) and J_{t-1}(q-1) are the same float
    there (see the module docstring).  They are filled from one scoring at
    delta = 0; only cells with q < t are searched one by one.
    """
    ladder = instance.ladder
    T, Q = instance.horizon, instance.capacity
    regularity_ok: bool | None = None
    if instance.base.n <= guard:
        regularity_ok = check_axioms(instance.base.model, guard=guard).regularity.passed

    value = [[0.0] * (Q + 1) for _ in range(T + 1)]
    lstar = [[1] * (Q + 1) for _ in range(T + 1)]
    level0, best0 = _best_level(ladder, 0.0, rtol)
    for t in range(1, T + 1):
        previous, row, choice = value[t - 1], value[t], lstar[t]
        for q in range(1, min(t, Q + 1)):
            # The same float DpTable.marginal(t - 1, q) returns, negated.
            choice[q], best = _best_level(ladder, -(previous[q] - previous[q - 1]), rtol)
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


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


def check_nesting_monotonicity(table: DpTable) -> MonotonicityReport:
    """l*_t(q) never grows with remaining capacity and never shrinks with
    remaining time; the witness names the first violating cell."""
    for t in range(1, table.horizon + 1):
        for q in range(2, table.capacity + 1):
            if table.lstar[t][q] > table.lstar[t][q - 1]:
                return MonotonicityReport(False, ("capacity", t, q))
    for t in range(2, table.horizon + 1):
        for q in range(1, table.capacity + 1):
            if table.lstar[t][q] < table.lstar[t - 1][q]:
                return MonotonicityReport(False, ("time", t, q))
    return MonotonicityReport(True)


def check_marginal_value(table: DpTable, rtol: float = RTOL) -> MonotonicityReport:
    """The marginal value of capacity is concave in q and non-decreasing in t.

    These hold for any choice model (regular or not); the tolerance only
    absorbs floating-point noise.
    """
    scale = max(1.0, table.value[table.horizon][table.capacity])
    slack = rtol * scale
    for t in range(0, table.horizon + 1):
        for q in range(2, table.capacity + 1):
            if table.marginal(t, q - 1) < table.marginal(t, q) - slack:
                return MonotonicityReport(False, ("concavity", t, q))
    for t in range(1, table.horizon + 1):
        for q in range(1, table.capacity + 1):
            if table.marginal(t, q) < table.marginal(t - 1, q) - slack:
                return MonotonicityReport(False, ("time", t, q))
    return MonotonicityReport(True)


def lstar_delta(instance: AssortmentInstance, delta: float, rtol: float = RTOL) -> int:
    """Least optimal threshold after shifting every revenue by delta.

    The shift must keep the top revenue nonnegative.  As delta grows the
    result can only decrease (larger assortments become optimal), which is
    what makes the DP thresholds monotone.  With delta = -marginal(t-1, q)
    this is the choice ``solve_dp`` makes at cell (t, q).
    """
    ladder = instance.ladder
    if not ladder.levels:
        raise ValueError("l* is undefined for an empty catalogue")
    top = ladder.levels[-1]
    if top + delta < -rtol * max(1.0, top):
        raise DeltaOutOfRange(f"shift {delta} drives the top revenue {top} negative")
    return _best_level(ladder, delta, rtol)[0]
