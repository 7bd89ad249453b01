"""Discrete choice models over a finite product catalogue.

Products are identified by the indices 1..n; index 0 is reserved for the
no-purchase option.  A choice model assigns to every offer set S a
probability ``evaluate(x, S)`` that a customer picks x from S, with
``evaluate(0, S) = 1 - sum_{x in S} evaluate(x, S)``.

All model types are immutable after construction and ``evaluate`` is a pure
function, so instances are safe to share across threads.  A model must
define ``_choice_row`` (P(x, S) for each x of a sorted S), which every other
reader goes through, ``evaluate(0, S)`` (1 minus the ``ordered_sum`` of
the row) included; ``columns`` and MNL's ``_member_probability`` are the
overrides that remain.  Models keep no memo of evaluated offer sets;
exhaustive readers share one table per instance,
``AssortmentInstance.table``, the ``TabularModel`` that ``to_tabular``
gives (a table gives itself).  Exactness is the model's declaration,
which no reader infers: a model of exact rationals (the pricing reductions,
an exact ``TabularModel``) declares a ``denominator`` D, its ``_choice_row``
returns the ints p * D, and ``evaluate`` and ``choice_row`` the ``Fraction`` p.

Exhaustive readers read a model in bulk, through ``columns(c, high)``:
P(x, L | high) for every mask L of the products 1..c (bit x-1 stands for
product x), with ``high`` a fixed set of the products above c, as one list
per offered product.  A product x <= c is offered only at the 2^(c-1)
masks holding it, so its column lists them in ascending order, which is
the mask with bit x-1 removed (``held_index``); a product of ``high`` is
offered everywhere and its column lists all 2^c masks.  ``columns(n)`` is
the whole table, and smaller c reads it in blocks.  The default builds the
columns from one ``_choice_row`` per offer set, which Hfam and the tight
family use; a ``TabularModel`` stores its table in this layout, so its
columns are slices of the stored ones.  MNL, mixed MNL and
stochastic-preference models (so Mallows, through its expansion) build them
by recurrences over masks, and each of their entries is the same float that
``_choice_row`` gives.  The pricing reductions depend on an offer set only
through its floor, the cheapest offered level of each element, so they
simulate each distinct floor once and look every entry up by its floor
(``udp._FloorChoiceModel``).  ``column_sums`` adds columns into one
total per offer set, in column order from int 0, as ``ordered_sum`` adds
a row, each entry optionally times a factor of its column (brute force's
revenues).
MNL's denominators come from ``subset_sums``, and a mixture divides each
class's weights by the same denominators.  The exact optimum reads no
column of either: it screens every offer set from each class's
``subset_sums`` (``assortment.brute_force_optimum``), MNL being the mixture
of one class of weight 1.0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import GroundSetTooLarge, InvalidEpsilon, NonPositiveRevenue

Subset = frozenset[int]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows beyond this
GUARD = 20  # largest n whose 2^n offer sets an exhaustive reader enumerates
CELL_GUARD = 10**6  # most horizon x capacity cells the capacity DP tabulates
EXPANSION_GUARD = 7  # largest n whose (n+1)! rankings expand_ranking_model enumerates
CAPACITY_GUARD = 16  # largest n of a TableCapacity, whose check reads all 2^n subsets


def check_guard(n: int, guard: int) -> None:
    """Raise GroundSetTooLarge if 2^n offer sets exceed the guard on n."""
    if n > guard:
        raise GroundSetTooLarge(f"n={n} exceeds the enumeration guard {guard}")


def finite(value) -> bool:
    """Whether value, or for an int or a ``Fraction`` its float, is finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def ordered_sum(values: Iterable):
    """The values added one at a time, left to right, from int 0.

    Every float sum in the library goes through here, so each total is the
    same float on every supported Python: it is what ``sum`` gives before
    3.12, from which ``sum`` compensates float additions.  Int and
    ``Fraction`` sums are exact in any order and keep ``sum``.
    """
    total = 0
    for value in values:
        total = total + value
    return total


def distribution(weights: Iterable, noun: str) -> tuple[float, ...]:
    """The weights as floats, once they are finite, nonnegative and sum to 1 within 1e-9."""
    weights = tuple(map(float, weights))
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"{noun} weights must be finite, got {weights}")
    if any(w < 0 for w in weights):
        raise ValueError(f"{noun} weights must be nonnegative")
    total = ordered_sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{noun} weights sum to {total}, expected 1")
    return weights


def enumerate_subsets(n: int) -> list[tuple[int, ...]]:
    """All subsets of {1..n} as sorted tuples, by cardinality then lexicographic.

    This is the canonical enumeration order used by every checker, so that
    "first violation found" witnesses are reproducible.
    """
    check_guard(n, GUARD)
    return [subset for size in range(n + 1) for subset in itertools.combinations(range(1, n + 1), size)]


def offer_masks(n: int):
    """Yield (S, mask) for every offer set S, in canonical order.

    S is a sorted tuple as in :func:`enumerate_subsets` and mask has bit x-1
    set for each x in S.
    """
    for size in range(n + 1):
        yield from sized_masks(n, size)


def sized_masks(n: int, size: int):
    """(S, mask) for every offer set S of ``size`` products, in canonical order."""
    bits = [1 << i for i in range(n)]
    return zip(itertools.combinations(range(1, n + 1), size), map(sum, itertools.combinations(bits, size)))


def ascending_subsets(c: int) -> list[tuple[int, ...]]:
    """The sorted tuple of every mask over the products 1..c, indexed by mask."""
    subsets: list[tuple[int, ...]] = [()]
    for x in range(1, c + 1):
        subsets += [subset + (x,) for subset in subsets]  # x is the largest member
    return subsets


def members_of(mask: int, n: int) -> tuple[int, ...]:
    """The products 1..n whose bit is set in mask, ascending."""
    return tuple(x for x in range(1, n + 1) if mask >> (x - 1) & 1)


def held_parts(size: int, bit: int, clear: bool = False) -> list[tuple[slice, slice]]:
    """Slice pairs (into a list over the masks below ``size``, into a
    column) that together move the masks with ``bit`` set (or, if
    ``clear``, those without it) to the column's bit-removed layout: one
    stride per offset within a run of ``bit`` masks, or one slice per run,
    whichever makes fewer pairs."""
    first = 0 if clear else bit
    if bit * bit < size:
        return [(slice(first + low, None, 2 * bit), slice(low, None, bit)) for low in range(bit)]
    runs = zip(range(first, size, 2 * bit), range(0, size, bit))
    return [(slice(start, start + bit), slice(at, at + bit)) for start, at in runs]


def held(values: list, bit: int, clear: bool = False) -> list:
    """The values at the masks with ``bit`` set (or, if ``clear``, without
    it), in ascending order of mask: a column's bit-removed layout read off
    a list over every mask."""
    column = [None] * (len(values) >> 1)
    for where, at in held_parts(len(values), bit, clear):
        column[at] = values[where]
    return column


def held_index(mask: int, x: int) -> int:
    """Where P(x, S) sits in x's column: the mask of S with bit x-1 removed."""
    low = (1 << (x - 1)) - 1
    return (mask >> x << (x - 1)) | (mask & low)


def subset_sums(values: Sequence, c: int, high: int = 0) -> list:
    """total[L] = values[x - 1] over the products x of L | high, added in
    ascending order of x from int 0, for every mask L of the products 1..c.

    It is the recurrence total[S | bit x] = total[S] + values[x - 1] for x
    above every member of S: the products 1..c double the list, then each
    product of ``high`` adds to every entry."""
    totals = [0]
    for value in values[:c]:
        totals += [t + value for t in totals]
    if high:  # skips members_of, which costs more than a stochastic-preference column's few sums
        for value in [values[x - 1] for x in members_of(high, len(values))]:
            totals = [t + value for t in totals]
    return totals


def column_sums(columns: Iterable[list], c: int, factors: Sequence | None = None) -> list:
    """total[L] = sum of the entries of every column at L, over every mask L
    of the products 1..c, added from int 0 in the order of the columns; with
    ``factors``, each entry p of the i-th column adds as p * factors[i].

    A column of a product x <= c is in its bit-removed layout and adds only
    at the masks holding x, so each total is the ``ordered_sum`` of its
    offer set's row (of p * r, with revenues as factors, as
    ``evaluate_revenue`` adds it).  Any later column holds all 2^c masks.
    """
    size = 1 << c
    total = [0] * size

    def add(total, column, factor):
        if factor is None:
            return [t + p for t, p in zip(total, column)]
        return [t + p * factor for t, p in zip(total, column)]

    for x, column in enumerate(columns, start=1):
        factor = None if factors is None else factors[x - 1]
        if x > c:
            total = add(total, column, factor)
            continue
        for where, at in held_parts(size, 1 << (x - 1)):
            total[where] = add(total[where], column[at], factor)
    return total


def as_probabilities(row: tuple, denominator: int | None) -> tuple:
    """A row of numerators over ``denominator`` as ``evaluate`` returns them (as it is without one)."""
    return row if denominator is None else tuple(Fraction(p, denominator) for p in row)


def probability_rows(model: "ChoiceModel"):
    """Yield (S, P(x, S) for each x of S, as ``evaluate`` returns them) for
    every offer set S in canonical order, read from ``model.columns(n)``."""
    check_guard(model.n, GUARD)
    # Each column lists its offer sets in ascending order of mask, so the
    # rows of all masks, in that order, take the next entry of each column.
    entries = [iter(column).__next__ for column in model.columns(model.n)]
    rows = [tuple(entries[x - 1]() for x in subset) for subset in ascending_subsets(model.n)]
    for subset, mask in offer_masks(model.n):
        yield subset, as_probabilities(rows[mask], model.denominator)


class ChoiceModel:
    """Base class: a system of choice probabilities over the products 1..n;
    n may be zero (a pricing reduction with no priceable element)."""

    denominator: int | None = None  # see the module docstring

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"product count must be >= 0, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    def evaluate(self, x: int, S: Iterable[int]):
        """Probability of choosing x (a product or 0) from the offer set S.

        P(0, S) is 1 minus the ``ordered_sum`` of ``choice_row(S)``, for
        every model, as ``check_axioms`` judges it.  Subclasses define
        _choice_row, and may override _member_probability and ``columns``,
        rather than this method, so that an unoffered product always gets
        0.0; check_axioms relies on that.
        """
        members = self._as_subset(S)
        if x == 0:
            return 1 - ordered_sum(self.choice_row(members))
        if not 1 <= x <= self.n:
            raise ValueError(f"product {x} outside catalogue 1..{self.n}")
        if x not in members:
            return 0.0
        return self._member_probability(x, members)

    def choice_row(self, S: Iterable[int]) -> tuple:
        """P(x, S) for each x of S in ascending order, as ``evaluate`` returns them."""
        return as_probabilities(self._choice_row(tuple(sorted(self._as_subset(S)))), self.denominator)

    def _member_probability(self, x: int, S: Subset):
        """Probability of x in S, for x guaranteed to be a member of S."""
        return self.choice_row(S)[sorted(S).index(x)]

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        """P(x, S) (or its numerator) for each x of a sorted offer set S;
        every model defines it."""
        raise NotImplementedError(f"{type(self).__name__} does not define _choice_row")

    def columns(self, c: int, high: int = 0) -> list[list]:
        """P(x, L | high) for every mask L of the products 1..c, one column
        per product x offered, in ascending order of x.

        ``high`` is a fixed mask of products above c.  The column of x <= c
        lists the 2^(c-1) masks L holding x in ascending order, so
        P(x, L | high) sits at ``held_index(L, x)``; the column of x in high
        lists all 2^c masks L.  Each entry is the one ``_choice_row`` gives
        that offer set (a numerator over ``denominator`` if declared); this
        default reads ``_choice_row`` once per offer set.
        """
        highs = members_of(high, self.n)
        columns = [[] for _ in range(c + len(highs))]
        append = dict(zip((*range(1, c + 1), *highs), (column.append for column in columns)))
        for subset in ascending_subsets(c):
            subset += highs
            for x, p in zip(subset, self._choice_row(subset)):
                append[x](p)
        return columns

    def _as_subset(self, S: Iterable[int]) -> Subset:
        members = frozenset(S)
        bad = [x for x in members if not 1 <= x <= self.n]
        if bad:
            raise ValueError(f"offer set contains unknown products {sorted(bad)}")
        return members

    def to_tabular(self) -> "TabularModel":
        """Materialise the model as an explicit table over all 2^n offer sets:
        its ``columns(n)``, kept over its own ``denominator``."""
        check_guard(self.n, GUARD)
        return TabularModel._from_columns(self.n, self.columns(self.n), self.denominator)


class TabularModel(ChoiceModel):
    """Explicit probability table, one entry per (x, S) pair; a missing entry reads as 0.0.

    The table is whole: it has a row for every offer set of 1..n, names no
    product outside 1..n, and holds each entry in [0, 1] (so none is NaN or
    infinite).  A table of int and ``Fraction`` entries, one for every
    offered product and at least one a ``Fraction``, is exact: it declares
    the lcm D of their denominators and keeps each p as p * D.

    The table is stored as ``columns(n)`` lays it out: one list per product
    x, holding P(x, S) at ``held_index(mask of S, x)``, so ``columns(c, high)``
    is one slice per product, and ``to_tabular`` returns the table itself.
    ``to_tabular`` of any other model keeps that model's own entries, as
    they are, so a checker can still judge a model that emits NaN.
    """

    def __init__(self, n: int, table: Mapping[Iterable[int], Mapping[int, float]]):
        super().__init__(n)
        check_guard(n, GUARD)  # before 2^n or the catalogue is built
        catalogue = frozenset(range(1, n + 1))
        columns: list[list] = [[0.0] * (1 << n >> 1) for _ in range(n)]
        bit_of = [0] + [1 << b for b in range(n)]  # product x's bit, 1 << (x - 1)
        covered = bytearray(1 << n)  # 1 at the mask of each offer set with a row
        kinds: set[type] = set()  # entry types, tallied while the table may still be exact
        exact = True  # so far, every offer set has an entry per product, each an int or a Fraction
        for raw_set, probs in table.items():
            members = frozenset(raw_set)
            if not members <= catalogue:
                raise ValueError(f"offer set {sorted(members)} names products outside 1..{n}")
            row: dict[int, float] = {}
            for x, p in probs.items():
                if x not in members:
                    raise ValueError(f"table assigns P({x}, {sorted(members)}) but {x} is not offered")
                if not 0 <= p <= 1:
                    raise ValueError(f"P({x}, {sorted(members)}) = {p} outside [0, 1]")
                row[x] = p
            if exact:
                kinds.update(map(type, row.values()))
                exact = len(row) == len(members) and all(issubclass(t, (int, Fraction)) for t in kinds)
            mask = sum(map(bit_of.__getitem__, members))
            covered[mask] = 1
            for x in members:  # at held_index(mask, x)
                columns[x - 1][mask >> x << (x - 1) | mask & bit_of[x] - 1] = row.get(x, 0.0)
        if 0 in covered:
            missing = next(subset for subset, mask in offer_masks(n) if not covered[mask])
            raise ValueError(f"table is missing the offer set {list(missing)}")
        if exact and any(issubclass(t, Fraction) for t in kinds):
            self.denominator = math.lcm(*{p.denominator for column in columns for p in column})
            columns = [[p.numerator * (self.denominator // p.denominator) for p in column] for column in columns]
        self._columns = columns

    @classmethod
    def _from_columns(cls, n: int, columns: list[list], denominator: int | None) -> "TabularModel":
        """The table of a model's ``columns(n)``, numerators over ``denominator`` if declared."""
        model = cls.__new__(cls)
        ChoiceModel.__init__(model, n)
        model._columns = columns
        if denominator is not None:
            model.denominator = denominator
        return model

    def to_tabular(self) -> "TabularModel":
        """The table itself."""
        return self

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        mask = sum(1 << (x - 1) for x in subset)
        return tuple(self._columns[x - 1][held_index(mask, x)] for x in subset)

    def columns(self, c: int, high: int = 0) -> list[list]:
        """The stored columns' slices: ``high`` has no bit below c, so the
        masks L | high of a column of x <= c run from ``high >> 1`` and those
        of x in high from ``held_index(high, x)``, each in ascending order."""
        size = 1 << c
        start = high >> 1
        columns = [column[start : start + (size >> 1)] for column in self._columns[:c]]
        starts = ((x, held_index(high, x)) for x in members_of(high, self.n))
        return columns + [self._columns[x - 1][at : at + size] for x, at in starts]


class MnlModel(ChoiceModel):
    """Multinomial logit with mean utilities v_x; the no-purchase utility is 0.

    evaluate(x, S) = exp(v_x) / (1 + sum_{y in S} exp(v_y)).

    Weights are exp(v_x) and the no-purchase weight is 1.0, unless the
    largest utility is so large that a weight or a denominator would
    overflow: then every utility, 0 included, is shifted down by the least
    s that keeps n + 1 weights summable, so the weights are exp(v_x - s)
    and the no-purchase weight is exp(-s).  Utilities for which even that
    weight underflows to 0 are refused.
    """

    def __init__(self, mean_utilities: Sequence[float]):
        super().__init__(len(mean_utilities))
        self._utilities = tuple(float(v) for v in mean_utilities)
        if not all(map(math.isfinite, self._utilities)):
            raise ValueError(f"mean utilities must be finite, got {self._utilities}")
        # n + 1 weights of at most exp(limit) sum to a finite float.
        limit = _LOG_FLOAT_MAX - math.log(self.n + 1) - 1.0
        shift = max(0.0, max(self._utilities, default=0.0) - limit)
        self._outside = math.exp(-shift)
        if self._outside == 0.0:
            raise ValueError(f"mean utilities up to {max(self._utilities)} exceed the float range of exp")
        self._weight_of = (0.0,) + tuple(math.exp(v - shift) for v in self._utilities)  # indexed by product

    @property
    def mean_utilities(self) -> tuple[float, ...]:
        return self._utilities

    def _member_probability(self, x: int, S: Subset) -> float:
        denom = self._outside + ordered_sum(self._weight_of[y] for y in sorted(S))
        return self._weight_of[x] / denom

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        # One denominator per offer set, summed in the same ascending order
        # as _member_probability, so every probability is the same float.
        weights = tuple(map(self._weight_of.__getitem__, subset))
        denom = self._outside + ordered_sum(weights)
        return tuple(map(denom.__rtruediv__, weights))

    def _divisors(self, c: int, high: int = 0) -> list[tuple[float, list]]:
        """(w_x, the denominators of x's column) for each column of
        ``columns(c, high)``: each denominator is outside + the weights of its
        offer set added in ascending order from int 0, as ordered_sum in
        _choice_row adds them."""
        weight_of = self._weight_of
        denoms = [self._outside + p for p in subset_sums(weight_of[1:], c, high)]
        low = [(w, held(denoms, 1 << (x - 1))) for x, w in enumerate(weight_of[1 : c + 1], start=1)]
        return low + [(weight_of[x], denoms) for x in members_of(high, self.n)]

    def columns(self, c: int, high: int = 0) -> list[list]:
        return [[w / d for d in denoms] for w, denoms in self._divisors(c, high)]


class MixedMnlModel(ChoiceModel):
    """Finite mixture of MNL classes: evaluate = sum_c weight_c * MNL_c."""

    def __init__(self, components: Sequence[tuple[float, Sequence[float]]]):
        if not components:
            raise ValueError("a mixture needs at least one component")
        models = [MnlModel(utilities) for _, utilities in components]
        n = models[0].n
        if any(m.n != n for m in models):
            raise ValueError("all mixture components must share the product count")
        super().__init__(n)
        self._weights = distribution((w for w, _ in components), "mixture")
        self._models = tuple(models)

    @property
    def components(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        return tuple((w, m.mean_utilities) for w, m in zip(self._weights, self._models))

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        rows = [m._choice_row(subset) for m in self._models]
        return tuple(ordered_sum(map(operator.mul, self._weights, column)) for column in zip(*rows))

    def columns(self, c: int, high: int = 0) -> list[list]:
        # Every entry adds weight * (w / d) in class order from 0.0, as
        # ordered_sum does in _choice_row from int 0: for a float term 0.0 + x
        # and 0 + x are the same float, -0.0 included, and a float start skips
        # the slower int + float addition.  repeat(0.0) stands for the first totals.
        mixed = itertools.repeat(itertools.repeat(0.0))
        for weight, model in zip(self._weights, self._models):
            mixed = [[t + weight * (w / d) for t, d in zip(total, denoms)]
                     for total, (w, denoms) in zip(mixed, model._divisors(c, high))]
        return mixed


class StochasticPreferenceModel(ChoiceModel):
    """A distribution over strict rankings of {0, 1, ..., n}.

    evaluate(x, S) is the total weight of rankings in which x comes before
    every other element of S union {0}.
    """

    def __init__(self, n: int, rankings: Sequence[tuple[float, Sequence[int]]]):
        super().__init__(n)
        if not rankings:
            raise ValueError("at least one ranking is required")
        expected = None  # {0..n}, built once a ranking's length vouches for n
        orders = []
        for _, order in rankings:
            order = tuple(order)
            if expected is None and len(order) == n + 1:
                expected = frozenset(range(n + 1))
            if len(order) != n + 1 or frozenset(order) != expected:
                raise ValueError(f"{order} is not a permutation of 0..{n}")
            orders.append(order)
        self._weights = distribution((w for w, _ in rankings), "ranking")
        self._orders = tuple(orders)

    @property
    def rankings(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return tuple(zip(self._weights, self._orders))

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        # Each ranking's weight goes to the first of its options offered.
        winners = dict.fromkeys((0, *subset), 0.0)
        for weight, order in zip(self._weights, self._orders):
            winners[next(x for x in order if x in winners)] += weight
        return tuple(map(winners.__getitem__, subset))

    def columns(self, c: int, high: int = 0) -> list[list]:
        """The table in blocks, as ``ChoiceModel.columns`` lays it out, by win sets.

        Walking a ranking down to 0, x wins exactly at the offer sets that
        hold x and none of the products ranked before it, its win set; each
        entry adds the weights of its winning rankings in ranking order from
        0.0, as ``_choice_row`` does.  A win set depends only on x and the
        mask of those products, so each is listed once per call and reused
        by every later ranking with the same pair.  Only lists of at most
        2^(EXPANSION_GUARD - 1) masks are kept, which holds every list of a
        Mallows expansion, so that a few rankings over many products keep no
        long list.
        """
        highs = members_of(high, self.n)
        size = 1 << c
        columns = [[0.0] * (size >> 1) for _ in range(c)] + [[0.0] * size for _ in highs]
        win_sets: dict[tuple[int, int], list[int]] = {}
        for weight, order in zip(self._weights, self._orders):
            blocked = 0  # the mask of the products 1..c ranked before x
            for x in order[: order.index(0)]:
                if x <= c:
                    column = columns[x - 1]
                elif high >> (x - 1) & 1:
                    column = columns[c + highs.index(x)]
                else:
                    continue
                indices = win_sets.get((x, blocked))
                if indices is None:  # the free bits of x's column layout, which add as they OR
                    free = [1 << (y - 1 if y < x else y - 2) for y in range(1, c + 1) if y != x and not blocked & 1 << (y - 1)]
                    indices = subset_sums(free, len(free))
                    if len(free) < EXPANSION_GUARD:  # at most 2^(EXPANSION_GUARD - 1) masks
                        win_sets[x, blocked] = indices
                for index in indices:
                    column[index] += weight
                if x > c:
                    break  # x is offered in every set, so no later product wins
                blocked |= 1 << (x - 1)
        return columns


class MallowsModel(ChoiceModel):
    """Distance-based ranking distribution around a central ranking.

    The weight of ranking r is proportional to exp(-theta * d(r, R)) with d
    the Kendall distance.  Evaluation goes through the full expansion over
    all (n+1)! rankings, which doubles as the normalisation oracle; the
    expansion guard is n <= 7.
    """

    def __init__(self, central_ranking: Sequence[int], theta: float):
        order = tuple(central_ranking)
        n = len(order) - 1
        if frozenset(order) != frozenset(range(n + 1)):
            raise ValueError(f"{order} is not a permutation of 0..{n}")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        if theta < 0:
            raise ValueError("theta must be nonnegative")
        super().__init__(n)
        self._central = order
        self._theta = float(theta)

    @property
    def central_ranking(self) -> tuple[int, ...]:
        return self._central

    @property
    def theta(self) -> float:
        return self._theta

    @functools.cached_property
    def _expansion(self) -> StochasticPreferenceModel:
        return expand_ranking_model(self)

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        return self._expansion._choice_row(subset)

    def columns(self, c: int, high: int = 0) -> list[list]:
        return self._expansion.columns(c, high)


def expand_ranking_model(model: MallowsModel) -> StochasticPreferenceModel:
    """Expand a Mallows model over all rankings.

    The normalisation constant is computed by explicit summation over the
    (n+1)! rankings rather than the closed-form product, so the expansion can
    serve as its own oracle.  Output weights sum to 1 within 1e-9.  The
    Kendall distances of all rankings from the central one come from one
    pass over the rankings per pair of positions, and each weight is
    exp(-theta * d) / normaliser, computed once per distance d.
    """
    n = model.n
    if n > EXPANSION_GUARD:
        raise GroundSetTooLarge(f"cannot enumerate ({n}+1)! rankings; guard is n <= {EXPANSION_GUARD}")
    rankings = list(itertools.permutations(range(n + 1)))
    where = {element: at for at, element in enumerate(model.central_ranking)}
    # Column i holds the central position of each ranking's i-th element, a
    # byte each; a ranking's distance is the number of position pairs i < j
    # whose columns compare greater, one pass over all rankings per pair
    # (the leading zeros give n = 0's one ranking its distance).
    columns = [bytes(map(where.__getitem__, column)) for column in zip(*rankings)]
    pairs = [map(operator.gt, a, b) for a, b in itertools.combinations(columns, 2)]
    distances = list(map(sum, zip(itertools.repeat(0, len(rankings)), *pairs)))
    raw = [math.exp(-model.theta * d) for d in range(len(pairs) + 1)]  # by distance
    normaliser = ordered_sum(map(raw.__getitem__, distances))
    weights = [value / normaliser for value in raw]
    return StochasticPreferenceModel(n, list(zip(map(weights.__getitem__, distances), rankings)))


class CapacityFunction:
    """Monotone submodular attention capacity phi: 2^{1..n} -> [0, 1]."""

    @property
    def n(self) -> int:
        raise NotImplementedError

    def value(self, S: Iterable[int]) -> float:
        raise NotImplementedError


class TableCapacity(CapacityFunction):
    """Capacity given as an explicit table over all subsets.

    Construction verifies phi(empty) = 0, monotonicity and submodularity
    (single-element marginals, which is equivalent), so an accepted table is
    a genuine substitutable attention capacity.
    """

    def __init__(self, n: int, values: Mapping[Iterable[int], float]):
        self._n = n
        table = {frozenset(k): float(v) for k, v in values.items()}
        check_guard(n, CAPACITY_GUARD)
        for subset in enumerate_subsets(n):
            if frozenset(subset) not in table:
                raise ValueError(f"capacity table is missing subset {list(subset)}")
        if abs(table[frozenset()]) > 1e-12:
            raise ValueError("capacity of the empty set must be 0")
        for members, value in table.items():
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(f"capacity {value} outside [0, 1] on {sorted(members)}")
        for small in table:
            for y in set(range(1, n + 1)) - small:
                bigger = small | {y}
                if table[bigger] < table[small] - 1e-12:
                    raise ValueError(f"capacity not monotone at {sorted(small)} + {y}")
                for x in set(range(1, n + 1)) - bigger:
                    gain_small = table[small | {x}] - table[small]
                    gain_big = table[bigger | {x}] - table[bigger]
                    if gain_big > gain_small + 1e-12:
                        raise ValueError(
                            f"capacity not submodular: adding {x} gains more after {sorted(bigger)} "
                            f"than after {sorted(small)}"
                        )
        self._table = table

    @property
    def n(self) -> int:
        return self._n

    def value(self, S: Iterable[int]) -> float:
        return self._table[frozenset(S)]


class CoverageCapacity(CapacityFunction):
    """Weighted-coverage capacity: phi(S) = total weight of ground points covered by S.

    Coverage functions are monotone and submodular by construction; the
    weights must be nonnegative and sum to at most 1 so phi maps into [0,1].
    """

    def __init__(self, point_weights: Sequence[float], covers: Sequence[Iterable[int]]):
        weights = tuple(float(w) for w in point_weights)
        if not all(map(math.isfinite, weights)):
            raise ValueError(f"point weights must be finite, got {weights}")
        if any(w < 0 for w in weights):
            raise ValueError("point weights must be nonnegative")
        if ordered_sum(weights) > 1.0 + 1e-9:
            raise ValueError("point weights must sum to at most 1")
        cover_sets = []
        for cover in covers:
            members = frozenset(cover)
            if any(not 0 <= p < len(weights) for p in members):
                raise ValueError("cover sets must reference ground points 0..len(weights)-1")
            cover_sets.append(members)
        self._weights = weights
        self._covers = tuple(cover_sets)

    @property
    def n(self) -> int:
        return len(self._covers)

    @property
    def point_weights(self) -> tuple[float, ...]:
        return self._weights

    @property
    def covers(self) -> tuple[Subset, ...]:
        return self._covers

    def value(self, S: Iterable[int]) -> float:
        covered: set[int] = set()
        for x in S:
            covered |= self._covers[x - 1]
        return ordered_sum(self._weights[p] for p in sorted(covered))


class HfamModel(ChoiceModel):
    """Attention model driven by a strict preference and a capacity function.

    Walking the offer set in preference order, product x captures the
    capacity increment phi(prior + x) - phi(prior) where prior is the set of
    offered products preferred to x.
    """

    def __init__(self, preference: Sequence[int], capacity: CapacityFunction):
        order = tuple(preference)
        n = len(order)
        if frozenset(order) != frozenset(range(1, n + 1)):
            raise ValueError(f"{order} is not a permutation of 1..{n}")
        if capacity.n != n:
            raise ValueError("capacity and preference must cover the same products")
        super().__init__(n)
        self._preference = order
        self._rank = {x: where for where, x in enumerate(order)}
        self._capacity = capacity

    @property
    def preference(self) -> tuple[int, ...]:
        return self._preference

    @property
    def capacity(self) -> CapacityFunction:
        return self._capacity

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        # Walking S in preference order reads each capacity value once.
        gains, prior, before = {}, set(), self._capacity.value(())
        for x in sorted(subset, key=self._rank.__getitem__):
            prior.add(x)
            after = self._capacity.value(prior)
            gains[x], before = after - before, after
        return tuple(map(gains.__getitem__, subset))


class TightExampleModel(ChoiceModel):
    """The worst-case family for revenue-ordered assortments.

    Products are the pairs (i, j) with i in 1..k and j in 1..i, flattened to
    indices in row order.  Pair (i, j) is chosen with probability epsilon^i
    exactly when no cheaper pair (i, 1) .. (i, j-1) of the same row is
    offered.
    """

    def __init__(self, k: int, epsilon: float):
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < epsilon <= 0.5:
            raise InvalidEpsilon(f"epsilon must lie in (0, 1/2], got {epsilon}")
        super().__init__(math.comb(k + 1, 2))
        self._k = k
        self._epsilon = float(epsilon)

    @functools.cached_property  # on first use: a file naming a huge k must not exhaust memory
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(1, self._k + 1) for j in range(1, i + 1))

    @property
    def k(self) -> int:
        return self._k

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def index_of(self, i: int, j: int) -> int:
        return self._pairs.index((i, j)) + 1

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        # Pairs are indexed in row order, so the first offered pair of a row
        # is its cheapest; rows start at 1, so 0 precedes the first.
        rows = [self._pairs[x - 1][0] for x in subset]
        return tuple(0.0 if i == before else self._epsilon**i for before, i in zip((0, *rows), rows))


def evaluate_revenue(model: ChoiceModel, revenue: Sequence[float], S: Iterable[int]):
    """Expected revenue sum_{x in S} P(x, S) * r(x) of offering S.

    Revenues are indexed by product (revenue[x-1] is the price of x) and
    must all be positive.  Summation runs in ascending product order so the
    result is deterministic.
    """
    if len(revenue) != model.n:
        raise ValueError("one revenue per product is required")
    for x, r in enumerate(revenue, start=1):
        if not r > 0:
            raise NonPositiveRevenue(f"revenue of product {x} is {r}; must be > 0")
    members = sorted(frozenset(S))
    return ordered_sum(p * revenue[x - 1] for x, p in zip(members, model.choice_row(members)))
