"""Discrete choice models over a finite product catalogue.

Products are identified by the indices 1..n; index 0 is reserved for the
no-purchase option.  A choice model assigns to every offer set S a
probability ``evaluate(x, S)`` that a customer picks x from S, with
``evaluate(0, S) = 1 - sum_{x in S} evaluate(x, S)``.

All model types are immutable after construction and ``evaluate`` is a pure
function, so instances are safe to share across threads.  Models keep no
memo of evaluated offer sets; exhaustive readers share one table per
instance (``AssortmentInstance.table``).  A model of exact rationals may
declare a ``denominator`` D: its ``_choice_row`` then returns the ints p * D,
while ``evaluate`` and ``choice_row`` still return the ``Fraction`` p.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import GroundSetTooLarge, InvalidEpsilon, NonPositiveRevenue

Subset = frozenset[int]


@dataclass(frozen=True)
class ProductSet:
    """The catalogue {1, ..., n}; 0 always denotes the no-purchase option.

    n may be zero: degenerate catalogues arise from pricing reductions with
    no priceable element.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"product count must be >= 0, got {self.n}")

    @property
    def indices(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n


def check_guard(n: int, guard: int) -> None:
    """Raise GroundSetTooLarge if 2^n offer sets exceed the guard on n."""
    if n > guard:
        raise GroundSetTooLarge(f"n={n} exceeds the enumeration guard {guard}")


def enumerate_subsets(n: int, guard: int = 20) -> list[tuple[int, ...]]:
    """All subsets of {1..n} as sorted tuples, by cardinality then lexicographic.

    This is the canonical enumeration order used by every checker, so that
    "first violation found" witnesses are reproducible.
    """
    check_guard(n, guard)
    return [subset for size in range(n + 1) for subset in itertools.combinations(range(1, n + 1), size)]


def offer_rows(model: "ChoiceModel", guard: int = 20):
    """Yield (S, mask, row) for every offer set S, in canonical order.

    S is a sorted tuple as in :func:`enumerate_subsets`, mask has bit x-1
    set for each x in S, and row[i] = P(S[i], S), or its numerator P(S[i], S)
    * D when the model declares a denominator D.  Rows are produced one at
    a time, so a caller that does not keep them never holds the whole table.
    """
    n = model.n
    check_guard(n, guard)
    products = range(1, n + 1)
    bits = [1 << i for i in range(n)]
    for size in range(n + 1):
        for subset, chosen in zip(itertools.combinations(products, size), itertools.combinations(bits, size)):
            yield subset, sum(chosen), model._choice_row(subset)


def as_probabilities(row: tuple, denominator: int | None) -> tuple:
    """A row of numerators over ``denominator`` as ``evaluate`` returns them (as it is without one)."""
    return row if denominator is None else tuple(Fraction(p, denominator) for p in row)


class ChoiceModel:
    """Base class: a system of choice probabilities over ProductSet(n)."""

    denominator: int | None = None  # see the module docstring

    def __init__(self, n: int):
        self._products = ProductSet(n)

    @property
    def products(self) -> ProductSet:
        return self._products

    @property
    def n(self) -> int:
        return self._products.n

    def evaluate(self, x: int, S: Iterable[int]):
        """Probability of choosing x (a product or 0) from the offer set S.

        Subclasses customise _member_probability or _choice_row (each
        defaults to the other) and _no_purchase rather than this method, so
        that an unoffered product always gets 0.0; check_axioms relies on that.
        """
        members = self._as_subset(S)
        if x == 0:
            return self._no_purchase(members)
        if x not in self._products:
            raise ValueError(f"product {x} outside catalogue 1..{self.n}")
        if x not in members:
            return 0.0
        return self._member_probability(x, members)

    def choice_row(self, S: Iterable[int]) -> tuple:
        """P(x, S) for each x of S in ascending order, as ``evaluate`` returns them."""
        return as_probabilities(self._choice_row(tuple(sorted(self._as_subset(S)))), self.denominator)

    def _no_purchase(self, S: Subset):
        """Probability of choosing nothing from S."""
        return 1 - sum(self.choice_row(S))

    def _member_probability(self, x: int, S: Subset):
        """Probability of x in S, for x guaranteed to be a member of S."""
        subset = tuple(sorted(S))
        p = self._choice_row(subset)[subset.index(x)]
        return p if self.denominator is None else Fraction(p, self.denominator)

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        """P(x, S) (or its numerator) for each x of a sorted offer set S."""
        members = frozenset(subset)
        return tuple(self.evaluate(x, members) for x in subset)

    def _as_subset(self, S: Iterable[int]) -> Subset:
        members = frozenset(S)
        bad = [x for x in members if x not in self._products]
        if bad:
            raise ValueError(f"offer set contains unknown products {sorted(bad)}")
        return members

    def to_tabular(self, guard: int = 20) -> "TabularModel":
        """Materialise the model as an explicit table over all 2^n offer sets."""
        rows = offer_rows(self, guard)
        table = {frozenset(S): dict(zip(S, as_probabilities(row, self.denominator))) for S, _, row in rows}
        return TabularModel(self.n, table, validate=False)


class TabularModel(ChoiceModel):
    """Explicit probability table, one entry per (x, S) pair.

    The interchange representation: every other family converts to it (within
    the enumeration guard) so all checkers run on a single code path.
    """

    def __init__(
        self,
        n: int,
        table: Mapping[Iterable[int], Mapping[int, float]],
        validate: bool = True,
    ):
        super().__init__(n)
        normalised: dict[Subset, dict[int, float]] = {}
        for raw_set, probs in table.items():
            members = frozenset(raw_set)
            row: dict[int, float] = {}
            explicit_zero = None
            for x, p in probs.items():
                if x == 0:
                    explicit_zero = p
                    continue
                if x not in members:
                    raise ValueError(f"table assigns P({x}, {sorted(members)}) but {x} is not offered")
                row[x] = p
            normalised[members] = row
            if validate:
                for x, p in row.items():
                    if not 0.0 <= p <= 1.0:
                        raise ValueError(f"P({x}, {sorted(members)}) = {p} outside [0, 1]")
                total = sum(row.values())
                if explicit_zero is not None and abs(explicit_zero - (1 - total)) > 1e-9:
                    raise ValueError(
                        f"explicit no-purchase probability {explicit_zero} inconsistent "
                        f"with 1 - {total} on {sorted(members)}"
                    )
        if validate:
            for subset in enumerate_subsets(n):
                if frozenset(subset) not in normalised:
                    raise ValueError(f"table is missing the offer set {list(subset)}")
        self._table = normalised

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        row = self._table.get(frozenset(subset))
        if row is None:
            raise ValueError(f"offer set {list(subset)} not covered by the table")
        return tuple(row.get(x, 0.0) for x in subset)


class MnlModel(ChoiceModel):
    """Multinomial logit with mean utilities v_x; the no-purchase utility is 0.

    evaluate(x, S) = exp(v_x) / (1 + sum_{y in S} exp(v_y)).
    """

    def __init__(self, mean_utilities: Sequence[float]):
        super().__init__(len(mean_utilities))
        self._utilities = tuple(float(v) for v in mean_utilities)
        if not all(map(math.isfinite, self._utilities)):
            raise ValueError(f"mean utilities must be finite, got {self._utilities}")
        self._weight_of = (0.0,) + tuple(math.exp(v) for v in self._utilities)  # indexed by product

    @property
    def mean_utilities(self) -> tuple[float, ...]:
        return self._utilities

    def _member_probability(self, x: int, S: Subset) -> float:
        denom = 1.0 + sum(self._weight_of[y] for y in sorted(S))
        return self._weight_of[x] / denom

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        # One denominator per offer set, summed in the same ascending order
        # as _member_probability, so every probability is the same float.
        weights = tuple(map(self._weight_of.__getitem__, subset))
        denom = 1.0 + sum(weights)
        return tuple(map(denom.__rtruediv__, weights))


class MixedMnlModel(ChoiceModel):
    """Finite mixture of MNL classes: evaluate = sum_c weight_c * MNL_c."""

    def __init__(self, components: Sequence[tuple[float, Sequence[float]]]):
        if not components:
            raise ValueError("a mixture needs at least one component")
        models = [MnlModel(utilities) for _, utilities in components]
        n = models[0].n
        if any(m.n != n for m in models):
            raise ValueError("all mixture components must share the product count")
        weights = tuple(float(w) for w, _ in components)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError(f"mixture weights must be finite, got {weights}")
        if any(w < 0 for w in weights):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")
        super().__init__(n)
        self._weights = weights
        self._models = tuple(models)

    @property
    def components(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        return tuple((w, m.mean_utilities) for w, m in zip(self._weights, self._models))

    def _member_probability(self, x: int, S: Subset) -> float:
        return sum(w * m._member_probability(x, S) for w, m in zip(self._weights, self._models))

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        rows = [m._choice_row(subset) for m in self._models]
        return tuple(sum(map(operator.mul, self._weights, column)) for column in zip(*rows))


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
        weights = []
        positions = []
        orders = []
        for weight, order in rankings:
            order = tuple(order)
            if expected is None and len(order) == n + 1:
                expected = frozenset(range(n + 1))
            if len(order) != n + 1 or frozenset(order) != expected:
                raise ValueError(f"{order} is not a permutation of 0..{n}")
            if not math.isfinite(weight):
                raise ValueError(f"ranking weight {weight} is not finite")
            if weight < 0:
                raise ValueError("ranking weights must be nonnegative")
            pos = [0] * (n + 1)
            for where, element in enumerate(order):
                pos[element] = where
            weights.append(float(weight))
            positions.append(tuple(pos))
            orders.append(order)
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"ranking weights sum to {sum(weights)}, expected 1")
        self._weights = tuple(weights)
        self._orders = tuple(orders)
        self._positions = tuple(positions)

    @property
    def rankings(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return tuple(zip(self._weights, self._orders))

    def _winner_weights(self, S: Iterable[int]) -> dict[int, float]:
        options = tuple(S) + (0,)
        totals: dict[int, float] = {}
        for weight, pos in zip(self._weights, self._positions):
            first = min(options, key=pos.__getitem__)
            totals[first] = totals.get(first, 0.0) + weight
        return totals

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        winners = self._winner_weights(subset)
        return tuple(winners.get(x, 0.0) for x in subset)

    def _no_purchase(self, S: Subset) -> float:
        return self._winner_weights(S).get(0, 0.0)


def kendall_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of element pairs ordered differently by the two rankings."""
    if frozenset(a) != frozenset(b) or len(a) != len(b):
        raise ValueError("rankings must order the same elements")
    pos_b = {element: where for where, element in enumerate(b)}
    return sum(i > j for i, j in itertools.combinations([pos_b[element] for element in a], 2))


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

    def _no_purchase(self, S: Subset):
        return self._expansion._no_purchase(S)


def expand_ranking_model(
    model: "MallowsModel | Sequence[tuple[float, MallowsModel]]",
    guard: int = 7,
) -> StochasticPreferenceModel:
    """Expand a Mallows model (or a finite mixture of them) over all rankings.

    The normalisation constant is computed by explicit summation over the
    (n+1)! rankings rather than the closed-form product, so the expansion can
    serve as its own oracle.  Output weights sum to 1 within 1e-9.
    """
    if isinstance(model, MallowsModel):
        components: list[tuple[float, MallowsModel]] = [(1.0, model)]
    else:
        components = [(float(w), m) for w, m in model]
        if not components:
            raise ValueError("empty mixture")
        if any(w < 0 for w, _ in components):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(w for w, _ in components) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
    n = components[0][1].n
    if any(m.n != n for _, m in components):
        raise ValueError("all mixture components must share the product count")
    if n > guard:
        raise GroundSetTooLarge(f"cannot enumerate ({n}+1)! rankings; guard is n <= {guard}")

    rankings = list(itertools.permutations(range(n + 1)))
    weights = [0.0] * len(rankings)
    for mixture_weight, component in components:
        raw = [math.exp(-component.theta * kendall_distance(r, component.central_ranking)) for r in rankings]
        normaliser = sum(raw)
        for i, value in enumerate(raw):
            weights[i] += mixture_weight * value / normaliser
    return StochasticPreferenceModel(n, list(zip(weights, rankings)))


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

    def __init__(self, n: int, values: Mapping[Iterable[int], float], guard: int = 16):
        self._n = n
        table = {frozenset(k): float(v) for k, v in values.items()}
        for subset in enumerate_subsets(n, guard):
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

    def __init__(self, n: int, point_weights: Sequence[float], covers: Sequence[Iterable[int]]):
        if len(covers) != n:
            raise ValueError("one cover set per product is required")
        weights = tuple(float(w) for w in point_weights)
        if not all(map(math.isfinite, weights)):
            raise ValueError(f"point weights must be finite, got {weights}")
        if any(w < 0 for w in weights):
            raise ValueError("point weights must be nonnegative")
        if sum(weights) > 1.0 + 1e-9:
            raise ValueError("point weights must sum to at most 1")
        cover_sets = []
        for cover in covers:
            members = frozenset(cover)
            if any(not 0 <= p < len(weights) for p in members):
                raise ValueError("cover sets must reference ground points 0..len(weights)-1")
            cover_sets.append(members)
        self._n = n
        self._weights = weights
        self._covers = tuple(cover_sets)

    @property
    def n(self) -> int:
        return self._n

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
        return sum(self._weights[p] for p in sorted(covered))


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

    def _member_probability(self, x: int, S: Subset) -> float:
        prior = frozenset(y for y in S if self._rank[y] < self._rank[x])
        return self._capacity.value(prior | {x}) - self._capacity.value(prior)


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

    @functools.cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {pair: where + 1 for where, pair in enumerate(self._pairs)}

    @property
    def k(self) -> int:
        return self._k

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def pair_of(self, x: int) -> tuple[int, int]:
        return self._pairs[x - 1]

    def index_of(self, i: int, j: int) -> int:
        return self._index[(i, j)]

    def _member_probability(self, x: int, S: Subset) -> float:
        i, j = self._pairs[x - 1]
        for j_prior in range(1, j):
            if self._index[(i, j_prior)] in S:
                return 0.0
        return self._epsilon**i


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
    return sum(p * revenue[x - 1] for x, p in zip(members, model.choice_row(members)))


def demand(model: ChoiceModel, S: Iterable[int]):
    """Purchase probability sum_{x in S} P(x, S) of the offer set S."""
    return sum(model.choice_row(S))
