"""Envy-free unit-demand pricing and its restatement as an assortment problem.

Two consumer behaviours are supported.  Under the min rule each consumer has
a bundle of acceptable items and a budget, and buys the cheapest affordable
item of the bundle.  Under the rank rule each consumer walks her preference
list and buys the first item priced within its valuation.  Both problems
reduce to assortment instances over (item, price level) pairs whose choice
probabilities are exact rationals, so oracle comparisons against the pricing
side are exact.

The pricing layer shared with Stackelberg pricing lives here too: the
uniform-price scan `best_uniform_price`, the exact grid search over the
levels plus UNPRICED `grid_optimum`, and the pair-reduction scaffold
`reduce_pairs`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .assortment import AssortmentInstance
from .errors import GroundSetTooLarge, SearchSpaceTooLarge
from .models import GUARD, ChoiceModel, held, members_of

UNPRICED = math.inf
GRID_GUARD = 10**7  # most price assignments an exact grid search tries


def positive_finite(value) -> bool:
    """Positive and, for a float, finite; ints are never converted to float."""
    return value > 0 and not (isinstance(value, float) and not math.isfinite(value))


@dataclass(frozen=True)
class MinConsumer:
    """A bundle of acceptable items and the budget the consumer will pay."""

    bundle: frozenset[int]
    valuation: float


@dataclass(frozen=True)
class RankConsumer:
    """A preference order over all items and one valuation per item."""

    ranking: tuple[int, ...]
    valuations: tuple


class _PricingInstance:
    """Items 1..n and the validated consumers of a unit-demand pricing problem;
    each subclass parses one raw consumer in ``_consumer``."""

    def __init__(self, n: int, consumers: Iterable):
        if type(n) is not int:
            raise ValueError(f"the item count must be an int, got {n!r}")
        if n < 1:
            raise ValueError("at least one item is required")
        self._n = n
        self._consumers = tuple(map(self._consumer, consumers))
        if not self._consumers:
            raise ValueError("at least one consumer is required")
        if not positive_finite(self.m * self.valuation_levels[-1]):  # bounds every revenue of the pricing
            raise ValueError(f"{self.m} consumers x the top valuation overflow a float")

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._consumers)

    @property
    def consumers(self) -> tuple:
        return self._consumers


class UdpMinInstance(_PricingInstance):
    """Cheapest-affordable-item pricing problem; consumers are (bundle, valuation)."""

    def _consumer(self, raw: tuple[Iterable[int], float]) -> MinConsumer:
        bundle, valuation = raw
        members = frozenset(bundle)
        if not members or not all(isinstance(i, int) and 1 <= i <= self._n for i in members):
            raise ValueError(f"bundle {sorted(members)} must be a nonempty subset of 1..{self._n}")
        if not positive_finite(valuation):
            raise ValueError("valuations must be positive and finite")
        return MinConsumer(members, valuation)

    @property
    def valuation_levels(self) -> tuple:
        """Distinct consumer budgets, ascending; candidate prices live here."""
        return tuple(sorted({c.valuation for c in self._consumers}))


class UdpRankInstance(_PricingInstance):
    """First-affordable-item pricing problem; consumers are (ranking, valuations)."""

    def _consumer(self, raw: tuple[Sequence[int], Sequence[float]]) -> RankConsumer:
        ranking, valuations = raw
        order = tuple(ranking)
        if len(order) != self._n or frozenset(order) != frozenset(range(1, self._n + 1)):
            raise ValueError(f"{order} is not a permutation of 1..{self._n}")
        values = tuple(valuations)
        if len(values) != self._n:
            raise ValueError("one valuation per item is required")
        if not all(map(positive_finite, values)):
            raise ValueError("valuations must be positive and finite")
        return RankConsumer(order, values)

    @property
    def valuation_levels(self) -> tuple:
        return tuple(sorted({v for c in self._consumers for v in c.valuations}))


@dataclass(frozen=True)
class PurchaseOutcome:
    """Item bought by each consumer (None for no purchase) and total revenue."""

    purchases: tuple[int | None, ...]
    revenue: float


def simulate_purchases_min(instance: UdpMinInstance, prices: Sequence) -> PurchaseOutcome:
    """Each consumer buys the cheapest affordable item of her bundle.

    Price ties go to the lowest item index; the revenue is tie-invariant
    since tied items cost the same.
    """
    _validate_prices(instance.n, prices)
    purchases: list[int | None] = []
    revenue = 0
    for consumer in instance.consumers:
        affordable = [
            (prices[x - 1], x) for x in sorted(consumer.bundle) if prices[x - 1] <= consumer.valuation
        ]
        if affordable:
            price, item = min(affordable)
            purchases.append(item)
            revenue += price
        else:
            purchases.append(None)
    return PurchaseOutcome(tuple(purchases), revenue)


def simulate_purchases_rank(instance: UdpRankInstance, prices: Sequence) -> PurchaseOutcome:
    """Each consumer buys the first item of her list priced within valuation."""
    _validate_prices(instance.n, prices)
    purchases: list[int | None] = []
    revenue = 0
    for consumer in instance.consumers:
        bought = None
        for x in consumer.ranking:
            if prices[x - 1] <= consumer.valuations[x - 1]:
                bought = x
                revenue += prices[x - 1]
                break
        purchases.append(bought)
    return PurchaseOutcome(tuple(purchases), revenue)


def _validate_prices(n: int, prices: Sequence) -> None:
    if len(prices) != n:
        raise ValueError(f"expected {n} prices, got {len(prices)}")
    for p in prices:
        if not (p > 0 or p == UNPRICED):
            raise ValueError("prices must be positive (or UNPRICED)")


def _simulate(instance, prices: Sequence) -> PurchaseOutcome:
    if isinstance(instance, UdpMinInstance):
        return simulate_purchases_min(instance, prices)
    return simulate_purchases_rank(instance, prices)


@dataclass(frozen=True)
class UniformPricingResult:
    """Best single price across all items, with every candidate's revenue."""

    price: float
    revenue: float
    candidates: tuple[tuple[float, float], ...]


def best_uniform_price(levels: Iterable, revenue_at: Callable) -> UniformPricingResult:
    """Try each level, ascending, as the one common price and keep the best,
    ties toward the highest level; no level at all gives (None, 0, ())."""
    best_price, best_revenue, candidates = None, 0, []
    for level in levels:
        revenue = revenue_at(level)
        candidates.append((level, revenue))
        if best_price is None or revenue >= best_revenue:
            best_price, best_revenue = level, revenue
    return UniformPricingResult(best_price, best_revenue, tuple(candidates))


def uniform_pricing(instance: UdpMinInstance | UdpRankInstance) -> UniformPricingResult:
    """Try one common price per distinct valuation and keep the best.

    Ties are broken toward the highest price.
    """
    return best_uniform_price(instance.valuation_levels, lambda v: _simulate(instance, (v,) * instance.n).revenue)


@dataclass(frozen=True)
class PricingSolution:
    prices: tuple | dict
    revenue: float


def grid_optimum(levels: Sequence, count: int, revenue_of: Callable) -> PricingSolution:
    """After the check against GRID_GUARD, the first strictly best assignment of
    ``levels`` plus UNPRICED to ``count`` elements in ``itertools.product`` order
    (ties go to the lexicographically smallest)."""
    grid, guard = list(levels) + [UNPRICED], GRID_GUARD
    # Logarithms are compared first, so a huge power is never computed.
    if count * math.log(len(grid)) > math.log(guard) + 1e-9 or len(grid) ** count > guard:
        raise SearchSpaceTooLarge(f"{len(grid)}^{count} price assignments exceed the guard {guard}")
    # The grid always holds at least one assignment, and max keeps the first of equal revenues.
    revenue, prices = max(((revenue_of(a), a) for a in itertools.product(grid, repeat=count)), key=itemgetter(0))
    return PricingSolution(prices, revenue)


def brute_force_pricing(instance: UdpMinInstance | UdpRankInstance) -> PricingSolution:
    """Exact optimum over the grid of valuation levels plus UNPRICED per item.

    Restricting prices to valuations loses nothing, and UNPRICED covers
    never-affordable items.  Ties go to the lexicographically smallest
    price vector.
    """
    return grid_optimum(instance.valuation_levels, instance.n, lambda p: _simulate(instance, p).revenue)


class _PairCatalogue:
    """Shared (element, price level) pair indexing for the reduced instances;
    an int ``items`` n stands for the items 1..n.

    Pairs are numbered 1, 2, ... element by element, each element's levels
    ascending, so an element's pairs rise in level as their index rises and
    its cheapest offered level is its lowest-indexed offered pair."""

    def __init__(self, items: int | Sequence, levels: Sequence):
        self.levels = tuple(levels)
        elements = range(1, items + 1) if isinstance(items, int) else items
        self.pairs = tuple((x, v) for x in elements for v in self.levels)
        self.index = {pair: where + 1 for where, pair in enumerate(self.pairs)}

    def floor_prices(self, members: Iterable[int], n_items: int) -> list:
        """Per-item cheapest level present in the pair set (UNPRICED if none)."""
        floor = [UNPRICED] * n_items
        for where in members:
            x, v = self.pairs[where - 1]
            if v < floor[x - 1]:
                floor[x - 1] = v
        return floor

    def floor_masks(self, c: int, high: int = 0) -> list[int]:
        """The floor of L | high for every mask L of the pairs 1..c: the
        lowest-indexed pair of each element held, its cheapest offered level.

        Pairs join in ascending order, so each is above every pair held
        before it, and it is a floor pair unless one of its element's pairs
        is already held.  The pairs 1..c double the masks, and then each
        pair of ``high`` joins all of them.
        """
        k = len(self.levels)
        floors = [0]
        for x in (*range(1, c + 1), *members_of(high, len(self.pairs))):
            bit, run = 1 << (x - 1), ((1 << k) - 1) << ((x - 1) // k * k)
            grown = [floor if floor & run else floor | bit for floor in floors]
            floors = floors + grown if x <= c else grown
        return floors


class _FloorChoiceModel(ChoiceModel):
    """A pricing instance restated over the (element, level) pairs of a
    catalogue, whose rows depend on the offer set only through its floor.

    Offering a pair set amounts to charging each element its cheapest
    offered level, so P(x, S) is the outcome of the floor of S at x, and 0
    at every pair above its element's floor.  ``_numerators`` gives that
    outcome, P(x, floor) * denominator for every pair x of a floor that
    sells; probabilities are exact rationals over the denominator the
    subclass declares, so revenue comparisons against the pricing oracle can
    demand exact equality.  ``_choice_row`` and ``columns`` both read the
    outcome, and ``columns`` runs it once per distinct floor of its block.
    """

    def __init__(self, instance, catalogue: _PairCatalogue):
        super().__init__(len(catalogue.pairs))
        self._instance = instance
        self._catalogue = catalogue
        self.pairs = catalogue.pairs

    @property
    def pair_catalogue(self) -> _PairCatalogue:
        return self._catalogue

    def _numerators(self, floor: tuple[int, ...]) -> Mapping[int, int]:
        """P(x, floor) * denominator for every pair x of the floor set that sells."""
        raise NotImplementedError

    def _choice_row(self, subset: tuple[int, ...]) -> tuple:
        floor = self._catalogue.floor_masks(0, sum(1 << (x - 1) for x in subset))[0]
        numerators = self._numerators(members_of(floor, self.n))
        return tuple(numerators.get(x, 0) for x in subset)

    def columns(self, c: int, high: int = 0) -> list[list]:
        """The default's columns, with one ``_numerators`` per distinct floor:
        each entry is looked up by its mask's floor id."""
        ids: dict[int, int] = {}
        at = [ids.setdefault(floor, len(ids)) for floor in self._catalogue.floor_masks(c, high)]
        outcomes = [self._numerators(members_of(floor, self.n)) for floor in ids]
        columns = []
        for x in (*range(1, c + 1), *members_of(high, self.n)):
            where = held(at, 1 << (x - 1)) if x <= c else at
            columns.append(list(map([outcome.get(x, 0) for outcome in outcomes].__getitem__, where)))
        return columns


class MinPricingChoiceModel(_FloorChoiceModel):
    """Choice probabilities encoding the cheapest-affordable purchase rule.

    Consumer i spreads her purchase uniformly over the cheapest bundle pairs
    present in the offer set, provided that cheapest level is affordable.
    A tie has at most as many pairs as the bundle has items, so every share
    is a multiple of 1 / (m * L), with L the lcm of 1..(largest bundle).
    """

    def __init__(self, instance, catalogue: _PairCatalogue):
        super().__init__(instance, catalogue)
        self._ties = math.lcm(*range(1, max(len(c.bundle) for c in instance.consumers) + 1))
        self.denominator = instance.m * self._ties

    def _numerators(self, floor: tuple[int, ...]) -> dict[int, int]:
        pairs = self._catalogue.pairs
        totals: dict[int, int] = {}
        for consumer in self._instance.consumers:
            relevant = [where for where in floor if pairs[where - 1][0] in consumer.bundle]
            if not relevant:
                continue
            cheapest = min(pairs[where - 1][1] for where in relevant)
            if cheapest > consumer.valuation:
                continue
            chosen = [where for where in relevant if pairs[where - 1][1] == cheapest]
            share = self._ties // len(chosen)
            for where in chosen:
                totals[where] = totals.get(where, 0) + share
        return totals


class RankPricingChoiceModel(_FloorChoiceModel):
    """Choice probabilities encoding the first-affordable purchase rule.

    The offer set induces the price assignment that charges each item its
    cheapest offered level; consumer i deterministically picks the pair her
    scan would buy under those prices, so every probability is a count / m.
    """

    def __init__(self, instance, catalogue: _PairCatalogue):
        super().__init__(instance, catalogue)
        self.denominator = instance.m

    def _numerators(self, floor: tuple[int, ...]) -> dict[int, int]:
        prices = self._catalogue.floor_prices(floor, self._instance.n)
        bought = simulate_purchases_rank(self._instance, prices).purchases
        return Counter(self._catalogue.index[(x, prices[x - 1])] for x in bought if x is not None)


def reduce_pairs(count: int, levels: Sequence, buyers: int, nouns: tuple, build: Callable):
    """Refuse ``count`` elements x ``levels`` products beyond ``GUARD`` before anything is built; then
    ``build`` the model over (element, level) pairs, and pay ``buyers`` x level for each pair."""
    products = count * len(levels)
    if products > GUARD:
        raise GroundSetTooLarge(f"reduction would create {count} {nouns[0]} x {len(levels)} {nouns[1]} "
                                f"= {products} products; guard is {GUARD}")
    model = build()
    return AssortmentInstance(model, [buyers * level for (_, level) in model.pairs])


def _reduce(instance, model_cls) -> AssortmentInstance:
    return reduce_pairs(instance.n, instance.valuation_levels, instance.m, ("items", "valuation levels"),
                        lambda: model_cls(instance, _PairCatalogue(instance.n, instance.valuation_levels)))


def reduce_min_to_assortment(instance: UdpMinInstance) -> AssortmentInstance:
    """Restate a min-rule pricing problem as an assortment problem.

    Products are (item, valuation level) pairs earning m * level; offering S
    amounts to charging each item its cheapest offered level.  The optimum
    revenue is preserved, and the revenue-ordered candidates coincide with
    the uniform-pricing candidates threshold by threshold.
    """
    return _reduce(instance, MinPricingChoiceModel)


def reduce_rank_to_assortment(instance: UdpRankInstance) -> AssortmentInstance:
    """Restate a rank-rule pricing problem as an assortment problem.

    Mirrors the min-rule construction with first-affordable semantics; the
    equivalence is validated against the pricing oracle on small instances.
    """
    return _reduce(instance, RankPricingChoiceModel)
