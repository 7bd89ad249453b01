"""Matroid machinery and the leader-follower base-buying pricing problem.

A follower buys a minimum-weight base of a matroid whose elements are split
into red ones with fixed costs and blue ones priced by the leader, blue
preferred on cost ties.  The leader's problem reduces to an assortment
instance over (blue element, cost level) pairs via an auxiliary matroid that
caps each blue element at one copy.  Uniform pricing, the grid search and
the reduction are thin callers of the pricing layer in `udp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .assortment import AssortmentInstance
from .models import ordered_sum
from .udp import (UNPRICED, PricingSolution, UniformPricingResult, _FloorChoiceModel, _PairCatalogue,
                  best_uniform_price, grid_optimum, positive_finite, reduce_pairs)

Element = Hashable


class Matroid:
    """A ground set with a pure independence predicate."""

    def __init__(self, ground: Iterable[Element]):
        self._ground = tuple(ground)
        if len(set(self._ground)) != len(self._ground):
            raise ValueError("ground set elements must be distinct")

    @property
    def ground(self) -> tuple[Element, ...]:
        return self._ground

    def is_independent(self, subset: Iterable[Element]) -> bool:
        raise NotImplementedError

    def extender(self) -> Callable[[Element], bool]:
        """A fresh independence test for one greedy scan: each call says
        whether the element, added to every element the test has accepted so
        far, is independent, and accepts it if so."""
        accepted: list[Element] = []

        def extend(element: Element) -> bool:
            if self.is_independent(accepted + [element]):
                accepted.append(element)
                return True
            return False

        return extend

    def rank(self) -> int:
        return len(greedy(self, self._ground, self._ground))


class GraphicMatroid(Matroid):
    """Forests of an undirected multigraph; elements are edge indices.

    Parallel edges are allowed (two of them already form a cycle) and a
    self-loop is dependent on its own.  The vertices that edges touch are
    numbered once, so the union-find of ``is_independent`` is sized by them,
    not by ``n_vertices``.
    """

    def __init__(self, n_vertices: int, edges: Sequence[tuple[int, int]]):
        if n_vertices < 1:
            raise ValueError("at least one vertex is required")
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) references unknown vertices")
        super().__init__(range(len(edges)))
        self._n_vertices = n_vertices
        self._edges = tuple((u, v) for u, v in edges)
        number: dict[int, int] = {}  # each touched vertex, numbered in order of first touch
        self._ends = tuple((number.setdefault(u, len(number)), number.setdefault(v, len(number)))
                           for u, v in self._edges)
        self._touched = len(number)

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def is_independent(self, subset: Iterable[Element]) -> bool:
        extend = self.extender()
        return all(extend(index) for index in subset)

    def extender(self) -> Callable[[Element], bool]:
        """One union-find kept across the scan: an edge is accepted when its
        ends lie in different trees of the accepted forest."""
        parent = list(range(self._touched))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def extend(index: Element) -> bool:
            u, v = self._ends[index]
            root_u, root_v = find(u), find(v)
            if root_u == root_v:
                return False
            parent[root_u] = root_v
            return True

        return extend


def greedy(matroid: Matroid, F: Iterable[Element], order: Sequence[Element]) -> frozenset:
    """Scan F in the given order, keeping every element that stays independent.

    Returns the canonical greedy set, a maximal independent subset of F.
    """
    chosen_f = frozenset(F)
    extend = matroid.extender()
    return frozenset(element for element in order if element in chosen_f and extend(element))


class StackelbergInstance:
    """A matroid with fixed-cost red elements and leader-priced blue ones.

    The red elements must contain a base (otherwise the optimal revenue is
    unbounded and construction is rejected).
    """

    def __init__(self, matroid: Matroid, red_costs: Mapping[Element, float], blue: Iterable[Element]):
        red = frozenset(red_costs)
        blue = frozenset(blue)
        if red & blue or red | blue != frozenset(matroid.ground):
            raise ValueError("red and blue must partition the ground set")
        for element, cost in red_costs.items():
            if not positive_finite(cost):
                raise ValueError(f"cost of red element {element!r} is {cost}; must be positive and finite")
        if len(greedy(matroid, red, matroid.ground)) != matroid.rank():
            raise ValueError("the red elements must contain a base of the matroid")
        if blue and not positive_finite(len(blue) * max(red_costs.values(), default=1)):  # bounds every revenue
            raise ValueError(f"{len(blue)} blue elements x the top red cost overflow a float")
        self._matroid = matroid
        self._red_costs = dict(red_costs)
        self._blue = blue

    @property
    def matroid(self) -> Matroid:
        return self._matroid

    @property
    def red_costs(self) -> dict:
        return dict(self._red_costs)

    @property
    def blue(self) -> frozenset:
        return self._blue

    @property
    def cost_levels(self) -> tuple:
        """Distinct red costs c_1 < ... < c_k."""
        return tuple(sorted(set(self._red_costs.values())))

    def effective_costs(self, prices: Mapping[Element, float]) -> dict:
        costs = dict(self._red_costs)
        for element in self._blue:
            costs[element] = prices[element]
        return costs


def _sort_key(element: Element) -> tuple:
    if isinstance(element, int):
        return (0, element, "")
    return (1, 0, repr(element))


def cost_compatible_ordering(instance: StackelbergInstance, prices: Mapping[Element, float]) -> tuple:
    """The canonical follower ordering: ascending cost, blue before red on
    ties, element identity as the final (revenue-irrelevant) tie-break."""
    costs = instance.effective_costs(prices)
    blue = instance.blue

    def key(element: Element) -> tuple:
        return (costs[element], 0 if element in blue else 1, _sort_key(element))

    return tuple(sorted(instance.matroid.ground, key=key))


@dataclass(frozen=True)
class StackelbergOutcome:
    revenue: float
    bought_blue: frozenset


def revenue_of_prices(instance: StackelbergInstance, prices: Mapping[Element, float]) -> StackelbergOutcome:
    """Revenue when the follower buys a cheapest base under the given prices.

    The follower may use any cost-compatible ordering; the revenue does not
    depend on which, so the canonical one is used.  Blue elements may be
    UNPRICED, which keeps them out of every cheapest base.
    """
    for element in instance.blue:
        price = prices[element]
        if not (price > 0 or price == UNPRICED):
            raise ValueError(f"price of blue element {element!r} must be positive or UNPRICED")
    # The reds hold a base and precede every UNPRICED element, so none of those is bought.
    order = cost_compatible_ordering(instance, prices)
    bought = greedy(instance.matroid, instance.matroid.ground, order) & instance.blue
    return StackelbergOutcome(ordered_sum(sorted(prices[e] for e in bought)), bought)


def uniform_pricing_stackelberg(instance: StackelbergInstance) -> UniformPricingResult:
    """Price every blue element at a common red cost level; keep the best.

    Ties are broken toward the largest level.  Without red costs there is no
    level to try, and the result is price None with revenue 0.
    """
    return best_uniform_price(instance.cost_levels,
                              lambda level: revenue_of_prices(instance, dict.fromkeys(instance.blue, level)).revenue)


def brute_force_stackelberg(instance: StackelbergInstance) -> PricingSolution:
    """Exact optimum over the grid of red cost levels plus UNPRICED per blue.

    Restricting to that grid loses nothing: any price strictly between
    levels can be raised to the next level, and anything above the top level
    is never bought.  The prices map each blue element to its price.
    """
    blue = sorted(instance.blue, key=_sort_key)
    best = grid_optimum(instance.cost_levels, len(blue),
                        lambda assignment: revenue_of_prices(instance, dict(zip(blue, assignment))).revenue)
    return PricingSolution(dict(zip(blue, best.prices)), best.revenue)


class PricedCopyMatroid(Matroid):
    """The auxiliary matroid on red elements plus (blue, level) pairs.

    A set is independent when it takes at most one copy per blue element and
    its projection (reds plus the blue elements behind the chosen copies) is
    independent in the base matroid.  For graphic matroids this is exactly
    the graph with each blue edge replaced by one parallel copy per level.
    """

    def __init__(self, base: Matroid, blue: frozenset, levels: Sequence):
        self._base = base
        self.catalogue = _PairCatalogue(sorted(blue, key=_sort_key), levels)
        self.pairs = self.catalogue.pairs
        reds = [e for e in base.ground if e not in blue]
        super().__init__(tuple(reds) + self.pairs)
        self._reds = frozenset(reds)

    def is_independent(self, subset: Iterable[Element]) -> bool:
        members = frozenset(subset)
        reds = {e for e in members if e in self._reds}
        copies = members - reds
        chosen_blue = [e for e, _ in copies]
        if len(chosen_blue) != len(set(chosen_blue)):
            return False
        return self._base.is_independent(reds | set(chosen_blue))

    def extender(self) -> Callable[[Element], bool]:
        """The base's test on the projection: a red element as itself, a
        copy as its blue element unless a copy of that one was accepted."""
        extend_base = self._base.extender()
        taken: set[Element] = set()

        def extend(element: Element) -> bool:
            if element in self._reds:
                return extend_base(element)
            blue = element[0]
            if blue in taken or not extend_base(blue):
                return False
            taken.add(blue)
            return True

        return extend


class StackelbergChoiceModel(_FloorChoiceModel):
    """Choice probabilities encoding the follower's greedy purchase.

    Offering pair set S makes the follower run greedy on the auxiliary
    matroid over the reds plus S; each selected pair is chosen with exact
    probability 1/|B|, so the model declares the denominator |B| and its
    rows are 1 for a selected pair and 0 otherwise.  Greedy meets the
    copies of a blue element cheapest first: it keeps that copy, or finds
    the element spanned, which stays so as the selection grows, and it
    never keeps a second copy.  So it selects from the floor of S alone.
    """

    def __init__(self, instance: StackelbergInstance):
        self._aux = PricedCopyMatroid(instance.matroid, instance.blue, instance.cost_levels)
        super().__init__(instance, self._aux.catalogue)
        self._reds = frozenset(e for e in instance.matroid.ground if e not in instance.blue)
        red_costs = instance.red_costs

        def key(element: Element) -> tuple:
            if element in self._reds:
                return (red_costs[element], 1, _sort_key(element))
            return (element[1], 0, _sort_key(element))

        self._order = tuple(sorted(self._aux.ground, key=key))
        self.denominator = len(instance.blue) or 1  # 1 keeps an empty catalogue's table well defined

    @property
    def auxiliary_matroid(self) -> PricedCopyMatroid:
        return self._aux

    @property
    def reference_order(self) -> tuple:
        return self._order

    def _numerators(self, floor: tuple[int, ...]) -> dict[int, int]:
        selection = greedy(self._aux, self._reds | {self.pairs[where - 1] for where in floor}, self._order)
        return {where: 1 for where in floor if self.pairs[where - 1] in selection}


def reduce_to_assortment(instance: StackelbergInstance) -> AssortmentInstance:
    """Restate the pricing problem as an assortment problem.

    Products are (blue element, cost level) pairs earning |B| * level; the
    optimum revenue is preserved, and uniform pricing at a level matches the
    revenue-ordered candidate at the corresponding threshold.
    """
    blue = len(instance.blue)
    return reduce_pairs(blue, instance.cost_levels, blue, ("blue elements", "cost levels"),
                        lambda: StackelbergChoiceModel(instance))
