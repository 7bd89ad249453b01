"""Randomised and exhaustive checks of the matroid properties the Stackelberg
reduction rests on, with an independence system given as a callable to
build the non-matroid sentinels that must trip them.

Imported by ``test_stackelberg.py`` and criterion 07 of
``test_acceptance.py``; the file name has no ``test_`` prefix, so pytest
does not collect it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Mapping, Sequence

from assortopt.errors import GroundSetTooLarge
from assortopt.models import ordered_sum
from assortopt.stackelberg import Matroid, StackelbergInstance, greedy, revenue_of_prices

MATROID_GUARD = 8  # largest ground set whose 2^n subsets check_matroid_axioms pairs up


class FunctionMatroid(Matroid):
    """Independence supplied as a callable; also hosts non-matroid sentinels
    used to test the property checks."""

    def __init__(self, ground: Iterable, predicate: Callable[[frozenset], bool]):
        super().__init__(ground)
        self._predicate = predicate

    def is_independent(self, subset: Iterable) -> bool:
        return self._predicate(frozenset(subset))


def check_matroid_axioms(matroid: Matroid) -> bool:
    """Exhaustively verify the three matroid axioms on a small ground set."""
    ground = matroid.ground
    if len(ground) > MATROID_GUARD:
        raise GroundSetTooLarge(f"{len(ground)} elements exceed the axiom-check guard {MATROID_GUARD}")
    subsets = [frozenset(c) for size in range(len(ground) + 1) for c in itertools.combinations(ground, size)]
    independent = {S for S in subsets if matroid.is_independent(S)}
    if frozenset() not in independent:
        return False
    for S in independent:
        if any(S - {e} not in independent for e in S):
            return False
    for small in independent:
        for big in independent:
            if len(small) < len(big):
                if not any(small | {e} in independent for e in big - small):
                    return False
    return True


@dataclass(frozen=True)
class GreedyNestingReport:
    """Randomised check of the two nesting properties of matroid greedy:
    growing F never shrinks the greedy set, and elements of F selected from
    the larger set are also selected from F itself."""

    passed: bool
    trials: int
    failures: tuple[tuple, ...]


def check_greedy_nesting(matroid: Matroid, trials: int, rng: Random | None = None) -> GreedyNestingReport:
    """Sample random F within F' and random orders; report any counterexample.

    A genuine matroid always passes; a non-matroid independence system is
    expected to fail, which validates the check itself.
    """
    rng = rng or Random(0)
    ground = list(matroid.ground)
    failures: list[tuple] = []
    for _ in range(trials):
        order = ground[:]
        rng.shuffle(order)
        larger = frozenset(e for e in ground if rng.random() < 0.7)
        smaller = frozenset(e for e in larger if rng.random() < 0.6)
        from_larger = greedy(matroid, larger, order)
        from_smaller = greedy(matroid, smaller, order)
        if len(from_larger) < len(from_smaller):
            failures.append(("cardinality", tuple(order), smaller, larger))
        if not (smaller & from_larger) <= from_smaller:
            failures.append(("containment", tuple(order), smaller, larger))
    return GreedyNestingReport(not failures, trials, tuple(failures))


def is_cost_compatible(order: Sequence, costs: Mapping, blue: frozenset) -> bool:
    """Check the two follower-ordering constraints: cheaper first, and blue
    before red when costs tie."""
    position = {element: where for where, element in enumerate(order)}
    for e in order:
        for f in order:
            if costs[e] < costs[f] and not position[e] < position[f]:
                return False
            if costs[e] == costs[f] and e in blue and f not in blue and not position[e] < position[f]:
                return False
    return True


def check_tiebreak_independence(
    instance: StackelbergInstance,
    prices: Mapping,
    trials: int,
    rng: Random | None = None,
) -> bool:
    """Sample random cost-compatible orderings and confirm the revenue and
    the per-price-level count of bought blue elements never change."""
    rng = rng or Random(0)
    costs = instance.effective_costs(prices)
    blue = instance.blue

    def level_counts(bought: frozenset) -> Counter:
        return Counter(prices[e] for e in bought)

    reference = revenue_of_prices(instance, prices)
    reference_counts = level_counts(reference.bought_blue)

    blocks: dict[tuple, list] = {}
    for element in instance.matroid.ground:
        block = (costs[element], 0 if element in blue else 1)
        blocks.setdefault(block, []).append(element)
    block_keys = sorted(blocks)

    for _ in range(trials):
        order: list = []
        for block in block_keys:
            members = blocks[block][:]
            rng.shuffle(members)
            order.extend(members)
        bought = greedy(instance.matroid, instance.matroid.ground, order) & blue
        if ordered_sum(sorted(prices[e] for e in bought)) != reference.revenue or level_counts(bought) != reference_counts:
            return False
    return True
