"""The Mallows expansion and the stochastic-preference columns against the
per-ranking code they replace.

``expand_ranking_model`` takes the Kendall distances of all rankings from one
pass per pair of positions and each weight from one exp per distance, and
``StochasticPreferenceModel.columns`` lists each win set once per call.  The
references below are the code they replace: one ``kendall_distance`` and one
exp per ranking, and one ``subset_sums`` per ranking and product.  Results
must equal theirs by ``repr``; the columns list each win set once and hold
no more memory than the reference.
"""

import hashlib
import itertools
import math
import tracemalloc
from random import Random

from hypothesis import example, given, settings, strategies as st

from assortopt import models
from assortopt.generators import random_assortment_instance
from assortopt.models import MallowsModel, StochasticPreferenceModel, expand_ranking_model, members_of, ordered_sum
from test_models import kendall_distance

# ------------------------------------------------------------------ references


def ref_expand_ranking_model(model):
    rankings = list(itertools.permutations(range(model.n + 1)))
    raw = [math.exp(-model.theta * kendall_distance(r, model.central_ranking)) for r in rankings]
    normaliser = ordered_sum(raw)
    return StochasticPreferenceModel(model.n, [(value / normaliser, r) for value, r in zip(raw, rankings)])


def ref_columns(model, c, high=0):
    """One ``subset_sums`` per ranking and product that wins somewhere."""
    highs = members_of(high, model.n)
    size = 1 << c
    columns = [[0.0] * (size >> 1) for _ in range(c)] + [[0.0] * size for _ in highs]
    for weight, order in model.rankings:
        blocked = set()
        for x in order[: order.index(0)]:
            if x <= c:
                column = columns[x - 1]
                free = [1 << (y - 1 if y < x else y - 2) for y in range(1, c + 1) if y != x and y not in blocked]
            elif high >> (x - 1) & 1:
                column = columns[c + highs.index(x)]
                free = [1 << (y - 1) for y in range(1, c + 1) if y not in blocked]
            else:
                continue
            for index in models.subset_sums(free, len(free)):
                column[index] += weight
            if x > c:
                break
            blocked.add(x)
    return columns


def _blocks(n):
    """(c, high) for every block of every size: high runs over the masks above c."""
    return [(c, high) for c in range(n + 1) for high in range(0, 1 << n, 1 << c)]


def _check_blocks(model, expansion):
    for c, high in _blocks(model.n):
        assert repr(model.columns(c, high)) == repr(ref_columns(expansion, c, high)), (c, high)


# -------------------------------------------------------------------- outputs

THETAS = [0.0, 5e-324, 0.7, 50.0, 800.0]


@settings(max_examples=40, deadline=None)
@given(central=st.integers(0, 6).flatmap(lambda n: st.permutations(range(n + 1))), theta=st.sampled_from(THETAS))
@example(central=[3, 1, 0, 7, 2, 5, 4, 6], theta=0.7)
def test_expansion_matches_one_distance_per_ranking(central, theta):
    model = MallowsModel(central, theta)
    expected = ref_expand_ranking_model(model).rankings
    assert repr(expand_ranking_model(model).rankings) == repr(expected)


@settings(max_examples=25, deadline=None)
@given(central=st.integers(0, 4).flatmap(lambda n: st.permutations(range(n + 1))), theta=st.sampled_from(THETAS))
def test_mallows_columns_match_one_subset_sums_per_ranking(central, theta):
    model = MallowsModel(central, theta)
    _check_blocks(model, model._expansion)


@st.composite
def ranking_models(draw):
    n = draw(st.integers(0, 8))
    raw = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    orders = [draw(st.permutations(range(n + 1))) for _ in raw]
    return StochasticPreferenceModel(n, [(w / sum(raw), tuple(order)) for w, order in zip(raw, orders)])


@settings(max_examples=40, deadline=None)
@given(model=ranking_models())
def test_ranking_columns_match_one_subset_sums_per_ranking(model):
    _check_blocks(model, model)


# sha256 of the tables below over seeds 0-29 of the two ranking families, as
# written by one subset_sums per ranking and product and one kendall_distance
# per ranking.
RANKING_TABLES_SHA256 = "eae512dffcea40b4421cab76fe6a0271d676d3fd7ed240c47840f22197d33258"


def test_generated_ranking_tables_are_unchanged():
    lines = []
    for family in ("mallows", "stochastic_preference"):
        for seed in range(30):
            model = random_assortment_instance(family, Random(seed)).model
            lines.append(repr(model.columns(model.n)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RANKING_TABLES_SHA256


# ------------------------------------------------------------- work and memory


def test_each_win_set_is_listed_once(monkeypatch):
    # At n = 4 the 120 rankings win 240 times, at 4 * 2^3 distinct
    # (x, mask of the products ranked before x) pairs.
    calls = []
    real = models.subset_sums
    monkeypatch.setattr(models, "subset_sums", lambda *args: calls.append(args) or real(*args))
    model = MallowsModel((2, 0, 4, 1, 3), 0.7)
    ref_columns(model._expansion, 4)
    assert len(calls) == 240
    calls.clear()
    model.columns(4)
    assert len(calls) == 32


def _peak(read):
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_few_rankings_keep_no_long_win_set():
    rng = Random(1)
    model = StochasticPreferenceModel(16, [(0.2, tuple(rng.sample(range(17), 17))) for _ in range(5)])
    expected = _peak(lambda: ref_columns(model, 12))
    assert _peak(lambda: model.columns(12)) <= 1.1 * expected
