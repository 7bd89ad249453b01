"""Seeded random instance generators for every problem kind.

All generators are deterministic functions of a ``random.Random`` stream, so
the same seed always reproduces the same instance, byte for byte once
serialised.  Generated choice models are valid by construction (each family
satisfies the axioms it claims); tests re-verify this through the checkers.
"""

from __future__ import annotations

import math
from random import Random

from .assortment import AssortmentInstance, generate_tight_instance
from .errors import InvalidParams
from .io import instance_to_dict
from .models import (
    CELL_GUARD,
    GUARD,
    CoverageCapacity,
    HfamModel,
    MallowsModel,
    MixedMnlModel,
    MnlModel,
    StochasticPreferenceModel,
    ordered_sum,
)
from .multiperiod import MultiPeriodInstance
from .stackelberg import GraphicMatroid, StackelbergInstance
from .udp import UdpMinInstance, UdpRankInstance

ASSORTMENT_FAMILIES = ("mnl", "mixed_mnl", "stochastic_preference", "mallows", "hfam", "tight")
# Caps on the counts that the enumeration guard does not bound, so that
# `assort suite` checks a file generated at a cap in about a second.
MAX_CONSUMERS = 1000  # largest m_max of udp_min and udp_rank
MAX_VERTICES = 1000  # largest v of stackelberg
MAX_HORIZON = MAX_CAPACITY = math.isqrt(CELL_GUARD)  # largest T and Q of multiperiod, whose T x Q the DP solves


def _random_revenue(rng: Random, n: int) -> list:
    """Positive revenues; integer grids half the time so duplicate levels occur."""
    if rng.random() < 0.5:
        return [rng.randint(1, 5) for _ in range(n)]
    return [round(rng.uniform(0.5, 10.0), 3) for _ in range(n)]


def _random_weights(rng: Random, count: int) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(count)]
    total = ordered_sum(raw)
    weights = [w / total for w in raw]
    weights[-1] = 1.0 - ordered_sum(weights[:-1])
    return weights


def random_assortment_instance(family: str, rng: Random, n_max: int = 7) -> AssortmentInstance:
    """One random instance of the given model family, at most n_max products."""
    if family == "mnl":
        n = rng.randint(1, n_max)
        model = MnlModel([rng.gauss(0.0, 1.5) for _ in range(n)])
    elif family == "mixed_mnl":
        n = rng.randint(1, n_max)
        components = rng.randint(2, 4)
        weights = _random_weights(rng, components)
        model = MixedMnlModel(
            [(w, [rng.gauss(0.0, 1.5) for _ in range(n)]) for w in weights]
        )
    elif family == "stochastic_preference":
        n = rng.randint(1, n_max)
        count = rng.randint(1, 5)
        weights = _random_weights(rng, count)
        rankings = []
        for w in weights:
            order = list(range(n + 1))
            rng.shuffle(order)
            rankings.append((w, tuple(order)))
        model = StochasticPreferenceModel(n, rankings)
    elif family == "mallows":
        n = rng.randint(2, min(4, n_max))
        central = list(range(n + 1))
        rng.shuffle(central)
        model = MallowsModel(central, rng.uniform(0.0, 3.0))
    elif family == "hfam":
        n = rng.randint(1, min(6, n_max))
        points = rng.randint(2, 6)
        weights = [rng.uniform(0.05, 1.0) for _ in range(points)]
        total = ordered_sum(weights) * rng.uniform(1.0, 1.5)
        weights = [w / total for w in weights]
        covers = [
            [p for p in range(points) if rng.random() < 0.5] for _ in range(n)
        ]
        preference = list(range(1, n + 1))
        rng.shuffle(preference)
        model = HfamModel(preference, CoverageCapacity(weights, covers))
    elif family == "tight":
        return generate_tight_instance(rng.randint(1, 4), rng.choice([0.5, 0.1, 0.01]))
    else:
        raise InvalidParams(f"unknown assortment family {family!r}; pick one of {ASSORTMENT_FAMILIES}")
    return AssortmentInstance(model, _random_revenue(rng, model.n))


def random_udp_min(rng: Random, n_max: int = 3, m_max: int = 3) -> UdpMinInstance:
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    consumers = []
    for _ in range(m):
        bundle = [x for x in range(1, n + 1) if rng.random() < 0.6] or [rng.randint(1, n)]
        consumers.append((bundle, rng.randint(1, 9)))
    return UdpMinInstance(n, consumers)


def random_udp_rank(rng: Random, n_max: int = 3, m_max: int = 3) -> UdpRankInstance:
    # Valuations from 1..3 keep the reduced catalogue (n * distinct
    # valuations products) within enumeration guards and exercise ties.
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    consumers = []
    for _ in range(m):
        ranking = list(range(1, n + 1))
        rng.shuffle(ranking)
        consumers.append((ranking, [rng.randint(1, 3) for _ in range(n)]))
    return UdpRankInstance(n, consumers)


def random_stackelberg(rng: Random, max_vertices: int = 5, max_cost_levels: int = 2) -> StackelbergInstance:
    """A random graph whose red edges contain a spanning tree.

    The generator draws a random spanning tree, colours it red with costs
    from a small level set, then sprinkles one to three blue edges (parallel
    edges allowed) and occasionally an extra red edge.
    """
    n_vertices = rng.randint(2, max_vertices)
    level_pool = sorted(rng.sample(range(1, 6), rng.randint(1, max_cost_levels)))
    edges: list[tuple[int, int]] = []
    red_costs: dict[int, float] = {}
    vertices = list(range(n_vertices))
    rng.shuffle(vertices)
    for where in range(1, n_vertices):
        u = vertices[where]
        v = vertices[rng.randint(0, where - 1)]
        red_costs[len(edges)] = rng.choice(level_pool)
        edges.append((u, v))
    if rng.random() < 0.3 and n_vertices >= 2:
        u, v = rng.sample(range(n_vertices), 2)
        red_costs[len(edges)] = rng.choice(level_pool)
        edges.append((u, v))
    blue: list[int] = []
    for _ in range(rng.randint(1, 3)):
        if n_vertices >= 2 and rng.random() < 0.8:
            u, v = rng.sample(range(n_vertices), 2)
        else:
            u, v = rng.choice(edges)
        blue.append(len(edges))
        edges.append((u, v))
    return StackelbergInstance(GraphicMatroid(n_vertices, edges), red_costs, blue)


def random_multiperiod(rng: Random, family: str = "stochastic_preference", n_max: int = 5,
                       horizon_max: int = 6, capacity_max: int = 6) -> MultiPeriodInstance:
    base = random_assortment_instance(family, rng, n_max=n_max)
    return MultiPeriodInstance(base, rng.randint(1, horizon_max), rng.randint(1, capacity_max))


# The --params keys of each kind (and of the tight family), each mapped to
# its generator's keyword and type; a key not given keeps that keyword's default.
_PARAMS = {
    "assortment": {"n_max": ("n_max", int)},
    "tight": {"k": ("k", int), "eps": ("epsilon", float)},
    "udp_min": {"n_max": ("n_max", int), "m_max": ("m_max", int)},
    "udp_rank": {"n_max": ("n_max", int), "m_max": ("m_max", int)},
    "stackelberg": {"v": ("max_vertices", int), "cost_levels": ("max_cost_levels", int)},
    "multiperiod": {"n_max": ("n_max", int), "T": ("horizon_max", int), "Q": ("capacity_max", int)},
}
# The keys that size the catalogue, each mapped to the most products its value allows.
_CATALOGUE = {"n_max": lambda n: n, "k": lambda k: math.comb(k + 1, 2) if k > 0 else 0}
# The keys that size a count, each mapped to what it counts and its cap.
_COUNTS = {"m_max": ("consumers", MAX_CONSUMERS), "v": ("vertices", MAX_VERTICES),
           "T": ("periods", MAX_HORIZON), "Q": ("capacity units", MAX_CAPACITY)}


def _option(key: str, value, kind: type):
    """The --params value as its keyword's type, once an int key holds a
    JSON int (not a bool) whose catalogue fits the enumeration guard and
    whose count fits its cap."""
    if kind is int:
        if type(value) is not int:
            raise InvalidParams(f"parameter {key!r} must be an integer, got {value!r}")
        if key in _CATALOGUE and _CATALOGUE[key](value) > GUARD:
            raise InvalidParams(f"parameter {key!r} = {value} allows {_CATALOGUE[key](value)} products; "
                                f"guard is {GUARD}")
        noun, cap = _COUNTS.get(key, (None, math.inf))
        if value > cap:
            raise InvalidParams(f"parameter {key!r} = {value} exceeds the cap {cap} on {noun}")
    return kind(value)


def generate(kind: str, family: str | None, params: dict, seed: int) -> dict:
    """Build a serialisable instance file: deterministic in (kind, family,
    params, seed).  ``params`` may give only the keys its kind accepts."""
    rng = Random(seed)
    name = "tight" if kind == "assortment" and family == "tight" else kind
    accepted = _PARAMS.get(name)
    if accepted is None:
        raise InvalidParams(f"unknown instance kind {kind!r}")
    unknown = sorted(set(params or {}) - set(accepted))
    if unknown:
        raise InvalidParams(f"unknown parameter {unknown[0]!r} for {name}; accepted: {', '.join(accepted)}")
    try:
        options = {accepted[key][0]: _option(key, value, accepted[key][1]) for key, value in (params or {}).items()}
        if name == "tight":
            instance = generate_tight_instance(**options)
        elif kind == "assortment":
            instance = random_assortment_instance(family or "mnl", rng, **options)
        elif kind == "multiperiod":
            instance = random_multiperiod(rng, **options, **({"family": family} if family else {}))
        else:
            pricing = {"udp_min": random_udp_min, "udp_rank": random_udp_rank, "stackelberg": random_stackelberg}
            instance = pricing[kind](rng, **options)
    except (TypeError, ValueError) as error:
        if isinstance(error, InvalidParams):
            raise
        raise InvalidParams(str(error)) from error
    return instance_to_dict(instance, seed=seed)
