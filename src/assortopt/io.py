"""JSON interchange for models and problem instances.

A model descriptor is a dict with a "type" tag; an instance file wraps a
kind tag, a kind-specific payload, and the seed that generated it (when
any).  Serialisation is deterministic (sorted keys) and floats survive a
round trip exactly; the UNPRICED sentinel is written as the string "inf"
since JSON has no infinity literal.  A table entry that is a Fraction (the
rows of a reduced pricing model) is written as the string "a/b" and read
back as that Fraction, so a reduced file keeps its exact arithmetic.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .assortment import AssortmentInstance
from .models import (
    ChoiceModel,
    CoverageCapacity,
    HfamModel,
    MallowsModel,
    MixedMnlModel,
    MnlModel,
    StochasticPreferenceModel,
    TableCapacity,
    TabularModel,
    TightExampleModel,
    enumerate_subsets,
    probability_rows,
)
from .multiperiod import MultiPeriodInstance
from .stackelberg import GraphicMatroid, StackelbergInstance
from .udp import UdpMinInstance, UdpRankInstance

_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def model_to_dict(model: ChoiceModel) -> dict:
    """Serialise a model to its JSON descriptor; a table over all 2^n offer
    sets refuses an n above ``GUARD``, as reading the file back would."""
    if isinstance(model, MnlModel):
        return {"type": "mnl", "mean_utilities": list(model.mean_utilities)}
    if isinstance(model, MixedMnlModel):
        return {
            "type": "mixed_mnl",
            "components": [
                {"weight": w, "mean_utilities": list(u)} for w, u in model.components
            ],
        }
    if isinstance(model, StochasticPreferenceModel):
        return {
            "type": "stochastic_preference",
            "n": model.n,
            "rankings": [{"weight": w, "order": list(o)} for w, o in model.rankings],
        }
    if isinstance(model, MallowsModel):
        return {
            "type": "mallows",
            "central_ranking": list(model.central_ranking),
            "theta": model.theta,
        }
    if isinstance(model, HfamModel):
        capacity = model.capacity
        if isinstance(capacity, CoverageCapacity):
            encoded = {
                "kind": "coverage",
                "point_weights": list(capacity.point_weights),
                "covers": [sorted(c) for c in capacity.covers],
            }
        elif isinstance(capacity, TableCapacity):
            encoded = {
                "kind": "table",
                "values": [
                    [list(s), capacity.value(s)] for s in enumerate_subsets(capacity.n)
                ],
            }
        else:
            raise TypeError(f"cannot serialise capacity {type(capacity).__name__}")
        return {"type": "hfam", "preference": list(model.preference), "capacity": encoded}
    if isinstance(model, TightExampleModel):
        return {"type": "tight_example", "k": model.k, "epsilon": model.epsilon}
    # Anything else (including the lazy reduction models) ships as a table.
    rows = [[list(S), list(map(_encode_probability, row))] for S, row in probability_rows(model)]
    return {"type": "tabular", "n": model.n, "rows": rows}


def _encode_probability(p):
    """A table entry as JSON: a Fraction as the exact string "a/b", anything else as a float."""
    return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else float(p)


def _decode_probability(p):
    """A table entry read back: an "a/b" string as that Fraction; other values pass through."""
    if not isinstance(p, str):
        return p
    match = _RATIONAL.fullmatch(p)
    if match is None or int(match[2]) == 0:
        raise ValueError(f"probability {p!r} is not a fraction a/b with b > 0")
    return Fraction(int(match[1]), int(match[2]))


def model_from_dict(data: dict) -> ChoiceModel:
    """Rebuild a model from its JSON descriptor."""
    kind = data["type"]
    if kind == "mnl":
        return MnlModel(data["mean_utilities"])
    if kind == "mixed_mnl":
        return MixedMnlModel(
            [(c["weight"], c["mean_utilities"]) for c in data["components"]]
        )
    if kind == "stochastic_preference":
        return StochasticPreferenceModel(
            data["n"], [(r["weight"], r["order"]) for r in data["rankings"]]
        )
    if kind == "mallows":
        return MallowsModel(data["central_ranking"], data["theta"])
    if kind == "hfam":
        capacity_data = data["capacity"]
        if capacity_data["kind"] == "coverage":
            capacity = CoverageCapacity(capacity_data["point_weights"], capacity_data["covers"])
        elif capacity_data["kind"] == "table":
            capacity = TableCapacity(
                len(data["preference"]), {tuple(s): v for s, v in capacity_data["values"]}
            )
        else:
            raise ValueError(f"unknown capacity kind {capacity_data['kind']!r}")
        return HfamModel(data["preference"], capacity)
    if kind == "tight_example":
        return TightExampleModel(data["k"], data["epsilon"])
    if kind == "tabular":
        table = {}
        for subset, probs in data["rows"]:
            members = frozenset(subset)
            if len(members) != len(subset) or members in table or len(subset) != len(probs):
                raise ValueError(f"row {subset} with {len(probs)} probabilities: each offer set takes one row, "
                                 "of distinct products, one probability each")
            table[members] = dict(zip(subset, map(_decode_probability, probs)))
        return TabularModel(data["n"], table)
    raise ValueError(f"unknown model type {kind!r}")


def instance_to_dict(instance, seed: int | None = None) -> dict:
    """Serialise a problem instance to an instance-file dict of the kind its type names."""
    if isinstance(instance, MultiPeriodInstance):
        kind, payload = "multiperiod", {
            "model": model_to_dict(instance.base.model),
            "revenue": list(instance.base.revenue),
            "horizon": instance.horizon,
            "capacity": instance.capacity,
        }
    elif isinstance(instance, AssortmentInstance):
        kind, payload = "assortment", {
            "model": model_to_dict(instance.model),
            "revenue": list(instance.revenue),
        }
    elif isinstance(instance, UdpMinInstance):
        kind, payload = "udp_min", {
            "items": instance.n,
            "consumers": [{"bundle": sorted(c.bundle), "valuation": c.valuation} for c in instance.consumers],
        }
    elif isinstance(instance, UdpRankInstance):
        kind, payload = "udp_rank", {
            "items": instance.n,
            "consumers": [{"ranking": list(c.ranking), "valuations": list(c.valuations)} for c in instance.consumers],
        }
    elif isinstance(instance, StackelbergInstance):
        matroid = instance.matroid
        if not isinstance(matroid, GraphicMatroid):
            raise TypeError("only graphic-matroid instances have a file format")
        edges = []
        red_costs = instance.red_costs
        for index, (u, v) in enumerate(matroid.edges):
            edge: dict[str, Any] = {"u": u, "v": v}
            if index in red_costs:
                edge["color"] = "red"
                edge["cost"] = red_costs[index]
            else:
                edge["color"] = "blue"
            edges.append(edge)
        kind, payload = "stackelberg", {"vertices": matroid.n_vertices, "edges": edges}
    else:
        raise TypeError(f"cannot serialise {type(instance).__name__}")
    out: dict[str, Any] = {"kind": kind, "payload": payload}
    if seed is not None:
        out["seed"] = seed
    return out


def instance_from_dict(data: dict):
    """Rebuild a problem instance; a bad dict raises KeyError, TypeError or ValueError."""
    try:
        return _build_instance(data)
    except OverflowError as error:  # a number beyond the float range
        raise ValueError(f"number out of range: {error}") from error


def _build_instance(data: dict):
    kind = data["kind"]
    payload = data["payload"]
    if kind in ("assortment", "multiperiod"):
        base = AssortmentInstance(model_from_dict(payload["model"]), payload["revenue"])
        return base if kind == "assortment" else MultiPeriodInstance(base, payload["horizon"], payload["capacity"])
    if kind == "udp_min":
        return UdpMinInstance(
            payload["items"],
            [(c["bundle"], c["valuation"]) for c in payload["consumers"]],
        )
    if kind == "udp_rank":
        return UdpRankInstance(
            payload["items"],
            [(c["ranking"], c["valuations"]) for c in payload["consumers"]],
        )
    if kind == "stackelberg":
        edges = [(e["u"], e["v"]) for e in payload["edges"]]
        matroid = GraphicMatroid(payload["vertices"], edges)
        red_costs = {
            i: e["cost"] for i, e in enumerate(payload["edges"]) if e["color"] == "red"
        }
        blue = [i for i, e in enumerate(payload["edges"]) if e["color"] == "blue"]
        return StackelbergInstance(matroid, red_costs, blue)
    raise ValueError(f"unknown instance kind {kind!r}")


def dumps(data: dict) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, round-trip floats."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)


def read_instance(path):
    with open(path, "r", encoding="utf-8") as handle:
        return instance_from_dict(loads(handle.read()))
