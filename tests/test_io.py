"""Serialisation round trips and generator determinism."""

import copy
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from assortopt import (
    AssortmentInstance,
    CoverageCapacity,
    HfamModel,
    MallowsModel,
    Matroid,
    MixedMnlModel,
    MnlModel,
    StackelbergInstance,
    StochasticPreferenceModel,
    TableCapacity,
    TabularModel,
    TightExampleModel,
    brute_force_optimum,
    check_axioms,
)
from assortopt.cli import main
from assortopt.generators import (
    generate,
    random_stackelberg,
    random_udp_min,
    random_udp_rank,
)
from assortopt.io import (
    dumps,
    instance_from_dict,
    instance_to_dict,
    loads,
    model_from_dict,
    model_to_dict,
    read_instance,
)
from assortopt.models import CapacityFunction, enumerate_subsets, probability_rows
from assortopt.reductions import reduce_pricing


def assert_same_model(a, b):
    assert a.n == b.n
    for subset in enumerate_subsets(a.n):
        for x in list(subset) + [0]:
            assert a.evaluate(x, subset) == b.evaluate(x, subset)


MODELS = [
    MnlModel([0.4, -1.0, 2.2]),
    MixedMnlModel([(0.3, [0.0, 1.0]), (0.7, [1.0, -1.0])]),
    StochasticPreferenceModel(2, [(0.25, (0, 1, 2)), (0.75, (2, 0, 1))]),
    MallowsModel((1, 0, 2), 1.5),
    HfamModel((2, 1), CoverageCapacity([0.5, 0.25], [[0], [0, 1]])),
    HfamModel(
        (1, 2),
        TableCapacity(2, {(): 0.0, (1,): 0.4, (2,): 0.3, (1, 2): 0.6}),
    ),
    TightExampleModel(3, 0.1),
    TabularModel(2, {(): {}, (1,): {1: 0.5}, (2,): {2: 0.25}, (1, 2): {1: 0.5, 2: 0.25}}),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_model_round_trip(model):
    rebuilt = model_from_dict(loads(dumps(model_to_dict(model))))
    assert_same_model(model, rebuilt)


def test_unknown_model_type_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"type": "nested_logit"})


class _HalfCapacity(CapacityFunction):
    """A one-product capacity with no file format: phi({1}) = 1/2."""

    n = 1

    def value(self, S):
        return 0.5 if S else 0.0


class _UniformMatroid(Matroid):
    """The rank-1 uniform matroid on {0, 1}, which is no graph's."""

    def is_independent(self, subset):
        return len(set(subset)) <= 1


def test_a_capacity_of_another_type_is_not_serialised():
    with pytest.raises(TypeError, match="^cannot serialise capacity _HalfCapacity$"):
        model_to_dict(HfamModel((1,), _HalfCapacity()))


def test_an_unknown_capacity_kind_exits_2(tmp_path, capsys):
    model = {"type": "hfam", "preference": [1], "capacity": {"kind": "bogus"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_assortment_file(model)))
    with pytest.raises(ValueError, match="^unknown capacity kind 'bogus'$"):
        model_from_dict(model)
    assert main(["solve", str(path)]) == 2
    assert "unknown capacity kind 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, message",
    [
        (StackelbergInstance(_UniformMatroid((0, 1)), {0: 1.0}, [1]), "only graphic-matroid instances have a file format"),
        (MnlModel([0.0]), "cannot serialise MnlModel"),
    ],
    ids=["non_graphic_stackelberg", "unknown_type"],
)
def test_instances_without_a_file_format_are_not_serialised(instance, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        instance_to_dict(instance)


def test_read_instance_round_trip(tmp_path):
    data = generate("assortment", "hfam", {}, seed=2)
    path = tmp_path / "hfam.json"
    path.write_text(dumps(data), encoding="utf-8")
    assert dumps(instance_to_dict(read_instance(path), seed=2)) == dumps(data)


class TestInstanceRoundTrips:
    def test_assortment(self):
        data = generate("assortment", "stochastic_preference", {}, seed=5)
        instance = instance_from_dict(data)
        again = instance_to_dict(instance, seed=5)
        assert dumps(data) == dumps(again)

    def test_udp_min(self):
        instance = random_udp_min(Random(9))
        data = instance_to_dict(instance)
        rebuilt = instance_from_dict(data)
        assert rebuilt.n == instance.n
        assert rebuilt.consumers == instance.consumers
        assert dumps(instance_to_dict(rebuilt)) == dumps(data)

    def test_udp_rank(self):
        instance = random_udp_rank(Random(10))
        data = instance_to_dict(instance)
        rebuilt = instance_from_dict(data)
        assert rebuilt.consumers == instance.consumers

    def test_stackelberg(self):
        instance = random_stackelberg(Random(11))
        data = instance_to_dict(instance)
        rebuilt = instance_from_dict(data)
        assert rebuilt.red_costs == instance.red_costs
        assert rebuilt.blue == instance.blue
        assert rebuilt.matroid.edges == instance.matroid.edges
        assert dumps(instance_to_dict(rebuilt)) == dumps(data)

    def test_multiperiod(self):
        data = generate("multiperiod", "mnl", {}, seed=3)
        instance = instance_from_dict(data)
        assert dumps(instance_to_dict(instance, seed=3)) == dumps(data)


class TestGenerate:
    def test_deterministic_and_byte_identical(self):
        for kind in ("assortment", "udp_min", "udp_rank", "stackelberg", "multiperiod"):
            one = dumps(generate(kind, None, {}, seed=17))
            two = dumps(generate(kind, None, {}, seed=17))
            assert one == two

    def test_distinct_seeds_distinct_instances(self):
        a = dumps(generate("assortment", "mnl", {}, seed=1))
        b = dumps(generate("assortment", "mnl", {}, seed=2))
        assert a != b

    def test_generated_models_pass_axioms(self):
        for family in ("mnl", "mixed_mnl", "stochastic_preference", "mallows", "hfam", "tight"):
            for seed in range(3):
                data = generate("assortment", family, {}, seed=seed)
                instance = instance_from_dict(data)
                assert check_axioms(instance.model).passed, (family, seed)

    def test_tight_family_params(self):
        data = generate("assortment", "tight", {"k": 3, "eps": 0.1}, seed=0)
        instance = instance_from_dict(data)
        assert instance.n == 6
        assert check_axioms(instance.model).passed

    def test_invalid_kind_and_family(self):
        from assortopt import InvalidParams

        with pytest.raises(InvalidParams):
            generate("portfolio", None, {}, seed=0)
        with pytest.raises(InvalidParams):
            generate("assortment", "nested", {}, seed=0)

    def test_stackelberg_has_red_spanning_base(self):
        for seed in range(10):
            data = generate("stackelberg", None, {}, seed=seed)
            instance = instance_from_dict(data)  # constructor re-validates
            assert instance.cost_levels


# Files that reach every constructor: one generated file per kind, and one
# assortment file per model descriptor type.
VALID_FILES = [
    loads(dumps(generate(kind, None, {}, seed=1)))
    for kind in ("assortment", "multiperiod", "udp_min", "udp_rank", "stackelberg")
] + [loads(dumps(instance_to_dict(AssortmentInstance(model, [1.0] * model.n)))) for model in MODELS]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@st.composite
def mutated_files(draw):
    """A valid instance file with one to three values replaced by any JSON, or deleted."""
    data = copy.deepcopy(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(JSON_VALUES)
            continue
        node = data
        for key in path[:-1]:
            node = node[key]
        if draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = draw(JSON_VALUES)
    return data


def _assortment_file(model: dict) -> dict:
    return {"kind": "assortment", "payload": {"model": model, "revenue": [1.0]}}


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | mutated_files())
# exp() of the utility overflows; a float() of the int overflows.
@example(_assortment_file({"type": "mnl", "mean_utilities": [1000.0]}))
@example(_assortment_file({"type": "mnl", "mean_utilities": [10**400]}))
@example(_assortment_file({"type": "mixed_mnl", "components": [{"weight": 10**400, "mean_utilities": [0.0]}]}))
# Sizes that a short file can claim: none may be materialised.
@example({"kind": "udp_min", "payload": {"items": 10**18, "consumers": [{"bundle": [1], "valuation": 1.0}]}})
@example({"kind": "udp_rank", "payload": {"items": 10**18, "consumers": [{"ranking": [1], "valuations": [1.0]}]}})
@example(_assortment_file({"type": "stochastic_preference", "n": 10**18, "rankings": [{"weight": 1.0, "order": [0]}]}))
@example(_assortment_file({"type": "tight_example", "k": 10**18, "epsilon": 0.25}))
def test_instance_from_dict_raises_only_documented_errors(data):
    try:
        instance_from_dict(data)
    except (KeyError, TypeError, ValueError):
        pass


# ------------------------------------------------------------ exact rationals


def _rows(model):
    return [(S, [(type(p), p) for p in row]) for S, row in probability_rows(model)]


def test_reduced_model_rows_are_written_as_exact_fractions():
    model = reduce_pricing(random_udp_min(Random(4))).model
    rows = model_to_dict(model)["rows"]
    assert all(isinstance(p, str) for _, row in rows for p in row)
    rebuilt = model_from_dict(loads(dumps(model_to_dict(model))))
    assert _rows(rebuilt) == _rows(model)


@pytest.mark.parametrize("entry", ["1/0", "x", "1/2/3", " 1/2", "0.5", "1e999/1"])
def test_malformed_fraction_entries_exit_2(tmp_path, capsys, entry):
    payload = {"model": {"type": "tabular", "n": 1, "rows": [[[], []], [[1], [entry]]]}, "revenue": [1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "assortment", "payload": payload}))
    with pytest.raises(ValueError, match="is not a fraction a/b"):
        instance_from_dict(json.loads(path.read_text()))
    assert main(["solve", str(path)]) == 2
    assert "is not a fraction a/b" in capsys.readouterr().err


def test_reduced_file_solves_to_the_exact_optimum(tmp_path, capsys):
    # Seed 20's reduced optimum is 14 exactly, at {2, 3, 5}; summed in floats,
    # {2, 3, 5, 6, 8} earns 14.000000000000002 and would win.
    path, reduced_path = tmp_path / "udp.json", tmp_path / "reduced.json"
    assert main(["gen", "udp_min", "--seed", "20", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["udp", "reduce", str(path)]) == 0
    reduced_path.write_text(capsys.readouterr().out)
    assert main(["solve", str(reduced_path), "--method", "brute", "--json"]) == 0
    exact = brute_force_optimum(reduce_pricing(instance_from_dict(json.loads(path.read_text()))))
    assert exact.revenue == Fraction(14)
    assert json.loads(capsys.readouterr().out) == {"opt": 14.0, "opt_assortment": sorted(exact.assortment)}


@st.composite
def descriptor_models(draw):
    """A model of any descriptor type, or a table of floats and Fractions."""
    kind = draw(st.sampled_from(["model", "tabular", "udp_min", "udp_rank", "stackelberg"]))
    if kind == "model":
        return draw(st.sampled_from(MODELS))
    if kind == "tabular":
        n = draw(st.integers(0, 3))
        # Every Fraction in [0, 1] of denominator d <= 10^6: k * d // 10^6
        # takes every numerator from 0 to d as k runs from 0 to 10^6.
        fraction = st.builds(lambda k, d: Fraction(k * d // 10**6, d), st.integers(0, 10**6), st.integers(1, 10**6))
        entry = fraction | st.floats(0, 1)
        rows = {}
        for subset in enumerate_subsets(n):
            shares = draw(st.lists(entry, min_size=len(subset), max_size=len(subset)))
            rows[subset] = {x: p / max(1, len(subset)) for x, p in zip(subset, shares)}
        return TabularModel(n, rows)
    seed = draw(st.integers(0, 50))
    return reduce_pricing(instance_from_dict(generate(kind, None, {}, seed))).model


@settings(max_examples=60, deadline=None)
@given(descriptor_models())
def test_descriptors_round_trip_to_equal_rows(model):
    if model.n > 8:
        return
    rebuilt = model_from_dict(loads(dumps(model_to_dict(model))))
    assert _rows(rebuilt) == _rows(model)
