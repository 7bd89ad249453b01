"""The pricing layer shared by unit-demand and Stackelberg pricing.

Both kinds run one uniform-price scan, one exact grid search over the
price levels plus UNPRICED, and one guard-then-build pair reduction.  The
pin below fixes every price, revenue and candidate they report, and the
``solve`` and ``verify`` output of the command line.
"""

import contextlib
import hashlib
import io
import json
import math

import pytest

from assortopt.cli import main
from assortopt.errors import GroundSetTooLarge, SearchSpaceTooLarge
from assortopt.generators import generate
from assortopt.io import instance_from_dict
from assortopt.stackelberg import (
    GraphicMatroid,
    StackelbergChoiceModel,
    StackelbergInstance,
    brute_force_stackelberg,
    uniform_pricing_stackelberg,
)
from assortopt.udp import (
    UNPRICED,
    PricingSolution,
    UdpMinInstance,
    UdpRankInstance,
    UniformPricingResult,
    _PairCatalogue,
    best_uniform_price,
    brute_force_pricing,
    grid_optimum,
    reduce_min_to_assortment,
    uniform_pricing,
)
from test_udp import PriceLadder, ladder_optimum

PRICING_KINDS = ("udp_min", "udp_rank", "stackelberg")

# sha256 of the lines below over seeds 0-24 of each pricing kind, as written
# before the two kinds shared their scan, grid search and reduction.
PRICING_LAYER_SHA256 = "67b5a9ccf060e6aa585a9884619af7daf1b48ac81eb1379ac963fdd0f4b937a4"


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"{code} {out.getvalue()}"


def _pricing_lines(kind, seed, path):
    instance = instance_from_dict(generate(kind, None, {}, seed))
    if isinstance(instance, StackelbergInstance):
        uniform = uniform_pricing_stackelberg(instance)
        exact = [brute_force_stackelberg(instance)]
        command = "stackelberg"
    else:
        uniform = uniform_pricing(instance)
        exact = [brute_force_pricing(instance), ladder_optimum(instance, PriceLadder(tuple(range(1, instance.n + 1))))]
        command = "udp"
    lines = [repr((uniform.price, uniform.revenue, uniform.candidates))]
    lines += [repr((best.prices, best.revenue)) for best in exact]
    assert main(["gen", kind, "--seed", str(seed), "-o", str(path)]) == 0
    lines += [_cli(command, action, str(path), "--json") for action in ("solve", "verify")]
    return lines


def test_pricing_results_are_unchanged(tmp_path):
    lines = []
    for kind in PRICING_KINDS:
        for seed in range(25):
            lines += _pricing_lines(kind, seed, tmp_path / f"{kind}-{seed}.json")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PRICING_LAYER_SHA256


# ------------------------------------------------------------ the shared helpers


def test_uniform_scan_keeps_ties_toward_the_highest_level():
    revenue = {1: 4, 2: 6, 3: 6, 4: 5}
    assert best_uniform_price([1, 2, 3, 4], revenue.get) == UniformPricingResult(3, 6, tuple(revenue.items()))


def test_uniform_scan_without_levels_prices_nothing():
    assert best_uniform_price((), lambda level: 1 / 0) == UniformPricingResult(None, 0, ())


def test_grid_search_keeps_the_first_strictly_best_feasible_assignment(monkeypatch):
    seen = []

    def revenue_of(assignment):
        seen.append(assignment)
        if assignment[0] > assignment[1]:  # infeasible
            return -math.inf
        return sum(p for p in assignment if p != UNPRICED) % 3

    monkeypatch.setattr("assortopt.udp.GRID_GUARD", 9)
    best = grid_optimum([1, 2], 2, revenue_of)
    assert seen == [(1, 1), (1, 2), (1, UNPRICED), (2, 1), (2, 2), (2, UNPRICED), (UNPRICED, 1), (UNPRICED, 2),
                    (UNPRICED, UNPRICED)]
    assert best == PricingSolution((1, 1), 2)
    assert grid_optimum([1, 2], 2, lambda a: 0) == PricingSolution((1, 1), 0)
    monkeypatch.setattr("assortopt.udp.GRID_GUARD", 8)
    with pytest.raises(SearchSpaceTooLarge, match=r"3\^2 price assignments"):
        grid_optimum([1, 2], 2, revenue_of)


def test_stackelberg_oracles_return_the_shared_result_types():
    instance = StackelbergInstance(GraphicMatroid(2, [(0, 1), (0, 1)]), {0: 4}, [1])
    assert uniform_pricing_stackelberg(instance) == UniformPricingResult(4, 4, ((4, 4),))
    assert brute_force_stackelberg(instance) == PricingSolution({1: 4}, 4)


def test_stackelberg_model_takes_its_pairs_from_the_catalogue(monkeypatch):
    built = []
    original = _PairCatalogue.__init__

    def spy(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(_PairCatalogue, "__init__", spy)
    instance = StackelbergInstance(GraphicMatroid(2, [(0, 1), (0, 1), (0, 1)]), {0: 4, 1: 2}, [2])
    model = StackelbergChoiceModel(instance)
    assert model.pairs == ((2, 2), (2, 4))
    assert ([2], (2, 4)) in built


def test_reduction_guard_compares_huge_counts_as_ints():
    huge = UdpMinInstance(10**20, [({1}, 1), ({2}, 2)])
    with pytest.raises(GroundSetTooLarge, match=f"{10**20} items x 2 valuation levels = {2 * 10**20} products"):
        reduce_min_to_assortment(huge)


# ------------------------------------------------------------ regressions


def test_stackelberg_without_red_edges_solves_and_verifies(tmp_path, capsys):
    # One vertex and a blue self-loop: the empty red set spans the rank-0
    # matroid, so the file is valid, and there is no cost level to price at.
    path = tmp_path / "loop.json"
    path.write_text('{"kind": "stackelberg", "payload": {"vertices": 1, "edges": [{"u": 0, "v": 0, "color": "blue"}]}}')
    assert main(["stackelberg", "solve", str(path), "--json"]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved == {"uniform_price": None, "uniform_revenue": 0, "opt_revenue": 0, "opt_prices": {"0": "inf"}}
    assert main(["stackelberg", "verify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert main(["suite", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == {"reduction": True}


@pytest.mark.parametrize("action", ["solve", "verify"])
def test_infinite_valuation_file_exits_2(tmp_path, capsys, action):
    path = tmp_path / "inf.json"
    path.write_text('{"kind": "udp_min", "payload": {"items": 1, "consumers": [{"bundle": [1], "valuation": 1e999}]}}')
    assert main(["udp", action, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"invalid instance file {path}: valuations must be positive and finite"]


@pytest.mark.parametrize(
    "build",
    [
        lambda value: UdpMinInstance(1, [({1}, value)]),
        lambda value: UdpRankInstance(2, [((1, 2), (1, value))]),
        lambda value: StackelbergInstance(GraphicMatroid(2, [(0, 1), (0, 1)]), {0: value}, [1]),
    ],
    ids=["udp_min", "udp_rank", "stackelberg"],
)
def test_pricing_instances_reject_infinite_values_but_keep_huge_ints(build):
    with pytest.raises(ValueError, match="must be positive and finite"):
        build(math.inf)
    build(10**400)
