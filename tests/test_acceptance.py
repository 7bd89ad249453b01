"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Corpora are seeded, so the suite is reproducible run to run.
"""

import itertools
import math
import time
from random import Random

from assortopt import (
    AssortmentSolution,
    TabularModel,
    UNPRICED,
    brute_force_optimum,
    brute_force_pricing,
    brute_force_stackelberg,
    check_axioms,
    check_demand_submodularity,
    check_marginal_value,
    check_nesting_monotonicity,
    compute_bounds,
    generate_tight_instance,
    lstar_delta,
    reduce_min_to_assortment,
    reduce_rank_to_assortment,
    reduce_to_assortment,
    revenue_ordered,
    solve_dp,
    uniform_pricing,
    uniform_pricing_stackelberg,
    verify_guarantee,
)
from assortopt.generators import (
    random_assortment_instance,
    random_multiperiod,
    random_stackelberg,
    random_udp_min,
    random_udp_rank,
)
from assortopt.stackelberg import GraphicMatroid, PricedCopyMatroid
from matroid_checks import FunctionMatroid, check_greedy_nesting, check_matroid_axioms, check_tiebreak_independence
from test_models import evaluate_revenue


def report(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if passed else 'FAIL'}] {description}", flush=True)
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_tight_family_reaches_k():
    started = time.perf_counter()
    ok = True
    for k in (2, 3, 4):
        instance = generate_tight_instance(k, 0.001)
        heuristic = revenue_ordered(instance).solution.revenue
        optimum = brute_force_optimum(instance)
        ok &= float(optimum.revenue) / float(heuristic) >= k - 0.01
        level_sum = 1.0 / compute_bounds(instance).bound_b_exact
        ok &= k - 0.01 <= level_sum <= k
        model = instance.model
        diagonal = frozenset(model.pairs.index((i, i)) + 1 for i in range(1, k + 1))
        solution = AssortmentSolution(diagonal, evaluate_revenue(model, instance.revenue, diagonal))
        mass_sum = 1.0 / compute_bounds(instance, solution).bound_c_exact
        ok &= k - 0.01 <= mass_sum <= k
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(1, f"tight family drives all three bounds to k (elapsed {elapsed:.3f}s < 1s)", ok)


def test_criterion_02_guarantees_on_random_regular_instances():
    families = ("stochastic_preference", "mallows", "mnl", "mixed_mnl", "hfam")
    rng = Random(20250810)
    started = time.perf_counter()
    ok = True
    for i in range(500):
        instance = random_assortment_instance(families[i % 5], rng, n_max=7)
        result = verify_guarantee(instance)  # slack 1e-9 inside
        ok &= result.passed
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(2, f"revord >= max bound * OPT on 500 regular instances (elapsed {elapsed:.1f}s < 60s)", ok)


def test_criterion_03_mnl_optimality():
    from assortopt import AssortmentInstance, MnlModel

    rng = Random(314)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 8)
        instance = AssortmentInstance(
            MnlModel([rng.gauss(0.0, 1.5) for _ in range(n)]),
            [rng.uniform(0.5, 9.5) for _ in range(n)],
        )
        heuristic = revenue_ordered(instance).solution.revenue
        optimum = brute_force_optimum(instance).revenue
        ok &= abs(heuristic - optimum) <= 1e-9 * max(1.0, abs(optimum))
    report(3, "revenue-ordered equals brute-force OPT on 200 random MNL instances", ok)


def test_criterion_04_counterexample_table_regression():
    rows = {
        (): {},
        (1,): {1: 0.5},
        (2,): {2: 0.5},
        (3,): {3: 0.5},
        (1, 2): {1: 0.3, 2: 0.3},
        (1, 3): {1: 0.3, 3: 0.3},
        (2, 3): {2: 0.3, 3: 0.3},
        (1, 2, 3): {1: 0.25, 2: 0.25, 3: 0.25},
    }
    table = TabularModel(3, rows)
    regular = check_axioms(table).regularity.passed
    result = check_demand_submodularity(table)
    witness_ok = result.witness == (frozenset({1}), frozenset({1, 2}), 3)
    gap_ok = abs(result.gap - 0.05) <= 1e-12
    report(4, "table is regular yet fails demand submodularity by exactly 0.05",
           regular and not result.passed and witness_ok and gap_ok)


def _udp_corpus():
    rng = Random(1105)
    corpus = []
    for _ in range(100):
        corpus.append((random_udp_min(rng), reduce_min_to_assortment))
    for _ in range(100):
        corpus.append((random_udp_rank(rng), reduce_rank_to_assortment))
    return corpus


def test_criterion_05_udp_reduction_equivalence():
    started = time.perf_counter()
    ok = True
    for instance, reduce in _udp_corpus():
        reduced = reduce(instance)
        ok &= brute_force_optimum(reduced).revenue == brute_force_pricing(instance).revenue
        ok &= check_axioms(reduced.model).passed
        uniform = uniform_pricing(instance)
        ordered = revenue_ordered(reduced)
        ok &= len(uniform.candidates) == len(ordered.candidates)
        ok &= all(u == r for (_, u), (_, r) in zip(uniform.candidates, ordered.candidates))
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    report(5, f"pricing reductions are exact on 200 instances (elapsed {elapsed:.1f}s < 120s)", ok)


def test_criterion_06_uniform_pricing_bounds():
    ok = True
    for instance, _ in _udp_corpus():
        optimum = brute_force_pricing(instance).revenue
        uniform = uniform_pricing(instance).revenue
        levels = instance.valuation_levels
        rho = levels[-1] / levels[0]
        ok &= uniform >= optimum / (1.0 + math.log(rho)) * (1.0 - 1e-9)
        ok &= uniform >= optimum / (1.0 + math.log(instance.m)) * (1.0 - 1e-9)
    report(6, "uniform pricing clears both logarithmic guarantees on the corpus", ok)


def test_criterion_07_matroid_greedy_properties():
    rng = Random(81)
    greedy_trials = 0
    greedy_ok = True
    for trial in range(40):
        matroid = random_stackelberg(rng, max_vertices=6).matroid
        result = check_greedy_nesting(matroid, 25, Random(trial))
        greedy_ok &= result.passed
        greedy_trials += result.trials

    tiebreak_trials = 0
    tiebreak_ok = True
    for trial in range(100):
        instance = random_stackelberg(rng, max_vertices=6)
        levels = list(instance.cost_levels) + [UNPRICED]
        prices = {e: rng.choice(levels) for e in instance.blue}
        tiebreak_ok &= check_tiebreak_independence(instance, prices, 10, Random(trial))
        tiebreak_trials += 10

    blocked = {frozenset({1, 2}), frozenset({1, 3})}
    sentinel = FunctionMatroid([1, 2, 3], lambda S: len(S) <= 2 and S not in blocked)
    sentinel_detected = (
        not check_matroid_axioms(sentinel)
        and not check_greedy_nesting(sentinel, 500, Random(5)).passed
    )
    ok = greedy_ok and greedy_trials >= 1000 and tiebreak_ok and tiebreak_trials >= 1000 and sentinel_detected
    report(7, "greedy nesting and tie-break invariance hold for 1000 trials; sentinel trips the harness", ok)


def test_criterion_08_stackelberg_reduction_equivalence():
    rng = Random(55)
    ok = True
    for _ in range(50):
        instance = random_stackelberg(rng, max_vertices=5, max_cost_levels=2)
        reduced = reduce_to_assortment(instance)
        ok &= brute_force_optimum(reduced).revenue == brute_force_stackelberg(instance).revenue
        uniform = uniform_pricing_stackelberg(instance)
        ordered = revenue_ordered(reduced)
        blue_count = len(instance.blue)
        ok &= len(uniform.candidates) == len(ordered.candidates)
        for (level, u_rev), (threshold, r_rev) in zip(uniform.candidates, ordered.candidates):
            ok &= threshold == blue_count * level and u_rev == r_rev

        graphic = instance.matroid
        levels = instance.cost_levels
        aux = PricedCopyMatroid(graphic, instance.blue, levels)
        copies_edges = []
        id_map = {}
        for e in graphic.ground:
            if e not in instance.blue:
                id_map[e] = len(copies_edges)
                copies_edges.append(graphic.edges[e])
        for e in sorted(instance.blue):
            for q in levels:
                id_map[(e, q)] = len(copies_edges)
                copies_edges.append(graphic.edges[e])
        expanded = GraphicMatroid(graphic.n_vertices, copies_edges)
        for size in range(len(aux.ground) + 1):
            for combo in itertools.combinations(aux.ground, size):
                ok &= aux.is_independent(combo) == expanded.is_independent(
                    [id_map[e] for e in combo]
                )
    report(8, "matroid pricing reduction exact on 50 instances; copy matroid matches", ok)


def test_criterion_09_multiperiod_monotonicity():
    families = ("stochastic_preference", "mallows", "mnl", "mixed_mnl", "hfam")
    rng = Random(4242)
    started = time.perf_counter()
    ok = True
    for i in range(300):
        instance = random_multiperiod(rng, family=families[i % 5], n_max=5)
        table = solve_dp(instance)
        ok &= table.regularity_ok is True
        ok &= check_nesting_monotonicity(table).passed
        ok &= check_marginal_value(table).passed
        for t in range(1, table.horizon + 1):
            for q in range(1, table.capacity + 1):
                ok &= table.lstar[t][q] == lstar_delta(instance.base, -table.marginal(t - 1, q))
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(9, f"threshold monotonicity holds on 300 DP instances (elapsed {elapsed:.1f}s < 60s)", ok)


def test_criterion_10_scope_note():
    # Hardness and inapproximability results are cited, not reproducible;
    # acceptance rests on the oracle-equivalence and invariant suites above.
    report(10, "hardness results out of scope; oracle suites stand in", True)
