"""The superset-transform checkers and the streamed brute force agree with
the plain 3^n pair scans and the per-(x, S) oracle they replaced.

The reference functions below are the straightforward implementations:
every pair S subset of S' is scanned in canonical order and every
probability is read through ``evaluate``.  They are kept here only as the
specification the fast code must reproduce, verdict, witness and gap alike.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction
from random import Random
from unittest import mock

import pytest

from assortopt import (
    AssortmentInstance,
    AssortmentSolution,
    AxiomReport,
    CheckResult,
    ChoiceModel,
    MnlModel,
    TabularModel,
    brute_force_optimum,
    check_axioms,
    check_demand_submodularity,
    check_purchase_monotonicity,
)
from assortopt import axioms
from assortopt.axioms import ATOL
from assortopt.models import enumerate_subsets
from test_models import evaluate_revenue


def _fold(values):
    """The values added left to right from int 0, the one order in which the
    library adds floats on every Python (``sum`` compensates from 3.12)."""
    return functools.reduce(operator.add, values, 0)


def _ref_tabulate(model):
    subsets = [frozenset(s) for s in enumerate_subsets(model.n)]
    probs = {S: {x: model.evaluate(x, S) for x in sorted(S)} for S in subsets}
    return subsets, probs


def _ref_superset_pairs(n, subsets):
    for S in subsets:
        rest = sorted(set(range(1, n + 1)) - S)
        for size in range(len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                yield S, S | frozenset(extra)


def ref_check_axioms(model, atol=ATOL):
    subsets, probs = _ref_tabulate(model)

    nonnegativity = CheckResult(True)
    for S in subsets:
        for x in sorted(S):
            p = probs[S][x]
            if p < -atol:
                nonnegativity = CheckResult(False, (x, S), float(-p))
                break
        else:
            p0 = 1 - _fold(probs[S].values())
            if p0 < -atol:
                nonnegativity = CheckResult(False, (0, S), float(-p0))
        if not nonnegativity.passed:
            break

    unavailable_zero = CheckResult(True)
    for S in subsets:
        for x in range(1, model.n + 1):
            if x in S:
                continue
            p = model.evaluate(x, S)
            if abs(p) > atol:
                unavailable_zero = CheckResult(False, (x, S), float(abs(p)))
                break
        if not unavailable_zero.passed:
            break

    substochastic = CheckResult(True)
    for S in subsets:
        total = _fold(probs[S].values())
        if total > 1 + atol:
            substochastic = CheckResult(False, (S,), float(total - 1))
            break

    regularity = CheckResult(True)
    sold = {S: _fold(probs[S].values()) for S in subsets}
    for S, larger in _ref_superset_pairs(model.n, subsets):
        for x in sorted(S):
            drop = probs[larger][x] - probs[S][x]
            if drop > atol:
                regularity = CheckResult(False, (x, S, larger), float(drop))
                break
        else:
            zero_drop = (1 - sold[larger]) - (1 - sold[S])
            if zero_drop > atol:
                regularity = CheckResult(False, (0, S, larger), float(zero_drop))
        if not regularity.passed:
            break

    return AxiomReport(nonnegativity, unavailable_zero, substochastic, regularity)


def ref_purchase_monotonicity(model, atol=ATOL):
    subsets, probs = _ref_tabulate(model)
    sold = {S: _fold(probs[S].values()) for S in subsets}
    for S, larger in _ref_superset_pairs(model.n, subsets):
        if sold[S] > sold[larger] + atol:
            return CheckResult(False, (S, larger), float(sold[S] - sold[larger]))
    return CheckResult(True)


def ref_demand_submodularity(model, atol=ATOL):
    """The pair scan with its running maximum kept exact."""
    subsets, probs = _ref_tabulate(model)
    sold = {S: _fold(probs[S].values()) for S in subsets}
    worst_gap, witness = 0, None
    for S, larger in _ref_superset_pairs(model.n, subsets):
        for x in range(1, model.n + 1):
            gain_small = sold[S | {x}] - sold[S]
            gain_large = sold[larger | {x}] - sold[larger]
            gap = gain_large - gain_small
            if gap > atol and gap > worst_gap:
                worst_gap, witness = gap, (S, larger, x)
    if witness is None:
        return CheckResult(True)
    return CheckResult(False, witness, float(worst_gap))


def ref_brute_force(instance):
    best_key, best_set, best_revenue, first = (), frozenset(), 0, True
    for subset in enumerate_subsets(instance.n):
        value = evaluate_revenue(instance.model, instance.revenue, subset) if subset else 0
        if first or value > best_revenue or (value == best_revenue and subset < best_key):
            best_key, best_set, best_revenue, first = subset, frozenset(subset), value, False
    return AssortmentSolution(best_set, best_revenue)


class _Rows(ChoiceModel):
    """A model that emits its rows as given, so an entry may lie outside
    [0, 1], which a ``TabularModel`` refuses; a missing entry reads as 0.0.
    Rows whose every entry is an int or a ``Fraction``, at least one a
    ``Fraction``, declare the lcm D of the denominators and emit the ints
    p * D, as an exact ``TabularModel`` does."""

    def __init__(self, n, rows):
        super().__init__(n)
        self._rows = {tuple(sorted(subset)): row for subset, row in rows.items()}
        entries = [row.get(x, 0.0) for subset, row in self._rows.items() for x in subset]
        if all(type(p) in (int, Fraction) for p in entries) and any(type(p) is Fraction for p in entries):
            self.denominator = math.lcm(*{p.denominator for p in entries})

    def _choice_row(self, subset):
        row = [self._rows[subset].get(x, 0.0) for x in subset]
        D = self.denominator
        return tuple(row if D is None else (p.numerator * (D // p.denominator) for p in row))


def _perturbed_table(rng, n, exact, scale=60):
    """An MNL-like table on a coarse grid with a few entries nudged, so that
    regularity, monotonicity and submodularity fail often, ties are common,
    and the first violation lands anywhere in the scan.  The default grid
    step 1/60 is not a binary fraction, so float tables round and exact
    gaps are not floats."""
    weights = [rng.randint(1, 4) for _ in range(n)]
    rate = rng.choice((0.0, 0.02, 0.1, 0.4))
    rows = {}
    for subset in enumerate_subsets(n):
        denom = 1 + sum(weights[x - 1] for x in subset)
        row = {}
        for x in subset:
            units = round(scale * weights[x - 1] / denom)
            if rng.random() < rate:
                units += rng.choice((-3, -1, 1, 2, 5))
            if rng.random() < rate / 8:
                units = rng.choice((-2, scale + 3))
            row[x] = Fraction(units, scale) if exact else units / scale
        rows[subset] = row
    return _Rows(n, rows).to_tabular()


def _same(a, b):
    """Equal as results and, for revenues, of the same numeric type."""
    return a == b and type(getattr(a, "revenue", None)) is type(getattr(b, "revenue", None))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_random_tables_match_pair_scans(exact):
    rng = Random(2024 + exact)
    failures = {"regularity": 0, "monotonicity": 0, "submodularity": 0}
    for _ in range(150):
        model = _perturbed_table(rng, rng.randint(0, 6), exact)
        report = check_axioms(model)
        assert report == ref_check_axioms(model)
        monotone = check_purchase_monotonicity(model)
        assert monotone == ref_purchase_monotonicity(model)
        submodular = check_demand_submodularity(model)
        assert submodular == ref_demand_submodularity(model)
        failures["regularity"] += not report.regularity.passed
        failures["monotonicity"] += not monotone.passed
        failures["submodularity"] += not submodular.passed
    # The perturbation really exercises the failure branches.
    assert all(count >= 30 for count in failures.values()), failures


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_random_brute_force_matches_oracle_with_ties(exact):
    rng = Random(77 + exact)
    ties = 0
    for _ in range(120):
        n = rng.randint(0, 6)
        model = _perturbed_table(rng, n, exact, scale=8)
        revenue = [rng.choice((1, 2, 2, 4)) for _ in range(n)]
        instance = AssortmentInstance(model, revenue)
        expected = ref_brute_force(instance)
        assert _same(brute_force_optimum(instance), expected)
        values = [evaluate_revenue(instance.model, instance.revenue, s) for s in enumerate_subsets(n) if s]
        ties += values.count(expected.revenue) > 1
    assert ties >= 20


def test_mnl_brute_force_matches_oracle():
    rng = Random(5)
    for _ in range(30):
        n = rng.randint(0, 8)
        model = MnlModel([rng.gauss(0, 1.5) for _ in range(n)])
        instance = AssortmentInstance(model, [rng.uniform(0.5, 9.5) for _ in range(n)])
        assert _same(brute_force_optimum(instance), ref_brute_force(instance))


@pytest.mark.parametrize("model", [TabularModel(0, {(): {}}), MnlModel([]), MnlModel([0.3])], ids=repr)
def test_empty_and_single_catalogues(model):
    assert check_axioms(model) == ref_check_axioms(model)
    assert check_purchase_monotonicity(model) == ref_purchase_monotonicity(model)
    assert check_demand_submodularity(model) == ref_demand_submodularity(model)
    instance = AssortmentInstance(model, [1.0] * model.n)
    assert _same(brute_force_optimum(instance), ref_brute_force(instance))


def test_regularity_witness_on_no_purchase_branch():
    # Every member's share falls, but total demand falls too: the
    # no-purchase option gains 0.1 when 2 joins {1}.
    rows = {(): {}, (1,): {1: 0.3}, (2,): {2: 0.5}, (1, 2): {1: 0.1, 2: 0.1}}
    model = TabularModel(2, rows)
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    assert report.regularity.witness == (0, frozenset({1}), frozenset({1, 2}))
    assert report.regularity.gap == pytest.approx(0.1)


def test_member_witness_precedes_no_purchase_on_the_same_pair():
    # From {1, 2} to {1, 2, 3} product 1 gains 0.1 and the no-purchase
    # option gains 0.15; the members of S are reported first.
    rows = {
        (): {},
        (1,): {1: 0.5},
        (2,): {2: 0.5},
        (3,): {3: 0.5},
        (1, 2): {1: 0.2, 2: 0.5},
        (1, 3): {1: 0.3, 3: 0.3},
        (2, 3): {2: 0.3, 3: 0.3},
        (1, 2, 3): {1: 0.3, 2: 0.1, 3: 0.15},
    }
    model = TabularModel(3, rows)
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    assert report.regularity.witness == (1, frozenset({1, 2}), frozenset({1, 2, 3}))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_regularity_witness_at_second_to_last_offer_set(exact):
    n = 5
    weights = [1, 2, 3, 4, 5]
    one = Fraction(1) if exact else 1.0
    rows = {
        subset: {x: one * weights[x - 1] / (1 + sum(weights[y - 1] for y in subset)) for x in subset}
        for subset in enumerate_subsets(n)
    }
    tail, full = tuple(range(2, n + 1)), tuple(range(1, n + 1))
    rows[full][2] = rows[tail][2] + one / 1000
    model = TabularModel(n, rows)
    assert enumerate_subsets(n)[-2] == tail
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    assert report.regularity.witness == (2, frozenset(tail), frozenset(full))


# Exact tables: entries are int or Fraction, so the checkers compare the
# integers p * D with D the lcm of the table's denominators.

PRIMES = (999_983, 1_000_003, 1_000_033, 104_729, 7_919)


def _scale_of(model):
    return model.to_tabular().denominator


def _coprime_table(rng, n):
    """A perturbed MNL-like exact table whose entries have large pairwise
    coprime denominators, so D is a product of several of them."""
    weights = [rng.randint(1, 4) for _ in range(n)]
    rate = rng.choice((0.0, 0.05, 0.3))
    rows = {}
    for subset in enumerate_subsets(n):
        denom = 1 + sum(weights[x - 1] for x in subset)
        row = {}
        for x in subset:
            q = rng.choice(PRIMES)
            units = round(q * weights[x - 1] / denom)
            if rng.random() < rate:
                units += rng.choice((-q // 50, -1, 1, q // 40))
            row[x] = Fraction(units, q)
        rows[subset] = row
    return _Rows(n, rows).to_tabular()


def test_coprime_denominator_tables_match_pair_scans():
    rng = Random(4242)
    failures = {"regularity": 0, "monotonicity": 0, "submodularity": 0}
    for _ in range(60):
        model = _coprime_table(rng, rng.randint(1, 5))
        assert _scale_of(model) is not None
        report = check_axioms(model)
        assert report == ref_check_axioms(model)
        monotone = check_purchase_monotonicity(model)
        assert monotone == ref_purchase_monotonicity(model)
        submodular = check_demand_submodularity(model)
        assert submodular == ref_demand_submodularity(model)
        failures["regularity"] += not report.regularity.passed
        failures["monotonicity"] += not monotone.passed
        failures["submodularity"] += not submodular.passed
    assert all(count >= 10 for count in failures.values()), failures


def _two_products(p1, p2, p12_1, p12_2):
    """The table P(1, {1}) = p1, P(2, {2}) = p2, P(., {1, 2}) = (p12_1, p12_2)."""
    rows = {(): {}, (1,): {1: p1}, (2,): {2: p2}, (1, 2): {1: p12_1, 2: p12_2}}
    return _Rows(2, rows).to_tabular()


def test_integer_and_float_tables_are_not_scaled():
    assert _scale_of(_two_products(1, 0, 1, 0)) is None
    assert _scale_of(_two_products(0.5, 0.5, 0.25, 0.25)) is None
    assert _scale_of(_two_products(Fraction(1, 2), 0.25, 0, 0)) is None
    # P(2, {1, 2}) is left to the 0.0 default, a float, so the table is not exact.
    rows = {(): {}, (1,): {1: Fraction(1, 2)}, (2,): {2: Fraction(1, 3)}, (1, 2): {1: Fraction(1, 4)}}
    assert _scale_of(TabularModel(2, rows)) is None


def test_an_exact_table_declares_the_lcm_of_its_denominators():
    model = _two_products(Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), 0)
    assert model.denominator == 12
    assert _scale_of(model) is model.denominator
    # An int entry comes back as the equal Fraction.
    assert model.choice_row((1, 2)) == (Fraction(1, 4), Fraction(0))
    assert all(type(p) is Fraction for p in model.choice_row((1, 2)))


TOL = Fraction(ATOL)
CAP = Fraction(1 + ATOL)  # the float 1 + ATOL, read exactly


@pytest.mark.parametrize("excess", [0, 1], ids=["at_atol", "one_unit_above"])
def test_regularity_rise_at_the_tolerance(excess):
    # P(1, .) rises by ATOL (+ 1/D) from {1} to {1, 2}; the entry 1/D pins
    # the table's scale to D.
    D = 3 * TOL.denominator
    unit = Fraction(1, D)
    model = _two_products(Fraction(1, 3), unit, Fraction(1, 3) + TOL + excess * unit, unit)
    assert _scale_of(model) == D
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    if excess:
        witness = (1, frozenset({1}), frozenset({1, 2}))
        assert report.regularity == CheckResult(False, witness, float(TOL + unit))
    else:
        assert report.regularity.passed


@pytest.mark.parametrize("excess", [0, 1], ids=["at_atol", "one_unit_above"])
def test_negative_entry_at_the_tolerance(excess):
    D = 7 * TOL.denominator
    unit = Fraction(1, D)
    model = _two_products(-TOL - excess * unit, unit, Fraction(2, 7), Fraction(3, 7))
    assert _scale_of(model) == D
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    if excess:
        assert report.nonnegativity == CheckResult(False, (1, frozenset({1})), float(TOL + unit))
    else:
        assert report.nonnegativity.passed


def test_negative_exact_entries_fail_nonnegativity():
    model = _two_products(Fraction(1, 3), Fraction(-5, 11), Fraction(1, 3), Fraction(1, 11))
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    assert report.nonnegativity == CheckResult(False, (2, frozenset({2})), 5 / 11)

    # A negative no-purchase share: sold({1, 2}) = 19/15.
    model = _two_products(Fraction(4, 5), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5))
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    assert report.nonnegativity == CheckResult(False, (0, frozenset({1, 2})), float(Fraction(4, 15)))
    assert report.substochastic == CheckResult(False, (frozenset({1, 2}),), float(Fraction(4, 15)))


@pytest.mark.parametrize("excess", [0, 1], ids=["at_cap", "one_unit_above"])
def test_sold_at_one_plus_atol(excess):
    D = 3 * CAP.denominator
    unit = Fraction(1, D)
    model = _two_products(Fraction(1, 3), unit, Fraction(1, 3), CAP - Fraction(1, 3) + excess * unit)
    assert _scale_of(model) == D
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    if excess:
        assert report.substochastic == CheckResult(False, (frozenset({1, 2}),), float(CAP + unit - 1))
    else:
        assert report.substochastic.passed


def test_exact_monotonicity_witness():
    # Demand falls from 1/2 on {2} to 1/2 - 1/15 on {1, 2, 3}; the first S
    # in canonical order with a falling superset is {2}.
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    rows = {
        (): {},
        (1,): {1: third},
        (2,): {2: Fraction(1, 2)},
        (3,): {3: fifth},
        (1, 2): {1: third, 2: fifth},
        (1, 3): {1: third, 3: fifth},
        (2, 3): {2: Fraction(1, 2), 3: fifth},
        (1, 2, 3): {1: fifth, 2: fifth, 3: Fraction(1, 30)},
    }
    model = TabularModel(3, rows)
    result = check_purchase_monotonicity(model)
    assert result == ref_purchase_monotonicity(model)
    assert result == CheckResult(False, (frozenset({2}), frozenset({1, 2, 3})), float(Fraction(1, 15)))


def test_exact_submodularity_witness():
    # Adding 3 gains 1/7 after {} but 1/7 + 2/11 after {1, 2}: demand is
    # supermodular there, and the first maximal triple is ({}, {1, 2}, 3).
    rows = {
        (): {},
        (1,): {1: Fraction(1, 5)},
        (2,): {2: Fraction(1, 5)},
        (3,): {3: Fraction(1, 7)},
        (1, 2): {1: Fraction(1, 5), 2: Fraction(1, 5)},
        (1, 3): {1: Fraction(1, 5), 3: Fraction(1, 7)},
        (2, 3): {2: Fraction(1, 5), 3: Fraction(1, 7)},
        (1, 2, 3): {1: Fraction(1, 5), 2: Fraction(1, 5), 3: Fraction(1, 7) + Fraction(2, 11)},
    }
    model = TabularModel(3, rows)
    result = check_demand_submodularity(model)
    assert result == ref_demand_submodularity(model)
    assert result == CheckResult(False, (frozenset(), frozenset({1, 2}), 3), float(Fraction(2, 11)))


class _LeakyMnl(MnlModel):
    """Puts probability on product 2 whenever 1 is offered without it."""

    def evaluate(self, x, S):
        members = frozenset(S)
        if x == 2 and 1 in members and 2 not in members:
            return 0.25
        return super().evaluate(x, S)


def test_evaluate_override_that_leaks_fails_unavailable_zero():
    model = _LeakyMnl([0.2, -0.4, 1.0])
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    assert report.unavailable_zero == CheckResult(False, (2, frozenset({1})), 0.25)
    assert report.regularity.passed


def test_an_instance_judges_unavailable_zero_on_its_model_not_its_table():
    model = _LeakyMnl([0.2, -0.4, 1.0])
    instance = AssortmentInstance(model, [1.0, 2.0, 3.0])
    assert instance.axioms == check_axioms(model)
    assert instance.axioms.unavailable_zero == CheckResult(False, (2, frozenset({1})), 0.25)
    assert check_axioms(instance.table).unavailable_zero.passed  # a table puts nothing on an unoffered product


# Tables on which most transforms move nothing, so the checkers skip their
# difference passes: the one breach must still be found where it sits.


def _constant_rows(n, share):
    """Every offered product is bought with probability ``share``, whatever else is offered."""
    return {subset: {x: share for x in subset} for subset in enumerate_subsets(n)}


def _picks():
    return mock.patch.object(axioms, "_pick", wraps=axioms._pick)


@pytest.mark.parametrize("one", [1.0, Fraction(1)], ids=["float", "fraction"])
def test_a_breach_only_in_the_last_sweep_of_the_last_column(one):
    # P(n, .) rises from {n} to {n - 1, n}: the pair that x = n's column
    # compares at its last sweep, the one over product n - 1.  sold of
    # {n - 1, n} grows by 1/16, which stays at most sold of its supersets.
    n = 4
    rows = _constant_rows(n, one / 8)
    rows[(n - 1, n)][n] += one / 16
    model = _Rows(n, rows).to_tabular()
    with _picks() as picks:
        report = check_axioms(model)
    assert [len(call.args[1]) for call in picks.call_args_list] == [1 << (n - 2)]
    assert report == ref_check_axioms(model)
    assert report.regularity == CheckResult(False, (n, frozenset({n}), frozenset({n - 1, n})), 1 / 16)
    assert check_purchase_monotonicity(model) == ref_purchase_monotonicity(model) == CheckResult(True)


@pytest.mark.parametrize("one", [1.0, Fraction(1)], ids=["float", "fraction"])
def test_a_breach_only_in_the_no_purchase_half(one):
    # Every share halves when the whole catalogue is offered, so no column
    # rises, but sold falls from 1/2 on any pair to 3/8 on {1, 2, 3}.
    rows = _constant_rows(3, one / 4)
    rows[(1, 2, 3)] = {x: one / 8 for x in (1, 2, 3)}
    model = _Rows(3, rows).to_tabular()
    with _picks() as picks:
        report = check_axioms(model)
    assert {len(call.args[1]) for call in picks.call_args_list} == {4}  # sold's sweeps, no column's
    assert report == ref_check_axioms(model)
    assert report.regularity == CheckResult(False, (0, frozenset({1, 2}), frozenset({1, 2, 3})), 1 / 8)
    assert check_purchase_monotonicity(model) == ref_purchase_monotonicity(model)


@pytest.mark.parametrize("rise", [0.0, 0.25], ids=["nan_alone", "nan_and_a_rise"])
def test_a_nan_after_a_columns_first_entry(rise):
    # P(1, {1, 2}) is NaN, the second entry of product 1's column, so max
    # passes over its rise; with rise > 0, P(1, {1, 2, 3}) also rises above
    # P(1, {1}), and that pair is the witness, as in the pair scan.
    rows = _constant_rows(3, 0.25)
    rows[(1, 2)][1] = math.nan
    rows[(1, 2, 3)][1] += rise
    model = _Rows(3, rows).to_tabular()
    assert model.columns(3)[0][0] == 0.25 and math.isnan(model.columns(3)[0][1])
    report = check_axioms(model)
    assert report == ref_check_axioms(model)
    if rise:
        assert report.regularity == CheckResult(False, (1, frozenset({1}), frozenset({1, 2, 3})), 0.25)
    else:
        assert report.regularity.passed
    assert check_purchase_monotonicity(model) == ref_purchase_monotonicity(model)
    assert check_demand_submodularity(model) == ref_demand_submodularity(model)
