"""Capacity DP over revenue-ordered assortments and its monotone structure."""

import math
from random import Random

import json

import pytest

from assortopt import (
    AssortmentInstance,
    CheckResult,
    DeltaOutOfRange,
    DpTable,
    MnlModel,
    MultiPeriodInstance,
    TabularModel,
    check_lstar_order,
    check_marginal_value,
    check_nesting_monotonicity,
    lstar_delta,
    revenue_ladder,
    revenue_ordered,
    solve_dp,
)
from assortopt import SearchSpaceTooLarge, axioms, multiperiod
from assortopt.cli import main
from assortopt.generators import random_multiperiod
from assortopt.io import dumps, instance_to_dict


def mnl_instance():
    return AssortmentInstance(MnlModel([0.8, 0.1, -0.5]), [4.0, 2.0, 1.0])


def recursive_value(instance, t, q):
    """Independent oracle: the raw recursion, no tabulation or caching."""
    if t == 0 or q == 0:
        return 0.0
    ladder = revenue_ladder(instance)
    best = None
    for level in range(ladder.k):
        members = ladder.prefixes[level]
        stay = recursive_value(instance, t - 1, q)
        drop = recursive_value(instance, t - 1, q - 1)
        value = sum(
            instance.model.evaluate(x, members) * (instance.revenue_of(x) + drop)
            for x in sorted(members)
        )
        value += instance.model.evaluate(0, members) * stay
        if best is None or value > best:
            best = value
    return best


class TestLadder:
    def test_products_sorted_by_revenue(self):
        instance = AssortmentInstance(MnlModel([0.0, 0.0, 0.0]), [1.0, 5.0, 3.0])
        ladder = revenue_ladder(instance)
        assert ladder.levels == (1.0, 3.0, 5.0)
        assert ladder.prefixes == (
            frozenset({1, 2, 3}),
            frozenset({2, 3}),
            frozenset({2}),
        )

    def test_equal_revenues_keep_index_order(self):
        instance = AssortmentInstance(MnlModel([0.0, 0.0]), [2.0, 2.0])
        ladder = revenue_ladder(instance)
        assert ladder.prefixes == (frozenset({1, 2}),)
        assert ladder.k == 1


class TestSolveDp:
    def test_horizon_one_is_static_problem(self):
        instance = mnl_instance()
        static = revenue_ordered(instance).solution.revenue
        table = solve_dp(MultiPeriodInstance(instance, 1, 3))
        for q in range(1, 4):
            assert table.value[1][q] == pytest.approx(static)
        assert len({table.lstar[1][q] for q in range(1, 4)}) == 1

    def test_loose_capacity_scales_linearly(self):
        instance = mnl_instance()
        table = solve_dp(MultiPeriodInstance(instance, 4, 6))
        per_period = table.value[1][1]
        for t in range(1, 5):
            assert table.value[t][6] == pytest.approx(t * per_period)

    def test_against_recursive_oracle(self):
        instance = mnl_instance()
        table = solve_dp(MultiPeriodInstance(instance, 3, 2))
        for t in range(4):
            for q in range(3):
                assert table.value[t][q] == pytest.approx(
                    recursive_value(instance, t, q), rel=1e-12
                )

    def test_boundaries_are_zero(self):
        table = solve_dp(MultiPeriodInstance(mnl_instance(), 3, 3))
        assert all(v == 0.0 for v in table.value[0])
        assert all(row[0] == 0.0 for row in table.value)

    def test_value_monotone_in_time_and_capacity(self):
        rng = Random(12)
        for _ in range(20):
            instance = random_multiperiod(rng)
            table = solve_dp(instance)
            for t in range(table.horizon + 1):
                for q in range(table.capacity + 1):
                    if t:
                        assert table.value[t][q] >= table.value[t - 1][q] - 1e-12
                    if q:
                        assert table.value[t][q] >= table.value[t][q - 1] - 1e-12

    def test_regularity_flag(self):
        table = solve_dp(MultiPeriodInstance(mnl_instance(), 2, 2))
        assert table.regularity_ok is True
        irregular_rows = {
            (): {},
            (1,): {1: 0.3},
            (2,): {2: 0.5},
            (1, 2): {1: 0.5, 2: 0.2},
        }
        base = AssortmentInstance(TabularModel(2, irregular_rows), [1.0, 2.0])
        table = solve_dp(MultiPeriodInstance(base, 2, 2))
        assert table.regularity_ok is False


class TestNestingMonotonicity:
    def test_random_regular_instances(self):
        rng = Random(77)
        families = ["stochastic_preference", "mnl", "mixed_mnl", "mallows", "hfam"]
        for i in range(60):
            instance = random_multiperiod(rng, family=families[i % 5])
            table = solve_dp(instance)
            assert check_nesting_monotonicity(table).passed
            assert check_marginal_value(table).passed

    def test_horizon_one_time_axis_vacuous(self):
        table = solve_dp(MultiPeriodInstance(mnl_instance(), 1, 4))
        assert check_nesting_monotonicity(table).passed

    def test_single_level_constant_threshold(self):
        base = AssortmentInstance(MnlModel([0.0, 0.3]), [2.0, 2.0])
        table = solve_dp(MultiPeriodInstance(base, 4, 3))
        assert all(l == 1 for row in table.lstar for l in row)
        assert check_nesting_monotonicity(table).passed

    def test_a_threshold_that_shrinks_with_time_is_a_time_witness(self):
        # No row rises with capacity, but l*_2(1) = 1 < l*_1(1) = 2.
        table = DpTable(2, 1, 2, ((0.0, 0.0),) * 3, ((1, 1), (1, 2), (1, 1)), True)
        assert check_nesting_monotonicity(table) == CheckResult(False, ("time", 2, 1))

    @pytest.mark.parametrize(
        "lstar, witness",
        [
            # The one capacity rise is in the last row (t = T), then in the last column (q = Q).
            (((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 2, 2)), ("capacity", 3, 2)),
            (((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 2)), ("capacity", 1, 3)),
            # The one time drop is in the last row, then in the last column.
            (((1, 1, 1, 1), (1, 2, 2, 2), (1, 2, 2, 2), (1, 1, 1, 1)), ("time", 3, 1)),
            (((1, 1, 1, 1), (1, 2, 2, 2), (1, 2, 2, 1), (1, 2, 2, 1)), ("time", 2, 3)),
        ],
    )
    def test_a_violation_in_the_last_row_or_column_is_found(self, lstar, witness):
        table = DpTable(3, 3, 2, ((0.0,) * 4,) * 4, lstar, True)
        assert check_nesting_monotonicity(table) == CheckResult(False, witness)

    def test_irregular_model_violations_logged_not_asserted(self):
        # A model violating regularity may or may not break the nesting
        # property; the checker reports it either way instead of raising.
        # This one keeps it: the one threshold above 1, l*_4(1) = 2, neither
        # rises with capacity nor falls with time.
        rows = {
            (): {},
            (1,): {1: 0.05},
            (2,): {2: 0.9},
            (1, 2): {1: 0.9, 2: 0.05},
        }
        base = AssortmentInstance(TabularModel(2, rows), [5.0, 1.0])
        table = solve_dp(MultiPeriodInstance(base, 4, 3))
        assert table.regularity_ok is False
        assert table.lstar == ((1,) * 4,) * 4 + ((1, 2, 1, 1),)
        assert check_nesting_monotonicity(table) == CheckResult(True, None, 0.0)


class TestMarginalValue:
    def test_zero_horizon_row(self):
        table = solve_dp(MultiPeriodInstance(mnl_instance(), 2, 3))
        for q in range(1, 4):
            assert table.marginal(0, q) == 0.0

    def test_first_unit_value_is_nonnegative(self):
        table = solve_dp(MultiPeriodInstance(mnl_instance(), 3, 3))
        for t in range(4):
            assert table.marginal(t, 1) == table.value[t][1] >= 0.0


class TestLstarDelta:
    def test_zero_shift_matches_static_argmin(self):
        instance = mnl_instance()
        ladder = revenue_ladder(instance)
        result = revenue_ordered(instance)
        static_best = max(value for _, value in result.candidates)
        expected = min(
            level + 1
            for level in range(ladder.k)
            if abs(ladder.expected_revenue[level] - static_best) <= 1e-9 * max(1.0, static_best)
        )
        assert lstar_delta(instance, 0.0) == expected

    def test_monotone_step_function_over_delta_grid(self):
        instance = mnl_instance()
        top = max(instance.revenue)
        grid = [-top + 0.01 + i * 0.25 for i in range(40)]
        values = [lstar_delta(instance, d) for d in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_level_always_one(self):
        base = AssortmentInstance(MnlModel([0.0, 0.0]), [2.0, 2.0])
        assert lstar_delta(base, -1.0) == 1
        assert lstar_delta(base, 10.0) == 1

    def test_shift_range_guard(self):
        with pytest.raises(DeltaOutOfRange):
            lstar_delta(mnl_instance(), -4.5)

    def test_shift_past_the_top_revenue_within_tolerance(self):
        # top + delta may fall to -RTOL * max(1, top) = -4e-9, and no further;
        # there, offering the top product alone (the last level) is best.
        instance = mnl_instance()
        top = max(instance.revenue)
        assert lstar_delta(instance, -top - 2e-9) == revenue_ladder(instance).k
        with pytest.raises(DeltaOutOfRange):
            lstar_delta(instance, -top - 6e-9)

    def test_nan_shift_is_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            lstar_delta(AssortmentInstance(MnlModel([0.0]), [1.0]), math.nan)

    def test_infinite_shift_is_out_of_range(self):
        # inf - inf is NaN, so no level would tie with the maximum.
        with pytest.raises(DeltaOutOfRange):
            lstar_delta(AssortmentInstance(MnlModel([0.0, 0.5]), [1.0, 3.0]), math.inf)

    def test_empty_catalogue_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty catalogue"):
            lstar_delta(AssortmentInstance(MnlModel([]), []), 0.0)


class TestLstarAgreement:
    def test_table_matches_shifted_static_problem(self):
        rng = Random(31)
        families = ["stochastic_preference", "mnl", "hfam"]
        for i in range(45):
            instance = random_multiperiod(rng, family=families[i % 3])
            table = solve_dp(instance)
            for t in range(1, table.horizon + 1):
                for q in range(1, table.capacity + 1):
                    shift = -table.marginal(t - 1, q)
                    assert table.lstar[t][q] == lstar_delta(instance.base, shift)

    def test_tie_rule_ignores_the_continuation_value(self):
        # Threshold 6 beats 5 by 9.4e-8 at (t, q) = (49, 40); a slack scaled by
        # J_t(q) ~ 350 instead of by the ~1.7 of the shifted static problem
        # swallows that difference.
        rng = Random(2)
        utilities = [rng.gauss(0, 1.5) for _ in range(8)]
        revenue = [rng.uniform(0.5, 9.5) for _ in range(8)]
        base = AssortmentInstance(MnlModel(utilities), revenue)
        table = solve_dp(MultiPeriodInstance(base, 60, 60))
        assert table.lstar[49][40] == 6
        disagreeing = [
            (t, q)
            for t in range(1, 61)
            for q in range(1, 61)
            if table.lstar[t][q] != lstar_delta(base, -table.marginal(t - 1, q))
        ]
        assert disagreeing == []

    def test_long_horizons(self):
        rng = Random(80)
        families = ["stochastic_preference", "mnl", "mixed_mnl", "mallows", "hfam"]
        for i in range(40):
            instance = random_multiperiod(
                rng, family=families[i % 5], n_max=8, horizon_max=80, capacity_max=80
            )
            table = solve_dp(instance)
            for t in range(1, table.horizon + 1):
                for q in range(1, table.capacity + 1):
                    assert table.lstar[t][q] == lstar_delta(instance.base, -table.marginal(t - 1, q))


class CountingMnl(MnlModel):
    def __init__(self, utilities):
        super().__init__(utilities)
        self.calls = 0

    def evaluate(self, x, S):
        self.calls += 1
        return super().evaluate(x, S)


def test_ladder_is_built_once_per_instance():
    counts = []
    for size in (5, 50):
        model = CountingMnl([0.8, 0.1, -0.5, 0.3])
        base = AssortmentInstance(model, [4.0, 2.0, 1.0, 3.0])
        table = solve_dp(MultiPeriodInstance(base, size, size))
        for t in range(1, size + 1):
            for q in range(1, size + 1):
                lstar_delta(base, -table.marginal(t - 1, q))
        counts.append(model.calls)
    assert counts[0] == counts[1] > 0


def test_the_dp_records_a_regularity_verdict_up_to_the_guard(monkeypatch):
    monkeypatch.setattr(multiperiod, "GUARD", 3)

    def verdict(n):
        base = AssortmentInstance(MnlModel([0.1 * x for x in range(n)]), [1.0 + x for x in range(n)])
        return solve_dp(MultiPeriodInstance(base, 2, 2)).regularity_ok

    assert verdict(3) is True
    assert verdict(4) is None


def test_multiperiod_instance_validation():
    with pytest.raises(ValueError):
        MultiPeriodInstance(mnl_instance(), 0, 3)
    with pytest.raises(ValueError):
        MultiPeriodInstance(mnl_instance(), 3, 0)
    with pytest.raises(ValueError, match="^the catalogue must contain at least one product$"):
        MultiPeriodInstance(AssortmentInstance(MnlModel([]), []), 3, 3)


@pytest.mark.parametrize("horizon, capacity", [(2.5, 2), (2, 2.0), (True, 2), (2, False)])
def test_horizon_and_capacity_must_be_ints(horizon, capacity):
    with pytest.raises(ValueError, match="must be ints"):
        MultiPeriodInstance(mnl_instance(), horizon, capacity)


def test_values_beyond_the_float_range_are_refused():
    base = AssortmentInstance(MnlModel([0.0, 0.0]), [1e308, 1.0])
    with pytest.raises(ValueError, match="overflows a float"):
        MultiPeriodInstance(base, 6, 6)
    assert solve_dp(MultiPeriodInstance(base, 1, 6)).value[1][6] < float("inf")


def _unread_ladder(monkeypatch):
    """Fail at once if the DP reads the ladder: a DP past the cell guard must
    refuse before it reads or builds anything."""
    monkeypatch.setattr(MultiPeriodInstance, "ladder", property(lambda self: pytest.fail("the ladder was read")))


def test_the_dp_refuses_more_cells_than_its_guard_before_building_any(monkeypatch):
    instance = MultiPeriodInstance(mnl_instance(), 10**9, 10**9)
    _unread_ladder(monkeypatch)
    with pytest.raises(SearchSpaceTooLarge, match=r"^T x Q = 1000000000 x 1000000000 cells exceed the DP guard 1000000$"):
        solve_dp(instance)


def test_the_cell_guard_admits_its_own_count(monkeypatch):
    monkeypatch.setattr(multiperiod, "CELL_GUARD", 6)
    assert solve_dp(MultiPeriodInstance(mnl_instance(), 3, 2)).value[3][2] > 0
    with pytest.raises(SearchSpaceTooLarge, match="T x Q = 7 x 1 cells exceed the DP guard 6"):
        solve_dp(MultiPeriodInstance(mnl_instance(), 7, 1))


def test_a_dp_past_the_cell_guard_exits_2_and_suite_records_it(tmp_path, monkeypatch, capsys):
    path = tmp_path / "mp.json"
    assert main(["gen", "multiperiod", "--seed", "5", "-o", str(path)]) == 0
    _unread_ladder(monkeypatch)
    capsys.readouterr()
    assert main(["multiperiod", str(path), "--T", "1000000000", "--Q", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "T x Q = 1000000000 x 1000000000 cells exceed the DP guard 1000000\n"
    data = json.loads(path.read_text())
    data["payload"].update(horizon=10**9, capacity=10**9)
    path.write_text(json.dumps(data))
    assert main(["suite", str(path)]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["checks"] == {"monotonicity": "error: T x Q = 1000000000 x 1000000000 cells exceed the DP guard 1000000"}


def test_the_table_checks_return_check_results():
    regular = solve_dp(MultiPeriodInstance(mnl_instance(), 4, 3))
    for check in (check_nesting_monotonicity, check_marginal_value, check_lstar_order):
        assert check(regular) == CheckResult(True, None, 0.0)
    assert check_lstar_order(solve_dp(non_regular_instance())) == CheckResult(False, ("delta", 12, 6), 0.0)


# A non-regular model (P(3, .) rises from {3} to {1, 2, 3}) on which l* rises
# with delta at cell (12, 6) of the T = Q = 30 table.
NON_REGULAR_ROWS = {
    (): {},
    (1,): {1: 0.5},
    (2,): {2: 0.5},
    (3,): {3: 0.05},
    (1, 2): {1: 0.2, 2: 0.4},
    (1, 3): {1: 0.2, 3: 0.1},
    (2, 3): {2: 0.5, 3: 0.1},
    (1, 2, 3): {1: 0.01, 2: 0.05, 3: 0.3},
}


def non_regular_instance():
    return MultiPeriodInstance(AssortmentInstance(TabularModel(3, NON_REGULAR_ROWS), [1, 2, 3]), 30, 30)


class TestLstarOrder:
    def test_witness_on_a_non_regular_table(self):
        table = solve_dp(non_regular_instance())
        assert table.regularity_ok is False
        report = check_lstar_order(table)
        assert not report and report.witness == ("delta", 12, 6)
        # Some cell of no larger delta has a smaller threshold.
        delta = -table.marginal(11, 6)
        assert any(
            -table.marginal(t - 1, q) <= delta and table.lstar[t][q] < table.lstar[12][6]
            for t in range(1, 31)
            for q in range(1, 31)
        )

    def test_generated_regular_instances_pass(self):
        rng = Random(78)
        families = ["stochastic_preference", "mnl", "mixed_mnl", "mallows", "hfam"]
        for i in range(30):
            instance = random_multiperiod(rng, family=families[i % 5], horizon_max=30, capacity_max=30)
            table = solve_dp(instance)
            assert table.regularity_ok and check_lstar_order(table).passed

    def test_check_flag_reports_the_order(self, tmp_path, capsys):
        path = tmp_path / "non_regular.json"
        path.write_text(dumps(instance_to_dict(non_regular_instance())))
        assert main(["multiperiod", str(path), "--check", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["lstar_agreement"] is False and report["passed"] is False
        assert main(["suite", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["checks"] == {"monotonicity": False}

    def test_two_solves_read_the_columns_once(self, monkeypatch):
        # The axiom checkers read a table's stored columns through _tabulated.
        reads = []
        original = axioms._tabulated

        def counted(table):
            reads.append(table.n)
            return original(table)

        monkeypatch.setattr(axioms, "_tabulated", counted)
        instance = non_regular_instance()
        first, second = solve_dp(instance), solve_dp(instance)
        assert first == second and first.regularity_ok is False
        assert reads == [3]
