"""Command-line behaviour: outputs, exit codes, and determinism."""

import dataclasses
import json
import math

import pytest

from assortopt import cli
from assortopt.cli import _emit, main
from assortopt.io import instance_from_dict
from assortopt.udp import UNPRICED, PricingSolution, UdpMinInstance, uniform_pricing
from assortopt.io import dumps
from assortopt.models import MnlModel, TabularModel
from assortopt.io import instance_to_dict
from assortopt.assortment import AssortmentInstance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_is_byte_identical(tmp_path, capsys):
    one = tmp_path / "a.json"
    two = tmp_path / "b.json"
    assert main(["gen", "assortment", "--family", "mallows", "--seed", "9", "-o", str(one)]) == 0
    assert main(["gen", "assortment", "--family", "mallows", "--seed", "9", "-o", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_gen_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ASSORT_SEED", "33")
    out_env = tmp_path / "env.json"
    assert main(["gen", "udp_min", "-o", str(out_env)]) == 0
    out_flag = tmp_path / "flag.json"
    assert main(["gen", "udp_min", "--seed", "33", "-o", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_json_output_refuses_nan(capsys):
    # json.dumps would otherwise print the bare token NaN, which is not JSON.
    with pytest.raises(ValueError, match="JSON compliant"):
        _emit({"ratio": math.nan}, True)
    assert capsys.readouterr().out == ""


def test_solve_reports_opt_revord_ratio_bounds(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
    code, out = run(capsys, "solve", str(path), "--bounds", "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"opt", "revord", "ratio", "bounds"}
    assert set(report["bounds"]) == {"A", "B_exact", "B_log", "C_exact", "C_log", "nu", "lambda_tilde"}
    assert report["ratio"] == pytest.approx(1.0)  # heuristic is optimal under MNL


def test_solve_revord_only(tmp_path, capsys):
    path = tmp_path / "inst.json"
    main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)])
    code, out = run(capsys, "solve", str(path), "--method", "revord", "--json")
    assert code == 0
    report = json.loads(out)
    assert "revord" in report and "opt" not in report


def test_udp_verify_passes(tmp_path, capsys):
    for kind in ("udp_min", "udp_rank"):
        path = tmp_path / f"{kind}.json"
        assert main(["gen", kind, "--seed", "6", "-o", str(path)]) == 0
        code, out = run(capsys, "udp", "verify", str(path), "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_udp_reduce_emits_assortment(tmp_path, capsys):
    path = tmp_path / "udp.json"
    main(["gen", "udp_min", "--seed", "6", "-o", str(path)])
    code, out = run(capsys, "udp", "reduce", str(path))
    assert code == 0
    reduced = json.loads(out)
    assert reduced["kind"] == "assortment"
    assert reduced["payload"]["model"]["type"] == "tabular"


def test_stackelberg_solve_and_verify(tmp_path, capsys):
    path = tmp_path / "st.json"
    assert main(["gen", "stackelberg", "--seed", "8", "-o", str(path)]) == 0
    code, out = run(capsys, "stackelberg", "verify", str(path), "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out = run(capsys, "stackelberg", "solve", str(path), "--json")
    assert code == 0
    assert "opt_revenue" in json.loads(out)


def test_multiperiod_check(tmp_path, capsys):
    path = tmp_path / "mp.json"
    assert main(["gen", "multiperiod", "--seed", "2", "-o", str(path)]) == 0
    code, out = run(capsys, "multiperiod", str(path), "--check", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nesting_monotonicity"] and report["marginal_value"] and report["lstar_agreement"]


def test_multiperiod_accepts_assortment_plus_flags(tmp_path, capsys):
    path = tmp_path / "a.json"
    main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)])
    code, out = run(capsys, "multiperiod", str(path), "--T", "3", "--Q", "2", "--json")
    assert code == 0
    assert json.loads(out)["horizon"] == 3


class TestSuite:
    def test_empty_file_list_exits_zero(self, capsys):
        code, out = run(capsys, "suite")
        assert code == 0
        assert out == ""

    def test_passing_corpus_exits_zero(self, tmp_path, capsys):
        for seed, kind in enumerate(["assortment", "udp_min", "stackelberg", "multiperiod"]):
            main(["gen", kind, "--seed", str(seed), "-o", str(tmp_path / f"{kind}.json")])
        code, out = run(capsys, "suite", str(tmp_path / "*.json"))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert all(r["passed"] for r in records)
        assert all("digest" in r and "timings" in r for r in records)

    def test_fifty_generated_instances_all_checks(self, tmp_path, capsys):
        kinds = ["assortment"] * 35 + ["udp_min", "udp_rank", "stackelberg", "multiperiod"] * 3 + ["assortment"] * 3
        for seed, kind in enumerate(kinds):
            main(["gen", kind, "--seed", str(seed), "-o", str(tmp_path / f"{seed:03d}.json")])
        code, out = run(capsys, "suite", str(tmp_path / "*.json"))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 50
        assert all(r["passed"] for r in records)

    def test_regularity_violator_fails_suite(self, tmp_path, capsys):
        rows = {
            (): {},
            (1,): {1: 0.3},
            (2,): {2: 0.5},
            (1, 2): {1: 0.5, 2: 0.2},
        }
        instance = AssortmentInstance(TabularModel(2, rows), [1.0, 2.0])
        path = tmp_path / "violator.json"
        path.write_text(dumps(instance_to_dict(instance)))
        code, out = run(capsys, "suite", str(path))
        assert code == 1
        record = json.loads(out.splitlines()[0])
        assert record["passed"] is False
        assert "regularity" in str(record["checks"]["guarantees"])

    def test_malformed_file_collected_not_fatal(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(good)])
        code, out = run(capsys, "suite", str(bad), str(good))
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["passed"] is False and "error" in records[0]
        assert records[1]["passed"] is True


def test_unreadable_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", str(missing)]) == 2
    capsys.readouterr()


def test_bad_usage_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def _mnl_with_nan_utility(path):
    assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["payload"]["model"]["mean_utilities"][0] = math.nan
    path.write_text(json.dumps(data))  # the NaN token, which json.loads accepts


INVALID_FILES = {
    "no_payload": lambda path: path.write_text('{"kind": "assortment"}'),
    "top_level_list": lambda path: path.write_text("[1, 2]"),
    "nan_utility": _mnl_with_nan_utility,
}


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "FILE"],
        ["bounds", "FILE"],
        ["udp", "verify", "FILE"],
        ["stackelberg", "verify", "FILE"],
        ["multiperiod", "FILE", "--T", "2", "--Q", "2"],
    ],
    ids=lambda command: " ".join(command),
)
@pytest.mark.parametrize("make", INVALID_FILES.values(), ids=INVALID_FILES.keys())
def test_invalid_instance_file_exits_2(tmp_path, capsys, command, make):
    path = tmp_path / "bad.json"
    make(path)
    capsys.readouterr()
    assert main([str(path) if arg == "FILE" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "invalid instance file" in captured.err


@pytest.mark.parametrize(
    "command, kind",
    [
        (["udp", "verify"], "assortment"),
        (["stackelberg", "solve"], "udp_min"),
        (["solve"], "udp_rank"),
        (["multiperiod"], "stackelberg"),
    ],
)
def test_wrong_kind_exits_2(tmp_path, capsys, command, kind):
    path = tmp_path / "other.json"
    assert main(["gen", kind, "--seed", "1", "-o", str(path)]) == 0
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"holds a {kind} instance" in captured.err


def test_verify_and_suite_agree_on_a_candidate_mismatch(tmp_path, capsys, monkeypatch):
    def off_by_one(instance):
        result = uniform_pricing(instance)
        (level, revenue), *rest = result.candidates
        return dataclasses.replace(result, candidates=((level, revenue + 1), *rest))

    monkeypatch.setattr("assortopt.reductions.uniform_pricing", off_by_one)
    path = tmp_path / "udp.json"
    assert main(["gen", "udp_min", "--seed", "6", "-o", str(path)]) == 0
    code, out = run(capsys, "udp", "verify", str(path), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["uniform_equals_revenue_ordered"] is False and report["passed"] is False
    code, out = run(capsys, "suite", str(path))
    assert code == 1
    assert json.loads(out)["checks"]["reduction"] is False


@pytest.mark.parametrize("command, kind", [("udp", "udp_rank"), ("stackelberg", "stackelberg")])
def test_verify_report_keys(tmp_path, capsys, command, kind):
    path = tmp_path / "inst.json"
    assert main(["gen", kind, "--seed", "2", "-o", str(path)]) == 0
    code, out = run(capsys, command, "verify", str(path), "--json")
    assert code == 0
    assert set(json.loads(out)) == {
        "opt_pricing",
        "opt_assortment",
        "opt_match",
        "axioms_pass",
        "uniform_equals_revenue_ordered",
        "passed",
    }
    code, out = run(capsys, command, "verify", str(path))
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "opt_pricing",
        "opt_assortment",
        "opt_match",
        "axioms_pass",
        "uniform_equals_revenue_ordered",
        "passed",
    ]


def test_udp_solve_writes_inf_for_an_unpriced_item(tmp_path, capsys, monkeypatch):
    # The exact optimum never needs UNPRICED without a price ladder (the top
    # valuation level earns at least as much), so leave item 2 unpriced here.
    def item_two_unpriced(instance):
        top = instance.valuation_levels[-1]
        return PricingSolution((top, UNPRICED), 0.0)

    monkeypatch.setattr("assortopt.reductions.brute_force_pricing", item_two_unpriced)
    path = tmp_path / "udp.json"
    path.write_text(dumps(instance_to_dict(UdpMinInstance(2, [([1], 3.0), ([1, 2], 5.0)]))))
    code, out = run(capsys, "udp", "solve", str(path), "--json")
    assert code == 0
    assert json.loads(out)["opt_prices"] == [5.0, "inf"]


def test_stackelberg_solve_keys_prices_by_edge(tmp_path, capsys):
    path = tmp_path / "st.json"
    assert main(["gen", "stackelberg", "--seed", "8", "-o", str(path)]) == 0
    instance = instance_from_dict(json.loads(path.read_text()))
    code, out = run(capsys, "stackelberg", "solve", str(path), "--json")
    assert code == 0
    prices = json.loads(out)["opt_prices"]
    assert isinstance(prices, dict)
    assert set(prices) == {str(edge) for edge in instance.blue}


def _one_line_exit_2(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


def test_nonpositive_horizon_flag_exits_2(tmp_path, capsys):
    path = tmp_path / "mp.json"
    assert main(["gen", "multiperiod", "--seed", "5", "-o", str(path)]) == 0
    assert "horizon and capacity must be positive" in _one_line_exit_2(capsys, "multiperiod", str(path), "--T", "0")


@pytest.mark.parametrize("params", ["{bad", "[1, 2]", "3"])
def test_bad_params_flag_exits_2(tmp_path, capsys, params):
    assert "invalid --params" in _one_line_exit_2(capsys, "gen", "assortment", "--params", params)


def test_oversized_pricing_grid_exits_2(tmp_path, capsys):
    # 12 items, 9 valuation levels: 10^12 price assignments, past the 10^7 guard.
    consumers = [{"bundle": [x], "valuation": x % 9 + 1} for x in range(1, 13)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "udp_min", "payload": {"items": 12, "consumers": consumers}}))
    assert "10^12 price assignments" in _one_line_exit_2(capsys, "udp", "solve", str(path))


def test_astronomical_item_count_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "udp_min", "payload": {"items": 1000000000000000000, '
                    '"consumers": [{"bundle": [1], "valuation": 1}]}}')
    assert "price assignments" in _one_line_exit_2(capsys, "udp", "solve", str(path))


def test_oversized_assortment_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.json"
    instance = AssortmentInstance(MnlModel([0.0] * 21), [1.0] * 21)
    path.write_text(dumps(instance_to_dict(instance)))
    assert "exceeds the enumeration guard" in _one_line_exit_2(capsys, "solve", str(path), "--method", "brute")


class TestSharedParser:
    """``main`` reuses one parser per process; no call may leak into the next."""

    def test_one_parser_for_many_calls(self, tmp_path, capsys, monkeypatch):
        built = []
        real_build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return real_build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        path = tmp_path / "inst.json"
        assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
        assert main(["solve", str(path), "--json"]) == 0
        assert main(["bounds", str(path)]) == 0
        assert main(["suite", str(path)]) == 0
        capsys.readouterr()
        assert built == [1]

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
        code, out = run(capsys, "solve", str(path), "--json")
        assert code == 0 and json.loads(out)["ratio"] == pytest.approx(1.0)
        code, out = run(capsys, "solve", str(path))
        assert code == 0 and out.startswith("revord: ")

    def test_check_subset_does_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
        code, out = run(capsys, "suite", "--checks", "axioms", str(path))
        assert code == 0 and set(json.loads(out)["checks"]) == {"axioms"}
        code, out = run(capsys, "suite", str(path))
        assert code == 0 and set(json.loads(out)["checks"]) == {"axioms", "guarantees"}

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve"])
        assert excinfo.value.code == 2
        path = tmp_path / "inst.json"
        assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
        code, out = run(capsys, "solve", str(path), "--method", "revord", "--json")
        assert code == 0 and "revord" in json.loads(out)

    def test_help_matches_a_fresh_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()
