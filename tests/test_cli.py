"""Command-line behaviour: outputs, exit codes, and determinism."""

import dataclasses
import json
import math

import pytest

from assortopt import cli
from assortopt import io as io_module
from assortopt.cli import _emit, main
from assortopt.io import instance_from_dict
from assortopt.udp import UNPRICED, PricingSolution, UdpMinInstance, uniform_pricing
from assortopt.io import dumps
from assortopt.models import ChoiceModel, MnlModel, TabularModel
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


def test_gen_without_output_writes_the_file_text_to_stdout(tmp_path, capsys):
    path = tmp_path / "a.json"
    assert main(["gen", "udp_min", "--seed", "4", "-o", str(path)]) == 0
    assert run(capsys, "gen", "udp_min", "--seed", "4") == (0, path.read_text(encoding="utf-8"))


def test_gen_seed_defaults_to_zero(capsys):
    assert run(capsys, "gen", "udp_min") == run(capsys, "gen", "udp_min", "--seed", "0")


def test_gen_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert str(target) in _one_line_exit_2(capsys, "gen", "udp_min", "-o", str(target))
    assert not target.parent.exists()


def test_json_output_refuses_nan(capsys):
    # json.dumps would otherwise print the bare token NaN, which is not JSON.
    with pytest.raises(ValueError, match="JSON compliant"):
        _emit({"ratio": math.nan}, True)
    assert capsys.readouterr().out == ""


def _ref_emit(data, as_json):
    """What _emit printed when it built the JSON, or each line, as one string."""
    if as_json:
        return json.dumps(data, sort_keys=True, allow_nan=False) + "\n"
    return "".join(f"{key}: {value}\n" for key, value in data.items())


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_emit_writes_the_bytes_of_one_string(capsys, as_json):
    data = {"b": [[0.1, -0.0, 1e300], [], [2, 3]], "a": ["x'y", 'z"'], "c": {"k": [1, 2.5]}, "d": None,
            "e": True, "f": [], "g": 1.5, "h": [{"p": 1}, [None, False]], "t": (1, [2])}
    if not as_json:
        data["i"] = [math.inf, -math.inf, math.nan]  # text prints them
    _emit(data, as_json)
    assert capsys.readouterr().out == _ref_emit(data, as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_emit_writes_nested_rows_as_one_string(capsys, as_json):
    # Each row of a list is encoded on its own: rows that are lists or
    # tuples of lists and tuples, empty ones, and dicts whose keys sort.
    data = {"rows": [[(1, 2.5), [3, (4,)]], ([],), [[[]]], (0.1, [-0.0]), [{"z": (1,), "a": [()]}], ()],
            "keys": [(), [()], ["\u00e9", ("\n",)]], "one": [[1, [2, (3, [4])]]]}
    _emit(data, as_json)
    assert capsys.readouterr().out == _ref_emit(data, as_json)
    _emit({}, as_json)
    assert capsys.readouterr().out == _ref_emit({}, as_json)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_multiperiod_report_is_the_one_string_it_was(tmp_path, capsys, monkeypatch, as_json):
    path = tmp_path / "mp.json"
    assert main(["gen", "multiperiod", "--seed", "3", "-o", str(path)]) == 0
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda data, flag: (reports.append(data), _emit(data, flag)))
    code, out = run(capsys, "multiperiod", str(path), "--T", "40", "--Q", "30", "--check", *["--json"] * as_json)
    assert code == 0 and len(reports[0]["value"]) == 41
    assert out == _ref_emit(reports[0], as_json)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_refuses_a_non_finite_value_before_writing(capsys, bad):
    # The bad value sits in the last row, after everything a stream would
    # already have written, and in a tuple inside a dict.
    for data in ({"a": 1, "value": [[0.5] * 3 for _ in range(50)] + [[0.5, bad]], "z": "last"},
                 {"a": [1], "bounds": {"n": (2.0, bad)}}):
        with pytest.raises(ValueError) as expected:
            json.dumps(data, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError) as raised:
            _emit(data, True)
        assert str(raised.value) == str(expected.value)
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("last", [[1, 0.5, math.nan], (2, -math.inf), [10**5000]],
                         ids=["nan", "inf_in_a_tuple", "int_past_the_digit_limit"])
def test_json_refuses_a_bad_last_row_of_numbers_before_writing(capsys, last):
    data = {"lstar": [[1, 2, 3]] * 20, "value": [[0.5, 1, 2.5]] * 20 + [last]}
    with pytest.raises(ValueError) as expected:
        json.dumps(data, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError) as raised:
        _emit(data, True)
    assert str(raised.value) == str(expected.value)
    assert capsys.readouterr().out == ""


def test_json_writes_a_row_holding_an_int_past_the_float_range(capsys):
    data = {"value": [[0.5, 1], [2.5, 10**400, -(10**400)], (3, 0.25)]}
    _emit(data, True)
    assert capsys.readouterr().out == _ref_emit(data, True)


def test_solve_reports_opt_revord_ratio_bounds(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
    code, out = run(capsys, "solve", str(path), "--bounds", "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"opt", "revord", "ratio", "bounds"}
    assert set(report["bounds"]) == {"A", "B_exact", "B_log", "C_exact", "C_log", "nu"}
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


@pytest.mark.parametrize("command", [["solve", "--bounds"], ["bounds", "--with-optimal"]], ids=" ".join)
def test_assortment_commands_read_a_multiperiod_files_base(tmp_path, capsys, command):
    path = tmp_path / "mp.json"
    assert main(["gen", "multiperiod", "--seed", "5", "-o", str(path)]) == 0
    base = tmp_path / "base.json"
    base.write_text(dumps(instance_to_dict(instance_from_dict(json.loads(path.read_text())).base)))
    code, out = run(capsys, *command, str(path), "--json")
    assert code == 0 and "bounds" in json.loads(out)
    assert run(capsys, *command, str(base), "--json") == (0, out)


def test_multiperiod_refuses_an_empty_catalogue(tmp_path, capsys):
    path = tmp_path / "empty.json"
    payload = {"model": {"type": "mnl", "mean_utilities": []}, "revenue": [], "horizon": 2, "capacity": 2}
    _file("multiperiod", payload)(path)
    message = _one_line_exit_2(capsys, "multiperiod", str(path))
    assert message == f"invalid instance file {path}: the catalogue must contain at least one product\n"


def test_solve_refuses_a_mallows_centre_that_is_no_permutation(tmp_path, capsys):
    path = tmp_path / "mallows.json"
    _file("assortment", {"model": {"type": "mallows", "central_ranking": [0, 1, 1], "theta": 0.5},
                         "revenue": [1.0, 2.0]})(path)
    message = _one_line_exit_2(capsys, "solve", str(path))
    assert message == f"invalid instance file {path}: (0, 1, 1) is not a permutation of 0..2\n"


@pytest.mark.parametrize("flags", [[], ["--T", "3"], ["--Q", "2"]], ids=" ".join)
def test_multiperiod_on_an_assortment_file_needs_both_flags(tmp_path, capsys, flags):
    path = tmp_path / "a.json"
    assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
    message = _one_line_exit_2(capsys, "multiperiod", str(path), *flags)
    assert message.strip() == "an assortment instance needs --T and --Q"


def test_multiperiod_accepts_assortment_plus_flags(tmp_path, capsys):
    path = tmp_path / "a.json"
    main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)])
    code, out = run(capsys, "multiperiod", str(path), "--T", "3", "--Q", "2", "--json")
    assert code == 0
    assert json.loads(out)["horizon"] == 3


class TestSuite:
    def test_empty_file_list_exits_2(self, capsys):
        # A run that checks no file must not pass.
        assert _one_line_exit_2(capsys, "suite").strip() == "suite got no instance file or glob pattern"

    def test_a_pattern_that_matches_nothing_exits_2(self, tmp_path, capsys):
        main(["gen", "udp_min", "--seed", "1", "-o", str(tmp_path / "a.json")])
        pattern = str(tmp_path / "nothing" / "*.json")
        assert pattern in _one_line_exit_2(capsys, "suite", str(tmp_path / "*.json"), pattern)

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

    def test_a_file_no_requested_check_applies_to_fails(self, tmp_path, capsys):
        path = tmp_path / "mp.json"
        assert main(["gen", "multiperiod", "--seed", "5", "-o", str(path)]) == 0
        code, out = run(capsys, "suite", "--checks", "reduction", str(path))
        assert code == 1
        record = json.loads(out)
        assert (record["passed"], record["checks"]) == (False, {})
        assert record["error"] == "no requested check applies to a multiperiod file; its checks: monotonicity"
        code, out = run(capsys, "suite", "--checks", "reduction,monotonicity", str(path))
        assert code == 0 and "error" not in json.loads(out)

    def test_a_missing_file_is_recorded_as_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code, out = run(capsys, "suite", str(missing))
        assert code == 1
        record = json.loads(out)
        assert (record["file"], record["passed"], record["checks"]) == (str(missing), False, {})
        assert "nope.json" in record["error"]

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


@pytest.mark.parametrize("command", [["solve"], ["bounds"], ["udp", "solve"], ["multiperiod"]], ids=" ".join)
def test_json_nested_too_deeply_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)  # json.loads raises RecursionError, not ValueError
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {path}: ") and len(captured.err.splitlines()) == 1


def _empty_catalogue(tmp_path, capsys):
    # A lone blue self-loop leaves no priceable element: the reduction has n = 0.
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"kind": "stackelberg", "payload": {"vertices": 1, "edges": [{"u": 0, "v": 0, "color": "blue"}]}}))
    code, out = run(capsys, "stackelberg", "reduce", str(loop))
    path = tmp_path / "empty.json"
    path.write_text(out)
    assert code == 0 and instance_from_dict(json.loads(out)).n == 0
    return path


@pytest.mark.parametrize("command", [["bounds"], ["bounds", "--with-optimal"], ["solve", "--bounds"]], ids=" ".join)
def test_bounds_of_an_empty_catalogue_lose_nothing(tmp_path, capsys, command):
    path = _empty_catalogue(tmp_path, capsys)
    code, out = run(capsys, *command, str(path), "--json")
    assert code == 0
    bounds = json.loads(out)["bounds"]
    assert bounds == {"A": 1.0, "B_exact": 1.0, "B_log": 1.0, "C_exact": None, "C_log": None, "nu": None}


def test_suite_passes_an_empty_catalogue(tmp_path, capsys):
    path = _empty_catalogue(tmp_path, capsys)
    code, out = run(capsys, "suite", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True and record["checks"] == {"axioms": True, "guarantees": True}


def test_bad_usage_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def _mnl_with_nan_utility(path):
    assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["payload"]["model"]["mean_utilities"][0] = math.nan
    path.write_text(json.dumps(data))  # the NaN token, which json.loads accepts


def _tabular_file(n, rows):
    """A writer of an assortment file whose model is the given tabular rows."""
    model = {"type": "tabular", "n": n, "rows": rows}
    return lambda path: path.write_text(json.dumps({"kind": "assortment", "payload": {"model": model, "revenue": [1.0] * n}}))


def _file(kind, payload):
    """A writer of a ``kind`` file with the given payload."""
    return lambda path: path.write_text(json.dumps({"kind": kind, "payload": payload}))


_ONE_PRODUCT = {"model": {"type": "mnl", "mean_utilities": [0.0]}, "revenue": [1.0]}

INVALID_FILES = {
    "no_payload": lambda path: path.write_text('{"kind": "assortment"}'),
    "top_level_list": lambda path: path.write_text("[1, 2]"),
    "nan_utility": _mnl_with_nan_utility,
    "row_longer_than_its_offer_set": _tabular_file(1, [[[], []], [[1], [0.5, 0.4]]]),
    "row_shorter_than_its_offer_set": _tabular_file(2, [[[], []], [[1], [0.5]], [[2], [0.3]], [[1, 2], [0.2]]]),
    "offer_set_outside_the_catalogue": _tabular_file(1, [[[], []], [[1], [0.5]], [[2], [0.3]], [[1, 7], [0.2, 0.1]]]),
    "offer_set_repeating_a_product": _tabular_file(2, [[[], []], [[1], [0.5]], [[2], [0.3]], [[1, 2], [0.2, 0.1]], [[1, 1], [0.2, 0.9]]]),
    "offer_set_with_two_rows": _tabular_file(1, [[[], []], [[1], [0.5]], [[1], [0.9]]]),
    "tabular_catalogue_beyond_the_guard": lambda path: path.write_text(json.dumps({"kind": "assortment", "payload": {
        "model": {"type": "tabular", "n": 10**12, "rows": [[[], []], [[1], [0.5]]]}, "revenue": [1.0]}})),
    "float_horizon": _file("multiperiod", {**_ONE_PRODUCT, "horizon": 2.5, "capacity": 2}),
    "float_capacity": _file("multiperiod", {**_ONE_PRODUCT, "horizon": 2, "capacity": 2.0}),
    "bool_horizon": _file("multiperiod", {**_ONE_PRODUCT, "horizon": True, "capacity": 2}),
    "float_item_count": _file("udp_min", {"items": 2.5, "consumers": [{"bundle": [1], "valuation": 1}]}),
    "bool_item_count": _file("udp_rank", {"items": True, "consumers": [{"ranking": [1], "valuations": [1]}]}),
    "int_revenue_beyond_the_float_range": _file("assortment", {**_ONE_PRODUCT, "revenue": [10**400]}),
    "udp_min_revenue_overflow": _file("udp_min", {"items": 1, "consumers": [{"bundle": [1], "valuation": 1e308}] * 2}),
    "udp_rank_revenue_overflow": _file("udp_rank", {"items": 1, "consumers": [{"ranking": [1], "valuations": [1e308]}] * 2}),
    "stackelberg_revenue_overflow": _file("stackelberg", {"vertices": 2, "edges": [
        {"u": 0, "v": 1, "color": "red", "cost": 1e308}, *[{"u": 0, "v": 1, "color": "blue"}] * 2]}),
    "multiperiod_revenue_overflow": _file("multiperiod", {**_ONE_PRODUCT, "revenue": [1e308], "horizon": 6, "capacity": 6}),
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


@pytest.mark.parametrize("make", INVALID_FILES.values(), ids=INVALID_FILES.keys())
def test_suite_records_an_invalid_instance_file_as_an_error(tmp_path, capsys, make):
    path = tmp_path / "bad.json"
    make(path)
    code, out = run(capsys, "suite", str(path))
    record = json.loads(out)
    assert code == 1
    assert (record["passed"], record["checks"]) == (False, {})
    assert record["error"]


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


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["udp_min", "--params", '{"nmax": 9}'], "n_max, m_max"),
        (["assortment", "--family", "tight", "--params", '{"n_max": 3}'], "k, eps"),
        (["stackelberg", "--params", '{"n_max": 3}'], "v, cost_levels"),
    ],
)
def test_unknown_params_key_exits_2(capsys, argv, accepted):
    err = _one_line_exit_2(capsys, "gen", *argv)
    unknown = json.loads(argv[-1]).popitem()[0]
    assert f"unknown parameter {unknown!r}" in err and f"accepted: {accepted}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["assortment", "--params", '{"n_max": 2.5}'], "parameter 'n_max' must be an integer, got 2.5"),
        (["assortment", "--params", '{"n_max": true}'], "parameter 'n_max' must be an integer, got True"),
        (["udp_min", "--params", '{"m_max": "3"}'], "parameter 'm_max' must be an integer, got '3'"),
        (["assortment", "--family", "tight", "--params", '{"k": 2.0}'], "parameter 'k' must be an integer, got 2.0"),
        (["assortment", "--params", '{"n_max": 100000000}'],
         "parameter 'n_max' = 100000000 allows 100000000 products; guard is 20"),
        (["multiperiod", "--params", '{"n_max": 21}'], "parameter 'n_max' = 21 allows 21 products; guard is 20"),
        (["udp_rank", "--params", '{"n_max": 21}'], "parameter 'n_max' = 21 allows 21 products; guard is 20"),
        (["assortment", "--family", "tight", "--params", '{"k": 6}'], "parameter 'k' = 6 allows 21 products; guard is 20"),
        (["udp_min", "--params", '{"m_max": 1001}'], "parameter 'm_max' = 1001 exceeds the cap 1000 on consumers"),
        (["udp_rank", "--params", '{"m_max": 1001}'], "parameter 'm_max' = 1001 exceeds the cap 1000 on consumers"),
        (["stackelberg", "--params", '{"v": 1001}'], "parameter 'v' = 1001 exceeds the cap 1000 on vertices"),
        (["multiperiod", "--params", '{"T": 1001}'], "parameter 'T' = 1001 exceeds the cap 1000 on periods"),
        (["multiperiod", "--params", '{"Q": 1001}'], "parameter 'Q' = 1001 exceeds the cap 1000 on capacity units"),
        (["multiperiod", "--params", '{"T": 1000000000, "Q": 1000000000}'],
         "parameter 'T' = 1000000000 exceeds the cap 1000 on periods"),
    ],
)
def test_params_of_another_type_or_past_the_guard_exit_2(capsys, argv, message):
    assert message in _one_line_exit_2(capsys, "gen", *argv)


@pytest.mark.parametrize("argv", [["assortment", "--params", '{"n_max": 20}'],
                                  ["assortment", "--family", "tight", "--params", '{"k": 5}'],
                                  ["udp_rank", "--params", '{"m_max": 1000}'],
                                  ["stackelberg", "--params", '{"v": 1000}'],
                                  ["multiperiod", "--params", '{"T": 1000, "Q": 1000}']])
def test_params_at_the_guard_generate(tmp_path, argv):
    assert main(["gen", *argv, "--seed", "1", "-o", str(tmp_path / "at_guard.json")]) == 0


def test_pricing_reduction_beyond_the_float_range_exits_2(tmp_path, capsys):
    # An int valuation is kept exact, but the reduced revenue 10^400 is no float.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "udp_min", "payload": {"items": 1, "consumers": [
        {"bundle": [1], "valuation": 10**400}]}}))
    for action in ("reduce", "verify"):
        assert "must be finite as a float" in _one_line_exit_2(capsys, "udp", action, str(path))


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
        # A misspelt name runs no check, so it is refused rather than passed.
        assert main(["suite", "--checks", "axiom", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "unknown --checks 'axiom'; accepted: axioms, guarantees, reduction, monotonicity\n"
        code, out = run(capsys, "suite", "--checks", ",", str(path))
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


_WIDE_REDUCIBLE = {
    # 7 items x 3 valuation levels, and 7 blue edges x 3 red cost levels (a red
    # spanning star): 21 products each.
    "udp": {"kind": "udp_min", "payload": {"items": 7, "consumers": [
        {"bundle": [x], "valuation": x % 3 + 1} for x in range(1, 8)]}},
    "stackelberg": {"kind": "stackelberg", "payload": {"vertices": 8, "edges": [
        *({"u": v, "v": v + 1, "color": "blue"} for v in range(7)),
        *({"u": 0, "v": v, "color": "red", "cost": v % 3 + 1} for v in range(1, 8))]}},
}


@pytest.mark.parametrize("action", ["reduce", "verify"])
@pytest.mark.parametrize("command", sorted(_WIDE_REDUCIBLE))
def test_reductions_past_the_guard_exit_2_before_building(tmp_path, capsys, monkeypatch, command, action):
    def tabulate(model):
        raise AssertionError("no reduced model may be tabulated past the guard")

    monkeypatch.setattr(io_module, "probability_rows", tabulate)
    monkeypatch.setattr(ChoiceModel, "to_tabular", tabulate)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_WIDE_REDUCIBLE[command]))
    assert _one_line_exit_2(capsys, command, action, str(path)).rstrip("\n").endswith("= 21 products; guard is 20")


def test_guard_flag_is_gone(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "assortment", "--family", "mnl", "--seed", "4", "-o", str(path)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["--guard-n", "21", "solve", str(path)])
    assert excinfo.value.code == 2
