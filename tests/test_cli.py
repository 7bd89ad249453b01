"""Command-line behaviour: outputs, exit codes, and determinism."""

import json
import math

import pytest

from assortopt.cli import _emit, main
from assortopt.io import dumps
from assortopt.models import TabularModel
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
