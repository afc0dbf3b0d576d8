"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

Perturbed results must be rejected and recorded ones accepted.
"""
import copy
import json
import math
from pathlib import Path

import pytest

import checks
import run
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _document(payload) -> bytes:
    return json.dumps({"manifest": {}, "kind": "report", "payload": payload}).encode()


def test_icp_margin_check():
    assert checks.icp_problems(0.3) == []
    assert checks.icp_problems(-1e-10) == []
    assert checks.icp_problems(-1e-8)
    assert checks.icp_problems(math.nan)


def test_ledger_check_rejects_each_gate():
    assert checks.ledger_problems(0.0, 1e-13, 1e-10) == []
    assert checks.ledger_problems(-1e-8, 0.0, 0.0)
    assert checks.ledger_problems(0.0, 1e-11, 0.0)
    assert checks.ledger_problems(0.0, 0.0, 1e-8)
    assert checks.ledger_problems(math.nan, 0.0, 0.0)


def test_audit_reference_rejects_perturbed_extractable():
    expected = REFERENCE["ensemble-audit"]
    assert checks.mismatches(expected, copy.deepcopy(expected)) == []
    actual = copy.deepcopy(expected)
    actual["ledger/trit-4"][7] += 1e-11
    assert [m.split(":")[0] for m in checks.mismatches(expected, actual)] == ["$.ledger/trit-4[7]"]
    actual["ledger/trit-4"][7] = expected["ledger/trit-4"][7] + 1e-14
    assert checks.mismatches(expected, actual) == []
    del actual["evaluate/qubit"][-1]
    assert checks.mismatches(expected, actual)


def test_optimizer_reference_values():
    expected = REFERENCE["optimizer-search"]
    assert expected["classical-bit"] == 1.0
    assert expected["sbit"] == 2.0
    assert abs(expected["qubit"] - 0.798248) < 1e-6
    assert checks.mismatches(expected["qubit"], 0.798248, tol=checks.SEARCH_TOL)
    assert checks.mismatches(expected["sbit"], 2.0 - 1e-12, tol=checks.SEARCH_TOL) == []


@pytest.mark.parametrize("key", sorted(REFERENCE["cli-commands"]))
def test_command_check_accepts_reference_and_added_keys(key):
    expected = REFERENCE["cli-commands"][key]
    payload = copy.deepcopy(expected)
    payload["provenance"] = {"exhaustive": True}  # keys added later are ignored
    out = _document(payload)
    assert checks.command_problems(0, out, out, expected) == []


def test_command_check_rejects_wrong_numbers():
    expected = REFERENCE["cli-commands"]["demo_sbit"]
    payload = copy.deepcopy(expected)
    payload["report"]["extractable"] += 1e-9
    assert checks.command_problems(0, _document(payload), None, expected)
    payload = copy.deepcopy(expected)
    payload["report"]["violated"] = not payload["report"]["violated"]
    assert checks.command_problems(0, _document(payload), None, expected)
    rows = REFERENCE["cli-commands"]["scan_polygon"]
    payload = copy.deepcopy(rows)
    payload["rows"][3]["gain_z"] *= 1 + 1e-9
    assert checks.command_problems(0, _document(payload), None, rows)
    payload["rows"] = payload["rows"][:-1]
    assert checks.command_problems(0, _document(payload), None, rows)
    del payload["rows"]
    assert checks.command_problems(0, _document(payload), None, rows)


def test_command_check_rejects_exit_code_unstable_bytes_and_garbage():
    expected = REFERENCE["cli-commands"]["catalog"]
    out = _document(expected)
    assert checks.command_problems(2, out, out, expected) == ["exit code 2"]
    assert checks.command_problems(0, out, out.replace(b"{", b"{ ", 1), expected)
    assert checks.command_problems(0, b"not json", None, expected)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, "r"],
        ["inner", 1.0, 4.0, 0, "r"],
        ["leaf", 2.0, 3.0, 1, "r"],
        ["inner", 5.0, 6.0, 0, "r"],
    ]
    stats = tracing.aggregate(spans)
    assert stats["outer"] == [1, 6.0, 10.0]
    assert stats["inner"] == [2, 3.0, 4.0]
    assert stats["leaf"] == [1, 1.0, 1.0]


def test_tracer_wraps_names_bound_in_other_modules():
    run.import_program()
    import numpy as np
    from icp_lab import catalog, constructions, engine, sampling

    original = engine.evaluate_icp
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert constructions.evaluate_icp is engine.evaluate_icp is not original
        entry = catalog.classical_bit()
        th = entry.theory
        assignment = engine.ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), 1)))
        engine.evaluate_icp(sampling.random_ensemble(entry, np.random.default_rng(0)), assignment)
    finally:
        tracer.uninstall()
    assert constructions.evaluate_icp is engine.evaluate_icp is original
    names = [s[0] for s in tracer.spans]
    assert names.count("engine.evaluate_icp") == 1
    top = names.index("engine.evaluate_icp")
    children = {s[0] for s in tracer.spans if s[3] == top}
    assert {"engine.joint_outcome_table", "engine.register_marginal", "gpt.observed_dimension"} <= children
    assert all(s[4] == "test" and s[2] >= s[1] for s in tracer.spans)


def test_layer_metrics_per_call_and_per_round():
    stats = {"engine.evaluate_icp": [4, 2e-3, 5e-3], "engine.maximize_extractable": [2, 0.1, 1.0]}
    counts = {"engine.maximize_extractable.evaluations": 1000, "engine.maximize_extractable.converged": 1}
    out = run.layer_metrics(stats, counts, rounds=2)
    assert out["engine.evaluate_icp.us"] == pytest.approx(500.0)
    assert out["engine.evaluate_icp.calls"] == 2.0
    assert out["engine.maximize_extractable.evaluations"] == 500.0
    assert out["engine.maximize_extractable.us_per_eval"] == pytest.approx(1000.0)
    assert out["engine.maximize_extractable.converged"] == 0.5
    assert out["proofs.axiom_suite.us_per_trial"] == 0.0


def test_spans_are_written_one_json_line_each(tmp_path):
    runs = [
        {"spans": [["outer", 0.0, 2.0, -1, "main"], ["inner", 0.5, 1.0, 0, "main"]], "counts": {}},
        {"spans": [["cli.main", 0.0, 1.0, -1, "cli-1"]], "counts": {}},
    ]
    path = tmp_path / "spans" / "w.jsonl"
    run.write_spans(runs, path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert lines == [
        {"run": "main", "name": "outer", "start": 0.0, "end": 2.0, "parent": -1},
        {"run": "main", "name": "inner", "start": 0.5, "end": 1.0, "parent": 0},
        {"run": "cli-1", "name": "cli.main", "start": 0.0, "end": 1.0, "parent": -1},
    ]


def test_cli_driver_times_the_command_in_its_own_interpreter(tmp_path):
    workloads = run.import_program()
    time_out = tmp_path / "time.json"
    proc = workloads.run_cli(["catalog"], time_out=time_out)
    assert proc.returncode == 0
    assert checks.command_problems(proc.returncode, proc.stdout, None, REFERENCE["cli-commands"]["catalog"]) == []
    timing = json.loads(time_out.read_text(encoding="utf-8"))
    assert timing["seconds"] > 0 and timing["loop_s"] > 0
