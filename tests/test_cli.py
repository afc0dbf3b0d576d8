"""Command-line surface: output documents, determinism, exit codes."""
import argparse
import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from icp_lab import catalog
from icp_lab.catalog import MAX_POLYGON
from icp_lab.cli import MAX_GRID, _range, main
from icp_lab.engine import MAX_ALPHABET

STAMP = "2026-01-01T00:00:00+00:00"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--timestamp", STAMP)
    assert code == 0, err
    return json.loads(out)


def test_catalog_lists_builtins(capsys):
    doc = run_json(capsys, "catalog")
    assert doc["kind"] == "catalog"
    rows = {r["id"]: r for r in doc["payload"]["entries"]}
    for eid in ("classical-bit", "classical-trit", "sbit", "hbit", "qubit", "polygon:3"):
        assert eid in rows
    assert rows["polygon:3"]["observed_dimension"] == 3
    assert rows["polygon:4"]["observed_dimension"] == 2
    assert rows["sbit"]["ambient_dimension"] == 3
    assert "X" in rows["hbit"]["measurements"]
    assert doc["manifest"]["command"] == "catalog"
    assert doc["manifest"]["seed"] == 42


def test_module_run_prints_what_the_console_script_prints():
    # ``icp-lab`` is the console script for ``icp_lab.cli:main_entry``
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = ["catalog", "--timestamp", STAMP]
    script = [sys.executable, "-c", "from icp_lab.cli import main_entry; main_entry()"]
    as_module = subprocess.run([sys.executable, "-m", "icp_lab.cli", *argv], capture_output=True, env=env)
    as_script = subprocess.run([*script, *argv], capture_output=True, env=env)
    assert as_script.returncode == as_module.returncode == 0
    assert json.loads(as_script.stdout)["kind"] == "catalog"
    assert as_module.stdout == as_script.stdout


def test_catalog_csv(capsys):
    code, out, err = run_cli(capsys, "catalog", "--format", "csv", "--timestamp", STAMP)
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0] == "id,ambient_dimension,state_dimension,observed_dimension,measurements"
    sbit_row = next(l for l in lines if l.startswith("sbit,"))
    assert ";" in sbit_row.split(",")[-1]  # measurement names joined


@pytest.mark.parametrize("name,extractable", [("sbit", 2.0), ("hbit", 2.0)])
def test_demo_certificates(capsys, name, extractable):
    doc = run_json(capsys, "demo", name)
    assert doc["kind"] == "certificate"
    report = doc["payload"]["report"]
    assert report["extractable"] == pytest.approx(extractable, abs=1e-12)
    assert report["violated"] is True
    assert doc["payload"]["crosscheck_max_abs_diff"] <= 1e-12


def test_demo_qubit_rac(capsys):
    doc = run_json(capsys, "demo", "qubit-rac")
    report = doc["payload"]["report"]
    assert report["extractable"] == pytest.approx(0.7982479266142879, abs=1e-12)
    assert report["violated"] is False


def test_demo_classical_is_plain_report(capsys):
    doc = run_json(capsys, "demo", "classical")
    assert doc["kind"] == "report"
    report = doc["payload"]["report"]
    assert report["extractable"] <= 1.0 + 1e-9
    assert report["violated"] is False


def test_demo_csv_row(capsys):
    code, out, err = run_cli(capsys, "demo", "sbit", "--format", "csv", "--timestamp", STAMP)
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0].startswith("pairs,gains,redundancy,extractable")
    cells = lines[1].split(",")
    assert cells[-1] == "true"  # violated


def test_output_bytes_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, err = run_cli(
            capsys, "scan", "pgnst", "--p", "2:4:0.5", "--timestamp", STAMP, "--out", str(target)
        )
        assert code == 0, err
    assert a.read_bytes() == b.read_bytes()


def test_scan_pgnst_rows(capsys):
    doc = run_json(capsys, "scan", "pgnst", "--p", "2:4:0.5")
    rows = doc["payload"]["rows"]
    assert [r["p"] for r in rows] == [2.0, 2.5, 3.0, 3.5, 4.0]
    by_p = {r["p"]: r for r in rows}
    assert by_p[3.0]["extractable"] == pytest.approx(2.0 - 0.9578024777106202, abs=1e-9)
    assert by_p[2.5]["violated"] is True
    assert by_p[4.0]["violated"] is True


def test_scan_polygon_rows(capsys):
    doc = run_json(capsys, "scan", "polygon", "--n", "5:6")
    rows = {r["n"]: r for r in doc["payload"]["rows"]}
    assert rows[5]["extractable"] == pytest.approx(1.0704307871940208, abs=1e-9)
    assert rows[6]["extractable"] == pytest.approx(1.1887218755408673, abs=1e-9)
    for r in rows.values():
        assert r["violated"] is True
        assert r["crosscheck_max_abs_diff"] <= 1e-9


def test_scan_composite_rows(capsys):
    doc = run_json(capsys, "scan", "composite")
    rows = doc["payload"]["rows"]
    assert [r["n"] for r in rows] == list(range(1, 9))
    first_violating = next(r["n"] for r in rows if r["violated"])
    assert first_violating == 5


def test_scan_mismatch_rows(capsys):
    doc = run_json(capsys, "scan", "mismatch")
    flagged = [r["n"] for r in doc["payload"]["rows"] if r["mismatch"]]
    assert flagged == [4, 6]


def test_scan_axioms(capsys):
    doc = run_json(capsys, "scan", "axioms", "--trials", "50", "--entropy", "shannon")
    rows = doc["payload"]["rows"]
    assert [r["axiom"] for r in rows] == ["i", "ii", "iii", "iv", "v"]
    assert all(r["passed"] for r in rows)


def test_scan_sweep(capsys):
    doc = run_json(capsys, "scan", "sweep", "--points", "5")
    rows = doc["payload"]["rows"]
    assert len(rows) == 5
    assert rows[0]["extractable"] == pytest.approx(1.0, abs=1e-9)
    assert rows[-1]["extractable"] == pytest.approx(0.7982479266142879, abs=1e-9)


@pytest.mark.parametrize(
    "args, header",
    [
        (("pgnst", "--p", "3:3"), "p,s_x,s_z,entropy_min,extractable,bound,margin,violated"),
        (
            ("polygon", "--n", "5:5"),
            "n,cond_00,cond_11,gain_x,gain_z,extractable,bound,margin,violated,crosscheck_max_abs_diff",
        ),
        (("composite", "--n", "1:1"), "n,p_rec,encoded_bits,extractable,bound,violated"),
        (("mismatch", "--n", "4:4"), "n,measurement_dimension,information_dimension,mismatch"),
        (("axioms", "--trials", "5", "--entropy", "shannon"), "axiom,entropy_kind,trials,max_violation,passed"),
        (("sweep", "--points", "2"), "theta,gains_sum,redundancy,extractable"),
    ],
    ids=["pgnst", "polygon", "composite", "mismatch", "axioms", "sweep"],
)
def test_scan_csv_columns(capsys, args, header):
    code, out, err = run_cli(capsys, "scan", *args, "--format", "csv", "--timestamp", STAMP)
    assert code == 0, err
    assert [l for l in out.splitlines() if not l.startswith("# ")][0] == header


def test_scan_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "scan", "polygon", "--n", "6:2")
    assert code == 2
    assert "range" in err


def test_scan_rejects_malformed_range(capsys):
    code, _, err = run_cli(capsys, "scan", "pgnst", "--p", "abc")
    assert code == 2



@pytest.mark.parametrize("text", ["nan:1", "1:inf", "inf:inf", "2:3:nan", "2:1e300:1e-300", "2:3:inf"])
def test_scan_rejects_a_non_finite_range(capsys, text):
    # a bound, step or grid count that is not finite is bad input, not a crash
    code, out, err = run_cli(capsys, "scan", "pgnst", "--p", text)
    assert (code, out) == (2, "")
    assert "range" in err


@contextlib.contextmanager
def _bounded_address_space(headroom=1 << 29):
    """Cap this process's address space at its present size plus ``headroom``
    bytes, so that a grid built by mistake raises MemoryError instead of
    filling the machine's memory."""
    resource = pytest.importorskip("resource")
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + headroom
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scan", "polygon", "--n", "4:100000000000"), "range '4:100000000000' has 99999999997 values"),
        # more values than a C index can count
        (("scan", "mismatch", "--n", "0:100000000000000000000"), "has 100000000000000000001 values"),
        (("scan", "pgnst", "--p", "2:1e15:1e-5"), "range '2:1e15:1e-5' has"),
        (("scan", "sweep", "--points", "1000000000000"), "--points 1000000000000 is more than 100000"),
        (("scan", "sweep", "--points", str(MAX_GRID + 1)), f"--points {MAX_GRID + 1} is more than"),
    ],
    ids=["int-range", "int-range-past-ssize", "float-range", "points", "points-past-the-cap"],
)
def test_a_grid_past_the_cap_exits_2_before_it_is_built(capsys, argv, message):
    tracemalloc.start()
    try:
        with _bounded_address_space():
            code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert message in err
    assert peak < 1 << 20


def test_a_polygon_past_the_cap_exits_2_before_it_is_built(tmp_path, capsys):
    doc = {"theory": "polygon:100000", "entries": [{"p": 1.0, "state": [0.0, 0.0, 1.0], "registers": [0]}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (("scan", "polygon", "--n", "99990:100000"), ("eval", "--ensemble", str(path), "--measurements", "E1")):
        with _bounded_address_space():
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"polygon needs 3 <= n <= {MAX_POLYGON}, got " in err


def test_a_pgnst_fiducial_count_outside_its_set_exits_2_before_any_effect_is_built(tmp_path, capsys):
    # a bare ensemble file: the theory comes from --theory
    doc = {"entries": [{"p": 1.0, "state": [0.0, 0.0, 1.0], "registers": [0, 0]}]}
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    theory = f"pgnst:3:{10**20}"
    with _bounded_address_space():
        code, out, err = run_cli(capsys, "eval", "--ensemble", str(path), "--theory", theory, "--measurements", "X,Z")
    assert (code, out) == (2, "")
    assert f"unsupported fiducial count {10**20}" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("registers", [2**63, 0], "ensemble.entries[0].registers[0]: value 9223372036854775808 outside 0 .. 1023"),
        ("registers", [-(2**63) - 1, 0], "ensemble.entries[0].registers[0]: value -9223372036854775809 outside"),
        ("registers", [10**9, 0], "ensemble.entries[0].registers[0]: value 1000000000 outside 0 .. 1023"),
        ("register_alphabets", [2, 10**9], "ensemble.register_alphabets[1]: 1000000000 outside 1 .. 1024"),
        ("register_alphabets", [2, 10**12], "ensemble.register_alphabets[1]: 1000000000000 outside 1 .. 1024"),
        ("register_alphabets", [2**64, 2], "ensemble.register_alphabets[0]: 18446744073709551616 outside 1 .. 1024"),
    ],
    ids=[
        "register-past-int64", "register-below-int64", "register-past-cap",
        "alphabet-1e9", "alphabet-1e12", "alphabet-past-int64",
    ],
)
def test_register_data_past_the_cap_exits_2_before_it_is_built(tmp_path, capsys, field, value, message):
    demo = _demo_file(tmp_path, capsys)
    doc = json.loads(demo.read_text(encoding="utf-8"))
    ensemble = doc["payload"]["ensemble"]
    (ensemble["entries"][0] if field == "registers" else ensemble)[field] = value
    demo.write_text(json.dumps(doc), encoding="utf-8")
    with _bounded_address_space():
        code, out, err = run_cli(capsys, "eval", "--ensemble", str(demo))
    assert (code, out) == (2, "")
    assert f"{demo}: {message}" in err


@pytest.mark.parametrize(
    "alphabets, message",
    [
        ([1024, 1024, 1024], "ensemble.register_alphabets: product 1073741824 above 1048576"),
        (None, "ensemble: joint alphabet 1073741824 above MAX_JOINT_ALPHABET = 1048576"),
    ],
    ids=["given", "defaulted"],
)
def test_a_joint_alphabet_past_the_cap_exits_2(tmp_path, capsys, alphabets, message):
    """Each alphabet within MAX_ALPHABET, their product past MAX_JOINT_ALPHABET:
    the file is refused before a register marginal over 2**30 cells is built."""
    vertex = catalog.classical_trit().theory.variant.vertices[0].coords.tolist()
    doc = {"theory": "classical-trit", "entries": [{"p": 1.0, "state": vertex, "registers": [1023] * 3}]}
    if alphabets is not None:
        doc["register_alphabets"] = alphabets
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with _bounded_address_space():
        code, out, err = run_cli(capsys, "eval", "--ensemble", str(path), "--measurements", "E1,E2,E3")
    assert (code, out) == (2, "")
    assert f"{path}: {message}" in err


def test_the_alphabet_cap_admits_exactly_max_alphabet_values(tmp_path, capsys):
    demo = _demo_file(tmp_path, capsys)
    doc = json.loads(demo.read_text(encoding="utf-8"))
    ensemble = doc["payload"]["ensemble"]
    ensemble["register_alphabets"] = [2, MAX_ALPHABET]
    ensemble["entries"][0]["registers"] = [0, MAX_ALPHABET - 1]
    demo.write_text(json.dumps(doc), encoding="utf-8")
    with _bounded_address_space():
        assert run_cli(capsys, "eval", "--ensemble", str(demo))[0] == 0


def test_the_grid_cap_admits_exactly_max_grid_values():
    assert len(_range(f"4:{MAX_GRID + 3}", int)) == MAX_GRID
    assert len(_range(f"0:{MAX_GRID - 1}:1.0", float)) == MAX_GRID
    for text, number in [(f"4:{MAX_GRID + 4}", int), (f"0:{MAX_GRID}:1.0", float), (f"1:{1 + MAX_GRID // 2}:0.5", float)]:
        with pytest.raises(argparse.ArgumentTypeError, match=f"has {MAX_GRID + 1} values, more than {MAX_GRID}$"):
            _range(text, number)


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog",),
        ("scan", "pgnst", "--p", "3:3.5:0.5"),
        ("scan", "polygon", "--n", "5:6"),
        ("scan", "composite", "--n", "1:2"),
        ("scan", "mismatch", "--n", "4:5"),
        ("scan", "axioms", "--trials", "5"),
        ("scan", "sweep", "--points", "2"),
    ],
    ids=["catalog", "pgnst", "polygon", "composite", "mismatch", "axioms", "sweep"],
)
def test_csv_columns_are_the_keys_of_the_first_json_row(capsys, argv):
    payload = run_json(capsys, *argv)["payload"]
    rows = payload["entries"] if argv[0] == "catalog" else payload["rows"]
    code, out, err = run_cli(capsys, *argv, "--format", "csv", "--timestamp", STAMP)
    assert code == 0, err
    header = [l for l in out.splitlines() if not l.startswith("# ")][0].split(",")
    # the JSON document sorts its keys; the columns keep the row's own order
    assert len(set(header)) == len(header) and set(header) == set(rows[0])

def _demo_file(tmp_path, capsys, name="sbit"):
    path = tmp_path / f"{name}.json"
    code, _, err = run_cli(
        capsys, "demo", name, "--timestamp", STAMP, "--out", str(path)
    )
    assert code == 0, err
    return path


def test_eval_round_trips_demo_output(tmp_path, capsys):
    path = _demo_file(tmp_path, capsys)
    doc = run_json(capsys, "eval", "--ensemble", str(path))
    report = doc["payload"]["report"]
    assert report["extractable"] == pytest.approx(2.0, abs=1e-12)
    assert report["violated"] is True


def test_eval_explicit_assignment_matches_embedded(tmp_path, capsys):
    path = _demo_file(tmp_path, capsys)
    base = run_json(capsys, "eval", "--ensemble", str(path))
    explicit = run_json(
        capsys, "eval", "--ensemble", str(path), "--measurements", "X,Z", "--registers", "0,1"
    )
    assert explicit["payload"]["report"] == base["payload"]["report"]


def test_eval_rotated_qubit_measurement(tmp_path, capsys):
    path = _demo_file(tmp_path, capsys, "qubit-rac")
    doc = run_json(
        capsys,
        "eval",
        "--ensemble",
        str(path),
        "--measurements",
        "X,Z(0.3)",
        "--registers",
        "0,1",
    )
    report = doc["payload"]["report"]
    assert 0.0 <= report["extractable"] <= 1.0 + 1e-9
    assert report["violated"] is False


def test_eval_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--ensemble", str(tmp_path / "nope.json"))
    assert code == 3
    assert "cannot read" in err


def test_eval_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # a syntax error, bytes that are not UTF-8, nesting past the recursion
    # limit and an integer past the digit limit
    for text in (b"{not json", b"\xff\xfe{}", b"[" * 100_000, b"1" * 5_000):
        bad.write_bytes(text)
        code, out, err = run_cli(capsys, "eval", "--ensemble", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: invalid JSON: ") and err.count("\n") == 1


def test_eval_unnormalized_ensemble(tmp_path, capsys):
    doc = {
        "theory": "sbit",
        "entries": [
            {"p": 0.9, "state": [0.0, 0.0, 1.0], "registers": [0, 0]},
            {"p": 0.9, "state": [0.0, 0.0, 1.0], "registers": [1, 1]},
        ],
    }
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--ensemble", str(path), "--measurements", "X,Z")
    assert code == 2
    assert "probabilities" in err


def test_eval_theory_conflict(tmp_path, capsys):
    path = _demo_file(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "eval", "--ensemble", str(path), "--theory", "qubit"
    )
    assert code == 2
    assert "conflicts" in err


def test_eval_unknown_measurement(tmp_path, capsys):
    path = _demo_file(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "eval", "--ensemble", str(path), "--measurements", "X,Q"
    )
    assert code == 2


def test_eval_register_count_mismatch(tmp_path, capsys):
    path = _demo_file(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "eval", "--ensemble", str(path), "--measurements", "X,Z", "--registers", "0"
    )
    assert code == 2
    assert "counts differ" in err


def test_out_to_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    code, _, err = run_cli(capsys, "catalog", "--out", str(target))
    assert code == 3
    assert "cannot write" in err


def test_usage_errors_return_two(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "icp-lab" in out


@pytest.mark.parametrize(
    "entries, coordinate, message",
    [
        ((0, 1, 2, 3), None, "entry 0: probability nan is negative or not finite"),
        ((2,), 1, "invalid state in ensemble: entry 2: state coordinate is not finite"),
    ],
    ids=["every-p-nan", "one-coordinate-nan"],
)
def test_eval_rejects_non_finite_ensembles(tmp_path, capsys, entries, coordinate, message):
    path = _demo_file(tmp_path, capsys)
    doc = json.loads(path.read_text(encoding="utf-8"))
    for i in entries:
        entry = doc["payload"]["ensemble"]["entries"][i]
        if coordinate is None:
            entry["p"] = float("nan")
        else:
            entry["state"][coordinate] = float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN, which json reads back
    code, out, err = run_cli(capsys, "eval", "--ensemble", str(path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "assignment, path",
    [
        ([{"measurement": "X"}, {"measurement": "Z", "register": 1}], "assignment[0].register"),
        (["X", {"measurement": "Z", "register": 1}], "assignment[0]"),
        ([{"measurement": "X", "register": 0}, {"register": 1}], "assignment[1].measurement"),
        ({"measurement": "X", "register": 0}, "assignment"),
    ],
    ids=["no-register", "not-an-object", "no-measurement", "not-a-list"],
)
def test_eval_rejects_a_malformed_embedded_assignment(tmp_path, capsys, assignment, path):
    demo = _demo_file(tmp_path, capsys)
    doc = json.loads(demo.read_text(encoding="utf-8"))
    doc["payload"]["assignment"] = assignment
    demo.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--ensemble", str(demo))
    assert code == 2
    assert out == ""
    assert f"{demo}: {path}: expected" in err


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("state", [True, False, True], "ensemble.entries[0].state: expected a list of numbers"),
        ("register_alphabets", [True, 2], "ensemble.register_alphabets: expected a list of integers"),
        # integers no float holds, written as 401-digit literals, and the
        # float literal 1e400, which reads as inf
        ("p", 10**400, "ensemble.entries[0].p: integer too large for a float"),
        ("state", [0.0, -(10**400), 1.0], "ensemble.entries[0].state: integer too large for a float"),
        ("p", 1e400, "ensemble: entry 0: probability inf is negative or not finite"),
    ],
    ids=["state", "register-alphabets", "p-past-float", "state-past-float", "p-float-past-range"],
)
def test_eval_rejects_booleans_in_an_ensemble_file(tmp_path, capsys, field, value, path):
    demo = _demo_file(tmp_path, capsys)
    doc = json.loads(demo.read_text(encoding="utf-8"))
    ensemble = doc["payload"]["ensemble"]
    (ensemble if field == "register_alphabets" else ensemble["entries"][0])[field] = value
    # json writes inf as Infinity; the demo file holds no other
    demo.write_text(json.dumps(doc).replace("Infinity", "1e400"), encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--ensemble", str(demo))
    assert (code, out) == (2, "")
    assert f"{demo}: {path}" in err


def test_scan_composite_past_a_float_exits_2(capsys):
    # 3^647 does not convert to a float; the scan reports it as bad input, not a traceback
    code, out, err = run_cli(capsys, "scan", "composite", "--n", "646:647")
    assert (code, out) == (2, "")
    assert err == "error: need 1 <= n <= 646, got 647 (3^n would overflow a float)\n"
