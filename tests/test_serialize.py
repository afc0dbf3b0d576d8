"""Output documents: manifests, JSON/CSV rendering, the ensemble file format."""
import json
import math

import numpy as np
import pytest

from icp_lab import State, catalog, sampling
from icp_lab.constructions import (
    hbit_violation,
    pgnst_violation,
    polygon_violation,
    qubit_rac_construction,
    sbit_violation,
)
from icp_lab.engine import REPORT_CSV_FIELDS, CorrelatedEnsemble
from icp_lab.serialize import (
    RunManifest,
    assignment_from_json,
    ensemble_from_json,
    ensemble_to_json,
    jsonable,
    render_csv,
    render_json,
)


def _manifest():
    return RunManifest("demo", {"name": "sbit"}, 42, "0.1.0", "2026-01-01T00:00:00+00:00")


def test_jsonable_handles_numpy_and_nonfinite():
    doc = jsonable(
        {
            "a": np.float64(0.5),
            "b": np.int64(3),
            "c": np.bool_(True),
            "d": np.array([1.0, 2.0]),
            "e": float("inf"),
            "f": float("-inf"),
            "g": float("nan"),
        }
    )
    assert doc == {"a": 0.5, "b": 3, "c": True, "d": [1.0, 2.0], "e": "inf", "f": "-inf", "g": "nan"}
    # everything survives a json round trip
    assert json.loads(json.dumps(doc)) == doc


def test_render_json_shape_and_stability():
    text = render_json("demo", {"x": 1.0}, _manifest())
    doc = json.loads(text)
    assert set(doc) == {"manifest", "kind", "payload"}
    assert doc["manifest"]["seed"] == 42
    assert doc["manifest"]["timestamp"] == "2026-01-01T00:00:00+00:00"
    # identical inputs give identical bytes
    assert text == render_json("demo", {"x": 1.0}, _manifest())


def test_render_csv_manifest_comments_and_cells():
    rows = [{"name": "x", "value": np.float64(0.25), "flag": np.bool_(True)}]
    text = render_csv(("name", "value", "flag"), rows, _manifest())
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# command:") for l in comments)
    assert lines[len(comments)] == "name,value,flag"
    assert lines[len(comments) + 1] == "x,0.25,true"


def test_report_csv_row_covers_fields():
    cert = sbit_violation()
    row = cert.report.to_json()
    assert set(REPORT_CSV_FIELDS) <= set(row)
    assert row["violated"] is True
    assert row["extractable"] == pytest.approx(2.0, abs=1e-12)
    lines = render_csv(REPORT_CSV_FIELDS, [row], _manifest()).splitlines()
    header = next(i for i, l in enumerate(lines) if not l.startswith("# "))
    assert lines[header] == ",".join(REPORT_CSV_FIELDS)
    cells = dict(zip(REPORT_CSV_FIELDS, lines[header + 1].split(",")))
    assert cells["pairs"] == "X:A;Z:B"
    assert cells["violated"] == "true"


def test_ensemble_round_trip():
    cert = sbit_violation()
    doc = ensemble_to_json(cert.ensemble)
    entry, rebuilt = ensemble_from_json(doc)
    assert entry.theory.theory_id == "sbit"
    assert rebuilt.register_alphabets == cert.ensemble.register_alphabets
    assert rebuilt.probs.tolist() == cert.ensemble.probs.tolist()
    assert rebuilt.registers.tolist() == cert.ensemble.registers.tolist()
    assert np.allclose(rebuilt.coords, cert.ensemble.coords)


def entries_to_json(ensemble):
    """The ensemble document built entry by entry: each probability through
    float, each state through State and each register row as a list of ints."""
    return {
        "theory": ensemble.theory.theory_id,
        "register_alphabets": list(ensemble.register_alphabets),
        "entries": [
            {"p": float(p), "state": State(c).coords.tolist(), "registers": r}
            for p, c, r in zip(ensemble.probs, ensemble.coords, ensemble.registers.tolist())
        ],
    }


def _oracle_ensembles():
    certificates = [sbit_violation, hbit_violation, qubit_rac_construction]
    yield from (make().ensemble for make in certificates)
    yield polygon_violation(5).ensemble
    yield pgnst_violation(3.0).ensemble
    rng = np.random.default_rng(28)
    entries = [*catalog.list_catalog(), catalog.polygon(5), catalog.pgnst(3.0, 2), catalog.pgnst(math.inf, 3)]
    for entry in entries:
        ens = sampling.random_ensemble(entry, rng, 2, 3)
        yield ens
        # a first probability of -0.0, its mass moved to the second entry
        probs = ens.probs.copy()
        probs[1] += probs[0]
        probs[0] = -0.0
        yield CorrelatedEnsemble(ens.theory, probs, ens.coords.copy(), ens.registers.copy(), ens.register_alphabets)
    # integer probabilities and coordinates: the entries held them as floats
    bit = catalog.classical_bit().theory
    yield CorrelatedEnsemble(bit, np.array([1, 0]), np.eye(2, dtype=int), np.array([[0], [1]]), (2,))


def test_ensemble_to_json_equals_the_entry_by_entry_document():
    documents = [(ensemble_to_json(ens), entries_to_json(ens)) for ens in _oracle_ensembles()]
    assert len(documents) == 22
    for got, want in documents:
        assert render_json("ensemble", got, _manifest()) == render_json("ensemble", want, _manifest())
    assert sum(math.copysign(1.0, doc["entries"][0]["p"]) < 0 for doc, _ in documents) == 8
    assert documents[-1][0]["entries"][0] == {"p": 1.0, "state": [1.0, 0.0], "registers": [0]}


def test_ensemble_from_json_error_paths():
    base = ensemble_to_json(sbit_violation().ensemble)

    bad = dict(base, theory="not-a-theory")
    with pytest.raises(ValueError):
        ensemble_from_json(bad)

    bad = dict(base)
    bad["entries"] = [dict(base["entries"][0], p="half")] + base["entries"][1:]
    with pytest.raises(ValueError, match=r"entries\[0\]"):
        ensemble_from_json(bad)

    bad = dict(base)
    bad["entries"] = [dict(e, p=e["p"] * 0.5) for e in base["entries"]]
    with pytest.raises(ValueError):
        ensemble_from_json(bad)

    with pytest.raises(ValueError):
        ensemble_from_json([1, 2, 3])


def test_ensemble_from_json_rejects_states_outside_theory():
    doc = ensemble_to_json(sbit_violation().ensemble)
    doc["entries"][0]["state"] = [5.0, 5.0, 1.0]
    with pytest.raises(ValueError):
        ensemble_from_json(doc)


@pytest.mark.parametrize(
    "entries, coordinate, value, message",
    [
        ((0, 1, 2, 3), None, math.nan, "entry 0: probability nan is negative or not finite"),
        ((2,), 1, math.nan, "invalid state in ensemble: entry 2: state coordinate is not finite"),
        ((1,), None, math.inf, "entry 1: probability inf is negative or not finite"),
    ],
    ids=["every-p-nan", "one-coordinate-nan", "p-inf"],
)
def test_ensemble_from_json_rejects_non_finite_values(entries, coordinate, value, message):
    doc = ensemble_to_json(sbit_violation().ensemble)
    for i in entries:
        if coordinate is None:
            doc["entries"][i]["p"] = value
        else:
            doc["entries"][i]["state"][coordinate] = value
    with pytest.raises(ValueError, match=f"^ensemble: {message}$"):
        ensemble_from_json(doc)


def test_assignment_from_json_error_paths():
    good = [{"measurement": "X", "register": 0}, {"measurement": "Z", "register": 1}]
    assert assignment_from_json(good) == (["X", "Z"], [0, 1])
    for doc, path in (
        ({"measurement": "X"}, r"^assignment: "),
        ([good[0], "Z"], r"^assignment\[1\]: "),
        ([{"measurement": "X"}], r"^assignment\[0\]\.register: "),
        ([{"measurement": "X", "register": True}], r"^assignment\[0\]\.register: "),
        ([{"register": 0}], r"^assignment\[0\]\.measurement: "),
    ):
        with pytest.raises(ValueError, match=path):
            assignment_from_json(doc)
