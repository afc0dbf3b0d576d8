"""JSON and CSV emission plus the ensemble file format.

Every output document embeds a run manifest (command, parameters, seed,
version, timestamp) so a result file is self-describing: re-running the
manifest reproduces the numbers, and with a pinned timestamp the bytes.
Floats serialize at full double precision through Python's shortest
round-trip repr; non-finite values become the strings "inf"/"-inf"/"nan".
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .catalog import CatalogEntry
    from .engine import CorrelatedEnsemble, ObservableAssignment


@dataclass(frozen=True)
class RunManifest:
    """What reproduces a run: command, parameters, seed, tool version and
    timestamp."""

    command: str
    parameters: dict
    seed: int
    tool_version: str
    timestamp: str

    def to_json(self) -> dict:
        return asdict(self)


def jsonable(value):
    """Recursively convert to types the json module serializes portably."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def render_json(kind: str, payload, manifest: RunManifest) -> str:
    doc = {"manifest": manifest.to_json(), "kind": kind, "payload": jsonable(payload)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def render_csv(fieldnames, rows, manifest: RunManifest) -> str:
    buf = io.StringIO()
    for key, val in sorted(manifest.to_json().items()):
        buf.write(f"# {key}: {json.dumps(jsonable(val), sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_csv_cell(jsonable(row.get(f, ""))) for f in fieldnames])
    return buf.getvalue()


# --- ensembles and certificates -------------------------------------------------

def ensemble_to_json(ensemble: CorrelatedEnsemble) -> dict:
    # probabilities and states as floats, whatever their arrays' dtype
    probs, coords = (a.astype(float).tolist() for a in (ensemble.probs, ensemble.coords))
    return {
        "theory": ensemble.theory.theory_id,
        "register_alphabets": list(ensemble.register_alphabets),
        "entries": [
            {"p": p, "state": c, "registers": r} for p, c, r in zip(probs, coords, ensemble.registers.tolist())
        ],
    }


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ValueError(f"{path}: {message}")


def _floats(value, path: str) -> np.ndarray:
    """A JSON number or list of numbers as a float array; an integer past the
    float range is refused with its path."""
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: integer too large for a float") from None


def _list_of(kinds, value) -> bool:
    """A list of values of ``kinds``; JSON true and false count as no number."""
    return isinstance(value, list) and all(isinstance(v, kinds) and not isinstance(v, bool) for v in value)


def ensemble_from_json(doc) -> tuple[CatalogEntry, CorrelatedEnsemble]:
    """Rebuild an ensemble; errors carry the JSON path of the offending field."""
    # imported here: rendering output needs none of these modules
    from .catalog import resolve
    from .engine import MAX_ALPHABET, MAX_JOINT_ALPHABET, build_ensemble
    from .gpt import State

    _require(isinstance(doc, dict), "ensemble", "expected an object")
    name = doc.get("theory")
    _require(isinstance(name, str), "ensemble.theory", "expected a theory id string")
    try:
        entry = resolve(name)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"ensemble.theory: {exc}") from exc
    entries_doc = doc.get("entries")
    _require(isinstance(entries_doc, list) and entries_doc, "ensemble.entries", "expected a non-empty list")
    entries = []
    for i, item in enumerate(entries_doc):
        path = f"ensemble.entries[{i}]"
        _require(isinstance(item, dict), path, "expected an object")
        p = item.get("p")
        _require(isinstance(p, (int, float)) and not isinstance(p, bool), f"{path}.p", "expected a number")
        coords = item.get("state")
        _require(_list_of((int, float), coords), f"{path}.state", "expected a list of numbers")
        regs = item.get("registers")
        _require(_list_of(int, regs), f"{path}.registers", "expected a list of integers")
        for j, r in enumerate(regs):
            # no alphabet within the cap holds a larger value; checked here
            # because an alphabet left out defaults to max value + 1
            _require(0 <= r < MAX_ALPHABET, f"{path}.registers[{j}]", f"value {r} outside 0 .. {MAX_ALPHABET - 1}")
        entries.append((float(_floats(p, f"{path}.p")), State(_floats(coords, f"{path}.state")), tuple(regs)))
    alphabets = doc.get("register_alphabets")
    if alphabets is not None:
        _require(_list_of(int, alphabets), "ensemble.register_alphabets", "expected a list of integers")
        for j, a in enumerate(alphabets):
            _require(1 <= a <= MAX_ALPHABET, f"ensemble.register_alphabets[{j}]", f"{a} outside 1 .. {MAX_ALPHABET}")
        joint = math.prod(alphabets)
        _require(joint <= MAX_JOINT_ALPHABET, "ensemble.register_alphabets", f"product {joint} above {MAX_JOINT_ALPHABET}")
    try:
        ensemble = build_ensemble(entry.theory, entries, alphabets)
    except ValueError as exc:
        raise ValueError(f"ensemble: {exc}") from exc
    return entry, ensemble


def assignment_to_json(assignment: ObservableAssignment) -> list:
    return [
        {"measurement": m.label, "register": r} for m, r in assignment.pairs
    ]


def assignment_from_json(doc) -> tuple[list[str], list[int]]:
    """Measurement labels and registers of an assignment; errors carry the
    JSON path of the offending field."""
    _require(isinstance(doc, list), "assignment", "expected a list")
    for i, item in enumerate(doc):
        _require(isinstance(item, dict), f"assignment[{i}]", "expected an object")
        _require(isinstance(item.get("measurement"), str), f"assignment[{i}].measurement", "expected a label")
        reg = item.get("register")
        _require(isinstance(reg, int) and not isinstance(reg, bool), f"assignment[{i}].register", "expected an integer")
    return [item["measurement"] for item in doc], [item["register"] for item in doc]


def certificate_to_json(cert) -> dict:
    return {
        "theory": cert.theory_id,
        "ensemble": ensemble_to_json(cert.ensemble),
        "assignment": assignment_to_json(cert.assignment),
        "report": cert.report.to_json(),
        "closed_form": dict(cert.closed_form),
        "crosscheck_max_abs_diff": cert.crosscheck_max_abs_diff,
    }
