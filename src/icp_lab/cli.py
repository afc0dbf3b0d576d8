"""Command line driver: catalog listing, demos, parameter scans, evaluation.

Every command emits a single JSON (default) or CSV document with an embedded
run manifest. Passing --timestamp pins the manifest so repeated runs with the
same seed produce byte-identical output. Exit codes: 0 success, 2 bad input,
3 I/O failure; a violated inequality is data, never an error. Each command
imports the modules it runs when it runs, so that no command pays to load
the others.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .serialize import (
    RunManifest,
    assignment_from_json,
    certificate_to_json,
    ensemble_from_json,
    render_csv,
    render_json,
)

_ROTATED_Z = re.compile(r"^Z\((?P<theta>[-+0-9.eE]+)\)$")


def _int_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected a:b[:step], got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer range {text!r}") from exc
    if step < 1 or b < a:
        raise argparse.ArgumentTypeError(f"empty or backwards range {text!r}")
    return list(range(a, b + 1, step))


def _float_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected a:b[:step], got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric range {text!r}") from exc
    if step <= 0.0 or b < a:
        raise argparse.ArgumentTypeError(f"empty or backwards range {text!r}")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(count)]


def _write(text: str, out: str | None) -> int:
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 3
    return 0


def _emit(args, kind: str, payload, manifest: RunManifest, csv_fields=None, csv_rows=None) -> int:
    if args.format == "csv":
        if csv_fields is None:
            print(f"error: no tabular form for {kind} output", file=sys.stderr)
            return 2
        return _write(render_csv(csv_fields, csv_rows, manifest), args.out)
    return _write(render_json(kind, payload, manifest), args.out)


def _manifest(args, command: str, **parameters) -> RunManifest:
    stamp = args.timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
    params = {k: v for k, v in parameters.items() if v is not None}
    params["format"] = args.format
    return RunManifest(command, params, args.seed, __version__, stamp)


def _catalog_entries():
    from .catalog import list_catalog, pgnst, polygon

    entries = list_catalog()
    entries += [polygon(3), polygon(4), polygon(5), polygon(6)]
    entries += [pgnst(3.0, 2), pgnst(math.inf, 3)]
    return entries


def cmd_catalog(args) -> int:
    from .gpt import ambient_dimension, observed_dimension, state_space_dimension

    rows = []
    for entry in _catalog_entries():
        rows.append(
            {
                "id": entry.entry_id,
                "ambient_dimension": ambient_dimension(entry.theory),
                "state_dimension": state_space_dimension(entry.theory),
                "observed_dimension": observed_dimension(entry.theory).d,
                "measurements": sorted(entry.theory.measurements),
            }
        )
    manifest = _manifest(args, "catalog")
    fields = ("id", "ambient_dimension", "state_dimension", "observed_dimension", "measurements")
    return _emit(args, "catalog", {"entries": rows}, manifest, fields, rows)


def cmd_demo(args) -> int:
    from .constructions import classical_bit_analysis, hbit_violation, qubit_rac_construction, sbit_violation
    from .engine import REPORT_CSV_FIELDS

    manifest = _manifest(args, "demo", name=args.name)
    if args.name == "classical":
        row = classical_bit_analysis().to_json()
        return _emit(args, "report", {"report": row}, manifest, REPORT_CSV_FIELDS, [row])
    demos = {"sbit": sbit_violation, "hbit": hbit_violation, "qubit-rac": qubit_rac_construction}
    cert = demos[args.name]()
    return _emit(
        args,
        "certificate",
        certificate_to_json(cert),
        manifest,
        REPORT_CSV_FIELDS,
        [cert.report.to_json()],
    )


def _field_names(record_type) -> tuple[str, ...]:
    """A record's CSV columns: its dataclass fields, in ``to_json``'s order."""
    return tuple(f.name for f in dataclasses.fields(record_type))


def _scan_rows(args):
    target = args.target
    if target == "pgnst":
        from .constructions import pgnst_violation

        fields = ("p", "s_x", "s_z", "entropy_min", "extractable", "bound", "margin", "violated")
        rows = []
        for p in args.p or _float_range("2:6:0.25"):
            cert = pgnst_violation(p)
            rows.append(
                {
                    "p": p,
                    "s_x": cert.closed_form["s_x"],
                    "s_z": cert.closed_form["s_z"],
                    "entropy_min": cert.closed_form["entropy_min"],
                    "extractable": cert.report.extractable,
                    "bound": cert.report.bound,
                    "margin": cert.report.margin,
                    "violated": cert.report.violated,
                }
            )
        return fields, rows
    if target == "polygon":
        from .constructions import polygon_violation

        fields = (
            "n",
            "cond_00",
            "cond_11",
            "gain_x",
            "gain_z",
            "extractable",
            "bound",
            "margin",
            "violated",
            "crosscheck_max_abs_diff",
        )
        rows = []
        for n in args.n or _int_range("4:50"):
            cert = polygon_violation(n)
            rows.append(
                {
                    "n": n,
                    "cond_00": cert.closed_form["p(Z=0|B=0)"],
                    "cond_11": cert.closed_form["p(Z=1|B=1)"],
                    "gain_x": cert.report.gains[0],
                    "gain_z": cert.report.gains[1],
                    "extractable": cert.report.extractable,
                    "bound": cert.report.bound,
                    "margin": cert.report.margin,
                    "violated": cert.report.violated,
                    "crosscheck_max_abs_diff": cert.crosscheck_max_abs_diff,
                }
            )
        return fields, rows
    if target == "composite":
        from .constructions import CompositeGbitRecord, composite_gbit_extractable

        rows = [composite_gbit_extractable(n).to_json() for n in args.n or _int_range("1:8")]
        return _field_names(CompositeGbitRecord), rows
    if target == "mismatch":
        from .constructions import MismatchRecord, polygon_mismatch

        rows = [polygon_mismatch(n).to_json() for n in args.n or _int_range("4:13")]
        return _field_names(MismatchRecord), rows
    if target == "axioms":
        from .info import AxiomReport
        from .proofs import axiom_suite

        kinds = ("shannon", "von-neumann") if args.entropy == "both" else (args.entropy,)
        rows = []
        for kind in kinds:
            rows += [r.to_json() for r in axiom_suite(kind, args.trials, args.seed)]
        return _field_names(AxiomReport), rows
    # sweep
    from .engine import SweepPoint, qubit_rotation_sweep

    step = (math.pi / 2.0) / (args.points - 1) if args.points > 1 else 1.0
    grid = [i * step for i in range(args.points)]
    return _field_names(SweepPoint), [dataclasses.asdict(pt) for pt in qubit_rotation_sweep(grid)]


def cmd_scan(args) -> int:
    manifest = _manifest(
        args,
        "scan",
        target=args.target,
        n=args.n_raw,
        p=args.p_raw,
        trials=args.trials if args.target == "axioms" else None,
        entropy=args.entropy if args.target == "axioms" else None,
        points=args.points if args.target == "sweep" else None,
    )
    try:
        fields, rows = _scan_rows(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"target": args.target, "rows": rows}
    return _emit(args, "scan", payload, manifest, fields, rows)


def _resolve_measurement(entry, name: str):
    try:
        return entry.theory.measurement(name)
    except KeyError:
        rotated = _ROTATED_Z.match(name)
        if rotated and entry.entry_id == "qubit":
            from .catalog import qubit_z_rotated

            return qubit_z_rotated(float(rotated.group("theta")))
        raise


def cmd_eval(args) -> int:
    from .engine import REPORT_CSV_FIELDS, ObservableAssignment, evaluate_icp

    manifest = _manifest(
        args,
        "eval",
        ensemble=args.ensemble,
        theory=args.theory,
        measurements=args.measurements,
        registers=args.registers,
    )
    try:
        text = Path(args.ensemble).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.ensemble}: {exc}", file=sys.stderr)
        return 3
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {args.ensemble}: invalid JSON: {exc}", file=sys.stderr)
        return 2
    node = doc.get("payload", doc) if isinstance(doc, dict) else doc
    embedded_assignment = None
    if isinstance(node, dict) and "ensemble" in node:
        embedded_assignment = node.get("assignment")
        node = node["ensemble"]
    if args.theory is not None and isinstance(node, dict):
        declared = node.get("theory")
        if declared is not None and declared != args.theory:
            print(
                f"error: --theory {args.theory} conflicts with file theory {declared}",
                file=sys.stderr,
            )
            return 2
        node = {**node, "theory": args.theory}
    use_embedded = bool(embedded_assignment) and not args.measurements
    try:
        entry, ensemble = ensemble_from_json(node)
        embedded = assignment_from_json(embedded_assignment) if use_embedded else None
    except ValueError as exc:
        print(f"error: {args.ensemble}: {exc}", file=sys.stderr)
        return 2

    if args.measurements:
        names = [m.strip() for m in args.measurements.split(",") if m.strip()]
        registers = list(range(len(names)))
    elif embedded:
        names, registers = embedded
    else:
        print("error: no measurements given and none embedded in the file", file=sys.stderr)
        return 2
    if args.registers:
        try:
            registers = [int(r) for r in args.registers.split(",")]
        except ValueError:
            print(f"error: bad register list {args.registers!r}", file=sys.stderr)
            return 2
    if len(registers) != len(names):
        print("error: measurement and register counts differ", file=sys.stderr)
        return 2
    try:
        pairs = tuple(
            (_resolve_measurement(entry, name), reg) for name, reg in zip(names, registers)
        )
        assignment = ObservableAssignment(pairs)
        report = evaluate_icp(ensemble, assignment)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    row = report.to_json()
    return _emit(args, "report", {"report": row}, manifest, REPORT_CSV_FIELDS, [row])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icp-lab",
        description="extractable-information bounds on generalized state spaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument(
        "--timestamp",
        default=None,
        help="pin the manifest timestamp (ISO-8601) for byte-stable output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", parents=[common], help="list built-in theories")

    p_demo = sub.add_parser("demo", parents=[common], help="run a named construction")
    p_demo.add_argument("name", choices=("sbit", "hbit", "classical", "qubit-rac"))

    p_scan = sub.add_parser("scan", parents=[common], help="sweep a construction over a grid")
    p_scan.add_argument(
        "target", choices=("pgnst", "polygon", "composite", "mismatch", "axioms", "sweep")
    )
    p_scan.add_argument("--n", dest="n_raw", default=None, help="integer range a:b[:step]")
    p_scan.add_argument("--p", dest="p_raw", default=None, help="numeric range a:b[:step]")
    p_scan.add_argument("--trials", type=int, default=1000, help="axiom trials per property")
    p_scan.add_argument(
        "--entropy", choices=("shannon", "von-neumann", "both"), default="both"
    )
    p_scan.add_argument("--points", type=int, default=50, help="sweep grid size")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate an ensemble file")
    p_eval.add_argument("--ensemble", required=True, help="ensemble or certificate JSON")
    p_eval.add_argument("--theory", default=None, help="theory id override")
    p_eval.add_argument("--measurements", default=None, help="comma-separated names")
    p_eval.add_argument("--registers", default=None, help="comma-separated indices")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if getattr(args, "command", None) == "scan":
        try:
            args.n = _int_range(args.n_raw) if args.n_raw else None
            args.p = _float_range(args.p_raw) if args.p_raw else None
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.points < 1:
            print("error: --points must be positive", file=sys.stderr)
            return 2
        if args.trials < 1:
            print("error: --trials must be positive", file=sys.stderr)
            return 2
    handlers = {
        "catalog": cmd_catalog,
        "demo": cmd_demo,
        "scan": cmd_scan,
        "eval": cmd_eval,
    }
    return handlers[args.command](args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
