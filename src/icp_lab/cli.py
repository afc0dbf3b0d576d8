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
MAX_GRID = 100_000  # most values one scan grid (--n, --p or --points) may hold


def _range(text: str, number: type) -> list:
    """The values a, a + step, ... <= b of ``a:b[:step]`` as ``number`` (int or float), all finite."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected a:b[:step], got {text!r}")
    try:
        a, b, step = (number(part) for part in [*parts, "1"][:3])
    except ValueError as exc:
        kind = "integer" if number is int else "numeric"
        raise argparse.ArgumentTypeError(f"bad {kind} range {text!r}") from exc
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"empty or backwards range {text!r}")
    if number is int:
        count = (b - a) // step + 1
    else:
        span = (b - a) / step + 1e-9
        if not all(math.isfinite(x) for x in (a, b, step, span)):
            raise argparse.ArgumentTypeError(f"non-finite range {text!r}")
        count = math.floor(span) + 1
    # counted before any value is built, so that a huge grid costs nothing
    if count > MAX_GRID:
        raise argparse.ArgumentTypeError(f"range {text!r} has {count} values, more than {MAX_GRID}")
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


def _emit(args, kind: str, payload, manifest: RunManifest, rows, fields=None) -> int:
    """Write ``payload`` as JSON, or ``rows`` as CSV with columns ``fields`` or the first row's keys."""
    if args.format == "csv":
        return _write(render_csv(fields or tuple(rows[0]), rows, manifest), args.out)
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
    return _emit(args, "catalog", {"entries": rows}, manifest, rows)


def cmd_demo(args) -> int:
    from .constructions import classical_bit_analysis, hbit_violation, qubit_rac_construction, sbit_violation
    from .engine import REPORT_CSV_FIELDS

    manifest = _manifest(args, "demo", name=args.name)
    if args.name == "classical":
        row = classical_bit_analysis().to_json()
        return _emit(args, "report", {"report": row}, manifest, [row], REPORT_CSV_FIELDS)
    demos = {"sbit": sbit_violation, "hbit": hbit_violation, "qubit-rac": qubit_rac_construction}
    cert = demos[args.name]()
    return _emit(
        args,
        "certificate",
        certificate_to_json(cert),
        manifest,
        [cert.report.to_json()],
        REPORT_CSV_FIELDS,
    )


def _scan_rows(args):
    target = args.target
    if target == "pgnst":
        from .constructions import pgnst_violation

        rows = []
        for p in args.p or _range("2:6:0.25", float):
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
        return rows
    if target == "polygon":
        from .constructions import polygon_violation

        rows = []
        for n in args.n or _range("4:50", int):
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
        return rows
    if target == "composite":
        from .constructions import composite_gbit_extractable

        return [composite_gbit_extractable(n).to_json() for n in args.n or _range("1:8", int)]
    if target == "mismatch":
        from .constructions import polygon_mismatch

        return [polygon_mismatch(n).to_json() for n in args.n or _range("4:13", int)]
    if target == "axioms":
        from .axioms import axiom_suite

        kinds = ("shannon", "von-neumann") if args.entropy == "both" else (args.entropy,)
        rows = []
        for kind in kinds:
            rows += [r.to_json() for r in axiom_suite(kind, args.trials, args.seed)]
        return rows
    # sweep
    from .sweep import qubit_rotation_sweep

    step = (math.pi / 2.0) / (args.points - 1) if args.points > 1 else 1.0
    grid = [i * step for i in range(args.points)]
    return [dataclasses.asdict(pt) for pt in qubit_rotation_sweep(grid)]


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
        rows = _scan_rows(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"target": args.target, "rows": rows}
    return _emit(args, "scan", payload, manifest, rows)


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
        doc = json.loads(Path(args.ensemble).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {args.ensemble}: {exc}", file=sys.stderr)
        return 3
    # a decode error, a number past the digit limit or nesting past the
    # recursion limit: each is a ValueError or a RecursionError
    except (ValueError, RecursionError) as exc:
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
    return _emit(args, "report", {"report": row}, manifest, [row], REPORT_CSV_FIELDS)


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
            args.n = _range(args.n_raw, int) if args.n_raw else None
            args.p = _range(args.p_raw, float) if args.p_raw else None
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for flag in ("points", "trials"):
            if getattr(args, flag) < 1:
                print(f"error: --{flag} must be positive", file=sys.stderr)
                return 2
        if args.points > MAX_GRID:
            print(f"error: --points {args.points} is more than {MAX_GRID}", file=sys.stderr)
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
