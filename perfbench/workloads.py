"""The three benchmark workloads.

Each workload is a closed loop with one caller: ``run_round`` performs a
fixed unit of work, times its parts with ``perf_counter`` from outside
icp_lab, and checks every output, counting failures instead of aborting.
Calls go through module attributes (``engine.evaluate_icp``) so that the
tracer's wrappers see them. ``replay`` recomputes the values that
``reference.json`` records; ``record_reference.py`` writes them.
"""
from __future__ import annotations

import contextlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from icp_lab import catalog, engine, gpt, proofs, sampling

import checks
from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 20261017
PINNED_TIMESTAMP = "2026-01-01T00:00:00+00:00"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _assignment(entry, labels):
    th = entry.theory
    return engine.ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))


class Workload:
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.meter = SpeedMeter()
        # part -> (wall seconds, reference loops) samples; add_time's wait in
        # _pending for the meter ticks after them
        self.times: dict[str, list[tuple[float, float]]] = {}
        self._pending: list[tuple[str, float, int, int]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def attempt(self, what: str, fn) -> None:
        """Run one checked operation; an exception counts as a failure."""
        try:
            problems = fn()
        except Exception as exc:  # the benchmark counts failures, it does not stop
            problems = [f"{type(exc).__name__}: {exc}"]
        self.record(what, problems)

    def take_times(self) -> dict[str, list[tuple[float, float]]]:
        for part, seconds, first, end in self._pending:
            self.add_sample(part, seconds, seconds / self.meter.loop_s(first, end))
        self._pending = []
        times, self.times = self.times, {}
        return times

    def start(self) -> tuple[float, int]:
        return time.perf_counter(), self.meter.count()

    def add_time(self, part: str, started: tuple[float, int]) -> None:
        """One sample of a part's wall time and of the speed-meter ticks during it."""
        t0, first = started
        self._pending.append((part, time.perf_counter() - t0, first, self.meter.count()))

    def add_sample(self, part: str, seconds: float, loops: float) -> None:
        self.times.setdefault(part, []).append((seconds, loops))

    @staticmethod
    def median_s(samples) -> float:
        return statistics.median(s for s, _ in samples)

    @staticmethod
    def round_s(times) -> float:
        """Sum over the round's parts of each part's median wall time."""
        return sum(Workload.median_s(v) for v in times.values())

    @staticmethod
    def round_rel(times) -> float:
        """Sum over the round's parts of each part's median time in reference loops."""
        return sum(statistics.median(loops for _, loops in v) for v in times.values())

    def sub_metrics(self, times) -> dict[str, float]:
        return {}

    def theories(self) -> list:
        return []

    def start_trace(self, tracer) -> None:
        # reports cached during set-up are hits, not misses, for the tracer
        for theory in self.theories():
            report = gpt.observed_dimension(theory)
            tracer.seen[id(report)] = report
        tracer.install()

    def stop_trace(self, tracer) -> list[dict]:
        tracer.uninstall()
        return [tracer.to_json()]

    def finish(self) -> None:
        pass


# --- ensemble-audit -------------------------------------------------------------

# criterion 14: (stream, catalog entry, measurement labels, one register each)
ICP_STREAMS = (
    ("classical-bit", catalog.classical_bit, ("X", "Z")),
    ("classical-trit", catalog.classical_trit, ("E1", "E2")),
    ("qubit", catalog.qubit, ("X", "Z")),
)
# criterion 13: the derivation ledger on 2, 2, 3 and 4 registers, with the
# number of ensembles per stream per round in the proportions of the acceptance
# test (10k / 1k / 10k / 10k)
LEDGER_STREAMS = (
    ("bit-2", catalog.classical_bit, ("X", "Z"), 10),
    ("qubit-2", catalog.qubit, ("X", "Z"), 1),
    ("trit-3", catalog.classical_trit, ("E1", "E2", "E3"), 10),
    ("trit-4", catalog.classical_trit, ("E1", "E2", "E3", "E1"), 10),
)
ICP_PER_ROUND = 10  # ensembles per criterion-14 stream per round, as 10k each there
LEDGER_PER_ROUND = sum(spec[3] for spec in LEDGER_STREAMS)
REFERENCE_ENSEMBLES = 20  # replayed per stream against reference.json


def _icp_value(entry, assignment, rng):
    ens = sampling.random_ensemble(entry, rng)
    return engine.evaluate_icp(ens, assignment)


def _ledger_value(entry, assignment, rng):
    ens = sampling.random_ensemble(entry, rng, n_registers=len(assignment.pairs))
    return proofs.proof_chain_check(ens, assignment)


def _ledger_problems(ledger) -> list[str]:
    correlation = [
        abs(s.lhs - s.rhs) for s in ledger.steps if s.name.startswith("sum of prefix correlations")
    ]
    return checks.ledger_problems(
        ledger.min_inequality_margin(), max(correlation, default=0.0), ledger.max_identity_error()
    )


class EnsembleAudit(Workload):
    """Random ensembles through evaluate_icp and proof_chain_check."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.icp = self._streams(ICP_STREAMS, seed, 0)
        self.ledger = self._streams(LEDGER_STREAMS, seed, len(ICP_STREAMS))
        # warm-up: one of each fills the dimension cache before timing
        for name, entry, assignment, _ in self.icp:
            self.attempt(f"warm-up {name}", lambda: checks.icp_problems(
                _icp_value(entry, assignment, np.random.default_rng(seed)).margin))
        for name, entry, assignment, _ in self.ledger:
            self.attempt(f"warm-up {name}", lambda: _ledger_problems(
                _ledger_value(entry, assignment, np.random.default_rng(seed))))

    @staticmethod
    def _streams(spec, seed, offset):
        out = []
        for i, (name, make, labels, *_) in enumerate(spec):
            entry = make()
            rng = np.random.default_rng([seed, offset + i])
            out.append((name, entry, _assignment(entry, labels), rng))
        return out

    def theories(self):
        return [entry.theory for _, entry, _, _ in self.icp + self.ledger]

    def run_round(self) -> None:
        started = self.start()
        for _ in range(ICP_PER_ROUND):
            for name, entry, assignment, rng in self.icp:
                self.attempt(name, lambda: checks.icp_problems(
                    _icp_value(entry, assignment, rng).margin))
        self.add_time("evaluate", started)
        started = self.start()
        for (name, entry, assignment, rng), (*_, count) in zip(self.ledger, LEDGER_STREAMS):
            for _ in range(count):
                self.attempt(name, lambda: _ledger_problems(_ledger_value(entry, assignment, rng)))
        self.add_time("ledger", started)

    def sub_metrics(self, times):
        return {
            "audit.evaluate_per_s": ICP_PER_ROUND * len(ICP_STREAMS) / self.median_s(times["evaluate"]),
            "audit.ledger_per_s": LEDGER_PER_ROUND / self.median_s(times["ledger"]),
        }

    @classmethod
    def replay(cls) -> dict[str, list[float]]:
        """Extractables of fixed-seed ensembles, keyed by phase/stream."""
        out = {}
        for phase, streams, value in (
            ("evaluate", cls._streams(ICP_STREAMS, REFERENCE_SEED, 0), _icp_value),
            ("ledger", cls._streams(LEDGER_STREAMS, REFERENCE_SEED, len(ICP_STREAMS)), _ledger_value),
        ):
            for name, entry, assignment, rng in streams:
                out[f"{phase}/{name}"] = [
                    value(entry, assignment, rng).extractable for _ in range(REFERENCE_ENSEMBLES)
                ]
        return out

    def finish(self) -> None:
        expected = load_reference()["ensemble-audit"]
        self.attempt("reference replay", lambda: checks.mismatches(expected, self.replay()))


# --- optimizer-search -------------------------------------------------------------

# (case, catalog entry, measurement labels, strategy, max_evals)
OPTIMIZER_SUITE = (
    ("classical-bit", catalog.classical_bit, ("X", "Z"), "coordinate-descent", 8000),
    ("sbit", catalog.sbit, ("X", "Z"), "random-restart", 4000),
    ("qubit", catalog.qubit, ("X", "Z"), "random-restart", 4000),
    ("pgnst:3:2", lambda: catalog.pgnst(3.0, 2), ("X", "Z"), "coordinate-descent", 8000),
    ("classical-trit", catalog.classical_trit, ("E1", "E2"), "grid", 8000),
)


def _optimizer_cases():
    cases = []
    for name, make, labels, strategy, max_evals in OPTIMIZER_SUITE:
        entry = make()
        config = engine.OptimizerConfig(strategy=strategy, max_evals=max_evals)
        cases.append((name, entry.theory, _assignment(entry, labels), config))
    return cases


class OptimizerSearch(Workload):
    """maximize_extractable on a fixed suite; the seed only orders the cases."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cases = _optimizer_cases()
        random.Random(seed).shuffle(self.cases)
        self.expected = load_reference()["optimizer-search"]
        for theory in self.theories():
            gpt.observed_dimension(theory)  # warm-up: fill the dimension cache

    def theories(self):
        return [theory for _, theory, _, _ in self.cases]

    def run_round(self) -> None:
        for name, theory, assignment, config in self.cases:
            started = self.start()
            self.attempt(name, lambda: checks.mismatches(
                self.expected[name],
                engine.maximize_extractable(theory, assignment, config).report.extractable,
                tol=checks.SEARCH_TOL,
            ))
            self.add_time(name, started)

    def sub_metrics(self, times):
        return {"optimizer.search_s": self.round_s(times)}

    @staticmethod
    def replay() -> dict[str, float]:
        return {
            name: engine.maximize_extractable(theory, assignment, config).report.extractable
            for name, theory, assignment, config in _optimizer_cases()
        }


# --- cli-commands -------------------------------------------------------------------

CLI_DRIVER = HERE / "cli_driver.py"
CLI_COMMANDS = (
    ("catalog",),
    ("demo", "sbit"),
    ("demo", "hbit"),
    ("demo", "classical"),
    ("demo", "qubit-rac"),
    ("scan", "polygon"),
    ("scan", "pgnst"),
    ("scan", "composite"),
    ("scan", "mismatch"),
    ("scan", "sweep"),
    ("scan", "axioms"),
    ("eval",),
)
CLI_TIMEOUT_S = 120


def command_key(command: tuple[str, ...]) -> str:
    return "_".join(part.replace("-", "_") for part in command)


def run_cli(args, trace_out=None, time_out=None) -> subprocess.CompletedProcess:
    prefix = []
    for option, path in (("--time-out", time_out), ("--trace-out", trace_out)):
        if path is not None:
            prefix += [option, str(path)]
    return subprocess.run(
        [sys.executable, str(CLI_DRIVER), *prefix, *args, "--timestamp", PINNED_TIMESTAMP],
        cwd=ROOT,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )


def _write_ensemble_file(path: Path) -> None:
    """The input of ``eval``: a ``demo sbit`` certificate written to ``path``."""
    run_cli(["demo", "sbit", "--out", str(path)]).check_returncode()


def _cli_argv(command, ensemble_file: Path) -> list[str]:
    return [*command, "--ensemble", str(ensemble_file)] if command == ("eval",) else list(command)


def _payload_projection(payload: dict) -> dict:
    """The numbers a CLI document reports: rows, catalog entries or report."""
    for key in ("rows", "entries"):
        if key in payload:
            return {key: payload[key]}
    return {"report": {k: payload["report"][k] for k in ("extractable", "bound", "violated")}}


class CliCommands(Workload):
    """Every icp-lab command in a fresh interpreter; the seed orders them.

    Each command is timed, in wall time and reference loops, by cli_driver.py
    in its own interpreter, so this process runs no speed meter beside it.
    """

    min_rounds = 2  # every command runs at least twice, for the byte check

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.meter = contextlib.nullcontext()
        self.ensemble_file = workdir / "demo-sbit.json"
        self.time_file = workdir / "time.json"
        self.commands = [(command_key(c), _cli_argv(c, self.ensemble_file)) for c in CLI_COMMANDS]
        random.Random(seed).shuffle(self.commands)
        self.expected = load_reference()["cli-commands"]
        self.first_stdout: dict[str, bytes] = {}
        self.trace_dir: Path | None = None
        self.traced_runs = 0
        self.attempt("set-up demo sbit --out", lambda: _write_ensemble_file(self.ensemble_file) or [])

    def run_round(self) -> None:
        for key, argv in self.commands:
            trace_out = None
            if self.trace_dir is not None:
                self.traced_runs += 1
                trace_out = self.trace_dir / f"cli-{self.traced_runs}.json"
            try:
                proc = run_cli(argv, trace_out, self.time_file)
            except subprocess.TimeoutExpired:
                self.record(key, [f"no exit within {CLI_TIMEOUT_S} s"])
                continue
            self.attempt(key, lambda: checks.command_problems(
                proc.returncode, proc.stdout, self.first_stdout.setdefault(key, proc.stdout), self.expected[key]
            ) + self._take_timing(key))

    def _take_timing(self, key: str) -> list[str]:
        timing = json.loads(self.time_file.read_text(encoding="utf-8"))
        self.time_file.unlink()
        self.add_sample(key, timing["seconds"], timing["seconds"] / timing["loop_s"])
        return []

    def sub_metrics(self, times):
        out = {"cli.session_s": self.round_s(times)}
        for key in ("scan_axioms", "scan_polygon", "scan_pgnst", "demo_classical"):
            out[f"cli.{key}_s"] = self.median_s(times[key])
        return out

    def start_trace(self, tracer) -> None:
        self.trace_dir = self.workdir / "spans"
        self.trace_dir.mkdir(exist_ok=True)

    def stop_trace(self, tracer) -> list[dict]:
        runs = []
        for path in sorted(self.trace_dir.glob("cli-*.json")):
            runs.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        self.trace_dir = None
        return runs

    @staticmethod
    def replay(workdir: Path) -> dict[str, dict]:
        ensemble_file = workdir / "demo-sbit.json"
        _write_ensemble_file(ensemble_file)
        out = {}
        for command in CLI_COMMANDS:
            proc = run_cli(_cli_argv(command, ensemble_file))
            proc.check_returncode()
            out[command_key(command)] = _payload_projection(json.loads(proc.stdout)["payload"])
        return out


WORKLOADS = {
    "ensemble-audit": EnsembleAudit,
    "optimizer-search": OptimizerSearch,
    "cli-commands": CliCommands,
}
