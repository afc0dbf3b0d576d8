#!/usr/bin/env python3
"""icp-lab benchmark: ensemble-audit, optimizer-search and cli-commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-audit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 [--out results.json]

A single workload prints "name value unit" lines, one JSON line describing
the machine, and last a JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. ``--workload all`` runs every workload untraced and traced in
child processes and prints every metric. README.md explains the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"  # a traced run writes its spans here, one file per workload
WORKLOAD_NAMES = ("ensemble-audit", "optimizer-search", "cli-commands")
SETUP_PROBES = 15
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

# (name, unit); BENCHMARK.json lists the same names
END_TO_END = (
    ("setup_s", "s"),
    ("round_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("audit.evaluate_per_s", "1/s"),
    ("audit.ledger_per_s", "1/s"),
    ("optimizer.search_s", "s"),
    ("cli.session_s", "s"),
    ("cli.scan_axioms_s", "s"),
    ("cli.scan_polygon_s", "s"),
    ("cli.scan_pgnst_s", "s"),
    ("cli.demo_classical_s", "s"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("sampling.random_ensemble.us", "us"),
    ("sampling.random_ensemble.calls", "count/round"),
    ("engine.build_ensemble.us", "us"),
    ("gpt.validate_state.us", "us"),
    ("gpt.validate_state.calls", "count/round"),
    ("engine.evaluate_icp.us", "us"),
    ("engine.evaluate_icp.calls", "count/round"),
    ("engine.joint_outcome_table.us", "us"),
    ("engine.register_marginal.us", "us"),
    ("info.mutual_information.us", "us"),
    ("info.multivariate_mutual_information.us", "us"),
    ("info.von_neumann_entropy.us", "us"),
    ("info.von_neumann_entropy.calls", "count/round"),
    ("gpt.observed_dimension.us", "us"),
    ("gpt.observed_dimension.calls", "count/round"),
    ("gpt.observed_dimension.misses", "count/round"),
    ("proofs.proof_chain_check.us", "us"),
    ("proofs.proof_chain_check.steps", "count/round"),
    ("proofs.axiom_suite.us_per_trial", "us"),
    ("proofs.axiom_suite.trials", "count/round"),
    ("engine.maximize_extractable.evaluations", "count/round"),
    ("engine.maximize_extractable.us_per_eval", "us"),
    ("engine.maximize_extractable.converged", "ratio"),
    ("engine.maximize_extractable.budget_overrun", "count/round"),
    ("engine.qubit_rotation_sweep.us", "us"),
    ("constructions.polygon_violation.us", "us"),
    ("constructions.polygon_mismatch.us", "us"),
    ("constructions.pgnst_violation.us", "us"),
    ("constructions.pgnst_min_entropy_sum.us", "us"),
    ("catalog.polygon.us", "us"),
    ("serialize.render_json.us", "us"),
    ("serialize.ensemble_from_json.us", "us"),
    ("cli.main.us", "us"),
)
# per-layer counters read from the tracer, reported per round
COUNTER_KINDS = ("misses", "steps", "trials", "evaluations", "budget_overrun")


def pin_environment() -> None:
    """Serial default path: no icp_lab thread pool, single-threaded BLAS."""
    os.environ.pop("ICP_LAB_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import icp_lab from this checkout's src/ and return the workloads module."""
    if not (SRC / "icp_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no icp_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import icp_lab

    if Path(icp_lab.__file__).resolve().parent != SRC / "icp_lab":
        sys.exit(f"perfbench: imported icp_lab from {icp_lab.__file__}, not from {SRC}")
    import workloads

    return workloads


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # stay in the checkout
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, seconds: float, probe=None) -> int:
    """Run whole rounds until ``seconds`` have passed; returns the round count.

    ``probe`` runs SETUP_PROBES times between rounds, spread evenly over the
    run, so that its samples see the same drift in machine speed as the rounds.
    """
    start = time.perf_counter()
    rounds = probes = 0
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        wl.run_round()
        rounds += 1
        while probe and probes < SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds):
            probe()
            probes += 1
    while probe and probes < SETUP_PROBES:
        probe()
        probes += 1
    return rounds


def setup_command(name: str, seed: int) -> tuple[list[str], dict | None]:
    """The command and environment of a fresh interpreter that only does the set-up."""
    if name == "cli-commands":
        # what every icp-lab command pays before it runs, without the benchmark's own imports
        return [sys.executable, "-c", "import icp_lab.cli"], {**os.environ, "PYTHONPATH": str(SRC)}
    return [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"], None


def setup_prober(wl, name: str, seed: int):
    """Samples list and a probe timing one set-up in reference loops.

    The reference loop is timed just before and just after the probe, not while
    it runs: a loop timed next to a starting interpreter measured up to twice
    as slow in some runs and not in others.
    """
    samples: list[float] = []
    command, env = setup_command(name, seed)

    def run_probe():
        before = speed.sampled_loop_s()
        t0 = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=120)
        seconds = time.perf_counter() - t0
        samples.append(seconds * 2 / (before + speed.sampled_loop_s()))
        return [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]

    return samples, lambda: wl.attempt("set-up probe", run_probe)


def layer_metrics(stats: dict, counts: dict, rounds: int) -> dict[str, float]:
    """Per-layer metrics derivable from spans and counters; others stay 0."""
    out = {}
    for metric, _ in PER_LAYER:
        fn, _, kind = metric.rpartition(".")
        calls, self_s, inclusive_s = stats.get(fn, (0, 0.0, 0.0))
        if kind == "us":
            value = self_s * 1e6 / calls if calls else 0.0
        elif kind == "calls":
            value = calls / rounds
        elif kind in COUNTER_KINDS:
            value = counts.get(metric, 0) / rounds
        elif kind == "us_per_trial":
            trials = counts.get(f"{fn}.trials", 0)
            value = self_s * 1e6 / trials if trials else 0.0
        elif kind == "us_per_eval":
            evals = counts.get(f"{fn}.evaluations", 0)
            value = inclusive_s * 1e6 / evals if evals else 0.0
        elif kind == "converged":
            value = counts.get(metric, 0) / calls if calls else 0.0
        else:
            value = 0.0
        out[metric] = value
    return out


def write_spans(runs: list[dict], path: Path) -> None:
    """Every span of a traced run as JSON lines; ``parent`` indexes the spans of the same run."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            for name, start, end, parent, run_id in run["spans"]:
                fh.write(json.dumps({"run": run_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def traced_metrics(wl, seconds: float, spans_path: Path) -> tuple[dict, int]:
    """Half the time untraced, half traced; per-layer metrics and the overhead."""
    import tracing

    with wl.meter:
        measure(wl, seconds / 2)
        untraced = wl.take_times()
        tracer = tracing.Tracer("main")
        wl.start_trace(tracer)
        try:
            rounds = measure(wl, seconds / 2)
        finally:
            runs = wl.stop_trace(tracer)
        traced = wl.take_times()
    stats: dict = {}
    counts: dict = {}
    for run in runs:
        tracing.merge(stats, tracing.aggregate(run["spans"]))
        tracing.merge(counts, run["counts"])
    write_spans(runs, spans_path)
    metrics = layer_metrics(stats, counts, rounds)
    metrics.update(wl.sub_metrics(untraced))
    metrics["trace.overhead_ratio"] = wl.round_rel(traced) / wl.round_rel(untraced)
    return metrics, rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = import_program()
    spans_path = SPANS_DIR / f"{name}.jsonl"
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        wl = workloads.WORKLOADS[name](seed, Path(tmp))
        if trace:
            metrics, rounds = traced_metrics(wl, seconds, spans_path)
        else:
            setup_samples, probe = setup_prober(wl, name, seed)
            with wl.meter:
                rounds = measure(wl, seconds, probe)
            metrics = {
                "setup_s": statistics.median(setup_samples) * speed.REFERENCE_LOOP_S,
                "round_rel": wl.round_rel(wl.take_times()),
                "peak_rss_mb": peak_rss_mb(children=name == "cli-commands"),
            }
        wl.finish()
    failed = len(wl.failures)
    if trace:
        metrics["failed_ratio"] = failed / wl.attempted
    units = dict(PER_LAYER if trace else END_TO_END)
    for metric, unit in units.items():
        print(f"{metric} {metrics[metric]!r} {unit}")
    info = {"machine": machine_info(), "workload": name, "seed": seed, "rounds": rounds}
    if trace:
        info["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(info))
    for failure in wl.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": wl.attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


def run_setup_only(name: str, seed: int) -> int:
    import_program().WORKLOADS[name](seed, None)
    return 0


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload untraced and traced, each in its own process."""
    import_program()
    results = {}
    print(f"{'workload':<18} {'metric':<44} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        results[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[name][f"trace{trace}"] = result
            for metric, m in result["metrics"].items():
                if m["value"] or metric == "failed_ratio":
                    print(f"{name:<18} {metric:<44} {m['value']:>14.6g}  {m['unit']}")
            if not result["correct"]:
                print(f"{name:<18} FAILED {result['failed']} of {result['attempted']} checked operations")
    doc = {"machine": machine_info(), "seed": seed, "seconds": seconds, "workloads": results}
    if out:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write the results as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    if args.setup_only:
        return run_setup_only(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
