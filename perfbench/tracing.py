"""Span tracer that wraps icp_lab's public functions from outside the package.

A wrapper replaces the function in every loaded ``icp_lab`` module that binds
it by name, so calls made through ``from .engine import evaluate_icp`` are
traced as well as attribute calls. Each call records one span
``[name, start, end, parent, run_id]`` in memory; ``aggregate`` turns spans into
per-function call counts, inclusive time and self time (duration minus the
time covered by child spans). A few functions also feed counters read from
their arguments and results, such as optimizer evaluations or ledger steps.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs under icp_lab; spans are named "module.function"
TRACED = (
    ("sampling", "random_ensemble"),
    ("engine", "build_ensemble"),
    ("gpt", "validate_state"),
    ("engine", "evaluate_icp"),
    ("engine", "joint_outcome_table"),
    ("engine", "register_marginal"),
    ("info", "mutual_information"),
    ("info", "multivariate_mutual_information"),
    ("info", "von_neumann_entropy"),
    ("gpt", "observed_dimension"),
    ("proofs", "proof_chain_check"),
    ("proofs", "axiom_suite"),
    ("engine", "maximize_extractable"),
    ("engine", "qubit_rotation_sweep"),
    ("constructions", "polygon_violation"),
    ("constructions", "polygon_mismatch"),
    ("constructions", "pgnst_violation"),
    ("constructions", "pgnst_min_entropy_sum"),
    ("catalog", "polygon"),
    ("serialize", "render_json"),
    ("serialize", "ensemble_from_json"),
    ("cli", "main"),
)


def _dimension_hook(tracer, args, kwargs, result):
    # a miss returns a report object that no earlier call returned
    if id(result) not in tracer.seen:
        tracer.seen[id(result)] = result
        tracer.count("gpt.observed_dimension.misses")


def _ledger_hook(tracer, args, kwargs, result):
    tracer.count("proofs.proof_chain_check.steps", len(result.steps))


def _axiom_hook(tracer, args, kwargs, result):
    tracer.count("proofs.axiom_suite.trials", sum(r.trials for r in result))


def _optimizer_hook(tracer, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    if config is None:
        config = sys.modules["icp_lab.engine"].OptimizerConfig()
    tracer.count("engine.maximize_extractable.evaluations", result.evaluations)
    tracer.count("engine.maximize_extractable.converged", int(result.converged))
    tracer.count(
        "engine.maximize_extractable.budget_overrun",
        max(0, result.evaluations - config.max_evals),
    )


HOOKS = {
    "gpt.observed_dimension": _dimension_hook,
    "proofs.proof_chain_check": _ledger_hook,
    "proofs.axiom_suite": _axiom_hook,
    "engine.maximize_extractable": _optimizer_hook,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.seen: dict[int, object] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in each loaded icp_lab module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "icp_lab" or n.startswith("icp_lab.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"icp_lab.{mod_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if vars(module).get(fn_name) is original:
                    setattr(module, fn_name, wrapper)
                    self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in self._installed:
            setattr(module, fn_name, original)
        self._installed.clear()

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def aggregate(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds, inclusive seconds].

    ``spans`` come from one run, so parent indices point into the same list;
    spans of one thread nest, so the children of a span never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
        entry[2] += end - start
    return stats


def merge(total: dict, part: dict) -> None:
    """Add one run's aggregate (or counters) into ``total`` in place."""
    for key, value in part.items():
        if isinstance(value, list):
            entry = total.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(value):
                entry[i] += v
        else:
            total[key] = total.get(key, 0) + value
