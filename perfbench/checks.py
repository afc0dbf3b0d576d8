"""Output checks of the benchmark; each returns a list of problems (empty = pass).

The tolerances are those of the acceptance suite: an ICP or ledger margin
may dip to -1e-9, the ledger's correlation identity holds to 1e-12 and its
structural identities to 1e-9. Recorded reference values match to 1e-12
relative to max(1, |value|); optimizer results, which come out of a search,
to 1e-9.
"""
from __future__ import annotations

import json

MARGIN_TOL = 1e-9
CORRELATION_IDENTITY_TOL = 1e-12
IDENTITY_TOL = 1e-9
VALUE_TOL = 1e-12
SEARCH_TOL = 1e-9


def icp_problems(margin: float) -> list[str]:
    if margin >= -MARGIN_TOL:
        return []
    return [f"ICP margin {margin!r} below -{MARGIN_TOL}"]


def ledger_problems(min_margin: float, correlation_error: float, identity_error: float) -> list[str]:
    problems = []
    if not min_margin >= -MARGIN_TOL:
        problems.append(f"ledger inequality margin {min_margin!r} below -{MARGIN_TOL}")
    if not correlation_error <= CORRELATION_IDENTITY_TOL:
        problems.append(f"correlation identity error {correlation_error!r} above {CORRELATION_IDENTITY_TOL}")
    if not identity_error <= IDENTITY_TOL:
        problems.append(f"ledger identity error {identity_error!r} above {IDENTITY_TOL}")
    return problems


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mismatches(expected, actual, path: str = "$", tol: float = VALUE_TOL) -> list[str]:
    """Where ``actual`` differs from ``expected``; keys only in ``actual`` are ignored."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out += mismatches(value, actual[key], f"{path}.{key}", tol)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}[{i}]", tol)
        return out
    if _is_number(expected) and _is_number(actual):
        if abs(actual - expected) <= tol * max(1.0, abs(expected)):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def command_problems(returncode: int, stdout: bytes, first_stdout: bytes | None, expected) -> list[str]:
    """Exit code, byte stability against the first run, and reference numbers."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    if first_stdout is not None and stdout != first_stdout:
        problems.append("output bytes differ between runs with a pinned timestamp")
    try:
        payload = json.loads(stdout)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable output: {exc}"]
    return problems + mismatches(expected, payload)
