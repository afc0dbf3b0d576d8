"""Ensembles of classically correlated states and the information bound check.

An ensemble is a finite list of (probability, state, register values) entries,
held as three arrays: probabilities, state coordinates and register values.
For an assignment pairing measurement X_i with register A_i the engine
computes the extractable information

    I_E = sum_i I(X_i : A_i) - I(A_1 : ... : A_n)

and compares it against the information content log2(d) of the theory, where
d is the certified observed dimension. The redundancy subtraction uses the
registers' total correlation, so it depends only on their marginal joint
distribution.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import info
from .gpt import (
    Measurement,
    NormConstraint,
    Polytope,
    Quantum,
    RestrictedClassical,
    State,
    Theory,
    check_states,
    coords_to_density,
    density_to_coords,
    effect_values,
    observed_dimension,
)

VIOLATION_TOL = 1e-9


def register_name(index: int) -> str:
    return chr(ord("A") + index)


@dataclass(frozen=True, eq=False)
class EnsembleEntry:
    probability: float
    state: State
    registers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(int(r) for r in self.registers))
        if self.probability < -info.PROB_TOL:
            raise ValueError(f"negative entry probability {self.probability!r}")


@dataclass(frozen=True, eq=False)
class CorrelatedEnsemble:
    """Entry probabilities ``probs`` (E,), state coordinates ``coords`` (E, D)
    and register values ``registers`` (E, R), all read-only.

    ``build_ensemble`` makes one from entries and checks it.
    """

    theory: Theory
    probs: np.ndarray
    coords: np.ndarray
    registers: np.ndarray
    register_alphabets: tuple[int, ...]

    def __post_init__(self):
        for arr in (self.probs, self.coords, self.registers):
            arr.setflags(write=False)

    @cached_property
    def entries(self) -> tuple[EnsembleEntry, ...]:
        """The ensemble entry by entry, built on first use."""
        tid = self.theory.theory_id
        return tuple(
            EnsembleEntry(float(p), State(c, tid), tuple(r))
            for p, c, r in zip(self.probs, self.coords, self.registers.tolist())
        )

    @property
    def n_registers(self) -> int:
        return len(self.register_alphabets)

    def register_index(self, registers: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
        """Each entry's values on ``registers`` as one row-major flat index,
        and the shape of the joint alphabet they index."""
        shape = tuple(self.register_alphabets[r] for r in registers)
        return np.ravel_multi_index(self.registers[:, list(registers)].T, shape), shape


def _check_arrays(
    theory: Theory,
    coords: np.ndarray,
    registers: np.ndarray,
    register_alphabets: tuple[int, ...],
    validate: bool = True,
) -> None:
    """Raise ValueError for the first register value outside its alphabet,
    then, with ``validate``, for the first state outside the state space."""
    outside = (registers < 0) | (registers >= np.array(register_alphabets))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"register value {registers[i, j]} outside alphabet {register_alphabets[j]}")
    if validate:
        _, ok = check_states(theory, coords)
        if not ok:
            raise ValueError(f"invalid state in ensemble: {ok.detail}")


def build_ensemble(
    theory: Theory,
    entries: Iterable[tuple[float, State, Sequence[int]]] | Iterable[EnsembleEntry],
    register_alphabets: Sequence[int] | None = None,
    validate: bool = True,
) -> CorrelatedEnsemble:
    """Stack entries into an ensemble and check it; alphabets default to max
    value + 1.

    Register values and, with ``validate``, state membership are checked on
    the ensemble's arrays; an error reports the first entry at fault.
    """
    norm_entries = []
    for item in entries:
        if isinstance(item, EnsembleEntry):
            norm_entries.append(item)
        else:
            p, state, regs = item
            norm_entries.append(EnsembleEntry(float(p), state, tuple(regs)))
    if not norm_entries:
        raise ValueError("ensemble needs at least one entry")
    counts = {len(e.registers) for e in norm_entries}
    if len(counts) != 1:
        raise ValueError("entries disagree on register count")
    n_regs = counts.pop()
    if n_regs == 0:
        raise ValueError("entries need at least one register")
    total = sum(e.probability for e in norm_entries)
    if abs(total - 1.0) > info.PROB_TOL * max(1, len(norm_entries)):
        raise ValueError(f"entry probabilities sum to {total!r}")
    if register_alphabets is None:
        register_alphabets = tuple(
            max(e.registers[i] for e in norm_entries) + 1 for i in range(n_regs)
        )
    register_alphabets = tuple(int(a) for a in register_alphabets)
    if len(register_alphabets) != n_regs:
        raise ValueError(f"{len(register_alphabets)} alphabets for {n_regs} registers")
    try:
        coords = np.array([e.state.coords for e in norm_entries])
    except ValueError as exc:  # ragged rows
        raise ValueError("ensemble states differ in dimension") from exc
    probs = np.array([max(e.probability, 0.0) for e in norm_entries])
    registers = np.array([e.registers for e in norm_entries], dtype=int)
    _check_arrays(theory, coords, registers, register_alphabets, validate)
    return CorrelatedEnsemble(theory, probs, coords, registers, register_alphabets)


@dataclass(frozen=True, eq=False)
class ObservableAssignment:
    """Pairs (measurement, register index); registers must be distinct."""

    pairs: tuple[tuple[Measurement, int], ...]

    def __post_init__(self):
        pairs = tuple((m, int(r)) for m, r in self.pairs)
        if not pairs:
            raise ValueError("assignment needs at least one pair")
        regs = [r for _, r in pairs]
        if len(set(regs)) != len(regs):
            raise ValueError("assignment registers must be distinct")
        object.__setattr__(self, "pairs", pairs)

    @property
    def registers(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.pairs)

    def labels(self) -> tuple[str, ...]:
        return tuple(f"{m.label}:{register_name(r)}" for m, r in self.pairs)


def joint_outcome_table(
    ensemble: CorrelatedEnsemble, measurement: Measurement, register: int
) -> info.JointTable:
    """Joint distribution p(x, a) of outcome x against register value a.

    One product: the weighted outcome probabilities (outcomes x entries)
    times the entries' one-hot register values (entries x alphabet). The
    table is checked as a distribution, so a measurement whose effects do
    not sum to the unit raises ValueError.
    """
    if not 0 <= register < ensemble.n_registers:
        raise ValueError(f"no register {register} in ensemble")
    index, (alphabet,) = ensemble.register_index((register,))
    values = effect_values(measurement.effect_matrix, ensemble.coords)
    table = (values * ensemble.probs) @ np.eye(alphabet)[index]
    out_name = measurement.label or "X"
    reg_name = register_name(register)
    if out_name == reg_name:
        out_name = f"out({out_name})"
    return info.JointTable((out_name, reg_name), table)


def register_marginal(
    ensemble: CorrelatedEnsemble, registers: Sequence[int] | None = None
) -> info.JointTable:
    """Joint distribution of the given registers (all by default)."""
    regs = tuple(registers) if registers is not None else tuple(range(ensemble.n_registers))
    index, shape = ensemble.register_index(regs)
    table = np.bincount(index, weights=ensemble.probs, minlength=math.prod(shape))
    return info.JointTable(tuple(register_name(r) for r in regs), table.reshape(shape))


# the CSV columns of a report: every key of ICPReport.to_json except register_marginal
REPORT_CSV_FIELDS = (
    "pairs",
    "gains",
    "redundancy",
    "extractable",
    "observed_dimension",
    "bound",
    "margin",
    "violated",
)


@dataclass(frozen=True, eq=False)
class ICPReport:
    pair_labels: tuple[str, ...]
    gains: tuple[float, ...]
    redundancy: float
    extractable: float
    observed_dim: int
    bound: float
    margin: float
    violated: bool
    register_marginal: np.ndarray

    def to_json(self) -> dict:
        return {
            "pairs": list(self.pair_labels),
            "gains": list(self.gains),
            "redundancy": self.redundancy,
            "extractable": self.extractable,
            "observed_dimension": self.observed_dim,
            "bound": self.bound,
            "margin": self.margin,
            "violated": self.violated,
            "register_marginal": self.register_marginal.tolist(),
        }


def evaluate_icp(ensemble: CorrelatedEnsemble, assignment: ObservableAssignment) -> ICPReport:
    """Evaluate sum_i I(X_i:A_i) - I(A_1:...:A_n) against log2(d).

    Each gain is the total correlation of a two-axis outcome table, and the
    redundancy that of the register marginal, both taken on the bare arrays.
    """
    gains = []
    for measurement, reg in assignment.pairs:
        table = joint_outcome_table(ensemble, measurement, reg)
        gains.append(max(info._total_correlation(table.probs), 0.0))
    marginal = register_marginal(ensemble, assignment.registers)
    redundancy = max(info._total_correlation(marginal.probs), 0.0)
    extractable = sum(gains) - redundancy
    dim_report = observed_dimension(ensemble.theory)
    bound = math.log2(dim_report.d)
    margin = bound - extractable
    return ICPReport(
        pair_labels=assignment.labels(),
        gains=tuple(gains),
        redundancy=redundancy,
        extractable=extractable,
        observed_dim=dim_report.d,
        bound=bound,
        margin=margin,
        violated=margin < -VIOLATION_TOL,
        register_marginal=marginal.probs,
    )


# --- extractable-information search ------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    strategy: str = "random-restart"  # grid | coordinate-descent | random-restart
    resolution: float = 1e-4
    max_evals: int = 60_000
    equal_gain_constraint: bool = True
    seed: int = 0
    restarts: int = 20


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    ensemble: CorrelatedEnsemble
    report: ICPReport
    converged: bool
    evaluations: int


class _StateFamily:
    """Continuous parametrization of states with box-bounded coordinates."""

    def __init__(self, theory: Theory):
        v = theory.variant
        if isinstance(v, Polytope):
            self.kind = "polytope"
            self.vertex_coords = v.vertex_matrix
            self.n_params = len(v.vertices)
            self.bounds = (0.0, 1.0)
        elif isinstance(v, RestrictedClassical):
            self.kind = "simplex"
            self.vertex_coords = np.eye(v.internal_states)
            self.n_params = v.internal_states
            self.bounds = (0.0, 1.0)
        elif isinstance(v, NormConstraint):
            self.kind = "norm"
            self.p = v.p
            self.n_params = v.k
            self.bounds = (-1.0, 1.0)
        elif isinstance(v, Quantum):
            if v.hilbert_dim != 2:
                raise NotImplementedError("state search supports quantum dimension 2 only")
            self.kind = "bloch"
            self.n_params = 3
            self.bounds = (-1.0, 1.0)
        else:  # pragma: no cover
            raise TypeError(f"unsupported variant {v!r}")

    def build(self, params: np.ndarray) -> np.ndarray:
        """State coordinates for one parameter vector."""
        if self.kind in ("polytope", "simplex"):
            w = np.clip(params, 0.0, None)
            total = w.sum()
            w = np.full_like(w, 1.0 / len(w)) if total <= 0.0 else w / total
            return w @ self.vertex_coords
        if self.kind == "norm":
            s = np.asarray(params, dtype=float)
            norm = np.abs(s).max() if math.isinf(self.p) else float((np.abs(s) ** self.p).sum()) ** (1.0 / self.p)
            if norm > 1.0:
                s = s / norm
            return np.append(s, 1.0)
        b = np.asarray(params, dtype=float)
        norm = np.linalg.norm(b)
        if norm > 1.0:
            b = b / norm
        rho = np.array(
            [
                [1.0 + b[2], b[0] - 1j * b[1]],
                [b[0] + 1j * b[1], 1.0 - b[2]],
            ],
            dtype=complex,
        ) / 2.0
        return density_to_coords(rho)

    def seed_states(self, assignment: ObservableAssignment) -> list[np.ndarray]:
        """Parameter vectors of extremal states worth trying on a grid."""
        if self.kind in ("polytope", "simplex"):
            return [np.eye(self.n_params)[i] for i in range(self.n_params)]
        if self.kind == "norm":
            seeds = []
            for axis in range(self.n_params):
                for sign in (1.0, -1.0):
                    v = np.zeros(self.n_params)
                    v[axis] = sign
                    seeds.append(v)
            return seeds
        # bloch: measurement axes and their bisectors
        axes = []
        for m, _ in assignment.pairs:
            op = coords_to_density(m.effects[0].coords, 2)
            axes.append(
                np.array([2 * op[0, 1].real, 2 * op[1, 0].imag, (op[0, 0] - op[1, 1]).real])
            )
        seeds = []
        for a in axes:
            seeds.extend([a, -a])
        for a, b in itertools.combinations(axes, 2):
            for u in (a + b, a - b):
                n = np.linalg.norm(u)
                if n > 1e-12:
                    seeds.extend([u / n, -u / n])
        return seeds


def _register_families(alphabets: tuple[int, ...]) -> list[np.ndarray]:
    size = int(np.prod(alphabets))
    families = [np.full(size, 1.0 / size)]
    if len(alphabets) == 2 and alphabets[0] == alphabets[1]:
        k = alphabets[0]
        eye = (np.eye(k) / k).ravel()
        uniform = np.full(size, 1.0 / size)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            families.append(q * eye + (1.0 - q) * uniform)
    return families


def _golden_max(fun, lo: float, hi: float, tol: float, budget: list[int]):
    """Golden-section maximization including the interval endpoints."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    pts = {lo: fun(lo), hi: fun(hi)}
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    budget[0] -= 2
    while (b - a) > tol and budget[0] > 0:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
        budget[0] -= 1
    candidates = [(fc, c), (fd, d)] + [(v, k) for k, v in pts.items()]
    best_val, best_x = max(candidates, key=lambda t: t[0])
    return best_x, best_val


def maximize_extractable(
    theory: Theory,
    assignment: ObservableAssignment,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Search ensembles for the largest extractable information.

    Ensembles are parametrized by one state per register combination plus a
    joint register distribution. The grid stage enumerates extremal states
    against a small family of register couplings; descent then runs
    coordinate-wise golden-section refinement. With the equal-gain constraint
    on, gain spread is penalized so the best reported point is balanced.
    """
    config = config or OptimizerConfig()
    if config.strategy not in ("grid", "coordinate-descent", "random-restart"):
        raise ValueError(f"unknown strategy {config.strategy!r}")
    family = _StateFamily(theory)
    alphabets = tuple(len(m.effects) for m, _ in assignment.pairs)
    combos = np.array(list(itertools.product(*[range(a) for a in alphabets])))
    n_combo = len(combos)
    sp = family.n_params
    evaluations = [0]

    def assemble(weights: np.ndarray, state_params: np.ndarray) -> CorrelatedEnsemble:
        w = np.clip(weights, 0.0, None)
        total = w.sum()
        w = np.full_like(w, 1.0 / len(w)) if total <= 0.0 else w / total
        coords = np.array([family.build(params) for params in state_params])
        return CorrelatedEnsemble(theory, w, coords, combos, alphabets)

    def objective(weights: np.ndarray, state_params: np.ndarray):
        evaluations[0] += 1
        ens = assemble(weights, state_params)
        report = evaluate_icp(ens, assignment)
        value = report.extractable
        if config.equal_gain_constraint and len(report.gains) > 1:
            value -= 4.0 * (max(report.gains) - min(report.gains))
        return value, ens, report

    # grid stage: extremal states x register coupling families
    seeds = family.seed_states(assignment)
    start_points = []
    best = None
    for weights in _register_families(alphabets):
        for choice in itertools.product(range(len(seeds)), repeat=n_combo):
            state_params = np.array([seeds[i] for i in choice])
            val, ens, rep = objective(weights, state_params)
            if best is None or val > best[0] + 1e-15:
                best = (val, ens, rep, weights, state_params)
            if evaluations[0] >= config.max_evals:
                break
        if evaluations[0] >= config.max_evals:
            break
    assert best is not None
    if config.strategy == "grid":
        return OptimizationResult(best[1], best[2], evaluations[0] < config.max_evals, evaluations[0])

    rng = np.random.default_rng(config.seed)
    start_points.append((best[3].copy(), best[4].copy()))
    n_starts = 1 if config.strategy == "coordinate-descent" else 1 + config.restarts
    lo, hi = family.bounds
    while len(start_points) < n_starts:
        w = rng.dirichlet(np.ones(n_combo))
        sparams = rng.uniform(lo, hi, size=(n_combo, sp))
        start_points.append((w, sparams))

    budget = [config.max_evals - evaluations[0]]

    def descend(weights: np.ndarray, state_params: np.ndarray):
        current = objective(weights, state_params)
        budget[0] -= 1
        for _ in range(12):
            improved = False
            for idx in range(n_combo):
                for j in range(sp):
                    if budget[0] <= 0:
                        return current
                    base = state_params[idx, j]

                    def line(x):
                        state_params[idx, j] = x
                        val = objective(weights, state_params)[0]
                        state_params[idx, j] = base
                        return val

                    x, val = _golden_max(line, lo, hi, config.resolution, budget)
                    if val > current[0] + 1e-12:
                        state_params[idx, j] = x
                        current = objective(weights, state_params)
                        improved = True
            for i in range(n_combo):
                if budget[0] <= 0:
                    return current
                base = weights[i]

                def wline(x):
                    weights[i] = x
                    val = objective(weights, state_params)[0]
                    weights[i] = base
                    return val

                x, val = _golden_max(wline, 0.0, 1.0, config.resolution, budget)
                if val > current[0] + 1e-12:
                    weights[i] = x
                    current = objective(weights, state_params)
                    improved = True
            if not improved:
                break
        return current

    best_val, best_ens, best_rep = best[0], best[1], best[2]
    for weights, state_params in start_points:
        val, ens, rep = descend(weights.copy(), np.array(state_params, dtype=float))
        # deterministic merge: strictly better wins, ties keep the earlier start
        if val > best_val + 1e-15:
            best_val, best_ens, best_rep = val, ens, rep
    return OptimizationResult(best_ens, best_rep, budget[0] > 0, evaluations[0])


# --- qubit rotation sweep -----------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    theta: float
    gains_sum: float
    redundancy: float
    extractable: float


def _optimal_register_correlation(c: float, s: float) -> float:
    """argmax over q in [1/2, 1] of 2(1 - H(qc + (1-q)s)) - (1 - H(q)).

    The stationarity condition -2(c - s) log2((1-m)/m) + log2((1-q)/q) = 0
    is solved by bisection after bracketing via a coarse scan, which keeps
    the maximizer smooth in (c, s). Boundary optima are handled exactly.
    """
    if c - s <= 1e-15:
        return 0.5

    def fprime(q: float) -> float:
        m = q * c + (1.0 - q) * s
        return -2.0 * (c - s) * math.log2((1.0 - m) / m) + math.log2((1.0 - q) / q)

    top = 1.0 - 1e-12
    if fprime(top) >= 0.0:
        return 1.0

    def f(q: float) -> float:
        m = q * c + (1.0 - q) * s
        return (
            2.0 * (1.0 - info.binary_entropy(m))
            - (1.0 - info.binary_entropy(q))
        )

    qs = np.linspace(0.5, top, 513)
    vals = [f(q) for q in qs]
    i = int(np.argmax(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, len(qs) - 1)]
    if fprime(lo) <= 0.0:
        return 0.5 if i == 0 else float(qs[i])
    if fprime(hi) >= 0.0:
        return float(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fprime(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def qubit_rotation_sweep(theta_grid: Sequence[float]) -> list[SweepPoint]:
    """Best balanced two-bit encodings as the second observable tilts toward X.

    ``theta`` is the Bloch angle between the two measurement axes: pi/2 is
    the complementary X, Z pair, 0 makes both observables identical. States
    sit on the bisector directions of the two axes, so both readouts succeed
    with probability c = (1 + cos(theta/2))/2 on matched register pairs and
    s = (1 + sin(theta/2))/2 on mismatched ones; q is the register
    correlation weight, optimized per point.
    """
    points = []
    for theta in theta_grid:
        t = float(theta)
        if not 0.0 <= t <= math.pi / 2.0 + 1e-12:
            raise ValueError(f"theta {t!r} outside [0, pi/2]")
        c = (1.0 + math.cos(t / 2.0)) / 2.0
        s = (1.0 + math.sin(t / 2.0)) / 2.0
        q = _optimal_register_correlation(c, s)
        m = q * c + (1.0 - q) * s
        gains = 2.0 * (1.0 - info.binary_entropy(m))
        red = 1.0 - info.binary_entropy(q)
        points.append(SweepPoint(t, gains, red, gains - red))
    return points
