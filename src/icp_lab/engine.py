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
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from . import info, sweep
from .gpt import Measurement, State, Theory, _normalized, effect_values, observed_dimension
from .info import VIOLATION_TOL, _ordered_sum

# the sweep stays readable here, where perfbench's tracer looks it up
SweepPoint, qubit_rotation_sweep = sweep.SweepPoint, sweep.qubit_rotation_sweep


def register_name(index: int) -> str:
    return chr(ord("A") + index)


def _register_value(r, what: str = "register value") -> int:
    """``r`` as an int if it is an integer, a numpy one included; else (bools
    too, as in the ensemble's dtype rule) ValueError naming it as ``what``."""
    if not isinstance(r, (bool, np.bool_)):
        try:
            return operator.index(r)
        except TypeError:
            pass
    raise ValueError(f"{what} {r!r} is not an integer")


def _checked_probs(probs: np.ndarray) -> np.ndarray:
    """``probs`` (E,) with float-noise negatives set to 0, if every entry is
    finite and at least -PROB_TOL and the sum lies within PROB_TOL max(1, E)
    of 1; else ValueError naming the first entry at fault, or the sum. A
    passing array costs one sum, left to right (``info._ordered_sum``), and
    one minimum."""
    values = probs.tolist()
    total = _ordered_sum(values)
    # written so that NaN fails: a NaN or infinite entry makes the sum NaN or
    # infinite, and every comparison with NaN is false
    if abs(total - 1.0) <= info.PROB_TOL * max(1, len(values)):
        lo = min(values)
        if lo >= -info.PROB_TOL:
            # max(p, 0.0) entry by entry: -0.0 is kept
            return np.where(probs < 0.0, 0.0, probs) if lo < 0.0 else probs
    for i, p in enumerate(values):
        if not (math.isfinite(p) and p >= -info.PROB_TOL):
            raise ValueError(f"entry {i}: probability {p!r} is negative or not finite")
    raise ValueError(f"entry probabilities sum to {total!r}")


def _require_registers(registers: Iterable[int], n_registers: int) -> None:
    """Raise ValueError for the first of ``registers`` outside range(n_registers):
    the one register-position check."""
    for r in registers:
        if not 0 <= r < n_registers:
            raise ValueError(f"no register {r} in ensemble")


def _check_registers(registers: np.ndarray, register_alphabets: tuple[int, ...]) -> None:
    """Raise ValueError for the first register value outside its alphabet
    (NaN included), else for register values of no integer dtype.

    A passing int64 stack costs one maximum: viewed as uint64, a negative
    value exceeds every alphabet, so every value lies in its alphabet when
    that maximum is below the smallest one. Any other stack is scanned value
    by value and has its dtype tested.
    """
    if (
        registers.dtype == np.int64
        and registers.size
        and np.maximum.reduce(registers.view(np.uint64), None) < min(register_alphabets)
    ):
        return
    outside = ~((registers >= 0) & (registers < np.array(register_alphabets)))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"register value {registers[i, j]} outside alphabet {register_alphabets[j]}")
    if registers.dtype.kind not in "iu":
        raise ValueError(f"register values of dtype {registers.dtype}, not an integer dtype")


def _flat_index(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Each row of ``values`` (E, k), a cell of an array of ``shape``, as its
    row-major flat index in int64, where no index wraps; not range-tested."""
    return values.astype(np.int64, copy=False) @ np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))])


# largest register alphabet of any ensemble: its one-hot identity
# (``_one_hot_rows``) is 1 024^2 float64 values, 8 MB
MAX_ALPHABET = 1_024
# largest joint alphabet, the product of an ensemble's register alphabets: a
# register marginal over it (``register_marginal``) is the same 8 MB
MAX_JOINT_ALPHABET = MAX_ALPHABET**2
# most registers of any ensemble: numpy's most axes, one per register of a marginal
MAX_REGISTERS = 64


def _check_alphabets(alphabets: tuple[int, ...]) -> None:
    """Raise ValueError when an alphabet exceeds MAX_ALPHABET or their product
    MAX_JOINT_ALPHABET: the one cap check, run before anything is built over
    the alphabets."""
    if max(alphabets) > MAX_ALPHABET:
        raise ValueError(f"register alphabet {max(alphabets)} above MAX_ALPHABET = {MAX_ALPHABET}")
    joint = math.prod(alphabets)
    if joint > MAX_JOINT_ALPHABET:
        raise ValueError(f"joint alphabet {joint} above MAX_JOINT_ALPHABET = {MAX_JOINT_ALPHABET}")


@lru_cache(maxsize=32)
def _register_product(alphabets: tuple[int, ...]) -> np.ndarray:
    """Every combination of register values, one per row in row-major order:
    C-contiguous int64, read-only, from sparse ``np.indices`` (dense needs R + 1 axes)."""
    product = np.empty((math.prod(alphabets), len(alphabets)), dtype=np.int64)
    for column, index in zip(product.T, np.indices(alphabets, sparse=True)):
        column.reshape(alphabets)[...] = index  # a view: a strided column reshapes in place
    product.setflags(write=False)
    return product


@dataclass(frozen=True, eq=False)
class CorrelatedEnsemble:
    """Entry probabilities ``probs`` (E,), state coordinates ``coords`` (E, D)
    and register values ``registers`` (E, R), all read-only.

    Every ensemble checks itself when built, from arrays or lists: its
    probabilities are one flat vector and form a distribution, ``coords`` and
    ``registers`` have E rows, there are 1 <= R <= MAX_REGISTERS integer
    alphabets, none above MAX_ALPHABET nor their product above
    MAX_JOINT_ALPHABET, each register value lies in its alphabet and is an
    integer, and each state lies in the theory's state space.
    An error reports the first entry at fault. Entries within PROB_TOL below
    0 are float noise and are held as 0.
    """

    theory: Theory
    probs: np.ndarray
    coords: np.ndarray
    registers: np.ndarray
    register_alphabets: tuple[int, ...]

    def __post_init__(self):
        # no dtype: register values of a float or bool dtype are refused below
        probs, coords, regs = np.asarray(self.probs), np.asarray(self.coords), np.asarray(self.registers)
        if probs.ndim != 1:
            raise ValueError(f"probabilities of shape {probs.shape}, not one per entry")
        object.__setattr__(self, "probs", _checked_probs(probs))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "registers", regs)
        n = len(self.probs)
        if not (coords.ndim == regs.ndim == 2 and len(coords) == len(regs) == n):
            raise ValueError(f"state coordinates {coords.shape} and register values {regs.shape} for {n} probabilities")
        n_regs = regs.shape[1]
        if n_regs == 0:
            raise ValueError("entries need at least one register")
        if n_regs > MAX_REGISTERS:
            raise ValueError(f"{n_regs} registers above MAX_REGISTERS = {MAX_REGISTERS}")
        if len(self.register_alphabets) != n_regs:
            raise ValueError(f"{len(self.register_alphabets)} alphabets for {n_regs} registers")
        try:
            alphabets = tuple(map(operator.index, self.register_alphabets))
        except TypeError:
            raise ValueError(f"register alphabets {tuple(self.register_alphabets)!r} are not all integers") from None
        object.__setattr__(self, "register_alphabets", alphabets)
        _check_alphabets(alphabets)
        _check_registers(regs, alphabets)
        _, ok = self.theory.variant.check_states(coords)
        if not ok:
            raise ValueError(f"invalid state in ensemble: {ok.detail}")
        for arr in (self.probs, self.coords, self.registers):
            arr.setflags(write=False)

    @property
    def n_registers(self) -> int:
        return len(self.register_alphabets)

    def register_index(self, registers: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
        """Each entry's values on ``registers`` as one row-major flat index,
        and the shape of the joint alphabet they index."""
        _require_registers(registers, self.n_registers)
        shape = tuple(self.register_alphabets[r] for r in registers)
        return _flat_index(self.registers[:, list(registers)], shape), shape


def build_ensemble(
    theory: Theory,
    entries: Iterable[tuple[float, State, Sequence[int]]],
    register_alphabets: Sequence[int] | None = None,
) -> CorrelatedEnsemble:
    """Stack ``(p, state, registers)`` tuples into an ensemble's three
    arrays; alphabets default to max value + 1. Only what the list needs to
    become arrays is checked here (at least one entry, one register count,
    integer register values, one state dimension): the ensemble checks the rest."""
    rows = list(entries)
    if not rows:
        raise ValueError("ensemble needs at least one entry")
    registers = [list(map(_register_value, regs)) for _, _, regs in rows]
    if len({len(r) for r in registers}) != 1:
        raise ValueError("entries disagree on register count")
    try:
        coords = np.array([state.coords for _, state, _ in rows])
    except ValueError as exc:  # ragged rows
        raise ValueError("ensemble states differ in dimension") from exc
    try:
        registers = np.array(registers, dtype=int)
    except OverflowError:
        value = next(r for regs in registers for r in regs if not -(2**63) <= r < 2**63)
        raise ValueError(f"register value {value} outside int64") from None
    if register_alphabets is None:
        register_alphabets = tuple(int(m) + 1 for m in registers.max(axis=0))
    probs = np.array([p for p, _, _ in rows], dtype=float)
    return CorrelatedEnsemble(theory, probs, coords, registers, register_alphabets)


@dataclass(frozen=True, eq=False)
class ObservableAssignment:
    """Pairs (measurement, register index); the indices must be distinct integers."""

    pairs: tuple[tuple[Measurement, int], ...]

    def __post_init__(self):
        pairs = tuple((m, _register_value(r, "register index")) for m, r in self.pairs)
        if not pairs:
            raise ValueError("assignment needs at least one pair")
        regs = [r for _, r in pairs]
        if len(set(regs)) != len(regs):
            raise ValueError("assignment registers must be distinct")
        object.__setattr__(self, "pairs", pairs)

    @cached_property
    def registers(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.pairs)

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        return tuple(f"{m.label}:{register_name(r)}" for m, r in self.pairs)

    def labels(self) -> tuple[str, ...]:
        """Each pair as "measurement:register", computed once per assignment."""
        return self._labels


@lru_cache(maxsize=32)
def _one_hot_rows(alphabet: int) -> np.ndarray:
    """The alphabet x alphabet identity, read-only: row a is value a's one-hot row."""
    eye = np.eye(alphabet)
    eye.setflags(write=False)
    return eye


def joint_outcome_table(ensemble: CorrelatedEnsemble, measurement: Measurement, register: int) -> np.ndarray:
    """Joint distribution p(x, a) of outcome x against register value a, as
    an (outcomes, alphabet) array.

    One product: the weighted outcome probabilities (outcomes x entries)
    times the entries' one-hot register values (entries x alphabet). The
    ensemble range-tested its register values when it was built; a register
    it does not have raises ValueError here. The table is checked as a
    distribution, so a measurement whose effects do not sum to the unit
    raises ValueError too.
    """
    _require_registers((register,), ensemble.n_registers)
    values = effect_values(measurement.effect_matrix, ensemble.coords)
    one_hot = _one_hot_rows(ensemble.register_alphabets[register])[ensemble.registers[:, register]]
    return info._as_prob_array((values * ensemble.probs) @ one_hot)


def register_marginal(ensemble: CorrelatedEnsemble, registers: Sequence[int] | None = None) -> np.ndarray:
    """Joint distribution of the given registers (all by default), one axis
    per register in the order given, checked as a distribution and read-only."""
    regs = tuple(registers) if registers is not None else tuple(range(ensemble.n_registers))
    index, shape = ensemble.register_index(regs)
    table = info._as_prob_array(np.bincount(index, weights=ensemble.probs, minlength=math.prod(shape)).reshape(shape))
    table.setflags(write=False)
    return table


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
    """``evaluate_icp``'s result: the gains I(X_i:A_i), the redundancy, their
    difference against log2(d), and the register marginal."""

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
    ``violated`` needs an exhaustive dimension search: when the search stopped
    early, d is only a lower bound and a negative margin is not certified.
    """
    gains = []
    for measurement, reg in assignment.pairs:
        gains.append(max(info._total_correlation(joint_outcome_table(ensemble, measurement, reg)), 0.0))
    marginal = register_marginal(ensemble, assignment.registers)
    redundancy = max(info._total_correlation(marginal), 0.0)
    extractable = _ordered_sum(gains) - redundancy
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
        violated=margin < -VIOLATION_TOL and dim_report.exhaustive,
        register_marginal=marginal,
    )


# --- extractable-information search ------------------------------------------

# golden-section line searches stop once their interval is this narrow
_RESOLUTION = 1e-4
# each strategy's descents: the first from the grid's best point, each later
# one from a random point
_DESCENTS = {"grid": 0, "coordinate-descent": 1, "random-restart": 21}


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings. ``max_evals`` caps the points a search scores."""

    strategy: str = "random-restart"  # a key of _DESCENTS
    max_evals: int = 60_000
    equal_gain_constraint: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in _DESCENTS:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        # operator.index rejects a float count or seed, and a seed of None
        if operator.index(self.max_evals) < 1:
            raise ValueError(f"max_evals must be at least 1, got {self.max_evals!r}")
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """The best ensemble ``maximize_extractable`` found, its report, whether the
    search converged (no budget check stopped it, which holds when it stopped
    at its ceiling after a full grid) and how many points it scored."""

    ensemble: CorrelatedEnsemble
    report: ICPReport
    converged: bool
    evaluations: int


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


# candidates scored per batch of the grid stage; bounds its temporary arrays,
# which hold the candidates on their last axis (``grid_scores``)
_GRID_CHUNK = 1024


class _SearchObjective:
    """The optimizer's objective on one theory and assignment, built once per
    search.

    An ensemble of the search holds one entry per register combination
    (``combos``, the full product in row-major order), so each pair's
    one-hot register matrix is fixed, and the register marginal is the entry
    weights reshaped to the alphabets. ``alphabets`` is indexed by register:
    register r takes the outcome count of the measurement assigned to it,
    however the pairs are listed. Every pair's effect rows are stacked
    in one (sum k_i, D) matrix, so each point takes all its effect values
    from one ``effect_values`` product, split into each pair's rows; state
    lines, weight lines and the grid's seed values share it. ``value`` runs
    the kernels of ``evaluate_icp`` in its order on bare arrays, distribution
    checks included, so it gives the same bits as the objective taken from
    ``evaluate_icp`` on the assembled ensemble; ``grid_scores`` scores many
    candidates at once to within a few ulps of ``value``.

    A descent line search moves either one state coordinate, with the entry
    weights fixed, or one weight, with the states fixed. ``state_line`` and
    ``weight_line`` are ``value`` with the part that cannot move along such a
    line computed once: the redundancy term of the fixed weights, or every
    pair's effect values on the fixed states. They run the same kernels on
    the same arrays, so each returns ``value``'s bits at every point and
    raises its errors.

    Along one line many tables repeat: a state line leaves every pair whose
    states it does not move with the same table, and a line through a
    vertex may not move the state at all. Given that line search's memo
    dict, ``value`` checks each distinct table and takes its information
    once (``_information``); a repeated table's value is looked up by its
    bytes. A line scores at most 25 points, so its memo holds at most
    25 (pairs + 1) values, and the memo ends with the line. The grid's
    near-top candidates repeat tables too, since they share seeds and weight
    families; the scan that rescores them with ``value`` has one memo of its
    own, which holds at most (pairs + 1) values per candidate and ends with
    the scan.
    """

    def __init__(self, theory: Theory, assignment: ObservableAssignment, equal_gain: bool):
        self.theory = theory
        self.assignment = assignment
        _require_registers(assignment.registers, len(assignment.pairs))
        sizes = [len(m.effects) for m, _ in assignment.pairs]
        self.alphabets = tuple(k for _, k in sorted(zip(assignment.registers, sizes)))
        # the ensemble's caps, before any array over the alphabets is built
        _check_alphabets(self.alphabets)
        self.combos = _register_product(self.alphabets)
        self.effects = np.concatenate([m.effect_matrix for m, _ in assignment.pairs])
        self.rows = [slice(end - k, end) for k, end in zip(sizes, itertools.accumulate(sizes))]
        self.onehots = [_one_hot_rows(self.alphabets[reg])[self.combos[:, reg]] for _, reg in assignment.pairs]
        self.penalized = equal_gain and len(self.onehots) > 1

    def _effect_values(self, coords: np.ndarray) -> list[np.ndarray]:
        """Each pair's ``effect_values`` on ``coords``: row views of one product."""
        values = effect_values(self.effects, coords)
        return [values[rows] for rows in self.rows]

    def _marginal(self, w: np.ndarray) -> np.ndarray:
        # the table register_marginal builds: axes in assignment order
        return np.ascontiguousarray(w.reshape(self.alphabets).transpose(self.assignment.registers))

    def _combine(self, gains, redundancy):
        value = _ordered_sum(gains) - redundancy
        if self.penalized:
            value -= 4.0 * (max(gains) - min(gains))
        return value

    @staticmethod
    def _information(table: np.ndarray, memo: dict | None = None) -> float:
        """max(I, 0) of a gain or redundancy table, after its distribution check.

        ``memo``, the dict of one line search or of the grid scan, keeps
        each checked table's value under its (shape, bytes) and returns it
        for a byte-identical table.
        Every table keyed here is a C-contiguous float64 array, so a table
        with the same key has the same values in the same layout, and a kept
        value has the bits a recomputation would give. A table that fails the
        check is never kept, so it raises on every visit.
        """
        if memo is None:
            return max(info._total_correlation(info._as_prob_array(table)), 0.0)
        key = (table.shape, table.tobytes())
        value = memo.get(key)
        if value is None:
            value = memo[key] = max(info._total_correlation(info._as_prob_array(table)), 0.0)
        return value

    def _redundancy(self, w: np.ndarray, memo: dict | None = None) -> float:
        return self._information(self._marginal(w), memo)

    def value(
        self,
        w: np.ndarray,
        coords: np.ndarray,
        values: list[np.ndarray] | None = None,
        redundancy: float | None = None,
        memo: dict | None = None,
    ) -> float:
        """Objective at entry probabilities ``w`` and state coordinates ``coords``.

        ``values`` (each pair's ``effect_values`` on ``coords``) and
        ``redundancy`` (``_redundancy(w)``) are computed here unless given;
        ``memo`` is the line search's or the grid scan's dict for
        ``_information``.
        """
        if values is None:
            values = self._effect_values(coords)
        gains = [self._information((v * w) @ onehot, memo) for v, onehot in zip(values, self.onehots)]
        if redundancy is None:
            redundancy = self._redundancy(w, memo)
        return self._combine(gains, redundancy)

    def state_line(self, w: np.ndarray):
        """``value`` as a function of ``coords`` alone, at the fixed weights ``w``."""
        return partial(self.value, w, redundancy=self._redundancy(w))

    def weight_line(self, coords: np.ndarray):
        """``value`` as a function of ``w`` alone, on the fixed states ``coords``."""
        return partial(self.value, coords=coords, values=self._effect_values(coords))

    def report(self, w: np.ndarray, coords: np.ndarray) -> tuple[CorrelatedEnsemble, ICPReport]:
        """The ensemble of a point, checked when built, and its ``evaluate_icp`` report."""
        ens = CorrelatedEnsemble(self.theory, w.copy(), coords.copy(), self.combos, self.alphabets)
        return ens, evaluate_icp(ens, self.assignment)

    def grid_scores(
        self, w: np.ndarray, seed_coords: np.ndarray, family: np.ndarray, choice: np.ndarray
    ) -> np.ndarray | None:
        """Objective of candidate c: weights ``w[family[c]]`` (F, C) and the
        states ``seed_coords[choice[c]]``, one per combination.

        Returns None when a seed's effect value or a candidate's table fails
        the checks of ``effect_values`` and ``info._as_prob_array``; the
        caller then scores the candidates one by one, which raises as they do.

        Each chunk's tables are one (k, a, n) array with the n candidates
        last, so every check, marginal and entropy sums leading axes slice by
        slice, vectorised over the candidates, not short inner axes candidate
        by candidate. Below 8 cells per table (every catalog pair) that adds
        in the order of an (n, k, a) stack's sums, so the scores keep its bits.
        """
        redundancy = np.array([self._redundancy(row) for row in w])
        try:
            seed_values = self._effect_values(seed_coords)
        except ValueError:
            return None
        scores = np.empty(len(choice))
        for start in range(0, len(choice), _GRID_CHUNK):
            part = slice(start, start + _GRID_CHUNK)
            weights = w[family[part]].T
            gains = []
            for values, onehot in zip(seed_values, self.onehots):
                # (a, C) times (k, C, n) weighted outcome values -> (k, a, n)
                tables = onehot.T @ (values[:, choice[part].T] * weights)
                if not info._is_distribution(tables, (0, 1)).all():
                    return None
                rows = info._plogp_bits_stacked(np.add.reduce(tables, 1), (0,))
                cols = info._plogp_bits_stacked(np.add.reduce(tables, 0), (0,))
                gains.append(np.maximum(rows + cols - info._plogp_bits_stacked(tables, (0, 1)), 0.0))
            value = sum(gains) - redundancy[family[part]]
            if self.penalized:
                value -= 4.0 * (np.max(gains, axis=0) - np.min(gains, axis=0))
            scores[part] = value
        return scores


def _grid_candidates(n_seeds: int, n_combo: int, n_families: int, max_evals: int):
    """The grid stage's candidates in scan order: every seed choice per
    combination, family by family, cut after ``max_evals``.

    Returns each candidate's family index and (n, n_combo) seed choice.
    """
    per_family = n_seeds**n_combo
    n = min(n_families * per_family, max_evals)
    # candidates per family, or all n when the cut comes inside the first one
    span = min(per_family, n)
    family, local = np.divmod(np.arange(n), span)
    # leading seed digits stay 0 when the cut comes inside the first family
    digits = 0
    while n_seeds**digits < span:
        digits += 1
    choice = np.zeros((n, n_combo), dtype=np.intp)
    if digits:
        choice[:, n_combo - digits :] = np.stack(np.unravel_index(local, (n_seeds,) * digits), axis=1)
    return family, choice


def _value_ceiling(theory: Theory, alphabets: tuple[int, ...]) -> float:
    """The objective's ceiling on ``theory``, min(sum_i log2 k_i, log2 |S|).

    Each gain is at most log2 k_i, and the redundancy and the equal-gain
    penalty are never negative. A theory with a classical carrier S
    (``classical_carrier``) also obeys the chain ``proof_chain_check``
    replays, sum_i I(X_i:A_i) - I(A_1:...:A_n) <= I(S:A_1...A_n) <= H(S)
    <= log2 |S|; any other theory has no second term. It is log2 |S|, never
    log2 d: hbit's carrier has |S| = 4 > d = 2, so its searches must be free
    to pass log2 d, and ``observed_dimension`` may give only a lower bound on
    d. Quantum takes no Holevo term log2 D while ``effect_values`` snaps
    values within MEMBERSHIP_TOL of 0 or 1: a penalty-off qubit search would
    stop at a snapped 1.0, which hides that defect rather than mending it.
    The first term is ROADMAP item 6's bound sum_i log2 k_i - U at U = 0
    (Maassen and Uffink); that bound can later replace it."""
    carrier = theory.variant.classical_carrier
    states = math.inf if carrier is None else math.log2(len(carrier))
    return min(_ordered_sum(math.log2(k) for k in alphabets), states)


def _golden_max(fun, lo: float, hi: float, points: int):
    """Golden-section maximization including the interval endpoints, in at
    most ``points`` (>= 4) scored points. Returns the best point, its value
    and whether the interval shrank to ``_RESOLUTION``."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    pts = {lo: fun(lo), hi: fun(hi)}
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(points - 4):
        if b - a <= _RESOLUTION:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    candidates = [(fc, c), (fd, d)] + [(v, k) for k, v in pts.items()]
    best_val, best_x = max(candidates, key=lambda t: t[0])
    return best_x, best_val, b - a <= _RESOLUTION


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

    ``evaluations`` counts every scored point once: the grid's candidates,
    each start point and each line-search point. It never exceeds
    ``max_evals``: a start point is scored only while a point is left, a
    line search begins only when its 4 opening points fit, and its steps
    stop when no point is left. Descent also stops, before a start point or
    a line search, once the best value reaches the theory's ceiling
    (``_value_ceiling``), which no point can pass: sum_i log2 k_i, or log2 |S|
    when the theory has a classical carrier S of fewer states (log2 |S|, not
    log2 d, since |S| may exceed d). ``converged`` is True when the grid
    scored every candidate and no budget check cut descent short, so also
    when descent stopped at the ceiling after a full grid. Points are scored
    on bare arrays with ``_SearchObjective.value``, which gives the bits of the
    objective taken from an ``evaluate_icp`` report; only the winner becomes
    an ensemble, checked like every other, with its report. Descent
    alternates a state phase and a weight phase, and one loop runs the line
    searches of both. Each phase builds one ``_SearchObjective.state_line``
    or ``weight_line`` scorer once the budget check lets its first line
    search run; a scorer returns ``value``'s bits at every point, so an
    accepted move keeps the value its line search found. Each line search
    gives its scorer a fresh memo, so a table seen earlier on the same line
    is checked and its information taken only once; such a point still
    builds its tables and counts in ``evaluations``. The scan that rescores
    the grid's near-top candidates with ``value`` has one memo of its own in
    the same way. No memo outlives its line or that scan, so repeated
    searches do the same work.
    """
    config = config or OptimizerConfig()
    space = theory.variant
    sp, (lo, hi) = space.search_params, space.search_bounds
    objective = _SearchObjective(theory, assignment, config.equal_gain_constraint)
    n_combo = len(objective.combos)

    # grid stage: extremal states x register coupling families, scored at
    # once; the batched scores differ from ``value`` by a few ulps, so every
    # candidate near the top is scored exactly and scanned in grid order,
    # with one memo that ends with the scan
    seeds = space.search_seeds([m for m, _ in assignment.pairs])
    seed_coords = np.array([space.build(params) for params in seeds])
    families = _register_families(objective.alphabets)
    w_families = np.array([_normalized(weights) for weights in families])
    fam, choice = _grid_candidates(len(seeds), n_combo, len(families), config.max_evals)
    scores = objective.grid_scores(w_families, seed_coords, fam, choice)
    scan = range(len(choice)) if scores is None else np.flatnonzero(scores >= scores.max() - 1e-12)
    best, memo = None, {}
    for c in scan:
        val = objective.value(w_families[fam[c]], seed_coords[choice[c]], memo=memo)
        if best is None or val > best[0] + 1e-15:
            best = (val, c)
    del memo
    best_val, c = best
    best_point = (w_families[fam[c]], seed_coords[choice[c]])
    evaluations = len(choice)
    stopped = evaluations < len(families) * len(seeds) ** n_combo
    ceiling = _value_ceiling(theory, objective.alphabets)

    def descend(weights: np.ndarray, state_params: np.ndarray):
        """The descent's best (value, weights, coords), and whether a budget
        check stopped it; the ceiling check comes first and is no budget stop."""
        nonlocal evaluations
        coords = np.array([space.build(params) for params in state_params])
        evaluations += 1
        current = (objective.value(_normalized(weights), coords), _normalized(weights), coords.copy())

        def move_state(place, x):
            idx, j = place
            state_params[idx, j] = x
            coords[idx] = space.build(state_params[idx])
            return coords

        def move_weight(place, x):
            weights[place] = x
            return _normalized(weights)

        # a phase: its line scorer's factory, the move that sets a line's point
        # and returns the scorer's argument, the arrays the move writes (in the
        # row of the line's first index), its lines and their bounds
        phases = (
            (lambda: objective.state_line(_normalized(weights)), move_state, (state_params, coords),
             list(np.ndindex(n_combo, sp)), (lo, hi)),
            (lambda: objective.weight_line(coords), move_weight, (weights,), list(np.ndindex(n_combo)), (0.0, 1.0)),
        )
        for _ in range(12):
            improved = False
            for make_score, move, arrays, places, bounds in phases:
                # a phase builds its line scorer after the budget check, so a
                # phase that runs no line search pays nothing for it
                score = None
                for place in places:
                    if current[0] >= ceiling or config.max_evals - evaluations < 4:
                        return current, current[0] < ceiling
                    score = score or make_score()
                    row = place[0]
                    saved = [arr[row].copy() for arr in arrays]
                    memo = {}

                    def line(x):
                        nonlocal evaluations
                        evaluations += 1
                        val = score(move(place, x), memo=memo)
                        for arr, base in zip(arrays, saved):
                            arr[row] = base
                        return val

                    x, val, done = _golden_max(line, *bounds, config.max_evals - evaluations)
                    if val > current[0] + 1e-12:
                        move(place, x)
                        current = (val, _normalized(weights), coords.copy())
                        improved = True
                    if not done:
                        return current, True
            if not improved:
                break
        return current, False

    rng = None
    for start in range(_DESCENTS[config.strategy]):
        if best_val >= ceiling:
            break
        if evaluations >= config.max_evals:
            stopped = True
            break
        if start == 0:
            weights, state_params = families[fam[c]], np.array([seeds[i] for i in choice[c]])
        else:
            # a random start point, drawn only once its descent is to run
            rng = rng or np.random.default_rng(config.seed)
            weights, state_params = info._dirichlet_ones(rng, n_combo), rng.uniform(lo, hi, size=(n_combo, sp))
        (val, *point), cut = descend(weights.copy(), np.array(state_params, dtype=float))
        stopped |= cut
        # deterministic merge: strictly better wins, ties keep the earlier start
        if val > best_val + 1e-15:
            best_val, best_point = val, point
    return OptimizationResult(*objective.report(*best_point), not stopped, evaluations)
