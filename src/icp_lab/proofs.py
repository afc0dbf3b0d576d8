"""Entropy axiom stress tests and step-by-step bound derivation ledgers.

The derivation of the information bound uses five entropy properties:

  (i)   I(S:F) = H(S) - H(S|F)            (definition consistency)
  (ii)  H(S) <= log2 d                     (dimension bound)
  (iii) H(S|C) >= 0 for classical C        (no negative classical surprise)
  (iv)  H(SA) + H(SB) >= H(SAB) + H(S)     (strong subadditivity form)
  (v)   I(S:A) >= I(X:A)                   (measurement data processing)

``axiom_suite`` probes each of them on seeded random instances for Shannon or
von Neumann entropy. ``proof_chain_check`` replays the full derivation on a
concrete ensemble and records every identity and inequality as a signed
margin; a failed step on an exotic theory is data, not an error.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .engine import CorrelatedEnsemble, ObservableAssignment, register_name
from .gpt import (
    Polytope,
    Quantum,
    RestrictedClassical,
    coords_to_density,
    observed_dimension,
    state_space_dimension,
)
from .info import (
    AXIOM_TOL,
    IDENTITY_TOL,
    MEMBERSHIP_TOL,
    AxiomReport,
    _plogp_bits_rows,
    _plogp_bits_stacked,
    _total_correlation_rows,
    _total_correlation_stacked,
    _von_neumann_rows,
)
from .sampling import (
    _complex_gaussian,
    _density_draws,
    _density_from_draws,
    _dirichlet_ones,
    _haar_from_gaussian,
    _stacked_density_draws,
)


# --- random instances per axiom ----------------------------------------------
#
# Each axiom is a draw and an evaluation. A draw takes one trial's random
# numbers from the generator and returns them as arrays; an evaluation takes a
# stack of trials of one shape, each array with a leading trial axis, and
# returns every trial's violation before the clip at 0. The arithmetic is that
# of a single trial done on every trial at once, in the same order, so a
# trial's value does not depend on the stack it is evaluated in.

def _draw_joint(*highs: int) -> Callable[[np.random.Generator], tuple[np.ndarray, ...]]:
    """The draw of one Dirichlet table, its axis lengths drawn from [2, high)."""

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        shape = tuple(int(rng.integers(2, high)) for high in highs)
        return (_dirichlet_ones(rng, math.prod(shape)).reshape(shape),)

    return draw


def _draw_channel(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    s, a, x = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    joint = _dirichlet_ones(rng, s * a).reshape(s, a)
    return joint, _dirichlet_ones(rng, x, s)  # p(x|s) rows


def _draw_cq(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    dim, nc = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    return (_dirichlet_ones(rng, nc), *_stacked_density_draws(rng, dim, nc))


def _draw_density(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    return _density_draws(rng, int(rng.integers(2, 9)))


def _draw_cq_grid(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    # S quantum, A and B classical: rho = sum p_ab |a><a| x |b><b| x rho_ab
    p = _dirichlet_ones(rng, 4).reshape(2, 2)
    eigs, g = _stacked_density_draws(rng, 2, 4)
    return p, eigs.reshape(2, 2, 2), g.reshape(2, 2, 2, 2)


def _draw_cq_measured(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    probs, eigs, g = _draw_cq(rng)
    return probs, eigs, g, _complex_gaussian(rng, eigs.shape[1])


def _larger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's ``max(a, b)`` on every trial: b only where b > a."""
    return np.where(b > a, b, a)


def _shannon_axiom_i(table: np.ndarray) -> np.ndarray:
    pf = table.sum(axis=1)
    direct = np.zeros(len(table))
    for j in range(table.shape[2]):
        h = _plogp_bits_rows(table[:, :, j] / pf[:, j, None])
        direct = np.where(pf[:, j] > 0, direct + pf[:, j] * h, direct)
    via_joint = _plogp_bits_rows(table) - _plogp_bits_rows(pf)
    i_joint = _total_correlation_rows(table)
    i_def = _plogp_bits_rows(table.sum(axis=2)) - direct
    return _larger(np.abs(direct - via_joint), np.abs(i_joint - i_def))


def _shannon_axiom_ii(p: np.ndarray) -> np.ndarray:
    return _plogp_bits_rows(p) - math.log2(p.shape[1])


def _shannon_axiom_iii(table: np.ndarray) -> np.ndarray:
    return -(_plogp_bits_rows(table) - _plogp_bits_rows(table.sum(axis=1)))


def _shannon_axiom_iv(t: np.ndarray) -> np.ndarray:
    h_sa = _plogp_bits_rows(t.sum(axis=3))
    h_sb = _plogp_bits_rows(t.sum(axis=2))
    h_sab = _plogp_bits_rows(t)
    h_s = _plogp_bits_rows(t.sum(axis=(2, 3)))
    return h_sab + h_s - h_sa - h_sb


def _shannon_axiom_v(joint: np.ndarray, channel: np.ndarray) -> np.ndarray:
    out = np.swapaxes(channel, 1, 2) @ joint
    return _total_correlation_rows(out) - _total_correlation_rows(joint)


def _weighted_sum(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_c p_c values_c of every trial, summed left to right from 0."""
    weights = probs.reshape(probs.shape + (1,) * (values.ndim - probs.ndim))
    return sum(weights[:, c] * values[:, c] for c in range(probs.shape[1]))


def _vn_axiom_i(probs: np.ndarray, eigs: np.ndarray, g: np.ndarray) -> np.ndarray:
    rhos = _density_from_draws(eigs, g)
    cond_direct = _weighted_sum(probs, _von_neumann_rows(rhos))
    h_p = _plogp_bits_rows(probs)
    h_sf = h_p + cond_direct
    cond_via_joint = h_sf - h_p
    h_avg = _von_neumann_rows(_weighted_sum(probs, rhos))
    i_joint = h_avg + h_p - h_sf
    i_def = h_avg - cond_direct
    return _larger(np.abs(cond_direct - cond_via_joint), np.abs(i_joint - i_def))


def _vn_axiom_ii(eigs: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _von_neumann_rows(_density_from_draws(eigs, g)) - math.log2(eigs.shape[1])


def _vn_axiom_iii(probs: np.ndarray, eigs: np.ndarray, g: np.ndarray) -> np.ndarray:
    return -_weighted_sum(probs, _von_neumann_rows(_density_from_draws(eigs, g)))


def _vn_axiom_iv(p: np.ndarray, eigs: np.ndarray, g: np.ndarray) -> np.ndarray:
    rhos = _density_from_draws(eigs, g)
    h = _von_neumann_rows(rhos)
    h_sab = _plogp_bits_rows(p) + sum(p[:, a, b] * h[:, a, b] for a in range(2) for b in range(2))
    pa, pb = p.sum(axis=2), p.sum(axis=1)
    blocks = p[..., None, None] * rhos  # p_ab rho_ab
    avg_a = sum(blocks[:, :, b] for b in range(2)) / pa[:, :, None, None]
    avg_b = sum(blocks[:, a] for a in range(2)) / pb[:, :, None, None]
    h_sa = _plogp_bits_rows(pa) + _weighted_sum(pa, _von_neumann_rows(avg_a))
    h_sb = _plogp_bits_rows(pb) + _weighted_sum(pb, _von_neumann_rows(avg_b))
    h_s = _von_neumann_rows(sum(blocks[:, a, b] for a in range(2) for b in range(2)))
    return h_sab + h_s - h_sa - h_sb


def _vn_axiom_v(probs: np.ndarray, eigs: np.ndarray, g: np.ndarray, g_meas: np.ndarray) -> np.ndarray:
    rhos = _density_from_draws(eigs, g)
    holevo = _von_neumann_rows(_weighted_sum(probs, rhos)) - _weighted_sum(probs, _von_neumann_rows(rhos))
    # projector i of a trial is the outer product of column i of its unitary
    cols = np.swapaxes(_haar_from_gaussian(g_meas), 1, 2)
    projectors = cols[:, :, :, None] * cols.conj()[:, :, None, :]
    traces = np.trace(projectors[:, :, None] @ rhos[:, None], axis1=3, axis2=4).real
    out = np.clip(probs[:, None, :] * traces, 0.0, None)
    return _total_correlation_rows(out) - holevo


_AXIOMS: dict[str, dict[str, tuple[Callable, Callable[..., np.ndarray]]]] = {
    "shannon": {
        "i": (_draw_joint(5, 5), _shannon_axiom_i),
        "ii": (_draw_joint(9), _shannon_axiom_ii),
        "iii": (_draw_joint(5, 5), _shannon_axiom_iii),
        "iv": (_draw_joint(4, 4, 4), _shannon_axiom_iv),
        "v": (_draw_channel, _shannon_axiom_v),
    },
    "von-neumann": {
        "i": (_draw_cq, _vn_axiom_i),
        "ii": (_draw_density, _vn_axiom_ii),
        "iii": (_draw_cq, _vn_axiom_iii),
        "iv": (_draw_cq_grid, _vn_axiom_iv),
        "v": (_draw_cq_measured, _vn_axiom_v),
    },
}

_N_BLOCKS = 64  # fixed blocks with per-block seeds fix the results
# trials drawn before they are evaluated: bounds the memory a suite holds
# while its shape groups stay large enough to amortise each stacked call
_CHUNK = 256


def _draw_trials(
    draw: Callable, axiom_seed: np.random.SeedSequence, trials: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """Every trial's draws in order: block i of the 64 takes its own child seed
    and holds trials // 64 trials, one more when i < trials % 64."""
    for i, block_seed in enumerate(axiom_seed.spawn(_N_BLOCKS)):
        rng = np.random.default_rng(block_seed)
        for _ in range(trials // _N_BLOCKS + (i < trials % _N_BLOCKS)):
            yield draw(rng)


def _evaluate_trials(evaluate: Callable[..., np.ndarray], drawn: list[tuple]) -> np.ndarray:
    """Every trial's value in draw order, each group of trials whose arrays
    share their shapes evaluated as one stack."""
    groups: dict[tuple, list[int]] = {}
    for i, arrays in enumerate(drawn):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(i)
    values = np.empty(len(drawn))
    for index in groups.values():
        values[index] = evaluate(*(np.array(stack) for stack in zip(*(drawn[i] for i in index))))
    return values


def axiom_suite(entropy_kind: str = "shannon", trials: int = 1000, seed: int = 0) -> list[AxiomReport]:
    """Stress axioms (i)-(v) on seeded random instances; passed means
    the worst violation stays below 1e-9.

    Each axiom draws its trials in order and evaluates them stacked by shape,
    256 drawn trials at a time; a trial's value does not depend on its stack.
    The draw order is part of the contract: the 64 blocks, their child seeds
    and the order of draws within a trial fix every reported value, so
    ``scan axioms`` output changes with any change of it.
    """
    if entropy_kind not in _AXIOMS:
        raise ValueError(f"unknown entropy kind {entropy_kind!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    reports = []
    root = np.random.SeedSequence(seed)
    axiom_seeds = root.spawn(len(_AXIOMS[entropy_kind]))
    for (name, (draw, evaluate)), axiom_seed in zip(_AXIOMS[entropy_kind].items(), axiom_seeds):
        drawn = _draw_trials(draw, axiom_seed, trials)
        worst = 0.0
        while chunk := list(itertools.islice(drawn, _CHUNK)):
            values = _evaluate_trials(evaluate, chunk)
            # a running max(worst, value) from 0.0: only values > 0 count, NaN never
            worst = max(worst, float(values[values > 0.0].max(initial=0.0)))
        reports.append(AxiomReport(name, entropy_kind, trials, worst, worst <= AXIOM_TOL))
    return reports


# --- derivation ledger --------------------------------------------------------

class ChainNotApplicable(ValueError):
    """The ensemble's theory has no classical or quantum carrier for S."""


@dataclass(frozen=True)
class ChainStep:
    name: str
    kind: str  # "identity" | "inequality"
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        # identities: -|lhs-rhs| (0 when exact); inequalities: rhs - lhs for lhs <= rhs
        if self.kind == "identity":
            return -abs(self.lhs - self.rhs)
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
        }


@dataclass(frozen=True, eq=False)
class ProofChainLedger:
    steps: tuple[ChainStep, ...]
    observed_dim: int
    bound: float
    extractable: float

    def min_inequality_margin(self) -> float:
        return min(s.margin for s in self.steps if s.kind == "inequality")

    def max_identity_error(self) -> float:
        return max(abs(s.lhs - s.rhs) for s in self.steps if s.kind == "identity")

    def all_hold(self, ineq_tol: float = AXIOM_TOL, id_tol: float = IDENTITY_TOL) -> bool:
        return (
            self.min_inequality_margin() >= -ineq_tol
            and self.max_identity_error() <= id_tol
        )

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "observed_dimension": self.observed_dim,
            "bound": self.bound,
            "extractable": self.extractable,
        }


class _LedgerLayout:
    """Where the marginals the ledger reads sit in one zero-padded stack.

    The ledger reads the register subsets {}, the prefixes A_1..A_k and the
    singletons A_k, at most 2n of the 2^n. The register table has shape
    (alphabet,) * n with ``columns`` values per cell. Row i of the stack
    (subsets, width, columns) holds the marginal on subset i, row-major over
    its registers and zero past its alphabet ** |subset| cells; value j of
    table cell c adds into flat cell ``scatter[c, j, i]``. The arrays are
    read-only.
    """

    def __init__(self, alphabet: int, n: int, columns: int):
        masks = sorted({0} | {(1 << k) - 1 for k in range(1, n + 1)} | {1 << k for k in range(n)})
        # a kept register's stride is alphabet ** (kept registers after it); a dropped one's is 0
        strides = np.array(
            [[alphabet ** (m >> k + 1).bit_count() if m >> k & 1 else 0 for k in range(n)] for m in masks]
        )
        self.alphabet, self.width = alphabet, alphabet**n  # the widest marginal is the whole table
        cells = strides @ np.indices((alphabet,) * n).reshape(n, -1)
        rows = np.arange(len(masks))[:, None] * self.width + cells
        self.scatter = (rows.T[:, None, :] * columns + np.arange(columns)[:, None]).ravel()
        # the entropies' keys: mask << 1 | 1 of every subset, then mask << 1
        self.codes = np.array(masks) << 1 | np.array([[1], [0]])
        self.singles = np.array([masks.index(1 << k) for k in range(n)])  # the row of each A_k
        for arr in (self.codes, self.scatter, self.singles):
            arr.setflags(write=False)


# one layout per table shape
_ledger_layout = functools.lru_cache(maxsize=32)(_LedgerLayout)


def _register_marginals(
    ensemble: CorrelatedEnsemble, registers: tuple[int, ...], values: np.ndarray, copies: int = 1
) -> tuple[np.ndarray, _LedgerLayout]:
    """The marginals the ledger reads of the register table, as a (copies,
    subsets, width, columns) stack whose copies past the first are zeros,
    and the stack's layout.

    The table sums each entry's ``values`` row into the cell of its values
    on ``registers``. It is laid out over (a,) * n with a the largest of
    their alphabets; cells past a register's own alphabet stay 0.
    """
    n, columns = len(registers), values.shape[1]
    alphabet = max(ensemble.register_alphabets[r] for r in registers)
    layout = _ledger_layout(alphabet, n, columns)
    index = np.ravel_multi_index(ensemble.registers[:, list(registers)].T, (alphabet,) * n)
    flat = (index[:, None] * columns + np.arange(columns)).ravel()
    table = np.bincount(flat, values.ravel(), minlength=layout.width * columns)
    rows = layout.codes.shape[1]
    stack = np.bincount(layout.scatter, table.repeat(rows), minlength=copies * rows * layout.width * columns)
    return stack.reshape(copies, rows, layout.width, columns), layout


class _ChainData:
    """Every entropy and gain the ledger reads, taken in one pass."""

    def __init__(self, layout: _LedgerLayout, entropies: np.ndarray, outcomes: np.ndarray):
        # entropies (2, subsets) in the layout's order; outcomes (n, x, a): each
        # gain's outcome-register table, zero-padded to a common shape
        n = len(layout.singles)
        lookup = np.full(2 << n, np.nan)
        lookup[layout.codes] = entropies
        self._entropies = lookup.tolist()
        self.gains = _total_correlation_stacked(outcomes).tolist()

    def ent(self, mask: int, with_s: bool) -> float:
        """Entropy of S (optional) together with the registers in ``mask``."""
        return self._entropies[mask << 1 | with_s]


def _effect_stack(assignment: ObservableAssignment) -> np.ndarray:
    """Every assigned measurement's effect rows, zero-padded to (n, outcomes, D)."""
    matrices = [m.effect_matrix for m, _ in assignment.pairs]
    out = np.zeros((len(matrices), max(len(e) for e in matrices), matrices[0].shape[1]))
    for k, e in enumerate(matrices):
        out[k, : len(e)] = e
    return out


class _ClassicalChainData(_ChainData):
    """Joint table over (S, registers) with measurement channels on S.

    Register subsets are bitmasks over the positions in the assignment.
    """

    def __init__(self, ensemble: CorrelatedEnsemble, assignment: ObservableAssignment):
        theory = ensemble.theory
        v = theory.variant
        if isinstance(v, RestrictedClassical):
            basis = np.eye(v.internal_states)
            weights = ensemble.coords
        elif isinstance(v, Polytope):
            verts = v.vertex_matrix
            if len(verts) != state_space_dimension(theory) + 1:
                raise ChainNotApplicable(
                    f"{theory.theory_id!r} state space is not a simplex"
                )
            basis = verts
            # augment with a normalization column so the weights are barycentric
            target = np.hstack([ensemble.coords, np.ones((len(ensemble.probs), 1))])
            weights = target @ v.barycentric_map.T
            recon = weights @ verts
            if np.max(np.abs(recon - ensemble.coords)) > MEMBERSHIP_TOL:
                raise ChainNotApplicable("states do not decompose over the vertices")
            if weights.min() < -MEMBERSHIP_TOL:
                raise ChainNotApplicable("states fall outside the vertex simplex")
        else:
            raise ChainNotApplicable(f"{theory.theory_id!r} has no classical carrier")
        # the (registers, S) table: entry masses on S in their register cells
        mass = ensemble.probs[:, None] * np.clip(weights, 0.0, None)
        # copy 0 holds the marginals with S; copy 1, summed over S, those without
        stack, layout = _register_marginals(ensemble, assignment.registers, mass, copies=2)
        stack[1, :, :, 0] = stack[0].sum(axis=2)
        # the (S, A_k) marginals give the gains: channel (x, s) @ table (s, a)
        s_a = stack[0, layout.singles, : layout.alphabet]
        channels = np.clip(_effect_stack(assignment) @ basis.T, 0.0, 1.0)
        super().__init__(layout, _plogp_bits_stacked(stack, (2, 3)), channels @ np.swapaxes(s_a, 1, 2))


class _QuantumChainData(_ChainData):
    """Classical-quantum blocks p_c, p_c rho_c indexed by register values.

    The blocks p_c rho_c are kept in state coordinates, 2 d^2 per cell.
    Register subsets are bitmasks over the positions in the assignment.
    """

    def __init__(self, ensemble: CorrelatedEnsemble, assignment: ObservableAssignment):
        v = ensemble.theory.variant
        if not isinstance(v, Quantum):
            raise ChainNotApplicable("not a quantum theory")
        # each cell holds p_c, then the coordinates of p_c rho_c
        p = ensemble.probs[:, None]
        (marginals,), layout = _register_marginals(
            ensemble, assignment.registers, np.hstack([p, p * ensemble.coords])
        )
        d, rows = v.hilbert_dim, len(marginals)
        # H(p) + sum_c p_c S(rho_c) is the entropy of the block-diagonal cq
        # state, whose spectrum is that of the blocks p_c rho_c; zero blocks pad
        spectra = np.zeros((2, rows, layout.width * d))
        spectra[0] = np.linalg.eigvalsh(coords_to_density(marginals[:, :, 1:], d)).reshape(rows, -1)
        spectra[1, :, : layout.width] = marginals[:, :, 0]
        # Tr(E w_a) is the dot product of their coordinates
        w_a = marginals[layout.singles, : layout.alphabet, 1:]
        outcomes = np.clip(_effect_stack(assignment) @ np.swapaxes(w_a, 1, 2), 0.0, None)
        super().__init__(layout, _plogp_bits_stacked(spectra, (2,)), outcomes)


def proof_chain_check(
    ensemble: CorrelatedEnsemble, assignment: ObservableAssignment
) -> ProofChainLedger:
    """Replay the bound derivation step by step on a concrete ensemble.

    Applicable when the system has a classical carrier (a simplex state
    space, possibly with restricted readouts) or is quantum; otherwise
    raises ChainNotApplicable. Every step is recorded with a signed margin;
    negative margins on exotic theories show which step carries the blame.

    The steps read entropies of S and the register subsets {}, A_1..A_k and
    A_k. They come from one pass over the ensemble: one table, one stack of
    its marginals, one entropy-kernel call (one stacked ``eigvalsh`` for the
    quantum blocks) and one stacked call for the gains. They agree with the
    per-subset formulas, one marginal and one kernel call each, to 1e-12.
    """
    registers = assignment.registers
    v = ensemble.theory.variant
    if isinstance(v, Quantum):
        data: _ChainData = _QuantumChainData(ensemble, assignment)
    else:
        data = _ClassicalChainData(ensemble, assignment)

    n = len(registers)
    # register subsets are bitmasks over assignment positions
    every = (1 << n) - 1
    names = [register_name(r) for r in registers]
    all_regs = "".join(names)

    def i_s(mask: int) -> float:
        return data.ent(0, True) + data.ent(mask, False) - data.ent(mask, True)

    def i_cond(k: int) -> float:
        # I(S:A_k | A_1..A_{k-1})
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        return (
            data.ent(prefix, True)
            + data.ent(with_k, False)
            - data.ent(with_k, True)
            - data.ent(prefix, False)
        )

    def i_prefix_s(k: int) -> float:
        # I(A_1..A_{k-1} S : A_k)
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        return data.ent(prefix, True) + data.ent(1 << k, False) - data.ent(with_k, True)

    def i_prefix(k: int) -> float:
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        return data.ent(prefix, False) + data.ent(1 << k, False) - data.ent(with_k, False)

    steps: list[ChainStep] = []
    h_s = data.ent(0, True)
    h_s_given = data.ent(every, True) - data.ent(every, False)
    i_s_all = i_s(every)
    steps.append(
        ChainStep(f"I(S:{all_regs}) = H(S) - H(S|{all_regs})", "identity", i_s_all, h_s - h_s_given)
    )
    steps.append(ChainStep(f"H(S|{all_regs}) >= 0", "inequality", 0.0, h_s_given))

    dim_report = observed_dimension(ensemble.theory)
    bound = math.log2(dim_report.d)
    steps.append(ChainStep("H(S) <= log2(d)", "inequality", h_s, bound))

    chain_sum = i_s(1) + sum(i_cond(k) for k in range(1, n))
    steps.append(
        ChainStep(f"I(S:{all_regs}) = sum of conditional terms", "identity", i_s_all, chain_sum)
    )
    for k in range(1, n):
        prefix = "".join(names[:k])
        steps.append(
            ChainStep(
                f"I(S:{names[k]}|{prefix}) = I({prefix}S:{names[k]}) - I({prefix}:{names[k]})",
                "identity",
                i_cond(k),
                i_prefix_s(k) - i_prefix(k),
            )
        )
        steps.append(
            ChainStep(
                f"I({prefix}S:{names[k]}) >= I(S:{names[k]})",
                "inequality",
                i_s(1 << k),
                i_prefix_s(k),
            )
        )
    if n > 1:
        total_corr = sum(data.ent(1 << k, False) for k in range(n)) - data.ent(every, False)
        steps.append(
            ChainStep(
                "sum of prefix correlations = total correlation",
                "identity",
                sum(i_prefix(k) for k in range(1, n)),
                total_corr,
            )
        )
    else:
        total_corr = 0.0

    gains = data.gains
    for position, ((measurement, _), gain) in enumerate(zip(assignment.pairs, gains)):
        steps.append(
            ChainStep(
                f"I(S:{names[position]}) >= I({measurement.label}:{names[position]})",
                "inequality",
                gain,
                i_s(1 << position),
            )
        )
    extractable = sum(gains) - total_corr
    steps.append(
        ChainStep(
            f"sum of gains - I({':'.join(names)}) <= log2(d)",
            "inequality",
            extractable,
            bound,
        )
    )
    return ProofChainLedger(tuple(steps), dim_report.d, bound, extractable)
