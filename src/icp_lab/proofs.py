"""Step-by-step bound derivation ledgers.

``proof_chain_check`` replays the derivation of the information bound on a
concrete ensemble and records every identity and inequality as a signed
margin; a failed step on an exotic theory is data, not an error. The stress
tests of the five entropy properties the derivation uses live in ``axioms``;
``axiom_suite`` is read here too, through that module.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import axioms
from .engine import CorrelatedEnsemble, ObservableAssignment, _flat_index, _register_product, _require_registers, register_name
from .gpt import Theory, coords_to_density, observed_dimension
from .info import (
    AXIOM_TOL,
    IDENTITY_TOL,
    _ordered_sum,
    _plogp_bits_stacked,
    _total_correlation_stacked,
)

# the suite stays readable here, where perfbench's tracer looks it up
axiom_suite = axioms.axiom_suite


# --- derivation ledger --------------------------------------------------------

class ChainStep(NamedTuple):
    """One step of the derivation ledger: an identity lhs = rhs or an inequality
    lhs <= rhs, with its signed margin. A named tuple: immutable, and built
    in one call, where a frozen dataclass sets each field on its own."""

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
    """Every step of ``proof_chain_check`` in derivation order, with the observed
    dimension, its bound log2(d) and the extractable information."""

    steps: tuple[ChainStep, ...]
    observed_dim: int
    bound: float
    extractable: float

    def min_inequality_margin(self) -> float:
        return min(s.margin for s in self.steps if s.kind == "inequality")

    def max_identity_error(self) -> float:
        return max(abs(s.lhs - s.rhs) for s in self.steps if s.kind == "identity")

    def all_hold(self) -> bool:
        """Every inequality holds to ``AXIOM_TOL`` and every identity to ``IDENTITY_TOL``."""
        return self.min_inequality_margin() >= -AXIOM_TOL and self.max_identity_error() <= IDENTITY_TOL

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
        cells = strides @ _register_product((alphabet,) * n).T
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
    their alphabets; cells past a register's own alphabet stay 0. A
    register the ensemble does not have raises ValueError.
    """
    _require_registers(registers, ensemble.n_registers)
    n, columns = len(registers), values.shape[1]
    alphabet = max(ensemble.register_alphabets[r] for r in registers)
    layout = _ledger_layout(alphabet, n, columns)
    index = _flat_index(ensemble.registers[:, list(registers)], (alphabet,) * n)
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


class _LedgerPlan:
    """What a ledger reads of its assignment alone: the read-only
    ``_effect_stack`` and every step's name and kind, in step order."""

    def __init__(self, assignment: ObservableAssignment):
        self.effects = _effect_stack(assignment)
        self.effects.setflags(write=False)
        names = [register_name(r) for r in assignment.registers]
        regs = "".join(names)
        steps = [
            (f"I(S:{regs}) = H(S) - H(S|{regs})", "identity"),
            (f"H(S|{regs}) >= 0", "inequality"),
            ("H(S) <= log2(d)", "inequality"),
            (f"I(S:{regs}) = sum of conditional terms", "identity"),
        ]
        for k in range(1, len(names)):
            prefix, a_k = "".join(names[:k]), names[k]
            steps += [
                (f"I(S:{a_k}|{prefix}) = I({prefix}S:{a_k}) - I({prefix}:{a_k})", "identity"),
                (f"I({prefix}S:{a_k}) >= I(S:{a_k})", "inequality"),
            ]
        if len(names) > 1:
            steps.append(("sum of prefix correlations = total correlation", "identity"))
        steps += [
            (f"I(S:{a_k}) >= I({m.label}:{a_k})", "inequality") for (m, _), a_k in zip(assignment.pairs, names)
        ]
        steps.append((f"sum of gains - I({':'.join(names)}) <= log2(d)", "inequality"))
        self.names, self.kinds = zip(*steps)


# one plan per assignment object (assignments compare by identity)
_ledger_plan = functools.lru_cache(maxsize=64)(_LedgerPlan)


@functools.lru_cache(maxsize=64)
def _classical_channels(assignment: ObservableAssignment, theory: Theory) -> np.ndarray:
    """Each assigned measurement's channel p(x|s) on the basis states of a
    classical carrier (a simplex's vertices, a restricted theory's internal
    states), clipped to [0, 1], shape (n, outcomes, states); read-only, one
    per assignment and theory object."""
    channels = np.clip(_ledger_plan(assignment).effects @ theory.variant.classical_carrier.T, 0.0, 1.0)
    channels.setflags(write=False)
    return channels


class _ClassicalChainData(_ChainData):
    """Joint table over (S, registers) with measurement channels on S.

    Register subsets are bitmasks over the positions in the assignment.
    ``weights`` holds each entry's weights over the carrier's basis states.
    """

    def __init__(self, ensemble: CorrelatedEnsemble, assignment: ObservableAssignment, weights: np.ndarray):
        # the (registers, S) table: entry masses on S in their register cells;
        # np.maximum is what np.clip runs with no upper bound
        mass = ensemble.probs[:, None] * np.maximum(weights, 0.0)
        # copy 0 holds the marginals with S; copy 1, summed over S, those without
        stack, layout = _register_marginals(ensemble, assignment.registers, mass, copies=2)
        stack[1, :, :, 0] = stack[0].sum(axis=2)
        # the (S, A_k) marginals give the gains: channel (x, s) @ table (s, a)
        s_a = stack[0, layout.singles, : layout.alphabet]
        channels = _classical_channels(assignment, ensemble.theory)
        super().__init__(layout, _plogp_bits_stacked(stack, (2, 3)), channels @ np.swapaxes(s_a, 1, 2))


class _QuantumChainData(_ChainData):
    """Classical-quantum blocks p_c, p_c rho_c indexed by register values.

    The blocks p_c rho_c are kept in state coordinates, 2 d^2 per cell.
    Register subsets are bitmasks over the positions in the assignment.
    """

    def __init__(self, ensemble: CorrelatedEnsemble, assignment: ObservableAssignment):
        # each cell holds p_c, then the coordinates of p_c rho_c
        p = ensemble.probs[:, None]
        (marginals,), layout = _register_marginals(
            ensemble, assignment.registers, np.hstack([p, p * ensemble.coords])
        )
        d, rows = ensemble.theory.variant.hilbert_dim, len(marginals)
        # H(p) + sum_c p_c S(rho_c) is the entropy of the block-diagonal cq
        # state, whose spectrum is that of the blocks p_c rho_c; zero blocks pad
        spectra = np.zeros((2, rows, layout.width * d))
        spectra[0] = np.linalg.eigvalsh(coords_to_density(marginals[:, :, 1:], d)).reshape(rows, -1)
        spectra[1, :, : layout.width] = marginals[:, :, 0]
        # Tr(E w_a) is the dot product of their coordinates
        w_a = marginals[layout.singles, : layout.alphabet, 1:]
        outcomes = np.maximum(_ledger_plan(assignment).effects @ np.swapaxes(w_a, 1, 2), 0.0)
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
    Each information term is computed once, and the steps' names and kinds
    come from the assignment's cached ``_LedgerPlan``.
    """
    theory = ensemble.theory
    weights = theory.variant.carrier_weights(theory.theory_id, ensemble.coords)
    if weights is None:
        data: _ChainData = _QuantumChainData(ensemble, assignment)
    else:
        data = _ClassicalChainData(ensemble, assignment, weights)
    ent = data.ent

    # register subsets are bitmasks over assignment positions
    n = len(assignment.pairs)
    every = (1 << n) - 1
    h_s = ent(0, True)
    h_s_given = ent(every, True) - ent(every, False)
    i_s_all = h_s + ent(every, False) - ent(every, True)
    i_single = [h_s + ent(1 << k, False) - ent(1 << k, True) for k in range(n)]  # I(S:A_k)
    i_cond, i_prefix_s, i_prefix = [], [], []
    for k in range(1, n):
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        # I(S:A_k | A_1..A_{k-1}), I(A_1..A_{k-1} S : A_k) and I(A_1..A_{k-1} : A_k)
        i_cond.append(ent(prefix, True) + ent(with_k, False) - ent(with_k, True) - ent(prefix, False))
        i_prefix_s.append(ent(prefix, True) + ent(1 << k, False) - ent(with_k, True))
        i_prefix.append(ent(prefix, False) + ent(1 << k, False) - ent(with_k, False))

    dim_report = observed_dimension(ensemble.theory)
    bound = math.log2(dim_report.d)
    values = [
        (i_s_all, h_s - h_s_given),
        (0.0, h_s_given),
        (h_s, bound),
        (i_s_all, i_single[0] + _ordered_sum(i_cond)),
    ]
    for cond, prefix_s, prefix, single in zip(i_cond, i_prefix_s, i_prefix, i_single[1:]):
        values += [(cond, prefix_s - prefix), (single, prefix_s)]
    if n > 1:
        total_corr = _ordered_sum(ent(1 << k, False) for k in range(n)) - ent(every, False)
        values.append((_ordered_sum(i_prefix), total_corr))
    else:
        total_corr = 0.0
    gains = data.gains
    values += zip(gains, i_single)
    extractable = _ordered_sum(gains) - total_corr
    values.append((extractable, bound))
    plan = _ledger_plan(assignment)
    # _make builds each step in C, with no Python-level __new__
    steps = tuple(map(ChainStep._make, zip(plan.names, plan.kinds, *zip(*values))))
    return ProofChainLedger(steps, dim_report.d, bound, extractable)
