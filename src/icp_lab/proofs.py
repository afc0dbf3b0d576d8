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

import math
from dataclasses import dataclass
from typing import Callable

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
from .info import AXIOM_TOL, IDENTITY_TOL, AxiomReport, _plogp_bits, _total_correlation, von_neumann_entropy
from .sampling import random_density_matrix, random_projective_measurement


# --- random instances per axiom ----------------------------------------------

def _shannon_axiom_i(rng: np.random.Generator) -> float:
    s, f = rng.integers(2, 5), rng.integers(2, 5)
    table = rng.dirichlet(np.ones(s * f)).reshape(s, f)
    pf = table.sum(axis=0)
    direct = sum(pf[j] * _plogp_bits(table[:, j] / pf[j]) for j in range(f) if pf[j] > 0)
    via_joint = _plogp_bits(table) - _plogp_bits(pf)
    i_joint = _total_correlation(table)
    i_def = _plogp_bits(table.sum(axis=1)) - direct
    return max(abs(direct - via_joint), abs(i_joint - i_def))


def _shannon_axiom_ii(rng: np.random.Generator) -> float:
    d = int(rng.integers(2, 9))
    p = rng.dirichlet(np.ones(d))
    return max(0.0, _plogp_bits(p) - math.log2(d))


def _shannon_axiom_iii(rng: np.random.Generator) -> float:
    s, c = rng.integers(2, 5), rng.integers(2, 5)
    table = rng.dirichlet(np.ones(s * c)).reshape(s, c)
    return max(0.0, -(_plogp_bits(table) - _plogp_bits(table.sum(axis=0))))


def _shannon_axiom_iv(rng: np.random.Generator) -> float:
    s, a, b = (int(rng.integers(2, 4)) for _ in range(3))
    t = rng.dirichlet(np.ones(s * a * b)).reshape(s, a, b)
    h_sa = _plogp_bits(t.sum(axis=2))
    h_sb = _plogp_bits(t.sum(axis=1))
    h_sab = _plogp_bits(t)
    h_s = _plogp_bits(t.sum(axis=(1, 2)))
    return max(0.0, h_sab + h_s - h_sa - h_sb)


def _shannon_axiom_v(rng: np.random.Generator) -> float:
    s, a, x = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    joint = rng.dirichlet(np.ones(s * a)).reshape(s, a)
    channel = rng.dirichlet(np.ones(x), size=s)  # p(x|s) rows
    out = channel.T @ joint
    return max(0.0, _total_correlation(out) - _total_correlation(joint))


def _random_cq(rng: np.random.Generator, n_classical: int, dim: int):
    probs = rng.dirichlet(np.ones(n_classical))
    rhos = [random_density_matrix(rng, dim) for _ in range(n_classical)]
    return probs, rhos


def _vn_axiom_i(rng: np.random.Generator) -> float:
    dim = int(rng.integers(2, 5))
    nc = int(rng.integers(2, 4))
    probs, rhos = _random_cq(rng, nc, dim)
    cond_direct = sum(p * von_neumann_entropy(r) for p, r in zip(probs, rhos))
    h_sf = _plogp_bits(probs) + cond_direct
    cond_via_joint = h_sf - _plogp_bits(probs)
    avg = sum(p * r for p, r in zip(probs, rhos))
    i_joint = von_neumann_entropy(avg) + _plogp_bits(probs) - h_sf
    i_def = von_neumann_entropy(avg) - cond_direct
    return max(abs(cond_direct - cond_via_joint), abs(i_joint - i_def))


def _vn_axiom_ii(rng: np.random.Generator) -> float:
    dim = int(rng.integers(2, 9))
    rho = random_density_matrix(rng, dim)
    return max(0.0, von_neumann_entropy(rho) - math.log2(dim))


def _vn_axiom_iii(rng: np.random.Generator) -> float:
    dim = int(rng.integers(2, 5))
    nc = int(rng.integers(2, 4))
    probs, rhos = _random_cq(rng, nc, dim)
    cond = sum(p * von_neumann_entropy(r) for p, r in zip(probs, rhos))
    return max(0.0, -cond)


def _vn_axiom_iv(rng: np.random.Generator) -> float:
    # S quantum, A and B classical: rho = sum p_ab |a><a| x |b><b| x rho_ab
    dim = 2
    p = rng.dirichlet(np.ones(4)).reshape(2, 2)
    rhos = [[random_density_matrix(rng, dim) for _ in range(2)] for _ in range(2)]
    h_sab = _plogp_bits(p) + sum(
        p[a, b] * von_neumann_entropy(rhos[a][b]) for a in range(2) for b in range(2)
    )
    pa, pb = p.sum(axis=1), p.sum(axis=0)
    avg_a = [sum(p[a, b] * rhos[a][b] for b in range(2)) / pa[a] for a in range(2)]
    avg_b = [sum(p[a, b] * rhos[a][b] for a in range(2)) / pb[b] for b in range(2)]
    h_sa = _plogp_bits(pa) + sum(pa[a] * von_neumann_entropy(avg_a[a]) for a in range(2))
    h_sb = _plogp_bits(pb) + sum(pb[b] * von_neumann_entropy(avg_b[b]) for b in range(2))
    h_s = von_neumann_entropy(sum(p[a, b] * rhos[a][b] for a in range(2) for b in range(2)))
    return max(0.0, h_sab + h_s - h_sa - h_sb)


def _vn_axiom_v(rng: np.random.Generator) -> float:
    dim = int(rng.integers(2, 5))
    na = int(rng.integers(2, 4))
    probs, rhos = _random_cq(rng, na, dim)
    holevo = von_neumann_entropy(sum(p * r for p, r in zip(probs, rhos))) - sum(
        p * von_neumann_entropy(r) for p, r in zip(probs, rhos)
    )
    projectors = random_projective_measurement(rng, dim)
    out = np.array([[p * float(np.trace(proj @ r).real) for p, r in zip(probs, rhos)] for proj in projectors])
    out = np.clip(out, 0.0, None)
    return max(0.0, _total_correlation(out) - holevo)


_AXIOM_FUNS: dict[str, dict[str, Callable[[np.random.Generator], float]]] = {
    "shannon": {
        "i": _shannon_axiom_i,
        "ii": _shannon_axiom_ii,
        "iii": _shannon_axiom_iii,
        "iv": _shannon_axiom_iv,
        "v": _shannon_axiom_v,
    },
    "von-neumann": {
        "i": _vn_axiom_i,
        "ii": _vn_axiom_ii,
        "iii": _vn_axiom_iii,
        "iv": _vn_axiom_iv,
        "v": _vn_axiom_v,
    },
}

_N_BLOCKS = 64  # fixed blocks with per-block seeds fix the results


def axiom_suite(entropy_kind: str = "shannon", trials: int = 1000, seed: int = 0) -> list[AxiomReport]:
    """Stress axioms (i)-(v) on seeded random instances; passed means
    the worst violation stays below 1e-9."""
    if entropy_kind not in _AXIOM_FUNS:
        raise ValueError(f"unknown entropy kind {entropy_kind!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    reports = []
    root = np.random.SeedSequence(seed)
    axiom_seeds = root.spawn(len(_AXIOM_FUNS[entropy_kind]))
    for (name, fun), axiom_seed in zip(_AXIOM_FUNS[entropy_kind].items(), axiom_seeds):
        sizes = [trials // _N_BLOCKS] * _N_BLOCKS
        for i in range(trials % _N_BLOCKS):
            sizes[i] += 1
        worst = 0.0
        for size, block_seed in zip(sizes, axiom_seed.spawn(_N_BLOCKS)):
            rng = np.random.default_rng(block_seed)
            for _ in range(size):
                worst = max(worst, fun(rng))
        worst = float(worst)
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


class _ClassicalChainData:
    """Joint table over (S, registers) with measurement channels on S.

    Register subsets are bitmasks over the positions in ``registers``.
    """

    def __init__(self, ensemble: CorrelatedEnsemble, registers: tuple[int, ...]):
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
            if np.max(np.abs(recon - ensemble.coords)) > 1e-9:
                raise ChainNotApplicable("states do not decompose over the vertices")
            if weights.min() < -1e-9:
                raise ChainNotApplicable("states fall outside the vertex simplex")
        else:
            raise ChainNotApplicable(f"{theory.theory_id!r} has no classical carrier")
        self.basis = basis
        # (S, joint register value) in one product: entry masses on S times
        # the entries' one-hot joint register values
        index, shape = ensemble.register_index(registers)
        mass = ensemble.probs[:, None] * np.clip(weights, 0.0, None)
        self.table = (mass.T @ np.eye(math.prod(shape))[index]).reshape((len(basis),) + shape)
        self.n = len(registers)
        self._cache: dict[int, float] = {}

    def ent(self, mask: int, with_s: bool) -> float:
        """Entropy of S (optional) together with the registers in ``mask``."""
        key = mask << 1 | with_s
        if key not in self._cache:
            axes = tuple(i + 1 for i in range(self.n) if not mask >> i & 1)
            if not with_s:
                axes = (0,) + axes
            self._cache[key] = _plogp_bits(self.table.sum(axis=axes))
        return self._cache[key]

    def outcome_table(self, measurement, position: int) -> np.ndarray:
        chan = np.clip(measurement.effect_matrix @ self.basis.T, 0.0, 1.0)
        axes = tuple(i + 1 for i in range(self.n) if i != position)
        s_ak = self.table.sum(axis=axes) if axes else self.table
        return chan @ s_ak


class _QuantumChainData:
    """Classical-quantum blocks p_c, p_c rho_c indexed by register values.

    The blocks p_c rho_c are kept in state coordinates, shape (*alphabets,
    2 d^2). Register subsets are bitmasks over the positions in
    ``registers``.
    """

    def __init__(self, ensemble: CorrelatedEnsemble, registers: tuple[int, ...]):
        v = ensemble.theory.variant
        if not isinstance(v, Quantum):
            raise ChainNotApplicable("not a quantum theory")
        index, shape = ensemble.register_index(registers)
        size = math.prod(shape)
        self.probs = np.bincount(index, weights=ensemble.probs, minlength=size).reshape(shape)
        weighted = np.eye(size)[index].T @ (ensemble.probs[:, None] * ensemble.coords)
        self.weighted = weighted.reshape(shape + (-1,))
        self.n = len(registers)
        self.dim = v.hilbert_dim
        self._cache: dict[int, float] = {}

    def ent(self, mask: int, with_s: bool) -> float:
        key = mask << 1 | with_s
        if key not in self._cache:
            axes = tuple(i for i in range(self.n) if not mask >> i & 1)
            if with_s:
                # H(p) + sum_c p_c S(rho_c) is the entropy of the block-diagonal
                # cq state, whose spectrum is that of the blocks p_c rho_c
                w = self.weighted.sum(axis=axes) if axes else self.weighted
                blocks = coords_to_density(w.reshape(-1, w.shape[-1]), self.dim)
                value = _plogp_bits(np.linalg.eigvalsh(blocks))
            else:
                value = _plogp_bits(self.probs.sum(axis=axes))
            self._cache[key] = value
        return self._cache[key]

    def outcome_table(self, measurement, position: int) -> np.ndarray:
        axes = tuple(i for i in range(self.n) if i != position)
        w = self.weighted.sum(axis=axes) if axes else self.weighted
        # Tr(E w_a) is the dot product of their coordinates
        return np.clip(measurement.effect_matrix @ w.T, 0.0, None)


def proof_chain_check(
    ensemble: CorrelatedEnsemble, assignment: ObservableAssignment
) -> ProofChainLedger:
    """Replay the bound derivation step by step on a concrete ensemble.

    Applicable when the system has a classical carrier (a simplex state
    space, possibly with restricted readouts) or is quantum; otherwise
    raises ChainNotApplicable. Every step is recorded with a signed margin;
    negative margins on exotic theories show which step carries the blame.
    """
    registers = assignment.registers
    v = ensemble.theory.variant
    if isinstance(v, Quantum):
        data: _ClassicalChainData | _QuantumChainData = _QuantumChainData(ensemble, registers)
    else:
        data = _ClassicalChainData(ensemble, registers)

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

    gains = []
    for position, (measurement, _) in enumerate(assignment.pairs):
        gain = _total_correlation(data.outcome_table(measurement, position))
        gains.append(gain)
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
