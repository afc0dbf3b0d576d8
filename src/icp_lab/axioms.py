"""Entropy axiom stress tests on seeded random instances.

The derivation of the information bound uses five entropy properties:

  (i)   I(S:F) = H(S) - H(S|F)            (definition consistency)
  (ii)  H(S) <= log2 d                     (dimension bound)
  (iii) H(S|C) >= 0 for classical C        (no negative classical surprise)
  (iv)  H(SA) + H(SB) >= H(SAB) + H(S)     (strong subadditivity form)
  (v)   I(S:A) >= I(X:A)                   (measurement data processing)

``axiom_suite`` probes each of them for Shannon or von Neumann entropy. It
needs only ``info`` and numpy, so ``scan axioms`` loads neither the engine
nor the state spaces.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Hashable, Iterator

import numpy as np

from .info import (
    AXIOM_TOL,
    AxiomReport,
    _densities,
    _density_draw_parts,
    _dirichlet_rows,
    _haar_from_gaussian,
    _plogp_bits_rows,
    _total_correlation_rows,
    _von_neumann_rows,
)


# --- random instances per axiom ----------------------------------------------
#
# Each axiom is a draw and an evaluation. A draw takes one trial's random
# numbers from the generator and returns them raw, with the same generator
# calls, sizes and order as drawing them finished would make: standard
# exponentials in the shape of the table or rows they normalise into, and
# (2, d, d) Gaussian parts. It returns them with a shape key, the sizes it
# drew, so trials are grouped without reading their arrays' shapes. An
# evaluation takes a stack of trials of one key, each array with a leading
# trial axis, finishes the whole stack once (the Dirichlet normalisation row
# by row and ``info._densities`` matrix by matrix, so with each trial's
# bits) and returns every trial's violation before the clip at 0. The
# arithmetic is that of a single trial done on every trial at once, in the
# same order, so a trial's value does not depend on the stack it is
# evaluated in.

def _draw_joint(*highs: int) -> Callable[[np.random.Generator], tuple[tuple, tuple[np.ndarray, ...]]]:
    """The draw of one Dirichlet table, its axis lengths drawn from [2, high)."""

    def draw(rng: np.random.Generator) -> tuple[tuple, tuple[np.ndarray, ...]]:
        shape = tuple(int(rng.integers(2, high)) for high in highs)
        # numbers of standard_exponential(prod(shape)), in row-major order
        return shape, (rng.standard_exponential(shape),)

    return draw


def _draw_channel(rng: np.random.Generator) -> tuple[tuple, tuple[np.ndarray, ...]]:
    s, a, x = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    return (s, a, x), (rng.standard_exponential((s, a)), rng.standard_exponential((s, x)))  # joint, p(x|s) rows


def _draw_cq(rng: np.random.Generator) -> tuple[tuple, tuple[np.ndarray, ...]]:
    dim, nc = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    return (dim, nc), (rng.standard_exponential((nc,)), *_density_draw_parts(rng, dim, nc))


def _draw_density(rng: np.random.Generator) -> tuple[int, tuple[np.ndarray, ...]]:
    dim = int(rng.integers(2, 9))
    exponentials, parts = _density_draw_parts(rng, dim, 1)
    return dim, (exponentials[0], parts[0])


def _draw_cq_grid(rng: np.random.Generator) -> tuple[tuple, tuple[np.ndarray, ...]]:
    # S quantum, A and B classical: rho = sum p_ab |a><a| x |b><b| x rho_ab
    p = rng.standard_exponential((2, 2))
    exponentials, parts = _density_draw_parts(rng, 2, 4)
    return (), (p, exponentials.reshape(2, 2, 2), parts.reshape(2, 2, 2, 2, 2))


def _draw_cq_measured(rng: np.random.Generator) -> tuple[tuple, tuple[np.ndarray, ...]]:
    (dim, nc), drawn = _draw_cq(rng)
    return (dim, nc), (*drawn, rng.normal(size=(2, dim, dim)))


def _tables(exponentials: np.ndarray) -> np.ndarray:
    """Each trial's Dirichlet table: all of its exponentials normalised as one row."""
    return _dirichlet_rows(exponentials.reshape(len(exponentials), -1)).reshape(exponentials.shape)


def _larger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's ``max(a, b)`` on every trial: b only where b > a."""
    return np.where(b > a, b, a)


def _shannon_axiom_i(exponentials: np.ndarray) -> np.ndarray:
    table = _tables(exponentials)
    pf = table.sum(axis=1)
    direct = np.zeros(len(table))
    for j in range(table.shape[2]):
        h = _plogp_bits_rows(table[:, :, j] / pf[:, j, None])
        direct = np.where(pf[:, j] > 0, direct + pf[:, j] * h, direct)
    via_joint = _plogp_bits_rows(table) - _plogp_bits_rows(pf)
    i_joint = _total_correlation_rows(table)
    i_def = _plogp_bits_rows(table.sum(axis=2)) - direct
    return _larger(np.abs(direct - via_joint), np.abs(i_joint - i_def))


def _shannon_axiom_ii(exponentials: np.ndarray) -> np.ndarray:
    return _plogp_bits_rows(_tables(exponentials)) - math.log2(exponentials.shape[1])


def _shannon_axiom_iii(exponentials: np.ndarray) -> np.ndarray:
    table = _tables(exponentials)
    return -(_plogp_bits_rows(table) - _plogp_bits_rows(table.sum(axis=1)))


def _shannon_axiom_iv(exponentials: np.ndarray) -> np.ndarray:
    t = _tables(exponentials)
    h_sa = _plogp_bits_rows(t.sum(axis=3))
    h_sb = _plogp_bits_rows(t.sum(axis=2))
    h_sab = _plogp_bits_rows(t)
    h_s = _plogp_bits_rows(t.sum(axis=(2, 3)))
    return h_sab + h_s - h_sa - h_sb


def _shannon_axiom_v(joint_exponentials: np.ndarray, channel_exponentials: np.ndarray) -> np.ndarray:
    joint, channel = _tables(joint_exponentials), _dirichlet_rows(channel_exponentials)
    out = np.swapaxes(channel, 1, 2) @ joint
    return _total_correlation_rows(out) - _total_correlation_rows(joint)


def _weighted_sum(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_c p_c values_c of every trial, summed left to right from 0."""
    weights = probs.reshape(probs.shape + (1,) * (values.ndim - probs.ndim))
    return sum(weights[:, c] * values[:, c] for c in range(probs.shape[1]))


def _vn_axiom_i(prob_exponentials: np.ndarray, exponentials: np.ndarray, parts: np.ndarray) -> np.ndarray:
    probs, rhos = _dirichlet_rows(prob_exponentials), _densities(exponentials, parts)
    cond_direct = _weighted_sum(probs, _von_neumann_rows(rhos))
    h_p = _plogp_bits_rows(probs)
    h_sf = h_p + cond_direct
    cond_via_joint = h_sf - h_p
    h_avg = _von_neumann_rows(_weighted_sum(probs, rhos))
    i_joint = h_avg + h_p - h_sf
    i_def = h_avg - cond_direct
    return _larger(np.abs(cond_direct - cond_via_joint), np.abs(i_joint - i_def))


def _vn_axiom_ii(exponentials: np.ndarray, parts: np.ndarray) -> np.ndarray:
    return _von_neumann_rows(_densities(exponentials, parts)) - math.log2(exponentials.shape[1])


def _vn_axiom_iii(prob_exponentials: np.ndarray, exponentials: np.ndarray, parts: np.ndarray) -> np.ndarray:
    return -_weighted_sum(_dirichlet_rows(prob_exponentials), _von_neumann_rows(_densities(exponentials, parts)))


def _vn_axiom_iv(p_exponentials: np.ndarray, exponentials: np.ndarray, parts: np.ndarray) -> np.ndarray:
    p, rhos = _tables(p_exponentials), _densities(exponentials, parts)
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


def _vn_axiom_v(
    prob_exponentials: np.ndarray, exponentials: np.ndarray, parts: np.ndarray, measurement_parts: np.ndarray
) -> np.ndarray:
    probs, rhos = _dirichlet_rows(prob_exponentials), _densities(exponentials, parts)
    holevo = _von_neumann_rows(_weighted_sum(probs, rhos)) - _weighted_sum(probs, _von_neumann_rows(rhos))
    # projector i of a trial is the outer product of column i of its unitary
    cols = np.swapaxes(_haar_from_gaussian(measurement_parts), 1, 2)
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
) -> Iterator[tuple[Hashable, tuple[np.ndarray, ...]]]:
    """Every trial's shape key and raw draws in order: block i of the 64 takes
    its own child seed and holds trials // 64 trials, one more when
    i < trials % 64."""
    for i, block_seed in enumerate(axiom_seed.spawn(_N_BLOCKS)):
        rng = np.random.default_rng(block_seed)
        for _ in range(trials // _N_BLOCKS + (i < trials % _N_BLOCKS)):
            yield draw(rng)


def _evaluate_trials(evaluate: Callable[..., np.ndarray], drawn: list[tuple]) -> np.ndarray:
    """Every trial's value in draw order, each group of trials with one shape
    key evaluated as one stack."""
    groups: dict[Hashable, list[int]] = {}
    for i, (key, _) in enumerate(drawn):
        groups.setdefault(key, []).append(i)
    values = np.empty(len(drawn))
    for index in groups.values():
        values[index] = evaluate(*(np.array(stack) for stack in zip(*(drawn[i][1] for i in index))))
    return values


def axiom_suite(entropy_kind: str = "shannon", trials: int = 1000, seed: int = 0) -> list[AxiomReport]:
    """Stress axioms (i)-(v) on seeded random instances; passed means
    the worst violation stays below 1e-9.

    Each axiom draws its trials in order, as raw generator output, and
    finishes and evaluates them stacked by shape, 256 drawn trials at a
    time; a trial's value does not depend on its stack. ``trials`` is taken
    through ``operator.index``, so a float raises TypeError.
    The draw order is part of the contract: the 64 blocks, their child seeds
    and the order of draws within a trial fix every reported value, so
    ``scan axioms`` output changes with any change of it.
    """
    if entropy_kind not in _AXIOMS:
        raise ValueError(f"unknown entropy kind {entropy_kind!r}")
    trials = operator.index(trials)  # True counts as 1
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
