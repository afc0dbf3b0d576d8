"""Seeded random instances: states, density matrices, ensembles."""
from __future__ import annotations

import itertools
import math

import numpy as np

from .catalog import CatalogEntry
from .engine import CorrelatedEnsemble, _check_arrays
from .gpt import NormConstraint, Polytope, Quantum, RestrictedClassical, State, Theory, density_to_coords


def _dirichlet_ones(rng: np.random.Generator, k: int, size: int | None = None) -> np.ndarray:
    """``rng.dirichlet(np.ones(k), size)``, bit for bit, without its per-call
    argument checks.

    Unit-shape gammas are standard exponentials, and numpy normalises each
    row by its left-to-right sum and the reciprocal of that sum, as here.
    """
    draws = rng.standard_exponential((k,) if size is None else (size, k))
    return draws * (1.0 / np.add.accumulate(draws, axis=-1)[..., -1:])


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices, shape (..., d, d)."""
    q, r = np.linalg.qr(g)
    # fix phases so the distribution is Haar rather than QR-convention-biased
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _density_from_draws(eigs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """u diag(eigs) u^dagger with u Haar from ``g``, on stacks (..., d) and (..., d, d)."""
    u = _haar_from_gaussian(g)
    return (u * eigs[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A dim x dim complex Gaussian matrix: the real part is drawn first.

    One draw of shape (2, dim, dim) fills the real part and then the
    imaginary part, as two (dim, dim) draws in that order would.
    """
    g = rng.normal(size=(2, dim, dim))
    return g[0] + 1j * g[1]


def _density_draws(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one random density matrix, in their fixed order: the
    Dirichlet eigenvalues, then the complex Gaussian matrix of its basis."""
    eigs = _dirichlet_ones(rng, dim)
    return eigs, _complex_gaussian(rng, dim)


def _stacked_density_draws(rng: np.random.Generator, dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n calls of ``_density_draws`` in order, stacked: shapes (n, dim) and (n, dim, dim)."""
    eigs, g = zip(*(_density_draws(rng, dim) for _ in range(n)))
    return np.array(eigs), np.array(g)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _density_from_draws(*_density_draws(rng, dim))


def _random_coords(theory: Theory, rng: np.random.Generator, n: int) -> np.ndarray:
    """Coordinates of n random states, one row each.

    The generator is consumed exactly as by n calls of ``random_state``:
    Dirichlet draws with ``size=n`` equal n sequential draws, and quantum
    states keep their per-state order (eigenvalues, then the real and the
    imaginary Gaussian matrix, as ``_density_draws``) with only the linear
    algebra stacked.
    """
    v = theory.variant
    if isinstance(v, Polytope):
        w = _dirichlet_ones(rng, len(v.vertices), n)
        # einsum forms each row on its own, so a state's coordinates do not
        # depend on n; a BLAS product can round differently by batch size
        return np.einsum("ij,jk->ik", w, v.vertex_matrix)
    if isinstance(v, RestrictedClassical):
        return _dirichlet_ones(rng, v.internal_states, n)
    if isinstance(v, NormConstraint):
        rows = []
        for _ in range(n):
            direction = rng.normal(size=v.k)
            if math.isinf(v.p):
                norm = np.abs(direction).max()
            else:
                norm = float((np.abs(direction) ** v.p).sum()) ** (1.0 / v.p)
            radius = rng.uniform() ** (1.0 / v.k)
            rows.append(np.append(direction / norm * radius, 1.0))
        return np.array(rows)
    if isinstance(v, Quantum):
        return density_to_coords(_density_from_draws(*_stacked_density_draws(rng, v.hilbert_dim, n)))
    raise TypeError(f"unsupported variant {v!r}")  # pragma: no cover


def random_state(entry: CatalogEntry, rng: np.random.Generator) -> State:
    return State(_random_coords(entry.theory, rng, 1)[0], entry.theory.theory_id)


def random_ensemble(
    entry: CatalogEntry,
    rng: np.random.Generator,
    n_registers: int = 2,
    alphabet: int = 2,
) -> CorrelatedEnsemble:
    """Random correlated ensemble with one entry per register combination.

    Draws the entry probabilities, then all states at once, and checks the
    register values and the states as ``build_ensemble`` does. The draw order
    is part of the contract: ``perfbench/reference.json`` replays fixed
    seeds, so a change of order changes every recorded value.
    """
    if n_registers < 1:
        raise ValueError("entries need at least one register")
    registers = np.array(list(itertools.product(range(alphabet), repeat=n_registers)))
    probs = _dirichlet_ones(rng, len(registers))
    coords = _random_coords(entry.theory, rng, len(registers))
    alphabets = (alphabet,) * n_registers
    _check_arrays(entry.theory, coords, registers, alphabets)
    return CorrelatedEnsemble(entry.theory, probs, coords, registers, alphabets)
