"""Seeded random instances: states, density matrices, ensembles."""
from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

import numpy as np

from .engine import MAX_ALPHABET, MAX_JOINT_ALPHABET, CorrelatedEnsemble
from .gpt import State

if TYPE_CHECKING:
    from .catalog import CatalogEntry


def _dirichlet_ones(rng: np.random.Generator, k: int, size: int | None = None) -> np.ndarray:
    """``rng.dirichlet(np.ones(k), size)``, bit for bit, without its per-call
    argument checks.

    Unit-shape gammas are standard exponentials, and numpy normalises each
    row as ``_dirichlet_rows`` does.
    """
    return _dirichlet_rows(rng.standard_exponential((k,) if size is None else (size, k)))


def _dirichlet_rows(draws: np.ndarray) -> np.ndarray:
    """Standard exponential draws (..., k) normalised as numpy's Dirichlet
    normalises them: each row by its left-to-right sum and the reciprocal of
    that sum."""
    return draws * (1.0 / np.add.accumulate(draws, axis=-1)[..., -1:])


def _haar_from_gaussian(parts: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., d, d) from Gaussian parts (..., 2, d, d), the
    real part first, by QR with the phases of R's diagonal divided out
    (Mezzadri, Notices AMS 54, 592 (2007))."""
    q, r = np.linalg.qr(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
    # fix phases so the distribution is Haar rather than QR-convention-biased
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _density_draw_parts(rng: np.random.Generator, dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws of n random density matrices: their standard
    exponentials (n, dim) and their Gaussian parts (n, 2, dim, dim).

    Each state's exponentials and then its (2, dim, dim) Gaussian parts are
    drawn into its rows of two buffers, state after state: the one draw of
    every random density matrix. ``_densities`` finishes them.
    """
    exponentials, parts = np.empty((n, dim)), np.empty((n, 2, dim, dim))
    for i in range(n):
        rng.standard_exponential(out=exponentials[i])
        rng.standard_normal(out=parts[i])
    return exponentials, parts


def _densities(exponentials: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The density matrices u diag(eigs) u^dagger (..., dim, dim) of raw
    draws (..., dim) and (..., 2, dim, dim): eigs Dirichlet, u Haar.

    Every step is row by row or matrix by matrix, so a stack of any leading
    shape is finished once with the bits of finishing each state alone.
    """
    eigs, u = _dirichlet_rows(exponentials), _haar_from_gaussian(parts)
    return (u * eigs[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _densities(*_density_draw_parts(rng, dim, 1))[0]


def random_state(entry: CatalogEntry, rng: np.random.Generator) -> State:
    return State(entry.theory.variant.random_coords(rng, 1)[0], entry.theory.theory_id)


# typed, so that 2.0 is not served the product of 2: range() rejects a float
@functools.lru_cache(maxsize=32, typed=True)
def _register_product(n_registers: int, alphabet: int) -> np.ndarray:
    """Every combination of n_registers values in ``range(alphabet)``, in
    row-major order, read-only; every ensemble built on it range-tests it."""
    registers = np.array(list(itertools.product(range(alphabet), repeat=n_registers)))
    registers.setflags(write=False)
    return registers


def random_ensemble(
    entry: CatalogEntry,
    rng: np.random.Generator,
    n_registers: int = 2,
    alphabet: int = 2,
) -> CorrelatedEnsemble:
    """Random correlated ensemble with one entry per register combination.

    An alphabet outside 1 .. MAX_ALPHABET, or more than MAX_JOINT_ALPHABET
    register combinations, is refused before any draw.
    Draws the entry probabilities, then all states at once; the ensemble
    checks its register values (the cached product of ``_register_product``)
    and its states when built, as every ensemble does. The draw order
    is part of the contract: ``perfbench/reference.json`` replays fixed
    seeds, so a change of order changes every recorded value.
    """
    if n_registers < 1:
        raise ValueError("entries need at least one register")
    if not 1 <= alphabet <= MAX_ALPHABET:
        raise ValueError(f"alphabet {alphabet} outside 1 .. {MAX_ALPHABET}")
    # an alphabet of 2 or more passes the cap by 21 registers, so the power
    # stays small however many registers are asked for
    if alphabet ** min(n_registers, MAX_JOINT_ALPHABET.bit_length()) > MAX_JOINT_ALPHABET:
        raise ValueError(f"{alphabet}**{n_registers} register combinations above MAX_JOINT_ALPHABET = {MAX_JOINT_ALPHABET}")
    registers = _register_product(n_registers, alphabet)
    probs = _dirichlet_ones(rng, len(registers))
    coords = entry.theory.variant.random_coords(rng, len(registers))
    return CorrelatedEnsemble(entry.theory, probs, coords, registers, (alphabet,) * n_registers)
