"""Seeded random instances: states, density matrices, ensembles."""
from __future__ import annotations

import operator
from typing import TYPE_CHECKING

import numpy as np

from .engine import MAX_ALPHABET, MAX_JOINT_ALPHABET, MAX_REGISTERS, CorrelatedEnsemble, _register_product
from .gpt import State
from .info import _densities, _density_draw_parts, _dirichlet_ones

if TYPE_CHECKING:
    from .catalog import CatalogEntry


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _densities(*_density_draw_parts(rng, dim, 1))[0]


def random_state(entry: CatalogEntry, rng: np.random.Generator) -> State:
    return State(entry.theory.variant.random_coords(rng, 1)[0])


def random_ensemble(
    entry: CatalogEntry,
    rng: np.random.Generator,
    n_registers: int = 2,
    alphabet: int = 2,
) -> CorrelatedEnsemble:
    """Random correlated ensemble with one entry per register combination.

    A float size (TypeError), an alphabet outside 1 .. MAX_ALPHABET, more
    than MAX_JOINT_ALPHABET register combinations or MAX_REGISTERS registers
    is refused before any draw. Draws the entry probabilities, then all
    states at once; the ensemble checks its register values (the cached
    ``engine._register_product``) and its states when built. The draw order
    is part of the contract: ``perfbench/reference.json`` replays fixed
    seeds, so a change of order changes every recorded value.
    """
    n_registers, alphabet = operator.index(n_registers), operator.index(alphabet)
    if n_registers < 1:
        raise ValueError("entries need at least one register")
    if not 1 <= alphabet <= MAX_ALPHABET:
        raise ValueError(f"alphabet {alphabet} outside 1 .. {MAX_ALPHABET}")
    # an alphabet of 2 or more passes the cap by 21 registers, so the power
    # stays small however many registers are asked for
    if alphabet ** min(n_registers, MAX_JOINT_ALPHABET.bit_length()) > MAX_JOINT_ALPHABET:
        raise ValueError(f"{alphabet}**{n_registers} register combinations above MAX_JOINT_ALPHABET = {MAX_JOINT_ALPHABET}")
    if n_registers > MAX_REGISTERS:
        raise ValueError(f"{n_registers} registers above MAX_REGISTERS = {MAX_REGISTERS}")
    registers = _register_product((alphabet,) * n_registers)
    probs = _dirichlet_ones(rng, len(registers))
    coords = entry.theory.variant.random_coords(rng, len(registers))
    return CorrelatedEnsemble(entry.theory, probs, coords, registers, (alphabet,) * n_registers)
