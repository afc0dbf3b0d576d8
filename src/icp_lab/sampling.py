"""Seeded random instances: states, density matrices, ensembles."""
from __future__ import annotations

import operator
from typing import TYPE_CHECKING

import numpy as np

from .engine import CorrelatedEnsemble, _check_alphabets, _check_register_count, _register_product
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

    A float size (TypeError), more than MAX_REGISTERS registers, an alphabet
    below 1, or register alphabets past ``engine._check_alphabets``' caps
    are refused before any draw. Draws the entry probabilities, then all
    states at once; the ensemble checks its register values (the cached
    ``engine._register_product``) and its states when built. The draw order
    is part of the contract: ``perfbench/reference.json`` replays fixed
    seeds, so a change of order changes every recorded value.
    """
    n_registers, alphabet = operator.index(n_registers), operator.index(alphabet)
    # first, so that the alphabets below are at most MAX_REGISTERS long
    _check_register_count(n_registers)
    if alphabet < 1:
        raise ValueError(f"alphabet {alphabet} below 1")
    alphabets = (alphabet,) * n_registers
    _check_alphabets(alphabets)
    registers = _register_product(alphabets)
    probs = _dirichlet_ones(rng, len(registers))
    coords = entry.theory.variant.random_coords(rng, len(registers))
    return CorrelatedEnsemble(entry.theory, probs, coords, registers, alphabets)
