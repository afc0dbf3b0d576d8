"""The derivation ledger's one-pass entropies against the per-subset formulas.

The oracle classes below are the ledger data as it was computed one register
subset at a time: each entropy a marginal of the dense table and one kernel
call, each gain one outcome table. Run through ``proof_chain_check`` in
place of the one-pass classes, they give the reference ledger.
"""
import math
import tracemalloc

import numpy as np
import pytest

from icp_lab import ObservableAssignment, catalog, info, proof_chain_check, proofs, sampling
from icp_lab.engine import CorrelatedEnsemble
from icp_lab.gpt import (
    ChainNotApplicable,
    Polytope,
    Quantum,
    RestrictedClassical,
    coords_to_density,
    state_space_dimension,
)
from icp_lab.info import _plogp_bits, _total_correlation

TOL = 1e-12


class OracleClassicalData:
    def __init__(self, ensemble, assignment, carrier_weights):
        registers = assignment.registers
        theory = ensemble.theory
        v = theory.variant
        if isinstance(v, RestrictedClassical):
            basis = np.eye(v.internal_states)
            weights = ensemble.coords
        elif isinstance(v, Polytope):
            verts = v.vertex_matrix
            if len(verts) != state_space_dimension(theory) + 1:
                raise ChainNotApplicable(f"{theory.theory_id!r} state space is not a simplex")
            basis = verts
            target = np.hstack([ensemble.coords, np.ones((len(ensemble.probs), 1))])
            weights = target @ v.barycentric_map.T
            recon = weights @ verts
            if np.max(np.abs(recon - ensemble.coords)) > 1e-9:
                raise ChainNotApplicable("states do not decompose over the vertices")
            if weights.min() < -1e-9:
                raise ChainNotApplicable("states fall outside the vertex simplex")
        else:
            raise ChainNotApplicable(f"{theory.theory_id!r} has no classical carrier")
        # the weights the variant handed the ledger agree with the oracle's own
        assert np.max(np.abs(carrier_weights - weights), initial=0.0) <= TOL
        self.basis = basis
        index, shape = ensemble.register_index(registers)
        mass = ensemble.probs[:, None] * np.clip(weights, 0.0, None)
        self.table = (mass.T @ np.eye(math.prod(shape))[index]).reshape((len(basis),) + shape)
        self.n = len(registers)
        self.gains = [
            _total_correlation(self.outcome_table(m, k)) for k, (m, _) in enumerate(assignment.pairs)
        ]

    def ent(self, mask, with_s):
        axes = tuple(i + 1 for i in range(self.n) if not mask >> i & 1)
        if not with_s:
            axes = (0,) + axes
        return _plogp_bits(self.table.sum(axis=axes))

    def outcome_table(self, measurement, position):
        chan = np.clip(measurement.effect_matrix @ self.basis.T, 0.0, 1.0)
        axes = tuple(i + 1 for i in range(self.n) if i != position)
        s_ak = self.table.sum(axis=axes) if axes else self.table
        return chan @ s_ak


class OracleQuantumData:
    def __init__(self, ensemble, assignment):
        v = ensemble.theory.variant
        if not isinstance(v, Quantum):
            raise ChainNotApplicable("not a quantum theory")
        index, shape = ensemble.register_index(assignment.registers)
        size = math.prod(shape)
        self.probs = np.bincount(index, weights=ensemble.probs, minlength=size).reshape(shape)
        weighted = np.eye(size)[index].T @ (ensemble.probs[:, None] * ensemble.coords)
        self.weighted = weighted.reshape(shape + (-1,))
        self.n = len(shape)
        self.dim = v.hilbert_dim
        self.gains = [
            _total_correlation(self.outcome_table(m, k)) for k, (m, _) in enumerate(assignment.pairs)
        ]

    def ent(self, mask, with_s):
        axes = tuple(i for i in range(self.n) if not mask >> i & 1)
        if with_s:
            w = self.weighted.sum(axis=axes) if axes else self.weighted
            blocks = coords_to_density(w.reshape(-1, w.shape[-1]), self.dim)
            return _plogp_bits(np.linalg.eigvalsh(blocks))
        return _plogp_bits(self.probs.sum(axis=axes))

    def outcome_table(self, measurement, position):
        axes = tuple(i for i in range(self.n) if i != position)
        w = self.weighted.sum(axis=axes) if axes else self.weighted
        return np.clip(measurement.effect_matrix @ w.T, 0.0, None)


def oracle_ledger(ensemble, assignment):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proofs, "_ClassicalChainData", OracleClassicalData)
        mp.setattr(proofs, "_QuantumChainData", OracleQuantumData)
        return proof_chain_check(ensemble, assignment)


def assert_ledgers_agree(ledger, oracle):
    assert [(s.name, s.kind) for s in ledger.steps] == [(s.name, s.kind) for s in oracle.steps]
    for step, ref in zip(ledger.steps, oracle.steps):
        assert abs(step.lhs - ref.lhs) <= TOL, step.name
        assert abs(step.rhs - ref.rhs) <= TOL, step.name
    assert abs(ledger.extractable - oracle.extractable) <= TOL
    assert (ledger.observed_dim, ledger.bound) == (oracle.observed_dim, oracle.bound)


def _assignment(entry, labels):
    th = entry.theory
    return ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))


# (catalog entry, measurement labels, register alphabet, ensembles)
CASES = {
    "bit/2": (catalog.classical_bit, ("X", "Z"), 2, 60),
    "qubit/2": (catalog.qubit, ("X", "Z"), 2, 20),
    "trit/3": (catalog.classical_trit, ("E1", "E2", "E3"), 2, 40),
    "trit/4": (catalog.classical_trit, ("E1", "E2", "E3", "E1"), 2, 40),
    "bit/1 alphabet 3": (catalog.classical_bit, ("X",), 3, 20),
    "trit/5 alphabet 3": (catalog.classical_trit, ("E1", "E2", "E3", "E1", "E2"), 3, 5),
    "qubit/1 alphabet 3": (catalog.qubit, ("Z",), 3, 10),
    "qubit/5 alphabet 3": (catalog.qubit, ("X", "Z", "X", "Z", "X"), 3, 3),
    "hbit/2": (catalog.hbit, ("X", "Z"), 2, 20),
}


@pytest.mark.parametrize("case", CASES)
def test_ledger_matches_the_per_subset_oracle(case):
    make, labels, alphabet, count = CASES[case]
    entry = make()
    assignment = _assignment(entry, labels)
    rng = np.random.default_rng([20261018, len(labels), alphabet])
    for _ in range(count):
        ens = sampling.random_ensemble(entry, rng, n_registers=len(labels), alphabet=alphabet)
        assert_ledgers_agree(proof_chain_check(ens, assignment), oracle_ledger(ens, assignment))


def test_ledger_matches_the_oracle_on_unequal_alphabets_and_register_order(rng):
    """Registers of alphabets 2, 3 and 4, assigned out of order, one of them
    unread: the table pads every register to the largest alphabet."""
    entry = catalog.classical_trit()
    th = entry.theory
    alphabets = (2, 3, 4, 2)
    values = np.indices(alphabets).reshape(len(alphabets), -1).T
    probs = info._dirichlet_ones(rng, len(values))
    ens = CorrelatedEnsemble(th, probs, th.variant.random_coords(rng, len(values)), values, alphabets)
    assignment = ObservableAssignment(
        ((th.measurement("E2"), 2), (th.measurement("E1"), 0), (th.measurement("E3"), 1))
    )
    assert_ledgers_agree(proof_chain_check(ens, assignment), oracle_ledger(ens, assignment))


def test_ten_register_ledger_holds_no_dense_subset_map():
    """The table comes from one bincount and the marginals from a scatter
    map, so no entries x cells one-hot matrix and no dense subset-sum matrix
    is held: the one-hot matrix alone of a 10-register bit ensemble (1024 x
    1024 floats) is 8.4 MB."""
    entry = catalog.classical_bit()
    assignment = _assignment(entry, ("X", "Z") * 5)
    ens = sampling.random_ensemble(entry, np.random.default_rng(10), n_registers=10)
    proofs.observed_dimension(entry.theory)
    proofs._ledger_layout.cache_clear()
    tracemalloc.start()
    try:
        ledger = proof_chain_check(ens, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger.all_hold()
    assert peak < 4_000_000


def test_layout_cache_is_bounded_and_read_only():
    maxsize = proofs._ledger_layout.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 6):
        layout = proofs._ledger_layout(2, n % 6 + 1, n)
    assert proofs._ledger_layout.cache_info().currsize <= maxsize
    for arr in (layout.codes, layout.scatter, layout.singles):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_layout_places_each_marginal_at_the_head_of_its_row():
    # three registers of 2 values and 2 columns: subsets {}, A, B, AB, C, ABC
    layout = proofs._ledger_layout(2, 3, 2)
    masks = (layout.codes[0] >> 1).tolist()
    assert masks == [0, 1, 2, 3, 4, 7]
    assert (layout.codes[1] == layout.codes[0] - 1).all()
    assert layout.singles.tolist() == [1, 2, 4]
    # entry (a, b, c) holds 2 * (4a + 2b + c) + j in column j
    values = np.arange(16.0).reshape(8, 2)
    ens = CorrelatedEnsemble(
        catalog.classical_bit().theory, np.full(8, 0.125), np.tile([0.5, 0.5], (8, 1)),
        np.indices((2, 2, 2)).reshape(3, -1).T, (2, 2, 2),
    )
    (stack,), _ = proofs._register_marginals(ens, (0, 1, 2), values)
    cube = values.reshape(2, 2, 2, 2)
    for row, mask in enumerate(masks):
        drop = tuple(k for k in range(3) if not mask >> k & 1)
        marginal = cube.sum(axis=drop).reshape(-1, 2)
        assert (stack[row, : len(marginal)] == marginal).all()
        assert (stack[row, len(marginal):] == 0.0).all()
