"""The N = 1 audit path's shape-fixed parts against the per-call forms they replaced.

Sampling, ``evaluate_icp`` and the derivation ledger build what depends only
on the register shape, the alphabet or the assignment once and cache it
read-only. The oracles below are the per-call forms: n sequential density
draws, the ``register_index`` outcome table, the three-call gain kernel
and the ledger's step assembly with its ``i_*`` helpers. The cached path
must give their bits.
"""
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from icp_lab import ObservableAssignment, catalog, constructions, engine, gpt, info, proofs, sampling
from icp_lab.engine import register_name
from icp_lab.info import _plogp_bits_stacked
from icp_lab.proofs import ChainStep, ProofChainLedger


def _assignment(entry, labels):
    th = entry.theory
    return ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))


# --- sampling -------------------------------------------------------------------

def density_draws(rng, dim):
    """One density matrix's draws, one call each: the Dirichlet eigenvalues,
    then the Gaussian parts of its basis, the real part first."""
    return info._dirichlet_ones(rng, dim), rng.normal(size=(2, dim, dim))


def density_from_draws(eigs, parts):
    """One density matrix u diag(eigs) u^dagger finished alone, u the QR
    unitary of its complex Gaussian matrix with R's diagonal phases fixed."""
    q, r = np.linalg.qr(parts[0] + 1j * parts[1])
    d = np.diagonal(r)
    u = q * (d / np.abs(d))[None, :]
    return (u * eigs[None, :]) @ u.conj().T


@pytest.mark.parametrize("dim", range(2, 9))
def test_stacked_density_draws_equal_sequential_draws(dim):
    for seed in range(50):
        for n in range(1, 10):
            stacked, sequential = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            exponentials, parts = info._density_draw_parts(stacked, dim, n)
            draws = [density_draws(sequential, dim) for _ in range(n)]
            eigs = info._dirichlet_rows(exponentials)
            assert eigs.tobytes() == np.array([e for e, _ in draws]).tobytes(), (seed, n)
            assert parts.tobytes() == np.array([g for _, g in draws]).tobytes(), (seed, n)
            assert stacked.bit_generator.state == sequential.bit_generator.state
            rhos = info._densities(exponentials, parts)
            assert rhos.tobytes() == np.array([density_from_draws(*d) for d in draws]).tobytes(), (seed, n)


@pytest.mark.parametrize("dim", range(2, 9))
def test_random_density_matrix_equals_its_two_call_draws(dim):
    for seed in range(20):
        new, old = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
        rho = sampling.random_density_matrix(new, dim)
        assert rho.tobytes() == density_from_draws(*density_draws(old, dim)).tobytes()
        assert rho.shape == (dim, dim)
        assert new.bit_generator.state == old.bit_generator.state


def test_register_product_is_cached_read_only_and_in_row_major_order():
    for n_registers, alphabet in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 3)):
        product = engine._register_product((alphabet,) * n_registers)
        assert product is engine._register_product((alphabet,) * n_registers)
        assert product.tolist() == [list(c) for c in itertools.product(range(alphabet), repeat=n_registers)]
        assert not product.flags.writeable
    entry = catalog.classical_bit()
    ens = sampling.random_ensemble(entry, np.random.default_rng(0), 3, 2)
    assert ens.registers is engine._register_product((2, 2, 2))


@pytest.mark.parametrize("alphabets", [(3,), (2, 3, 1), (1, 4, 2, 3), (1,) * 64, (2,) * 12])
def test_register_product_of_mixed_alphabets_is_c_contiguous_int64(alphabets):
    product = engine._register_product(alphabets)
    assert product.dtype == np.int64 and product.flags.c_contiguous and not product.flags.writeable
    assert product.shape == (math.prod(alphabets), len(alphabets))
    if len(alphabets) < 8:
        assert product.tolist() == [list(c) for c in itertools.product(*map(range, alphabets))]
    else:  # each row is its own row-major index
        assert np.array_equal(engine._flat_index(product, alphabets), np.arange(len(product)))


def test_random_ensemble_still_checks_its_states(monkeypatch):
    entry = catalog.classical_bit()
    monkeypatch.setattr(gpt.Polytope, "random_coords", lambda self, rng, n: np.full((n, 2), 0.75))
    with pytest.raises(ValueError, match="invalid state in ensemble"):
        sampling.random_ensemble(entry, np.random.default_rng(0))


# --- evaluate_icp ---------------------------------------------------------------

def old_joint_outcome_table(ensemble, measurement, register):
    """The outcome table through ``register_index`` and a fresh identity."""
    if not 0 <= register < ensemble.n_registers:
        raise ValueError(f"no register {register} in ensemble")
    index, (alphabet,) = ensemble.register_index((register,))
    values = gpt.effect_values(measurement.effect_matrix, ensemble.coords)
    return (values * ensemble.probs) @ np.eye(alphabet)[index]


EVALUATE_CASES = {
    "classical-bit": (catalog.classical_bit, ("X", "Z")),
    "classical-trit": (catalog.classical_trit, ("E1", "E2")),
    "qubit": (catalog.qubit, ("X", "Z")),
    "pgnst(3, 2)": (lambda: catalog.pgnst(3.0, 2), ("X", "Z")),
    "sbit": (catalog.sbit, ("X", "Z")),
}


@pytest.mark.parametrize("case", EVALUATE_CASES)
def test_evaluate_icp_equals_the_old_outcome_table_path(case):
    make, labels = EVALUATE_CASES[case]
    entry = make()
    assignment = _assignment(entry, labels)
    rng = np.random.default_rng([13, len(case)])
    ensembles = [sampling.random_ensemble(entry, rng) for _ in range(50)]
    reports = [engine.evaluate_icp(ens, assignment).to_json() for ens in ensembles]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "joint_outcome_table", old_joint_outcome_table)
        assert [engine.evaluate_icp(ens, assignment).to_json() for ens in ensembles] == reports
    for ens in ensembles[:5]:
        for measurement, reg in assignment.pairs:
            new, old = engine.joint_outcome_table(ens, measurement, reg), old_joint_outcome_table(ens, measurement, reg)
            assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("value", [-1, 2])
def test_joint_outcome_table_rejects_a_register_value_outside_its_alphabet(value):
    # the ensemble range-tests its register values when built, so no table
    # is ever taken of a value outside its alphabet
    entry = catalog.classical_bit()
    registers = np.array([[0, 0], [value, 1]])
    with pytest.raises(ValueError, match=f"register value {value} outside alphabet 2"):
        engine.CorrelatedEnsemble(entry.theory, np.array([0.5, 0.5]), np.eye(2), registers, (2, 2))


def test_assignment_labels_are_computed_once():
    entry = catalog.classical_trit()
    assignment = _assignment(entry, ("E1", "E2", "E3"))
    assert assignment.labels() == ("E1:A", "E2:B", "E3:C")
    assert assignment.labels() is assignment.labels()
    assert assignment.registers is assignment.registers == (0, 1, 2)


# --- the derivation ledger --------------------------------------------------------

def old_gains_kernel(p):
    """``_total_correlation_stacked`` as three kernel calls."""
    rows, cols = _plogp_bits_stacked(p.sum(axis=2), (1,)), _plogp_bits_stacked(p.sum(axis=1), (1,))
    return rows + cols - _plogp_bits_stacked(p, (1, 2))


def old_step_assembly(ensemble, assignment):
    """The ledger's steps assembled one helper call at a time, names by f-string."""
    registers = assignment.registers
    theory = ensemble.theory
    if isinstance(theory.variant, gpt.Quantum):
        data = proofs._QuantumChainData(ensemble, assignment)
    else:
        weights = theory.variant.carrier_weights(theory.theory_id, ensemble.coords)
        data = proofs._ClassicalChainData(ensemble, assignment, weights)
    n = len(registers)
    every = (1 << n) - 1
    names = [register_name(r) for r in registers]
    all_regs = "".join(names)

    def i_s(mask):
        return data.ent(0, True) + data.ent(mask, False) - data.ent(mask, True)

    def i_cond(k):
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        return data.ent(prefix, True) + data.ent(with_k, False) - data.ent(with_k, True) - data.ent(prefix, False)

    def i_prefix_s(k):
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        return data.ent(prefix, True) + data.ent(1 << k, False) - data.ent(with_k, True)

    def i_prefix(k):
        prefix, with_k = (1 << k) - 1, (1 << (k + 1)) - 1
        return data.ent(prefix, False) + data.ent(1 << k, False) - data.ent(with_k, False)

    steps = []
    h_s = data.ent(0, True)
    h_s_given = data.ent(every, True) - data.ent(every, False)
    i_s_all = i_s(every)
    steps.append(ChainStep(f"I(S:{all_regs}) = H(S) - H(S|{all_regs})", "identity", i_s_all, h_s - h_s_given))
    steps.append(ChainStep(f"H(S|{all_regs}) >= 0", "inequality", 0.0, h_s_given))
    dim_report = gpt.observed_dimension(ensemble.theory)
    bound = math.log2(dim_report.d)
    steps.append(ChainStep("H(S) <= log2(d)", "inequality", h_s, bound))
    chain_sum = i_s(1) + sum(i_cond(k) for k in range(1, n))
    steps.append(ChainStep(f"I(S:{all_regs}) = sum of conditional terms", "identity", i_s_all, chain_sum))
    for k in range(1, n):
        prefix = "".join(names[:k])
        steps.append(ChainStep(
            f"I(S:{names[k]}|{prefix}) = I({prefix}S:{names[k]}) - I({prefix}:{names[k]})",
            "identity", i_cond(k), i_prefix_s(k) - i_prefix(k),
        ))
        steps.append(ChainStep(f"I({prefix}S:{names[k]}) >= I(S:{names[k]})", "inequality", i_s(1 << k), i_prefix_s(k)))
    if n > 1:
        total_corr = sum(data.ent(1 << k, False) for k in range(n)) - data.ent(every, False)
        steps.append(ChainStep(
            "sum of prefix correlations = total correlation", "identity",
            sum(i_prefix(k) for k in range(1, n)), total_corr,
        ))
    else:
        total_corr = 0.0
    gains = data.gains
    for position, ((measurement, _), gain) in enumerate(zip(assignment.pairs, gains)):
        steps.append(ChainStep(
            f"I(S:{names[position]}) >= I({measurement.label}:{names[position]})", "inequality",
            gain, i_s(1 << position),
        ))
    extractable = sum(gains) - total_corr
    steps.append(ChainStep(f"sum of gains - I({':'.join(names)}) <= log2(d)", "inequality", extractable, bound))
    return ProofChainLedger(tuple(steps), dim_report.d, bound, extractable)


# (catalog entry, measurement labels, ensembles)
LEDGER_CASES = {
    "bit/2": (catalog.classical_bit, ("X", "Z"), 100),
    "qubit/2": (catalog.qubit, ("X", "Z"), 50),
    "trit/3": (catalog.classical_trit, ("E1", "E2", "E3"), 100),
    "trit/4": (catalog.classical_trit, ("E1", "E2", "E3", "E1"), 100),
    "hbit/2": (catalog.hbit, ("X", "Z"), 50),
}


@pytest.mark.parametrize("case", LEDGER_CASES)
def test_ledger_equals_the_old_step_assembly(case):
    make, labels, count = LEDGER_CASES[case]
    entry = make()
    assignment = _assignment(entry, labels)
    rng = np.random.default_rng([17, len(labels), len(case)])
    ensembles = [sampling.random_ensemble(entry, rng, n_registers=len(labels)) for _ in range(count)]
    ledgers = [proofs.proof_chain_check(ens, assignment) for ens in ensembles]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proofs, "_total_correlation_stacked", old_gains_kernel)
        oracles = [old_step_assembly(ens, assignment) for ens in ensembles]
    for ledger, oracle in zip(ledgers, oracles):
        assert [(s.name, s.kind, s.lhs, s.rhs) for s in ledger.steps] == [
            (s.name, s.kind, s.lhs, s.rhs) for s in oracle.steps
        ]
        assert (ledger.observed_dim, ledger.bound, ledger.extractable) == (
            oracle.observed_dim, oracle.bound, oracle.extractable
        )


@pytest.mark.parametrize("shape", [(k, a) for k in range(1, 7) for a in range(1, 7)])
def test_one_call_gain_kernel_keeps_the_three_call_bits_on_small_tables(shape):
    # a marginal of 4 or more entries in a table of 8 or more meets numpy's
    # pairwise summation, and there the two kernels agree to a few ulps
    k, a = shape
    rng = np.random.default_rng(k * 10 + a)
    p = rng.dirichlet(np.ones(k * a), 200).reshape(200, k, a)
    p[rng.random(p.shape) < 0.3] = 0.0
    new, old = info._total_correlation_stacked(p), old_gains_kernel(p)
    if max(k, a) < 4 or k * a < 8:
        assert new.tobytes() == old.tobytes()
    assert np.abs(new - old).max() <= 1e-12


def transposed_grid_scores(objective, w, seed_coords, family, choice):
    """``grid_scores`` with the candidate axis first: each chunk's tables a
    transposed (n, k, a) view, through the one-call gain kernel."""
    redundancy = np.array([objective._redundancy(row) for row in w])
    seed_values = objective._effect_values(seed_coords)
    scores = np.empty(len(choice))
    for start in range(0, len(choice), engine._GRID_CHUNK):
        part = slice(start, start + engine._GRID_CHUNK)
        gains = []
        for values, onehot in zip(seed_values, objective.onehots):
            tables = ((values[:, choice[part]] * w[family[part]]) @ onehot).transpose(1, 0, 2)
            assert info._is_distribution(tables, (1, 2)).all()
            gains.append(np.maximum(info._total_correlation_stacked(tables), 0.0))
        value = sum(gains) - redundancy[family[part]]
        if objective.penalized:
            value -= 4.0 * (np.max(gains, axis=0) - np.min(gains, axis=0))
        scores[part] = value
    return scores


def _grid_scores_and_oracle(theory, assignment, max_evals):
    objective = engine._SearchObjective(theory, assignment, True)
    family = theory.variant
    seeds = family.search_seeds([m for m, _ in assignment.pairs])
    seed_coords = np.array([family.build(params) for params in seeds])
    w = np.array([engine._normalized(f) for f in engine._register_families(objective.alphabets)])
    fam, choice = engine._grid_candidates(len(seeds), len(objective.combos), len(w), max_evals)
    return objective.grid_scores(w, seed_coords, fam, choice), transposed_grid_scores(
        objective, w, seed_coords, fam, choice
    )


@pytest.mark.parametrize("case", ["sbit", "qubit", "polygon:5", "pgnst:3:2", "classical-trit"])
def test_one_call_gain_kernel_moves_grid_scores_by_ulps_only(case):
    # grid_scores sums each table's leading axes slice by slice, left to
    # right; on 2-outcome measurements (k a = 4 < 8) that is the order of the
    # one-call kernel's contiguous sums on the transposed tables, so the
    # scores keep its bytes
    entry = catalog.resolve(case)
    labels = ("E1", "E2") if case in ("polygon:5", "classical-trit") else ("X", "Z")
    scores, reference = _grid_scores_and_oracle(entry.theory, _assignment(entry, labels), 20_000)
    assert scores.tobytes() == reference.tobytes()


def test_grid_scores_move_by_ulps_only_on_tables_of_8_or_more_cells():
    # two 3-outcome measurements give 3 x 3 tables, whose joint the one-call
    # kernel sums with numpy's pairwise summation; the two agree to a few
    # ulps, and the candidates rescored exactly stay the same
    theory = catalog.classical_trit().theory
    readout = gpt.Measurement("T", theory.variant.extreme_effects)
    scores, reference = _grid_scores_and_oracle(theory, ObservableAssignment(((readout, 0), (readout, 1))), 20_000)
    assert np.abs(scores - reference).max() <= 1e-12
    near_top = np.flatnonzero(scores >= scores.max() - 1e-12)
    assert near_top.tolist() == np.flatnonzero(reference >= reference.max() - 1e-12).tolist()


def test_ledger_plan_is_cached_per_assignment_and_read_only():
    entry = catalog.classical_trit()
    assignment = _assignment(entry, ("E1", "E2", "E3"))
    plan = proofs._ledger_plan(assignment)
    assert plan is proofs._ledger_plan(assignment)
    assert plan.effects.tobytes() == proofs._effect_stack(assignment).tobytes()
    assert not plan.effects.flags.writeable
    assert len(plan.names) == len(plan.kinds) == 13


# --- bounded, read-only caches ------------------------------------------------------

def test_new_caches_are_bounded():
    caches = (
        engine._register_product, engine._one_hot_rows, proofs._ledger_plan, proofs._classical_channels,
        gpt._readout_graph,
    )
    for cached in caches:
        assert cached.cache_info().maxsize is not None


def test_cached_arrays_are_read_only():
    theory = catalog.polygon(7).theory
    candidates, *arrays = gpt._readout_graph(theory)
    trit = catalog.classical_trit()
    assignment = _assignment(trit, ("E1", "E2"))
    arrays += [
        engine._register_product((3, 3)),
        engine._one_hot_rows(3),
        proofs._ledger_plan(assignment).effects,
        proofs._classical_channels(assignment, trit.theory),
    ]
    assert isinstance(candidates, tuple)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_polygon_mismatch_builds_the_readout_graph_once(monkeypatch):
    # each polygon_mismatch(n) builds a fresh theory, so its dimension search
    # runs and shares one graph with the clique number
    built = []
    readable_pairs = gpt._readable_pairs
    monkeypatch.setattr(gpt, "_readable_pairs", lambda one, zero: built.append(1) or readable_pairs(one, zero))
    for n in (5, 8, 13):
        built.clear()
        record = constructions.polygon_mismatch(n)
        assert len(built) == 1, n
        assert record.information_dimension >= record.measurement_dimension


# --- the audit path's bits ------------------------------------------------------------

# (stream, catalog entry, measurement labels): the three criterion-14 streams
# of perfbench's ensemble-audit, and the criterion-13 streams on 3 and 4
# registers; each ensemble goes through both evaluate_icp and the ledger
AUDIT_STREAMS = (
    ("classical-bit", catalog.classical_bit, ("X", "Z")),
    ("classical-trit", catalog.classical_trit, ("E1", "E2")),
    ("qubit", catalog.qubit, ("X", "Z")),
    ("trit-3", catalog.classical_trit, ("E1", "E2", "E3")),
    ("trit-4", catalog.classical_trit, ("E1", "E2", "E3", "E1")),
)
AUDIT_SEEDS = range(4)
AUDIT_DRAWS = 10  # ensembles drawn in sequence per seed


def _audit_digest(make, labels):
    """sha256 over each ensemble in draw order: ``random_ensemble``'s arrays,
    then the JSON of its ``evaluate_icp`` report and of its ledger."""
    entry = make()
    assignment = _assignment(entry, labels)
    digest = hashlib.sha256()
    for seed in AUDIT_SEEDS:
        rng = np.random.default_rng([seed, len(labels)])
        for _ in range(AUDIT_DRAWS):
            ens = sampling.random_ensemble(entry, rng, n_registers=len(labels))
            for arr in (ens.probs, ens.coords, ens.registers):
                digest.update(arr.tobytes())
            for doc in (engine.evaluate_icp(ens, assignment).to_json(), proofs.proof_chain_check(ens, assignment).to_json()):
                digest.update(json.dumps(doc).encode())
    return digest.hexdigest()


# taken before the pass-first state checks and the named-tuple ledger steps
AUDIT_DIGESTS = {
    "classical-bit": "f8cfad032aade1bc8b8579ff356a08f6cdf57331c40a5f9c28d19f0d759af95b",
    "classical-trit": "98c6808fa47ae2542ed1ed162c1efd45cb2161e6f5ca4c28c16430dd55e5dc26",
    "qubit": "0b0f7a90ee851ac53bceb99fee0b689f905c34a8517604d9f546ddd474d368a7",
    "trit-3": "c41fb738f53b0a33a04e85b81906a551bbd321c3d92563ece853ff6ab5ba895a",
    "trit-4": "933c8ebc4e86592697fc4a7556d8851b2d0eb23f04a58bfa213dd9f8d4507e0d",
}


@pytest.mark.parametrize("stream", AUDIT_STREAMS, ids=[s[0] for s in AUDIT_STREAMS])
def test_the_audit_path_keeps_its_pinned_bits(stream):
    name, make, labels = stream
    assert _audit_digest(make, labels) == AUDIT_DIGESTS[name]


def test_a_ledger_step_is_an_immutable_positional_record():
    step = ChainStep("H(S) <= log2(d)", "inequality", 0.75, 1.0)
    assert (step.name, step.kind, step.lhs, step.rhs, step.margin) == ("H(S) <= log2(d)", "inequality", 0.75, 1.0, 0.25)
    identity = ChainStep("I = I", "identity", 1.0, 1.5)
    assert identity.margin == -0.5
    assert identity.to_json() == {"name": "I = I", "kind": "identity", "lhs": 1.0, "rhs": 1.5, "margin": -0.5}
    with pytest.raises(AttributeError):
        step.lhs = 0.0
