"""Property tests of evaluate_icp and the derivation ledger: invariances under
relabelling and splitting entries, relabelling registers, reordering pairs
and permuting outcomes, and the bound on compliant theories."""
import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from icp_lab import (  # noqa: E402
    CorrelatedEnsemble,
    Measurement,
    ObservableAssignment,
    State,
    build_ensemble,
    catalog,
    evaluate_icp,
    proof_chain_check,
    sampling,
)

# compliant catalog theories and the measurements paired with registers A, B
THEORIES = {
    "classical-bit": (catalog.classical_bit(), ("X", "Z")),
    "classical-trit": (catalog.classical_trit(), ("E1", "E2")),
    "qubit": (catalog.qubit(), ("X", "Z")),
}
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def ensembles(draw):
    """A seeded random ensemble on one theory, its assignment and its report."""
    name = draw(st.sampled_from(sorted(THEORIES)))
    entry, labels = THEORIES[name]
    alphabet = draw(st.integers(2, 3))
    ens = sampling.random_ensemble(entry, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), alphabet=alphabet)
    th = entry.theory
    assignment = ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))
    return ens, assignment, evaluate_icp(ens, assignment)


def _rows(ens):
    """The ensemble's (p, state, registers) rows, as build_ensemble takes them."""
    return [(p, State(c), tuple(r)) for p, c, r in zip(ens.probs.tolist(), ens.coords, ens.registers.tolist())]


def _assert_same_report(report, base, marginal=None, order=None):
    """``report`` is ``base`` with its pairs taken in ``order`` (default: as
    listed): d and the verdict exactly, every number to 1e-12, the register
    marginal ``marginal`` (default: base's, its axes in ``order``)."""
    order = range(len(base.gains)) if order is None else order
    assert np.allclose(report.gains, [base.gains[i] for i in order], rtol=0.0, atol=1e-12)
    for field in ("redundancy", "extractable", "bound", "margin"):
        assert getattr(report, field) == pytest.approx(getattr(base, field), abs=1e-12)
    assert report.observed_dim == base.observed_dim
    assert report.violated == base.violated
    expected = np.transpose(base.register_marginal, order) if marginal is None else marginal
    assert np.allclose(report.register_marginal, expected, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data(), case=ensembles())
def test_permuting_entries_leaves_the_report_unchanged(data, case):
    ens, assignment, base = case
    rows = _rows(ens)
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = build_ensemble(ens.theory, [rows[i] for i in order], ens.register_alphabets)
    _assert_same_report(evaluate_icp(shuffled, assignment), base)


@PROPERTY_SETTINGS
@given(data=st.data(), case=ensembles())
def test_relabelling_register_values_leaves_the_report_unchanged(data, case):
    ens, assignment, base = case
    relabel = [np.array(data.draw(st.permutations(range(a)))) for a in ens.register_alphabets]
    entries = [(p, state, tuple(int(relabel[r][v]) for r, v in enumerate(regs))) for p, state, regs in _rows(ens)]
    relabelled = build_ensemble(ens.theory, entries, ens.register_alphabets)
    # the marginal moves with its labels: new[relabel_A[a], relabel_B[b]] = old[a, b]
    marginal = np.empty_like(base.register_marginal)
    marginal[np.ix_(*relabel)] = base.register_marginal
    _assert_same_report(evaluate_icp(relabelled, assignment), base, marginal)


@PROPERTY_SETTINGS
@given(case=ensembles())
def test_extractable_stays_within_log2_d_on_compliant_theories(case):
    _, _, report = case
    assert report.extractable <= math.log2(report.observed_dim) + 1e-9
    assert not report.violated


@PROPERTY_SETTINGS
@given(data=st.data(), case=ensembles())
def test_splitting_an_entry_leaves_the_report_and_ledger_unchanged(data, case):
    """An entry split in two with the same state and registers, one part in
    its place and one at the end, is the same ensemble."""
    ens, assignment, base = case
    entries = _rows(ens)
    i = data.draw(st.integers(0, len(entries) - 1))
    share = data.draw(st.floats(0.0, 1.0))
    p, state, regs = entries[i]
    entries[i] = (share * p, state, regs)
    entries.append(((1.0 - share) * p, state, regs))
    split = build_ensemble(ens.theory, entries, ens.register_alphabets)
    _assert_same_report(evaluate_icp(split, assignment), base)
    ledger, reference = proof_chain_check(split, assignment), proof_chain_check(ens, assignment)
    assert [s.name for s in ledger.steps] == [s.name for s in reference.steps]
    for step, ref in zip(ledger.steps, reference.steps):
        assert step.lhs == pytest.approx(ref.lhs, abs=1e-12)
        assert step.rhs == pytest.approx(ref.rhs, abs=1e-12)
    assert ledger.extractable == pytest.approx(reference.extractable, abs=1e-12)


# every catalog theory and two catalogued families, each with the
# measurements its assignments draw from; the trit's fine three-outcome
# readout gives the outcome permutations more than a swap
RELATION_THEORIES = {entry.theory.theory_id: entry for entry in (*catalog.list_catalog(), catalog.polygon(5), catalog.pgnst(3, 2))}


def _measurements(entry):
    th = entry.theory
    fine = [Measurement("T", th.variant.extreme_effects)] if entry.theory.theory_id == "classical-trit" else []
    return [th.measurements[label] for label in sorted(th.measurements)] + fine


@st.composite
def assignments(draw):
    """A seeded random ensemble on any catalog theory, one entry per value
    string of 2 or 3 registers of alphabet 2 or 3 each, register r paired
    with a drawn measurement, and its report."""
    entry = RELATION_THEORIES[draw(st.sampled_from(sorted(RELATION_THEORIES)))]
    alphabets = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    registers = np.array(list(itertools.product(*map(range, alphabets))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs, coords = rng.dirichlet(np.ones(len(registers))), entry.theory.variant.random_coords(rng, len(registers))
    ens = CorrelatedEnsemble(entry.theory, probs, coords, registers, alphabets)
    measurements = _measurements(entry)
    pairs = tuple((draw(st.sampled_from(measurements)), r) for r in range(len(alphabets)))
    assignment = ObservableAssignment(pairs)
    return ens, assignment, evaluate_icp(ens, assignment)


@PROPERTY_SETTINGS
@given(data=st.data(), case=assignments())
def test_relabelling_the_registers_leaves_the_report_unchanged(data, case):
    """Register r renamed move[r]: the ensemble's columns and alphabets and
    the assignment's indices move together."""
    ens, assignment, base = case
    move = data.draw(st.permutations(range(ens.n_registers)))
    registers = np.empty_like(ens.registers)
    registers[:, move] = ens.registers
    alphabets = [0] * ens.n_registers
    for r, a in enumerate(ens.register_alphabets):
        alphabets[move[r]] = a
    renamed = CorrelatedEnsemble(ens.theory, ens.probs, ens.coords, registers, alphabets)
    relabelled = ObservableAssignment(tuple((m, move[r]) for m, r in assignment.pairs))
    _assert_same_report(evaluate_icp(renamed, relabelled), base)


@PROPERTY_SETTINGS
@given(data=st.data(), case=assignments())
def test_reordering_the_pairs_permutes_the_gains_alone(data, case):
    ens, assignment, base = case
    order = data.draw(st.permutations(range(len(assignment.pairs))))
    reordered = ObservableAssignment(tuple(assignment.pairs[i] for i in order))
    report = evaluate_icp(ens, reordered)
    assert report.pair_labels == tuple(base.pair_labels[i] for i in order)
    _assert_same_report(report, base, order=order)


@PROPERTY_SETTINGS
@given(data=st.data(), case=assignments())
def test_permuting_a_measurements_outcomes_leaves_the_report_unchanged(data, case):
    ens, assignment, base = case
    i = data.draw(st.integers(0, len(assignment.pairs) - 1))
    m, r = assignment.pairs[i]
    outcomes = data.draw(st.permutations(m.effects))
    pairs = list(assignment.pairs)
    pairs[i] = (Measurement(m.label, outcomes), r)
    report = evaluate_icp(ens, ObservableAssignment(tuple(pairs)))
    assert report.pair_labels == base.pair_labels
    _assert_same_report(report, base)
