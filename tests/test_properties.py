"""Property tests of evaluate_icp and the derivation ledger: invariances under
relabelling and splitting entries, and the bound on compliant theories."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from icp_lab import (  # noqa: E402
    ObservableAssignment,
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


def _assert_same_report(report, base, marginal=None):
    assert np.allclose(report.gains, base.gains, rtol=0.0, atol=1e-12)
    for field in ("redundancy", "extractable", "bound", "margin"):
        assert getattr(report, field) == pytest.approx(getattr(base, field), abs=1e-12)
    assert report.observed_dim == base.observed_dim
    assert report.violated == base.violated
    expected = base.register_marginal if marginal is None else marginal
    assert np.allclose(report.register_marginal, expected, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data(), case=ensembles())
def test_permuting_entries_leaves_the_report_unchanged(data, case):
    ens, assignment, base = case
    order = data.draw(st.permutations(range(len(ens.entries))))
    shuffled = build_ensemble(ens.theory, [ens.entries[i] for i in order], ens.register_alphabets)
    _assert_same_report(evaluate_icp(shuffled, assignment), base)


@PROPERTY_SETTINGS
@given(data=st.data(), case=ensembles())
def test_relabelling_register_values_leaves_the_report_unchanged(data, case):
    ens, assignment, base = case
    relabel = [np.array(data.draw(st.permutations(range(a)))) for a in ens.register_alphabets]
    entries = [
        (e.probability, e.state, tuple(int(relabel[r][v]) for r, v in enumerate(e.registers)))
        for e in ens.entries
    ]
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
    i = data.draw(st.integers(0, len(ens.entries) - 1))
    share = data.draw(st.floats(0.0, 1.0))
    entry = ens.entries[i]
    entries = [(e.probability, e.state, e.registers) for e in ens.entries]
    entries[i] = (share * entry.probability, entry.state, entry.registers)
    entries.append(((1.0 - share) * entry.probability, entry.state, entry.registers))
    split = build_ensemble(ens.theory, entries, ens.register_alphabets)
    _assert_same_report(evaluate_icp(split, assignment), base)
    ledger, reference = proof_chain_check(split, assignment), proof_chain_check(ens, assignment)
    assert [s.name for s in ledger.steps] == [s.name for s in reference.steps]
    for step, ref in zip(ledger.steps, reference.steps):
        assert step.lhs == pytest.approx(ref.lhs, abs=1e-12)
        assert step.rhs == pytest.approx(ref.rhs, abs=1e-12)
    assert ledger.extractable == pytest.approx(reference.extractable, abs=1e-12)
