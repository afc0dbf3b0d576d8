"""Entropy axiom stress tests and the step-by-step inequality derivation."""
import math

import numpy as np
import pytest

from icp_lab import (
    AXIOM_TOL,
    ChainNotApplicable,
    IDENTITY_TOL,
    ObservableAssignment,
    Quantum,
    axiom_suite,
    build_ensemble,
    catalog,
    classical_carrier,
    info,
    proof_chain_check,
    sampling,
)
from icp_lab.axioms import _AXIOMS, _CHUNK, _draw_trials, _evaluate_trials, _tables


@pytest.mark.parametrize("kind", ["shannon", "von-neumann"])
def test_axiom_suite_passes(kind):
    reports = axiom_suite(kind, trials=300, seed=5)
    assert [r.axiom for r in reports] == ["i", "ii", "iii", "iv", "v"]
    for r in reports:
        assert r.passed, f"axiom {r.axiom} violated by {r.max_violation}"
        assert r.max_violation <= AXIOM_TOL
        assert r.entropy_kind == kind
        assert r.trials == 300


def test_axiom_suite_rejects_unknown_kind():
    with pytest.raises(ValueError):
        axiom_suite("renyi", trials=10)


def test_axiom_suite_takes_trials_as_an_integer():
    for trials in (True, np.int64(1)):
        reports = axiom_suite("shannon", trials=trials)
        assert [type(r.to_json()["trials"]) for r in reports] == [int] * 5
        assert [r.trials for r in reports] == [1] * 5
    with pytest.raises(TypeError):
        axiom_suite("shannon", trials=2.5)
    with pytest.raises(ValueError):
        axiom_suite("shannon", trials=False)


AXIOMS = [(kind, name) for kind in _AXIOMS for name in _AXIOMS[kind]]


@pytest.mark.parametrize("kind, name", AXIOMS)
def test_axiom_groups_evaluate_like_single_trials(kind, name):
    draw, evaluate = _AXIOMS[kind][name]
    drawn = list(_draw_trials(draw, np.random.SeedSequence([9, len(name)]), 200))
    one_at_a_time = np.array([evaluate(*(a[None] for a in arrays))[0] for _, arrays in drawn])
    assert _evaluate_trials(evaluate, drawn).tobytes() == one_at_a_time.tobytes()


# --- each axiom's draws, finished, against per-trial oracles ---------------------
#
# A draw returns raw generator output and its evaluation finishes the whole
# stack. These are the draws as they were made one trial at a time, each
# finished alone: a state's draws are its Dirichlet eigenvalues, then the
# real and the imaginary Gaussian matrix of its basis, and it is finished as
# u diag(eigs) u^dagger with u the phase-fixed QR unitary of that matrix.

def _haar(parts):
    q, r = np.linalg.qr(parts[0] + 1j * parts[1])
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _per_trial_states(rng, dim, n):
    rhos = []
    for _ in range(n):
        eigs = info._dirichlet_ones(rng, dim)
        u = _haar(rng.normal(size=(2, dim, dim)))
        rhos.append((u * eigs[None, :]) @ u.conj().T)
    return np.array(rhos)


def _per_trial_joint(*highs):
    def draw(rng):
        shape = tuple(int(rng.integers(2, high)) for high in highs)
        return (info._dirichlet_ones(rng, math.prod(shape)).reshape(shape),)

    return draw


def _per_trial_channel(rng):
    s, a, x = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    joint = info._dirichlet_ones(rng, s * a).reshape(s, a)
    return joint, info._dirichlet_ones(rng, x, s)


def _per_trial_cq(rng):
    dim, nc = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    return info._dirichlet_ones(rng, nc), _per_trial_states(rng, dim, nc)


def _per_trial_density(rng):
    return (_per_trial_states(rng, int(rng.integers(2, 9)), 1)[0],)


def _per_trial_cq_grid(rng):
    p = info._dirichlet_ones(rng, 4).reshape(2, 2)
    return p, _per_trial_states(rng, 2, 4).reshape(2, 2, 2, 2)


def _per_trial_cq_measured(rng):
    probs, rhos = _per_trial_cq(rng)
    return probs, rhos, _haar(rng.normal(size=(2, rhos.shape[1], rhos.shape[1])))


def _finish_cq(p, exponentials, parts):
    return info._dirichlet_rows(p), info._densities(exponentials, parts)


# (per-trial draw, finishing of the raw stacks) of each axiom
PER_TRIAL = {
    "shannon": {
        "i": (_per_trial_joint(5, 5), lambda e: (_tables(e),)),
        "ii": (_per_trial_joint(9), lambda e: (_tables(e),)),
        "iii": (_per_trial_joint(5, 5), lambda e: (_tables(e),)),
        "iv": (_per_trial_joint(4, 4, 4), lambda e: (_tables(e),)),
        "v": (_per_trial_channel, lambda joint, rows: (_tables(joint), info._dirichlet_rows(rows))),
    },
    "von-neumann": {
        "i": (_per_trial_cq, _finish_cq),
        "ii": (_per_trial_density, lambda e, parts: (info._densities(e, parts),)),
        "iii": (_per_trial_cq, _finish_cq),
        "iv": (_per_trial_cq_grid, lambda p, e, parts: (_tables(p), info._densities(e, parts))),
        "v": (
            _per_trial_cq_measured,
            lambda p, e, parts, m: (*_finish_cq(p, e, parts), info._haar_from_gaussian(m)),
        ),
    },
}


@pytest.mark.parametrize("kind, name", AXIOMS)
def test_finished_draws_equal_the_per_trial_helpers(kind, name):
    draw, _ = _AXIOMS[kind][name]
    per_trial, finish = PER_TRIAL[kind][name]
    for seed in range(40):
        raw_rng, helper_rng = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
        keyed = [draw(raw_rng) for _ in range(30)]
        helped = [per_trial(helper_rng) for _ in range(30)]
        assert raw_rng.bit_generator.state == helper_rng.bit_generator.state, seed
        # finish each group of one shape key as one stack, as the evaluations do
        groups = {}
        for i, (key, _) in enumerate(keyed):
            groups.setdefault(key, []).append(i)
        for index in groups.values():
            raw = [keyed[i][1] for i in index]
            assert len({tuple(a.shape for a in arrays) for arrays in raw}) == 1  # a key fixes the shapes
            finished = finish(*(np.array(stack) for stack in zip(*raw)))
            expected = [np.array(stack) for stack in zip(*(helped[i] for i in index))]
            assert [a.shape for a in finished] == [a.shape for a in expected]
            assert [a.tobytes() for a in finished] == [a.tobytes() for a in expected], (seed, index)


# max_violation reprs recorded from the scalar, trial-at-a-time suite; axiom i
# is rounding noise, so only bit-identical trials reproduce it. Fewer than 64
# trials leave blocks empty.
PINNED_AXIOM_I = {
    ("shannon", 0): ["2.220446049250313e-16", "8.881784197001252e-16", "8.881784197001252e-16",
                     "1.1102230246251565e-15"],
    ("shannon", 11): ["6.661338147750939e-16", "8.881784197001252e-16", "8.881784197001252e-16",
                      "8.881784197001252e-16"],
    ("von-neumann", 0): ["2.220446049250313e-16", "4.440892098500626e-16", "4.440892098500626e-16",
                         "4.440892098500626e-16"],
    ("von-neumann", 11): ["2.220446049250313e-16", "4.440892098500626e-16", "4.440892098500626e-16",
                          "4.440892098500626e-16"],
}


@pytest.mark.parametrize("kind, seed", PINNED_AXIOM_I)
def test_axiom_suite_max_violations_are_pinned(kind, seed):
    for trials, axiom_i in zip((1, 63, 65, 1000), PINNED_AXIOM_I[kind, seed]):
        reports = axiom_suite(kind, trials=trials, seed=seed)
        assert [repr(r.max_violation) for r in reports] == [axiom_i] + ["0.0"] * 4


# each axiom's largest unclipped trial value at 1 000 trials, recorded before
# the draws returned raw generator output; axioms ii-v report a clipped 0.0,
# so only these values show a slip in their draws or their finishing
PINNED_UNCLIPPED = {
    ("shannon", 0): ["1.1102230246251565e-15", "-2.9434730208777182e-09", "-0.10257084860379662",
                     "-0.0024536785609758915", "-4.2866980348721384e-05"],
    ("shannon", 11): ["8.881784197001252e-16", "-7.717824490716119e-05", "-0.1651848318580197",
                      "-0.0004954312816103368", "-6.11799556695658e-05"],
    ("von-neumann", 0): ["4.440892098500626e-16", "-0.00010753376801286851", "-0.1046584880057002",
                         "-0.0020342389376106773", "-0.0001995993470484958"],
    ("von-neumann", 11): ["4.440892098500626e-16", "-3.422448210599338e-05", "-0.062068030441179",
                          "-0.000603930470029157", "-0.00024836547653483976"],
}


@pytest.mark.parametrize("kind, seed", PINNED_UNCLIPPED)
def test_every_axiom_largest_unclipped_value_is_pinned(kind, seed):
    largest = []
    axiom_seeds = np.random.SeedSequence(seed).spawn(len(_AXIOMS[kind]))  # as axiom_suite spawns them
    for (draw, evaluate), axiom_seed in zip(_AXIOMS[kind].values(), axiom_seeds):
        drawn = list(_draw_trials(draw, axiom_seed, 1000))
        values = np.concatenate([_evaluate_trials(evaluate, drawn[i : i + _CHUNK]) for i in range(0, 1000, _CHUNK)])
        assert not np.isnan(values).any()
        largest.append(repr(float(values.max())))
    assert largest == PINNED_UNCLIPPED[kind, seed]


def _two_register_assignment(entry):
    th = entry.theory
    return ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), 1)))


def test_chain_not_applicable_for_square_state_space(sbit_entry):
    states = {(a, b): catalog.sbit_state(2 * a - 1.0, 2 * b - 1.0) for a in (0, 1) for b in (0, 1)}
    ens = build_ensemble(
        sbit_entry.theory,
        [(0.25, states[(a, b)], (a, b)) for a in (0, 1) for b in (0, 1)],
        (2, 2),
    )
    with pytest.raises(ChainNotApplicable):
        proof_chain_check(ens, _two_register_assignment(sbit_entry))


# each theory's classical carrier size |S|, None where it has none
CARRIER_SIZES = {
    "classical-bit": 2, "classical-trit": 3, "hbit": 4, "sbit": None, "qubit": None,
    "pgnst:3:2": None, "polygon:3": 3, "polygon:4": None, "polygon:5": None, "polygon:6": None,
}


@pytest.mark.parametrize("theory_id", CARRIER_SIZES)
def test_the_ledger_and_the_ceiling_share_one_classical_carrier(theory_id):
    """``classical_carrier`` is None exactly when the ledger finds no classical
    carrier; a quantum theory has none and takes the ledger's quantum path."""
    entry = catalog.resolve(theory_id)
    theory = entry.theory
    carrier = classical_carrier(theory)
    assert (None if carrier is None else len(carrier)) == CARRIER_SIZES[theory_id]
    labels = list(theory.measurements)[:2]
    assignment = ObservableAssignment(tuple((theory.measurement(l), i) for i, l in enumerate(labels)))
    ens = sampling.random_ensemble(entry, np.random.default_rng(11), n_registers=len(labels))
    try:
        proof_chain_check(ens, assignment)
    except ChainNotApplicable:
        applicable = False
    else:
        applicable = True
    assert applicable is (carrier is not None or isinstance(theory.variant, Quantum))


def test_chain_pinpoints_restricted_classical_break(hbit_entry):
    """With hidden four-state classicality the chain runs, and it localizes the
    failure: every step holds except the dimension bound on the source entropy."""
    ens = build_ensemble(
        hbit_entry.theory,
        [(0.25, catalog.hbit_state(a, b), (a, b)) for a in (0, 1) for b in (0, 1)],
        (2, 2),
    )
    ledger = proof_chain_check(ens, _two_register_assignment(hbit_entry))
    assert not ledger.all_hold()
    broken = [s for s in ledger.steps if s.kind == "inequality" and s.margin < -AXIOM_TOL]
    names = {s.name for s in broken}
    assert "H(S) <= log2(d)" in names
    assert any("sum of gains" in n for n in names)
    # the structural steps are all intact
    for step in ledger.steps:
        if step.name in names:
            continue
        if step.kind == "identity":
            assert abs(step.lhs - step.rhs) <= IDENTITY_TOL
        else:
            assert step.margin >= -AXIOM_TOL


def test_chain_holds_on_random_classical_ensembles(rng, bit_entry):
    assignment = _two_register_assignment(bit_entry)
    for _ in range(200):
        ens = sampling.random_ensemble(bit_entry, rng)
        ledger = proof_chain_check(ens, assignment)
        assert ledger.all_hold()
        assert ledger.min_inequality_margin() >= -AXIOM_TOL
        assert ledger.max_identity_error() <= IDENTITY_TOL


def test_chain_holds_on_random_qubit_ensembles(rng, qubit_entry):
    assignment = _two_register_assignment(qubit_entry)
    for _ in range(50):
        ens = sampling.random_ensemble(qubit_entry, rng)
        ledger = proof_chain_check(ens, assignment)
        assert ledger.all_hold()


def test_chain_three_observables_classical(rng, trit_entry):
    th = trit_entry.theory
    assignment = ObservableAssignment(
        tuple((th.measurement(l), i) for i, l in enumerate(("E1", "E2", "E3")))
    )
    for _ in range(25):
        ens = sampling.random_ensemble(trit_entry, rng, n_registers=3, alphabet=2)
        ledger = proof_chain_check(ens, assignment)
        assert ledger.all_hold()
        assert ledger.bound == pytest.approx(np.log2(3), abs=1e-15)


def test_chain_step_serialization(rng, bit_entry):
    ens = sampling.random_ensemble(bit_entry, rng)
    ledger = proof_chain_check(ens, _two_register_assignment(bit_entry))
    doc = ledger.to_json()
    assert doc["observed_dimension"] == 2
    assert len(doc["steps"]) == len(ledger.steps)
    for raw, step in zip(doc["steps"], ledger.steps):
        assert raw["name"] == step.name
        assert raw["kind"] in ("identity", "inequality")
        assert raw["margin"] == pytest.approx(step.margin, abs=0.0)
