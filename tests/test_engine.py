"""Ensemble evaluation engine: reports, invariances, optimizer, rotation sweep."""
import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from icp_lab import (
    CorrelatedEnsemble,
    Measurement,
    ObservableAssignment,
    OptimizerConfig,
    build_ensemble,
    catalog,
    engine,
    evaluate_icp,
    gpt,
    info,
    joint_outcome_table,
    maximize_extractable,
    qubit_rotation_sweep,
    register_marginal,
    sampling,
    sweep,
)
from test_info import _negated_dot_plogp_bits, _scalar_binary_entropy


def _bit_assignment(entry):
    th = entry.theory
    return ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), 1)))


def _corner_ensemble(entry, states):
    return build_ensemble(
        entry.theory,
        [(0.25, states[(a, b)], (a, b)) for a in (0, 1) for b in (0, 1)],
        (2, 2),
    )


@pytest.fixture(scope="module")
def sbit_violation_ensemble():
    entry = catalog.sbit()
    states = {
        (a, b): catalog.sbit_state(2 * a - 1.0, 2 * b - 1.0) for a in (0, 1) for b in (0, 1)
    }
    return entry, _corner_ensemble(entry, states)


def test_build_ensemble_rejects_bad_probabilities(sbit_entry):
    s = catalog.sbit_state(0.0, 0.0)
    with pytest.raises(ValueError):
        build_ensemble(sbit_entry.theory, [(0.6, s, (0, 0)), (0.6, s, (1, 1))])
    with pytest.raises(ValueError):
        build_ensemble(sbit_entry.theory, [])


def test_build_ensemble_rejects_invalid_state(sbit_entry):
    corner = catalog.sbit_state(1.0, 1.0)
    bad = type(corner)(corner.coords * 2.0)
    with pytest.raises(ValueError):
        build_ensemble(sbit_entry.theory, [(1.0, bad, (0,))])


def test_build_ensemble_rejects_register_outside_alphabet(sbit_entry):
    s = catalog.sbit_state(0.0, 0.0)
    with pytest.raises(ValueError):
        build_ensemble(sbit_entry.theory, [(1.0, s, (3,))], (2,))


def test_joint_outcome_table_normalized(sbit_violation_ensemble):
    entry, ens = sbit_violation_ensemble
    t = joint_outcome_table(ens, entry.theory.measurement("X"), 0)
    assert t.sum() == pytest.approx(1.0, abs=1e-12)
    assert t.shape == (2, 2)


def test_register_marginal_matches_hand_sum(sbit_violation_ensemble):
    _, ens = sbit_violation_ensemble
    marg = register_marginal(ens, (0, 1))
    assert np.allclose(marg, np.full((2, 2), 0.25))


def test_evaluate_icp_sbit_corners(sbit_violation_ensemble):
    entry, ens = sbit_violation_ensemble
    report = evaluate_icp(ens, _bit_assignment(entry))
    assert report.extractable == pytest.approx(2.0, abs=1e-12)
    assert report.observed_dim == 2
    assert report.bound == pytest.approx(1.0, abs=1e-15)
    assert report.violated
    assert report.margin == pytest.approx(-1.0, abs=1e-12)
    # the report's marginal is the read-only table register_marginal returns
    assert not report.register_marginal.flags.writeable


def test_evaluate_icp_certifies_no_violation_on_a_partial_dimension_search(
    sbit_violation_ensemble, monkeypatch
):
    entry, ens = sbit_violation_ensemble
    full = gpt.observed_dimension(entry.theory)
    partial = dataclasses.replace(full, d=1, exhaustive=False, notes="search budget exhausted")
    monkeypatch.setattr(engine, "observed_dimension", lambda theory: partial)
    report = evaluate_icp(ens, _bit_assignment(entry))
    # d = 1 is only a lower bound: the negative margin is reported, not certified
    assert report.observed_dim == 1
    assert report.bound == 0.0
    assert report.margin == pytest.approx(-2.0, abs=1e-12)
    assert not report.violated


def test_evaluate_icp_register_relabeling_invariance(sbit_violation_ensemble):
    entry, ens = sbit_violation_ensemble
    assignment = _bit_assignment(entry)
    base = evaluate_icp(ens, assignment)
    # flip both register symbols: mutual informations cannot change
    flipped = build_ensemble(
        entry.theory,
        [(p, gpt.State(c), (1 - r[0], 1 - r[1])) for p, c, r in zip(ens.probs, ens.coords, ens.registers.tolist())],
        (2, 2),
    )
    again = evaluate_icp(flipped, assignment)
    assert again.extractable == pytest.approx(base.extractable, abs=1e-12)
    assert again.redundancy == pytest.approx(base.redundancy, abs=1e-12)


def test_evaluate_icp_redundancy_only_sees_register_marginal(rng):
    entry = catalog.qubit()
    assignment = _bit_assignment(entry)
    ens = sampling.random_ensemble(entry, rng)
    report = evaluate_icp(ens, assignment)
    # replace every state with a fixed one: gains collapse but redundancy stays
    fixed = catalog.qubit_state_from_bloch(0.0, 0.0, 0.0)
    same_regs = build_ensemble(
        entry.theory,
        [(p, fixed, r) for p, r in zip(ens.probs, ens.registers.tolist())],
        ens.register_alphabets,
    )
    degenerate = evaluate_icp(same_regs, assignment)
    assert degenerate.redundancy == pytest.approx(report.redundancy, abs=1e-12)
    assert degenerate.extractable == pytest.approx(-report.redundancy, abs=1e-12)


def test_evaluate_icp_single_register():
    entry = catalog.qubit()
    th = entry.theory
    ens = build_ensemble(
        th,
        [
            (0.5, catalog.qubit_state_from_bloch(0, 0, 1.0), (0,)),
            (0.5, catalog.qubit_state_from_bloch(0, 0, -1.0), (1,)),
        ],
        (2,),
    )
    report = evaluate_icp(ens, ObservableAssignment(((th.measurement("Z"), 0),)))
    assert report.redundancy == 0.0
    assert report.extractable == pytest.approx(1.0, abs=1e-12)
    assert not report.violated


def test_assignment_requires_distinct_registers(sbit_entry):
    th = sbit_entry.theory
    with pytest.raises(ValueError):
        ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), 0)))


@pytest.mark.parametrize("index", [0.9, 1.7, 1.0, math.nan, True, False, np.bool_(True)])
def test_an_assignment_register_index_must_be_an_integer(sbit_entry, index):
    """int() would take 0.9 and 1.7 to registers 0 and 1, and True and False
    to 1 and 0; the index follows the register values' rule instead."""
    th = sbit_entry.theory
    with pytest.raises(ValueError, match=f"^register index {re.escape(repr(index))} is not an integer$"):
        ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), index)))


def test_an_assignment_register_index_may_be_a_numpy_integer(sbit_entry):
    th = sbit_entry.theory
    assignment = ObservableAssignment(((th.measurement("X"), np.int64(1)), (th.measurement("Z"), np.uint8(0))))
    assert assignment.registers == (1, 0)
    assert all(type(r) is int for r in assignment.registers)


def test_maximize_extractable_sbit_grid_hits_two(sbit_entry):
    result = maximize_extractable(
        sbit_entry.theory,
        _bit_assignment(sbit_entry),
        OptimizerConfig(strategy="grid", max_evals=2000),
    )
    assert result.report.extractable == pytest.approx(2.0, abs=1e-9)


def test_maximize_extractable_classical_bit_stays_bounded(bit_entry):
    result = maximize_extractable(
        bit_entry.theory,
        _bit_assignment(bit_entry),
        OptimizerConfig(strategy="coordinate-descent", max_evals=8000),
    )
    assert result.report.extractable <= 1.0 + 1e-9
    assert not result.report.violated


def test_maximize_extractable_rejects_unknown_strategy(sbit_entry):
    with pytest.raises(ValueError):
        maximize_extractable(
            sbit_entry.theory,
            _bit_assignment(sbit_entry),
            OptimizerConfig(strategy="annealing"),
        )


def _product_ensembles(entry, n):
    """``n`` of ``random_ensemble``'s draws with every entry moved to the first
    entry's state and the entry probabilities replaced by a product of two
    register marginals. Every gain table and the register marginal are then
    product tables, whose information is 0 up to rounding: about a third of
    the raw values round below 0."""
    th = entry.theory
    rng = np.random.default_rng(29)
    for _ in range(n):
        ens = sampling.random_ensemble(entry, rng)
        probs = np.outer(info._dirichlet_ones(rng, 2), info._dirichlet_ones(rng, 2)).ravel()
        coords = np.repeat(ens.coords[:1], len(ens.coords), axis=0)
        yield CorrelatedEnsemble(th, probs, coords, ens.registers, ens.register_alphabets)


def _is_plus_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


@pytest.mark.parametrize(
    "make,labels",
    [(catalog.classical_bit, ("X", "Z")), (catalog.classical_trit, ("E1", "E2")), (catalog.qubit, ("X", "Z"))],
    ids=["classical-bit", "classical-trit", "qubit"],
)
def test_information_of_a_product_table_is_clamped_to_plus_zero(make, labels):
    """I(X:A) and I(A_1:A_2) are never negative: ``evaluate_icp`` and the
    optimizer's ``_information`` report exactly +0.0 where the kernel's raw
    value of a product table rounds to 0 or below, and a value of a few ulps
    where it rounds above."""
    entry = make()
    th = entry.theory
    assignment = ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))
    information = engine._SearchObjective._information
    negative = {"gain": 0, "redundancy": 0}
    for ens in _product_ensembles(entry, 100):
        report = evaluate_icp(ens, assignment)
        tables = [("gain", joint_outcome_table(ens, m, r)) for m, r in assignment.pairs]
        tables.append(("redundancy", register_marginal(ens, assignment.registers)))
        for (kind, table), reported in zip(tables, (*report.gains, report.redundancy)):
            raw = info._total_correlation(table)
            negative[kind] += raw < 0.0
            for got in (reported, information(table), information(table, {})):
                assert 0.0 <= got <= 1e-14
                if raw <= 0.0:
                    assert _is_plus_zero(got), (kind, raw, got)
    # the draws reach the clamps: without them these tests would see raw < 0
    assert negative["gain"] >= 20 and negative["redundancy"] >= 10, negative


# (name, catalog entry, measurement labels, strategy, max_evals, extractable repr,
#  evaluations, converged). The extractable values are those the search gave
#  when every grid candidate and every line-search point still built its own
#  ensemble and report; sbit's grid reaches the ceiling sum_i log2 k_i = 2 and
#  classical-bit's the ceiling log2 |S| = 1, so neither runs a descent, and
#  qubit spends its whole budget
OPTIMIZER_CASES = (
    ("classical-bit", catalog.classical_bit, ("X", "Z"), "coordinate-descent", 8000, "1.0", 96, True),
    ("sbit", catalog.sbit, ("X", "Z"), "random-restart", 4000, "2.0", 1536, True),
    ("qubit", catalog.qubit, ("X", "Z"), "random-restart", 4000, "0.7982479266142879", 4000, False),
    ("pgnst:3:2", lambda: catalog.pgnst(3.0, 2), ("X", "Z"), "coordinate-descent", 8000,
     "0.3774437510817341", 1833, True),
    ("classical-trit", catalog.classical_trit, ("E1", "E2"), "grid", 8000, "1.0", 486, True),
)


def _case(make, labels, strategy, max_evals, equal_gain=True):
    th = make().theory
    assignment = ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))
    return th, assignment, OptimizerConfig(strategy=strategy, max_evals=max_evals, equal_gain_constraint=equal_gain)


@pytest.mark.parametrize("case", OPTIMIZER_CASES, ids=[c[0] for c in OPTIMIZER_CASES])
def test_maximize_extractable_pinned_results(case):
    _, make, labels, strategy, max_evals, extractable, evaluations, converged = case
    theory, assignment, config = _case(make, labels, strategy, max_evals)
    result = maximize_extractable(theory, assignment, config)
    assert repr(result.report.extractable) == extractable
    assert result.evaluations == evaluations
    assert result.converged is converged
    assert result.report.to_json() == evaluate_icp(result.ensemble, assignment).to_json()


def _reference_objective(theory, assignment, family, weights, state_params, equal_gain):
    """The search objective as one ensemble and one evaluate_icp report per point."""
    alphabets = tuple(len(m.effects) for m, _ in sorted(assignment.pairs, key=lambda pair: pair[1]))
    combos = np.array(list(itertools.product(*[range(a) for a in alphabets])))
    w = np.clip(weights, 0.0, None)
    w = np.full_like(w, 1.0 / len(w)) if w.sum() <= 0.0 else w / w.sum()
    coords = np.array([family.build(params) for params in state_params])
    report = evaluate_icp(CorrelatedEnsemble(theory, w, coords, combos, alphabets), assignment)
    value = report.extractable
    if equal_gain and len(report.gains) > 1:
        value -= 4.0 * (max(report.gains) - min(report.gains))
    return value


@pytest.mark.parametrize("case", OPTIMIZER_CASES, ids=[c[0] for c in OPTIMIZER_CASES])
def test_value_gives_the_bits_of_the_per_ensemble_objective(case):
    """Every point is scored with ``value`` or a line scorer built on it, so
    it must give the bits of the objective taken from an ensemble and its
    report."""
    _, make, labels, strategy, max_evals = case[:5]
    theory, assignment, config = _case(make, labels, strategy, max_evals)
    family = theory.variant
    objective = engine._SearchObjective(theory, assignment, config.equal_gain_constraint)
    n_combo, sp = len(objective.combos), family.search_params
    lo, hi = family.search_bounds
    rng = np.random.default_rng(43)
    for _ in range(20):
        weights = rng.random(n_combo)
        weights[rng.random(n_combo) < 0.3] = 0.0
        state_params = rng.uniform(lo, hi, size=(n_combo, sp))
        coords = np.array([family.build(params) for params in state_params])
        expected = _reference_objective(
            theory, assignment, family, weights, state_params, config.equal_gain_constraint
        )
        assert objective.value(engine._normalized(weights), coords) == expected


@pytest.mark.parametrize("index", [0, 4], ids=[OPTIMIZER_CASES[i][0] for i in (0, 4)])
def test_maximize_extractable_builds_one_ensemble_and_one_report(monkeypatch, index):
    """Only the winner becomes an ensemble, checked when built, with its report."""
    _, make, labels, strategy, max_evals, extractable = OPTIMIZER_CASES[index][:6]
    built, reported = [], []
    check = CorrelatedEnsemble.__post_init__
    monkeypatch.setattr(CorrelatedEnsemble, "__post_init__", lambda self: built.append(self) or check(self))
    evaluate = engine.evaluate_icp
    monkeypatch.setattr(engine, "evaluate_icp", lambda ens, a: reported.append(ens) or evaluate(ens, a))
    result = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert repr(result.report.extractable) == extractable
    assert built == reported == [result.ensemble]


@pytest.mark.parametrize("case", OPTIMIZER_CASES, ids=[c[0] for c in OPTIMIZER_CASES])
def test_grid_scores_match_the_per_ensemble_objective(case):
    _, make, labels, strategy, max_evals = case[:5]
    theory, assignment, config = _case(make, labels, strategy, max_evals)
    family = theory.variant
    objective = engine._SearchObjective(theory, assignment, config.equal_gain_constraint)
    seeds = family.search_seeds([m for m, _ in assignment.pairs])
    families = engine._register_families(objective.alphabets)
    n_combo = len(objective.combos)
    fam, choice = engine._grid_candidates(len(seeds), n_combo, len(families), max_evals)
    # the candidates come in the order of the nested family and seed loops
    scan_order = [(f, c) for f in range(len(families)) for c in itertools.product(range(len(seeds)), repeat=n_combo)]
    assert [(f, tuple(c)) for f, c in zip(fam.tolist(), choice.tolist())] == scan_order[: max_evals]
    w = np.array([engine._normalized(weights) for weights in families])
    seed_coords = np.array([family.build(params) for params in seeds])
    scores = objective.grid_scores(w, seed_coords, fam, choice)
    expected = [
        _reference_objective(
            theory, assignment, family, families[f], np.array([seeds[i] for i in c]), config.equal_gain_constraint
        )
        for f, c in zip(fam, choice)
    ]
    assert np.max(np.abs(scores - expected)) <= 1e-12


@pytest.mark.parametrize("n_seeds,n_combo,n_families", [(1, 3, 2), (2, 3, 3), (3, 2, 6), (4, 1, 2)])
def test_grid_candidates_are_the_nested_loops_cut_at_max_evals(n_seeds, n_combo, n_families):
    scan_order = [(f, c) for f in range(n_families) for c in itertools.product(range(n_seeds), repeat=n_combo)]
    for max_evals in range(1, len(scan_order) + 2):
        fam, choice = engine._grid_candidates(n_seeds, n_combo, n_families, max_evals)
        assert [(f, tuple(c)) for f, c in zip(fam.tolist(), choice.tolist())] == scan_order[:max_evals]


def test_grid_candidates_cut_inside_a_family_of_more_than_int64_choices():
    # 3**40 seed choices per family: a cut after 10 needs the last 3 digits only
    fam, choice = engine._grid_candidates(3, 40, 2, 10)
    assert fam.tolist() == [0] * 10
    assert [tuple(c) for c in choice.tolist()] == list(itertools.islice(itertools.product(range(3), repeat=40), 10))


def test_grid_falls_back_to_one_by_one_scores_on_a_seed_outside_the_state_space(monkeypatch, bit_entry):
    """A seed whose effect values fail ``effect_values``' range test makes
    ``grid_scores`` return None; the search then scores the candidates one
    by one and raises the scalar path's ValueError at the first candidate
    that holds the seed."""
    th = bit_entry.theory
    assignment = _bit_assignment(bit_entry)
    seeds = th.variant.search_seeds([m for m, _ in assignment.pairs])
    # a NaN weight survives ``build``'s normalisation, so the seed state is NaN
    monkeypatch.setattr(type(th.variant), "search_seeds", lambda self, measurements: [seeds[0], np.full(2, np.nan)])
    grid, scored = [], []
    grid_scores, value = engine._SearchObjective.grid_scores, engine._SearchObjective.value

    def recorded_grid_scores(self, *args):
        grid.append(grid_scores(self, *args))
        return grid[-1]

    def recorded_value(self, w, coords, *args, **kwargs):
        scored.append(coords.copy())
        return value(self, w, coords, *args, **kwargs)

    monkeypatch.setattr(engine._SearchObjective, "grid_scores", recorded_grid_scores)
    monkeypatch.setattr(engine._SearchObjective, "value", recorded_value)
    message = "effect value nan outside [0, 1]; invalid effect/state pair"
    with pytest.raises(ValueError, match=re.escape(message)):
        maximize_extractable(th, assignment, OptimizerConfig(strategy="grid", max_evals=500))
    assert grid == [None]
    # candidate 0 takes seed 0 for every combination and scores; candidate 1
    # takes the NaN seed for the last combination and raises
    assert len(scored) == 2
    assert np.isfinite(scored[0]).all() and np.isnan(scored[1][-1]).all()
    objective = engine._SearchObjective(th, assignment, True)
    with pytest.raises(ValueError, match=re.escape(message)):
        objective.value(np.full(4, 0.25), scored[1])


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((1100, 2), "register alphabet 1100 above MAX_ALPHABET = 1024"),
        ((1024, 1024, 2), "joint alphabet 2097152 above MAX_JOINT_ALPHABET = 1048576"),
    ],
)
def test_maximize_extractable_refuses_an_alphabet_past_the_caps_before_building(monkeypatch, bit_entry, sizes, message):
    """The search refuses the ensemble's alphabet caps, with the ensemble's
    messages, before it builds the register product or a one-hot matrix."""

    def built(*args):
        raise AssertionError("an array over the alphabets was built")

    monkeypatch.setattr(engine, "_register_product", built)
    monkeypatch.setattr(engine, "_one_hot_rows", built)
    th = bit_entry.theory
    even = {k: Measurement(f"U{k}", tuple(gpt.Effect(th.variant.unit.coords / k, f"u{i}") for i in range(k))) for k in sizes}
    measurements = [th.measurement("X") if k == 2 else even[k] for k in sizes]
    assignment = ObservableAssignment(tuple((m, r) for r, m in enumerate(measurements)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        maximize_extractable(th, assignment, OptimizerConfig("grid", 10))


@pytest.mark.parametrize("strategy", ["grid", "coordinate-descent"])
def test_maximize_extractable_checks_every_table_as_a_distribution(bit_entry, strategy):
    th = bit_entry.theory
    p0 = th.measurement("X").effects[0]
    twice = Measurement("X0X0", (p0, p0))  # its effects sum to twice the unit
    assignment = ObservableAssignment(((twice, 0), (th.measurement("Z"), 1)))
    with pytest.raises(ValueError, match="distribution sums to"):
        maximize_extractable(th, assignment, OptimizerConfig(strategy=strategy, max_evals=500))
    # the line searches score through the same checks
    objective = engine._SearchObjective(th, assignment, True)
    coords = np.array([th.variant.build(np.array([1.0, 0.0]))] * 4)
    w = np.full(4, 0.25)
    with pytest.raises(ValueError, match="distribution sums to") as expected:
        objective.value(w, coords)
    with pytest.raises(ValueError, match="distribution sums to") as state_line:
        objective.state_line(w)(coords)
    with pytest.raises(ValueError, match="distribution sums to") as weight_line:
        objective.weight_line(coords)(w)
    assert str(state_line.value) == str(weight_line.value) == str(expected.value)
    # a line search's memo keeps no failing table, so it raises on every visit
    for score, arg in ((objective.state_line(w), coords), (objective.weight_line(coords), w)):
        memo = {}
        for _ in range(3):
            with pytest.raises(ValueError, match="distribution sums to"):
                score(arg, memo=memo)
        assert memo == {}


@pytest.mark.parametrize("case", OPTIMIZER_CASES, ids=[c[0] for c in OPTIMIZER_CASES])
def test_line_scorers_give_the_bits_of_value(case):
    _, make, labels, strategy, max_evals = case[:5]
    theory, assignment, config = _case(make, labels, strategy, max_evals)
    family = theory.variant
    objective = engine._SearchObjective(theory, assignment, config.equal_gain_constraint)
    n_combo, sp = len(objective.combos), family.search_params
    lo, hi = family.search_bounds
    rng = np.random.default_rng(41)
    for _ in range(10):
        weights = rng.random(n_combo)
        weights[rng.random(n_combo) < 0.3] = 0.0
        state_params = rng.uniform(lo, hi, size=(n_combo, sp))
        coords = np.array([family.build(params) for params in state_params])
        # a state line, the end points included and scored again at the end;
        # with a line search's memo, a point seen before gives the same bits
        w = engine._normalized(weights)
        score, memo = objective.state_line(w), {}
        idx, j = rng.integers(n_combo), rng.integers(sp)
        for x in (lo, hi, *rng.uniform(lo, hi, 6), lo, hi):
            state_params[idx, j] = x
            coords[idx] = family.build(state_params[idx])
            expected = repr(objective.value(w, coords))
            assert repr(score(coords)) == repr(score(coords, memo=memo)) == expected
        # a weight line: at 0 and 1 the tables get zero entries
        score, memo = objective.weight_line(coords), {}
        i = rng.integers(n_combo)
        for x in (0.0, 1.0, *rng.random(6), 0.0, 1.0):
            weights[i] = x
            w = engine._normalized(weights)
            assert repr(score(w)) == repr(score(w, memo=memo)) == repr(objective.value(w, coords))


def _count_kernel_calls(monkeypatch):
    """Count I(X:A) kernel calls: every table of ``evaluate_icp`` and every
    one ``_SearchObjective._information`` checks (through
    ``info._checked_total_correlation``) reaches ``info._total_correlation``
    once, which passes the check's least entry on."""
    calls = [0]
    kernel = info._total_correlation

    def counted(p, *positive):
        calls[0] += 1
        return kernel(p, *positive)

    monkeypatch.setattr(info, "_total_correlation", counted)
    return calls


def _without_memos(monkeypatch):
    """Take every table's information afresh: ``_information`` drops its memo."""
    information = engine._SearchObjective._information
    unmemoised_information = staticmethod(lambda table, memo=None: information(table))
    monkeypatch.setattr(engine._SearchObjective, "_information", unmemoised_information)


@pytest.mark.parametrize(
    "name,unmemoised,memoised",
    [("classical-bit", 709, 236), ("pgnst:3:2", 749, 548)],
    ids=["classical-bit", "pgnst:3:2"],
)
def test_each_line_search_takes_a_tables_information_once(monkeypatch, name, unmemoised, memoised):
    """The kernel calls of a whole search, grid and final report included,
    with and without the memos of the grid scan and the line searches; the
    search itself does not change. Searched with every ceiling off, so that
    classical-bit descends past its grid, which reaches log2 |S|."""
    _, make, labels, strategy, max_evals = next(c for c in OPTIMIZER_CASES if c[0] == name)[:5]
    _without_ceiling(monkeypatch)
    calls = _count_kernel_calls(monkeypatch)
    memo_on = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert calls[0] == memoised
    _without_memos(monkeypatch)
    calls[0] = 0
    memo_off = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert calls[0] == unmemoised
    assert memo_on.evaluations == memo_off.evaluations
    assert memo_on.report.to_json() == memo_off.report.to_json()


@pytest.mark.parametrize(
    "make,labels,strategy,max_evals",
    [OPTIMIZER_CASES[i][1:5] for i in (0, 3)] + [(lambda: catalog.polygon(5), ("E1", "E2"), "random-restart", 4400)],
    ids=["classical-bit", "pgnst:3:2", "polygon:5"],
)
def test_line_memos_end_with_their_line(monkeypatch, make, labels, strategy, max_evals):
    """One memo for the grid scan, holding at most (pairs + 1) tables per
    candidate it scores, and one per line search, each holding at most
    25 (pairs + 1) tables. No saved value outlives its scan or line: a
    repeated search makes every kernel call again. Searched with every
    ceiling off, so that classical-bit runs line searches."""
    _without_ceiling(monkeypatch)
    # id -> [memo, points scored with it], in order of first use; holding
    # each memo keeps the ids distinct
    memos, searches = {}, [0]
    value, golden_max = engine._SearchObjective.value, engine._golden_max

    def recorded_value(self, *args, memo=None, **kwargs):
        if memo is not None:
            memos.setdefault(id(memo), [memo, 0])[1] += 1
        return value(self, *args, memo=memo, **kwargs)

    def counted_search(*args):
        searches[0] += 1
        return golden_max(*args)

    monkeypatch.setattr(engine._SearchObjective, "value", recorded_value)
    monkeypatch.setattr(engine, "_golden_max", counted_search)
    calls = _count_kernel_calls(monkeypatch)
    first = maximize_extractable(*_case(make, labels, strategy, max_evals))
    first_calls = calls[0]
    assert len(memos) == searches[0] + 1 > 1
    (scan, scanned), *lines = memos.values()
    assert 0 < len(scan) <= scanned * (len(labels) + 1)
    assert max(len(memo) for memo, _ in lines) <= 25 * (len(labels) + 1)
    calls[0] = 0
    second = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert calls[0] == first_calls
    assert second.report.to_json() == first.report.to_json()


def test_each_register_takes_the_alphabet_of_its_measurement():
    """Register r is sized by the measurement assigned to r, so the same
    assignment listed in either order searches the same family."""
    th = catalog.classical_trit().theory
    trit = Measurement("T", th.variant.extreme_effects)
    e1 = th.measurement("E1")
    for strategy in ("grid", "coordinate-descent"):
        results = []
        for pairs in (((e1, 0), (trit, 1)), ((trit, 1), (e1, 0))):
            assignment = ObservableAssignment(pairs)
            assert engine._SearchObjective(th, assignment, True).alphabets == (2, 3)
            result = maximize_extractable(th, assignment, OptimizerConfig(strategy=strategy, max_evals=6000))
            assert result.ensemble.register_alphabets == (2, 3)
            results.append(result)
        assert [repr(r.report.extractable) for r in results] == ["0.9182958340544893"] * 2
        assert results[0].evaluations == results[1].evaluations


def _count_scorer_builds(monkeypatch):
    """Record, in order, each line scorer built and each line search run, as
    the kind of its scorer: "state" or "weight". Each scorer tags the points
    it scores with its kind, and a line search takes the kind of its points."""
    builds, searches, tags = [], [], []
    for method, kind in (("state_line", "state"), ("weight_line", "weight")):

        def counted(self, arg, build=getattr(engine._SearchObjective, method), kind=kind):
            builds.append(kind)
            score = build(self, arg)

            def tagged(*args, **kwargs):
                tags.append(kind)
                return score(*args, **kwargs)

            return tagged

        monkeypatch.setattr(engine._SearchObjective, method, counted)
    golden_max = engine._golden_max

    def counted_search(*args):
        start = len(tags)
        found = golden_max(*args)
        (kind,) = set(tags[start:])
        searches.append(kind)
        return found

    monkeypatch.setattr(engine, "_golden_max", counted_search)
    return builds, searches


def test_exhausted_budget_builds_no_line_scorer(monkeypatch):
    # the qubit grid spends all 4000 evaluations, so no start point is scored
    builds, searches = _count_scorer_builds(monkeypatch)
    _, make, labels, strategy, max_evals = next(c for c in OPTIMIZER_CASES if c[0] == "qubit")[:5]
    result = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert (result.evaluations, result.converged) == (4000, False)
    assert builds == searches == []


@pytest.mark.parametrize(
    "make,labels,strategy,max_evals,evaluations",
    [
        # below its ceiling, so every restart descends until the budget ends
        (lambda: catalog.polygon(5), ("E1", "E2"), "random-restart", 4400, 4400),
        # the budget runs out inside the first state phase: its seventh line
        # search stops after 19 of its 24 points, so no weight scorer is built
        (catalog.classical_bit, ("X", "Z"), "coordinate-descent", 260, 260),
    ],
    ids=["polygon:5", "classical-bit-260"],
)
def test_each_descent_phase_builds_one_line_scorer(monkeypatch, make, labels, strategy, max_evals, evaluations):
    # with every ceiling off, so that classical-bit descends past its grid
    _without_ceiling(monkeypatch)
    builds, searches = _count_scorer_builds(monkeypatch)
    result = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert (result.evaluations, result.converged, searches[-1]) == (evaluations, False, "state")
    # a phase is a run of line searches of one kind; the kinds alternate
    phases = [name for name, _ in itertools.groupby(searches)]
    assert builds == phases != []


def test_golden_max_scores_at_most_its_points():
    calls = []

    def fun(x):
        calls.append(x)
        return -((x - 0.3) ** 2)

    x, _, done = engine._golden_max(fun, 0.0, 1.0, 10**6)
    natural = len(calls)
    assert done and abs(x - 0.3) <= 1e-4
    for points in (4, 5, natural - 1, natural):
        calls.clear()
        *_, done = engine._golden_max(fun, 0.0, 1.0, points)
        assert (len(calls), done) == (points, points == natural)


# budgets of the contract matrix below. At 147 classical-bit's coordinate
# descent stops with 2 points left: 96 grid candidates, the start point and
# two line searches of 24 points leave too few for a third.
BUDGETS = (1, 4, 5, 147, 260, 4000, 8000)


def _count_points(monkeypatch):
    """Count, from outside the search, the points it scores: the grid's
    candidates, plus every ``_SearchObjective.value`` call (the line scorers
    are ``value`` with some arguments fixed), less the grid's exact re-scoring
    of the candidates within 1e-12 of its best batched score."""
    counted = [0]
    value, grid_scores = engine._SearchObjective.value, engine._SearchObjective.grid_scores

    def counted_value(self, *args, **kwargs):
        counted[0] += 1
        return value(self, *args, **kwargs)

    def counted_grid_scores(self, w, seed_coords, family, choice):
        scores = grid_scores(self, w, seed_coords, family, choice)
        top = len(choice) if scores is None else np.count_nonzero(scores >= scores.max() - 1e-12)
        counted[0] += len(choice) - top
        return scores

    monkeypatch.setattr(engine._SearchObjective, "value", counted_value)
    monkeypatch.setattr(engine._SearchObjective, "grid_scores", counted_grid_scores)
    return counted


@pytest.mark.parametrize("strategy", ["grid", "coordinate-descent", "random-restart"])
@pytest.mark.parametrize("case", OPTIMIZER_CASES, ids=[c[0] for c in OPTIMIZER_CASES])
def test_max_evals_caps_the_points_scored(monkeypatch, case, strategy):
    """``evaluations`` counts each scored point once and never exceeds
    ``max_evals``; ``converged`` is False exactly when a budget check stopped
    the search."""
    _, make, labels = case[:3]
    # classical-bit's grid reaches its ceiling log2 |S| = 1, so its coordinate
    # descent, pinned below, is searched with every ceiling off
    descent_pinned = (case[0], strategy) == ("classical-bit", "coordinate-descent")
    if descent_pinned:
        _without_ceiling(monkeypatch)
    counted = _count_points(monkeypatch)
    budgets = BUDGETS + (BUDGETS[-1] + 4,)
    results = {}
    for max_evals in budgets:
        counted[0] = 0
        results[max_evals] = maximize_extractable(*_case(make, labels, strategy, max_evals))
        assert results[max_evals].evaluations == counted[0] <= max_evals, max_evals
    for max_evals in BUDGETS:
        result = results[max_evals]
        # a search that a budget check stopped scores more with 4 more points
        # or any larger budget; one that none stopped does the same search
        more = results[min(b for b in budgets if b >= max_evals + 4)]
        assert result.converged is (more.evaluations == result.evaluations), max_evals
        if result.converged:
            assert repr(more.report.extractable) == repr(result.report.extractable)
    if descent_pinned:
        assert (results[147].evaluations, results[147].converged) == (145, False)


def _per_pair_total_correlation(p):
    if p.ndim == 2:
        return (
            _negated_dot_plogp_bits(np.add.reduce(p, 1))
            + _negated_dot_plogp_bits(np.add.reduce(p, 0))
            - _negated_dot_plogp_bits(p)
        )
    axes = range(p.ndim)
    marginals = sum(_negated_dot_plogp_bits(p.sum(axis=tuple(j for j in axes if j != i))) for i in axes)
    return marginals - _negated_dot_plogp_bits(p)


def _per_pair_objective(objective, w, coords):
    """The search objective as it was computed before the effect rows were
    stacked: one ``effect_values`` call per pair, each table checked with
    ``_as_prob_array`` and scored with the negated-dot kernel."""
    gains = []
    for m, reg in objective.assignment.pairs:
        onehot = np.eye(objective.alphabets[reg])[objective.combos[:, reg]]
        table = (gpt.effect_values(m.effect_matrix, coords) * w) @ onehot
        gains.append(max(_per_pair_total_correlation(info._as_prob_array(table)), 0.0))
    marginal = np.ascontiguousarray(w.reshape(objective.alphabets).transpose(objective.assignment.registers))
    value = sum(gains) - max(_per_pair_total_correlation(info._as_prob_array(marginal)), 0.0)
    if objective.penalized:
        value -= 4.0 * (max(gains) - min(gains))
    return value


# the budgets leave descent some evaluations after the grid: 6 561 and 3 750
# candidates
ORACLE_CASES = OPTIMIZER_CASES + (
    ("classical-trit-3", catalog.classical_trit, ("E1", "E2", "E3"), "coordinate-descent", 7200),
    ("polygon:5", lambda: catalog.polygon(5), ("E1", "E2"), "random-restart", 4400),
)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_every_scored_point_keeps_the_per_pair_bits(monkeypatch, case):
    """Each point's effect values come from one stacked product; every point
    ``value`` scores in a search, line scorers included, gives the bits of
    the per-pair objective."""
    _, make, labels, strategy, max_evals = case[:5]
    checked = []
    value = engine._SearchObjective.value

    def compared(self, w, coords, *args, **kwargs):
        got = value(self, w, coords, *args, **kwargs)
        checked.append(repr(got) == repr(_per_pair_objective(self, w, coords)))
        return got

    monkeypatch.setattr(engine._SearchObjective, "value", compared)
    maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert checked and all(checked)


# (name, catalog entry, measurement labels, strategy, max_evals, equal_gain):
# ORACLE_CASES plus four searches whose grid reaches the ceiling, so that with
# the ceiling in place they run no descent, or a short one: sbit and hbit at
# sum_i log2 k_i = 2 (hbit's carrier has |S| = 4 states), classical-bit and
# the penalty-off classical-trit at log2 |S|
CEILING_CASES = tuple(c[:5] + (True,) for c in ORACLE_CASES) + (
    ("hbit-cd", catalog.hbit, ("X", "Z"), "coordinate-descent", 4000, True),
    ("sbit-cd", catalog.sbit, ("X", "Z"), "coordinate-descent", 4000, True),
    ("classical-bit-rr", catalog.classical_bit, ("X", "Z"), "random-restart", 20_000, True),
    ("classical-trit-no-penalty", catalog.classical_trit, ("E1", "E2"), "random-restart", 20_000, False),
)


def _without_ceiling(monkeypatch):
    monkeypatch.setattr(engine, "_value_ceiling", lambda theory, alphabets: math.inf)


@pytest.mark.parametrize("case", CEILING_CASES, ids=[c[0] for c in CEILING_CASES])
def test_the_memos_keep_every_result(monkeypatch, case):
    """The grid scan's memo and the line memos only save kernel calls: with
    every memo off, each search (every OPTIMIZER_CASES one among them) gives
    the same report, evaluations and converged flag, with no fewer calls."""
    theory, assignment, config = _case(*case[1:])
    calls = _count_kernel_calls(monkeypatch)
    memo_on = maximize_extractable(theory, assignment, config)
    memoised, calls[0] = calls[0], 0
    _without_memos(monkeypatch)
    memo_off = maximize_extractable(theory, assignment, config)
    assert memo_on.report.to_json() == memo_off.report.to_json()
    assert (memo_on.evaluations, memo_on.converged) == (memo_off.evaluations, memo_off.converged)
    assert memoised <= calls[0]


@pytest.mark.parametrize("case", CEILING_CASES, ids=[c[0] for c in CEILING_CASES])
def test_the_ceiling_stop_keeps_every_result(monkeypatch, case):
    """No point a search would score past its ceiling wins the merge, so the
    search with the ceiling gives the result of the search without it."""
    theory, assignment, config = _case(*case[1:])
    stopped = maximize_extractable(theory, assignment, config)
    _without_ceiling(monkeypatch)
    full = maximize_extractable(theory, assignment, config)
    assert repr(stopped.report.extractable) == repr(full.report.extractable)
    assert stopped.report.to_json() == full.report.to_json()
    assert stopped.evaluations <= full.evaluations


@pytest.mark.parametrize("case", CEILING_CASES, ids=[c[0] for c in CEILING_CASES])
def test_no_scored_value_passes_the_ceiling(monkeypatch, case):
    """Every value a search scores, the grid's batched scores included, is at
    most the theory's ceiling min(sum_i log2 k_i, log2 |S|) plus 4 ulps;
    searched without the ceiling stop, so the descents past it are scored
    too."""
    theory, assignment, config = _case(*case[1:])
    ceiling = engine._value_ceiling(theory, tuple(len(m.effects) for m, _ in assignment.pairs))
    scored = []
    value, grid_scores = engine._SearchObjective.value, engine._SearchObjective.grid_scores

    def recorded_value(self, *args, **kwargs):
        scored.append(value(self, *args, **kwargs))
        return scored[-1]

    def recorded_grid_scores(self, *args):
        scores = grid_scores(self, *args)
        scored.extend([] if scores is None else scores)
        return scores

    monkeypatch.setattr(engine._SearchObjective, "value", recorded_value)
    monkeypatch.setattr(engine._SearchObjective, "grid_scores", recorded_grid_scores)
    _without_ceiling(monkeypatch)
    maximize_extractable(theory, assignment, config)
    assert scored and max(scored) <= ceiling + 4 * np.spacing(ceiling)


def _scored_points(monkeypatch):
    """Count the ``_SearchObjective.value`` calls of a search and hash, in
    call order, each call's weights, coordinates and value."""
    digest, calls = hashlib.sha256(), [0]
    value = engine._SearchObjective.value

    def recorded_value(self, w, coords, *args, **kwargs):
        got = value(self, w, coords, *args, **kwargs)
        calls[0] += 1
        for part in (w.tobytes(), coords.tobytes(), repr(got).encode()):
            digest.update(part)
        return got

    monkeypatch.setattr(engine._SearchObjective, "value", recorded_value)
    return digest, calls


# each CEILING_CASES search's value calls: their number and the sha256 over
# (w, coords, repr(value)) of each call in order; classical-bit's searched
# with every ceiling off, so that its descent past the grid stays pinned
# (classical-bit-rr pins the search that stops at the grid)
SCORED_POINTS = {
    "classical-bit": (297, "7fdcd539201680db7717b4baff3e21d3558c9cbfbfe29dd21e6bfbad8c626d68"),
    "sbit": (8, "bf05437ad088079fe27fa595a24fc31748183257a74197df56742c56cd1f1822"),
    "qubit": (4, "89a30d4d8983368f1a228f84aeb1fb433a3fc92bb94ae5233e42e45061420ada"),
    "pgnst:3:2": (313, "8e03db7c5caa3b077328678b8f4bae664031dc9dcae2a9b1b0c154cc270769e5"),
    "classical-trit": (18, "9957580caba0dacb03eb49d949edb1d3463b87ba0712d94d731afdb6de0ab080"),
    "classical-trit-3": (735, "dff3f5439e9fea308cda36bafc89aacfea2ced444df47b677be8cbb49ff6297d"),
    "polygon:5": (654, "7adacbbb6ffd01f1404b62c88297acf3815649fb7cf754a37aa1034e3ace736f"),
    "hbit-cd": (8, "4ae31bdd44283777aa897402e8df4a2c5ac96bd232a294931bde8b6fbd5343a2"),
    "sbit-cd": (8, "bf05437ad088079fe27fa595a24fc31748183257a74197df56742c56cd1f1822"),
    "classical-bit-rr": (8, "0243f809b860d0e88b56c7337fa9880f92fc3654fc23267473ddfe462f0a3668"),
    "classical-trit-no-penalty": (2237, "b28d0c26124f15b1c82090d6754c2d275444123016a03bccff1ab7907f73211d"),
}


@pytest.mark.parametrize("case", CEILING_CASES, ids=[c[0] for c in CEILING_CASES])
def test_the_search_scores_the_pinned_points_in_order(monkeypatch, case):
    """Pins which points a search scores and in what order, not only how
    many and what it finds."""
    name = case[0]
    if name == "classical-bit":
        _without_ceiling(monkeypatch)
    digest, calls = _scored_points(monkeypatch)
    maximize_extractable(*_case(*case[1:]))
    assert (calls[0], digest.hexdigest()) == SCORED_POINTS[name]


@pytest.mark.parametrize(
    "theory_id,ceiling",
    [("classical-bit", 1.0), ("classical-trit", math.log2(3)), ("hbit", 2.0), ("sbit", 2.0), ("qubit", 2.0)],
)
def test_the_ceiling_is_log2_of_the_classical_carrier_not_of_d(theory_id, ceiling):
    """On two binary registers the ceiling is min(2, log2 |S|). hbit keeps 2,
    above log2 d = 1, since its carrier has 4 states; sbit and qubit have no
    classical carrier and keep sum_i log2 k_i."""
    theory = catalog.resolve(theory_id).theory
    assert engine._value_ceiling(theory, (2, 2)) == ceiling
    if theory_id == "hbit":
        assert gpt.observed_dimension(theory).d == 2


def test_a_descent_stops_at_the_ceiling(monkeypatch):
    """polygon:5's best point comes from a descent, not the grid: with the
    ceiling set to its value, the search stops once a descent reaches it,
    with the same winner, fewer points and no budget stop."""
    theory, assignment, config = _case(lambda: catalog.polygon(5), ("E1", "E2"), "random-restart", 4400)
    full = maximize_extractable(theory, assignment, config)
    objective = engine._SearchObjective(theory, assignment, config.equal_gain_constraint)
    best = objective.value(full.ensemble.probs, full.ensemble.coords)
    grid = maximize_extractable(theory, assignment, dataclasses.replace(config, strategy="grid"))
    assert objective.value(grid.ensemble.probs, grid.ensemble.coords) < best
    monkeypatch.setattr(engine, "_value_ceiling", lambda theory, alphabets: best)
    stopped = maximize_extractable(theory, assignment, config)
    assert repr(stopped.report.extractable) == repr(full.report.extractable)
    # the last descent stops at its next line search, 48 points sooner than
    # a check only before each start point would stop it
    assert (stopped.evaluations, stopped.converged, full.evaluations, full.converged) == (4351, True, 4400, False)


def test_a_search_at_its_ceiling_draws_no_restart_point(monkeypatch):
    def draw(*args):
        raise AssertionError("a restart point was drawn")

    monkeypatch.setattr(info, "_dirichlet_ones", draw)
    result = maximize_extractable(*_case(catalog.sbit, ("X", "Z"), "random-restart", 4000))
    assert (result.evaluations, result.converged) == (1536, True)


def test_a_search_whose_grid_spends_the_budget_draws_no_restart_point(monkeypatch):
    """qubit's grid scores all 4 000 of its 4 000 points, so no restart
    point could be scored; none is drawn, and the result is the pinned one."""
    calls = []
    draw = info._dirichlet_ones
    monkeypatch.setattr(info, "_dirichlet_ones", lambda *args: calls.append(args) or draw(*args))
    _, make, labels, strategy, max_evals, extractable, evaluations, converged = OPTIMIZER_CASES[2]
    result = maximize_extractable(*_case(make, labels, strategy, max_evals))
    assert (repr(result.report.extractable), result.evaluations, result.converged) == (
        extractable, evaluations, converged
    )
    assert calls == []


@pytest.mark.parametrize(
    "make,labels,max_evals,equal_gain,pinned,descents",
    [
        # the first descent reaches the ceiling log2 |S| = log2 3
        (catalog.classical_trit, ("E1", "E2"), 20_000, False, ("1.5849625007211563", 2719, True), 1),
        # the second descent spends the budget
        (lambda: catalog.polygon(5), ("E1", "E2"), 4400, True, ("0.7859201380998277", 4400, False), 2),
    ],
    ids=["classical-trit-no-penalty", "polygon:5"],
)
def test_a_search_draws_one_restart_point_per_restart_it_runs(
    monkeypatch, make, labels, max_evals, equal_gain, pinned, descents
):
    """A random-restart search draws a start point only when its descent
    is to run, so it stops drawing when it stops descending."""
    draws, starts = [], []
    draw = info._dirichlet_ones
    monkeypatch.setattr(info, "_dirichlet_ones", lambda *args: draws.append(args) or draw(*args))
    value = engine._SearchObjective.value

    def counted(self, w, coords, values=None, redundancy=None, memo=None):
        # a descent scores its start point alone; the grid scan and the line
        # searches pass their memo
        if memo is None:
            starts.append(w)
        return value(self, w, coords, values, redundancy, memo)

    monkeypatch.setattr(engine._SearchObjective, "value", counted)
    result = maximize_extractable(*_case(make, labels, "random-restart", max_evals, equal_gain))
    assert (repr(result.report.extractable), result.evaluations, result.converged) == pinned
    assert (len(starts), len(draws)) == (descents, descents - 1)


def test_a_state_line_point_makes_one_effect_values_call(monkeypatch):
    theory, assignment, config = _case(catalog.classical_trit, ("E1", "E2", "E3"), "grid", 1)
    family = theory.variant
    objective = engine._SearchObjective(theory, assignment, config.equal_gain_constraint)
    n_combo = len(objective.combos)
    coords = np.array([family.build(np.eye(family.search_params)[i % family.search_params]) for i in range(n_combo)])
    score = objective.state_line(np.full(n_combo, 1.0 / n_combo))
    calls = []
    monkeypatch.setattr(engine, "effect_values", lambda E, s: calls.append(E.shape) or gpt.effect_values(E, s))
    score(coords)
    assert calls == [(6, family.search_params)]
    objective.weight_line(coords)
    assert len(calls) == 2


def test_the_search_refuses_a_qudit():
    # a qutrit with its computational basis Z and Fourier basis X validates,
    # but the search has a state family for the qubit alone
    tid = "qutrit"
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    measurements = {
        name: Measurement(name, tuple(gpt.Effect(gpt.density_to_coords(np.outer(b, b.conj())), f"{name}{i}")
                                      for i, b in enumerate(basis.T)))
        for name, basis in (("Z", np.eye(3)), ("X", fourier))
    }
    theory = gpt.Theory(tid, gpt.Quantum(3), measurements)
    assert all(gpt.validate_measurement(theory, m) for m in measurements.values())
    assignment = ObservableAssignment(((measurements["X"], 0), (measurements["Z"], 1)))
    with pytest.raises(NotImplementedError, match="^state search supports quantum dimension 2 only$"):
        maximize_extractable(theory, assignment)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"max_evals": 0}, "max_evals"),
        ({"max_evals": -5}, "max_evals"),
    ],
)
def test_optimizer_config_rejects_bad_settings(kwargs, match):
    with pytest.raises(ValueError, match=match):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"max_evals": 1.0}, {"max_evals": 4000.5}])
def test_optimizer_config_takes_counts_as_integers(kwargs):
    with pytest.raises(TypeError):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize("strategy", ["grid", "coordinate-descent", "random-restart"])
@pytest.mark.parametrize(
    "seed,error", [(None, TypeError), (-1, ValueError), (2.5, TypeError), ("x", TypeError)]
)
def test_optimizer_config_rejects_a_bad_seed_when_built(strategy, seed, error):
    # a seed of None would draw unreproducible restart points, and the grid
    # strategy draws none, so the seed is checked before any search runs
    with pytest.raises(error, match="seed" if error is ValueError else None):
        OptimizerConfig(strategy=strategy, seed=seed)


def test_optimizer_config_accepts_the_settings_in_use():
    for kwargs in (
        {},
        {"strategy": "grid", "max_evals": 1},
        {"strategy": "coordinate-descent", "max_evals": 8000},
        {"max_evals": np.int64(4000), "equal_gain_constraint": False, "seed": 1},
    ):
        OptimizerConfig(**kwargs)
    fields = [f.name for f in dataclasses.fields(OptimizerConfig)]
    assert fields == ["strategy", "max_evals", "equal_gain_constraint", "seed"]


def test_normalized_equals_its_clip_form():
    rng = np.random.default_rng(43)
    rows = [rng.normal(size=n) for n in (1, 2, 4, 9) for _ in range(50)]
    rows += [np.zeros(4), -np.ones(3), np.array([0.0, -0.0, -1e-300]), np.array([0.2, np.nan, 0.5]), np.array([np.nan])]
    for weights in rows:
        w = np.clip(weights, 0.0, None)
        expected = np.full_like(w, 1.0 / len(w)) if w.sum() <= 0.0 else w / w.sum()
        assert engine._normalized(weights).tobytes() == expected.tobytes()


def test_qubit_rotation_sweep_endpoints_and_shape():
    grid = np.linspace(0.0, math.pi / 2, 9)
    points = qubit_rotation_sweep(grid)
    assert len(points) == 9
    assert points[0].theta == 0.0
    assert points[-1].theta == pytest.approx(math.pi / 2, abs=1e-15)
    first, last = points[0], points[-1]
    # aligned observables read the same register pair twice
    assert first.gains_sum == pytest.approx(2.0, abs=1e-9)
    assert first.redundancy == pytest.approx(1.0, abs=1e-9)
    assert first.extractable == pytest.approx(1.0, abs=1e-9)
    # orthogonal pair: the two-readout trade-off point
    assert last.extractable == pytest.approx(0.7982479266142879, abs=1e-9)


def test_qubit_rotation_sweep_monotone():
    points = qubit_rotation_sweep(np.linspace(0.0, math.pi / 2, 25))
    values = [p.extractable for p in points]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def _per_point_register_correlation(c, s):
    """The bracketing the array pass replaced: each grid point scored alone."""
    if c - s <= 1e-15:
        return 0.5

    def fprime(q):
        m = q * c + (1.0 - q) * s
        return -2.0 * (c - s) * math.log2((1.0 - m) / m) + math.log2((1.0 - q) / q)

    top = 1.0 - 1e-12
    if fprime(top) >= 0.0:
        return 1.0

    def f(q):
        m = q * c + (1.0 - q) * s
        return 2.0 * (1.0 - _scalar_binary_entropy(m)) - (1.0 - _scalar_binary_entropy(q))

    qs = np.linspace(0.5, top, 513)
    vals = [f(q) for q in qs]
    i = int(np.argmax(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, len(qs) - 1)]
    if fprime(lo) <= 0.0:
        return 0.5 if i == 0 else float(qs[i])
    if fprime(hi) >= 0.0:
        return float(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fprime(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("points", [1, 2, 5, 50, 201])
def test_register_correlation_matches_the_per_point_bracketing(points):
    # the grid of `icp-lab scan sweep --points N`
    step = (math.pi / 2.0) / (points - 1) if points > 1 else 1.0
    for t in (i * step for i in range(points)):
        c, s = (1.0 + math.cos(t / 2.0)) / 2.0, (1.0 + math.sin(t / 2.0)) / 2.0
        assert sweep._optimal_register_correlation(c, s) == _per_point_register_correlation(c, s), t


def test_qubit_rotation_sweep_rejects_out_of_range():
    with pytest.raises(ValueError):
        qubit_rotation_sweep([3.0])


def test_random_ensemble_is_valid(rng):
    for entry in (catalog.sbit(), catalog.qubit(), catalog.pgnst(3.0, 2)):
        ens = sampling.random_ensemble(entry, rng)
        assert len(ens.probs) == len(ens.coords) == len(ens.registers) == 4
        total = sum(ens.probs.tolist())
        assert total == pytest.approx(1.0, abs=1e-9)
