"""The array-first ensemble path against its per-object and public-API oracles."""
import math
import re

import numpy as np
import pytest

from icp_lab import (
    CorrelatedEnsemble,
    Effect,
    JointTable,
    Measurement,
    ObservableAssignment,
    OptimizerConfig,
    State,
    apply_effect,
    build_ensemble,
    catalog,
    engine,
    evaluate_icp,
    info,
    joint_outcome_table,
    maximize_extractable,
    multivariate_mutual_information,
    mutual_information,
    proof_chain_check,
    register_marginal,
    sampling,
    validate_state,
)
from icp_lab.gpt import density_to_coords


def _assignment(entry, labels):
    th = entry.theory
    return ObservableAssignment(tuple((th.measurement(l), i) for i, l in enumerate(labels)))


def _pgnst():
    return catalog.pgnst(3.0, 2)


ORACLE_CASES = [
    (catalog.classical_bit, ("X", "Z")),
    (catalog.classical_trit, ("E1", "E2")),
    (catalog.qubit, ("X", "Z")),
    (_pgnst, ("X", "Z")),
    (catalog.sbit, ("X", "Z")),
]


def _rows(ens):
    """The ensemble's (p, state, registers) rows, as build_ensemble takes them."""
    return [(p, State(c), tuple(r)) for p, c, r in zip(ens.probs.tolist(), ens.coords, ens.registers.tolist())]


def _loop_table(ens, measurement, register):
    """p(x, a) entry by entry through the scalar effect rule."""
    table = np.zeros((len(measurement.effects), ens.register_alphabets[register]))
    for p, state, regs in _rows(ens):
        for x, effect in enumerate(measurement.effects):
            table[x, regs[register]] += p * apply_effect(effect, state)
    return table


@pytest.mark.parametrize("make, labels", ORACLE_CASES)
def test_evaluate_icp_matches_the_public_composition(make, labels):
    """Also: build_ensemble rebuilds a sampled ensemble bit for bit from its
    (p, state, registers) rows."""
    entry = make()
    assignment = _assignment(entry, labels)
    rng = np.random.default_rng([31, len(labels), len(entry.entry_id)])
    worst = 0.0
    for _ in range(200):
        ens = sampling.random_ensemble(entry, rng)
        report = evaluate_icp(ens, assignment)
        rebuilt = build_ensemble(entry.theory, _rows(ens), ens.register_alphabets)
        for name in ("probs", "coords", "registers"):
            assert np.array_equal(getattr(rebuilt, name), getattr(ens, name))
        assert evaluate_icp(rebuilt, assignment).to_json() == report.to_json()
        gains = []
        for measurement, reg in assignment.pairs:
            table = joint_outcome_table(ens, measurement, reg)
            worst = max(worst, np.abs(table - _loop_table(ens, measurement, reg)).max())
            gains.append(max(mutual_information(JointTable(("X", "A"), table), "X", "A"), 0.0))
        names = tuple(engine.register_name(r) for r in assignment.registers)
        marginal = JointTable(names, register_marginal(ens, assignment.registers))
        redundancy = max(multivariate_mutual_information(marginal), 0.0)
        worst = max(
            worst,
            abs(report.extractable - (sum(gains) - redundancy)),
            abs(report.redundancy - redundancy),
            *(abs(a - b) for a, b in zip(report.gains, gains)),
        )
    assert worst <= 1e-12


# one theory of each variant: polytopes, restricted classical, norm body, quantum
EVERY_VARIANT = [
    catalog.classical_bit, catalog.classical_trit, catalog.sbit, lambda: catalog.polygon(5),
    catalog.hbit, _pgnst, catalog.qubit,
]


@pytest.mark.parametrize("make", EVERY_VARIANT)
def test_random_ensemble_draws_like_sequential_random_state(make):
    entry = make()
    quantum = entry.entry_id == "qubit"
    for seed in range(10):
        for n_registers, alphabet in ((2, 2), (3, 2), (2, 3)):
            batched = np.random.default_rng(seed)
            ens = sampling.random_ensemble(entry, batched, n_registers, alphabet)
            sequential = np.random.default_rng(seed)
            probs = sequential.dirichlet(np.ones(alphabet**n_registers))
            coords = np.array([sampling.random_state(entry, sequential).coords for _ in probs])
            assert np.array_equal(ens.probs, probs)
            if quantum:
                assert np.abs(ens.coords - coords).max() <= 1e-12
            else:
                assert np.array_equal(ens.coords, coords)
            assert batched.bit_generator.state == sequential.bit_generator.state


@pytest.mark.parametrize("size", [None, 1, 5])
def test_dirichlet_ones_draws_like_generator_dirichlet(size):
    # k >= 8 is where numpy's pairwise sum would differ from the left-to-right one
    for seed in (0, 1, 20260816):
        for k in range(1, 71):
            helper, generator = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = info._dirichlet_ones(helper, k, size)
            expected = generator.dirichlet(np.ones(k), size)
            assert draws.shape == expected.shape
            assert draws.tobytes() == expected.tobytes(), (seed, k)
            assert helper.bit_generator.state == generator.bit_generator.state


@pytest.mark.parametrize("k", range(1, 9))
def test_complex_gaussian_draws_like_two_normal_calls(k):
    # a density draw's Gaussian parts are two normal calls after its
    # exponentials; test_audit_path checks that the first is the real part
    for seed in range(200):
        helper, generator = np.random.default_rng(seed), np.random.default_rng(seed)
        _, parts = info._density_draw_parts(helper, k, 1)
        generator.standard_exponential(k)
        real, imaginary = generator.normal(size=(k, k)), generator.normal(size=(k, k))
        assert parts.tobytes() == np.array([[real, imaginary]]).tobytes(), seed
        assert helper.bit_generator.state == generator.bit_generator.state


def test_density_to_coords_flattens_an_empty_stack_and_keeps_the_bytes_of_others():
    assert density_to_coords(np.zeros((0, 2, 2))).shape == (0, 8)
    rng = np.random.default_rng(3)
    for shape in ((2, 2), (5, 2, 2), (3, 4, 3, 3)):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = m.shape[:-2] + (-1,)
        expected = np.concatenate([m.real.reshape(flat), m.imag.reshape(flat)], axis=-1)
        assert density_to_coords(m).tobytes() == expected.tobytes()


@pytest.mark.parametrize("make", EVERY_VARIANT)
def test_random_coords_of_no_states_is_an_empty_stack(make):
    th = make().theory
    rng = np.random.default_rng(7)
    empty = th.variant.random_coords(rng, 0)
    assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state
    assert empty.shape == (0, th.variant.random_coords(rng, 3).shape[1])


@pytest.mark.parametrize("make", [catalog.classical_bit, catalog.qubit])
def test_evaluate_icp_rejects_effects_that_miss_the_unit(make):
    entry = make()
    th = entry.theory
    x = th.measurement("X")
    halved = Measurement("X/2", tuple(Effect(e.coords * 0.5, e.label) for e in x.effects))
    ens = sampling.random_ensemble(entry, np.random.default_rng(5))
    with pytest.raises(ValueError):
        evaluate_icp(ens, ObservableAssignment(((halved, 0), (th.measurement("Z"), 1))))


def _sbit_outside():
    return catalog.sbit_state(1.0, 1.0).coords * 2.0


INVALID_STATES = [
    (catalog.sbit, _sbit_outside),
    (catalog.hbit, lambda: np.array([0.5, 0.7, -0.2, 0.0])),
    (_pgnst, lambda: np.array([0.9, 0.9, 1.0])),
    (catalog.qubit, lambda: density_to_coords(np.array([[0.9, 0.6], [0.6, 0.1]]))),
]


@pytest.mark.parametrize("make, outside", INVALID_STATES)
def test_build_ensemble_reports_the_invalid_state(make, outside):
    entry = make()
    th = entry.theory
    rng = np.random.default_rng(3)
    states = [sampling.random_state(entry, rng) for _ in range(4)]
    states[2] = State(outside())
    ok = validate_state(th, states[2])
    assert not ok
    index, batch_ok = th.variant.check_states(np.array([s.coords for s in states]))
    assert index == 2 and batch_ok == ok
    with pytest.raises(ValueError) as err:
        build_ensemble(th, [(0.25, s, (i % 2, i // 2)) for i, s in enumerate(states)], (2, 2))
    assert str(err.value) == f"invalid state in ensemble: {ok.detail}"


NOT_DISTRIBUTIONS = {
    "sum-1.6": ([0.7, 0.7, 0.1, 0.1], "^entry probabilities sum to 1.6$"),
    "nan": ([0.5, np.nan, 0.25, 0.25], "^entry 1: probability nan is negative or not finite$"),
    "negative": ([0.75, 0.75, -0.5, 0.0], "^entry 2: probability -0.5 is negative or not finite$"),
    "infinite": ([0.5, np.inf, -np.inf, 0.5], "^entry 1: probability inf is negative or not finite$"),
    "empty": ([], "^entry probabilities sum to 0$"),
}


@pytest.mark.parametrize("make, outside", INVALID_STATES)
def test_an_ensemble_built_from_arrays_checks_itself(make, outside):
    """The checks and messages of ``CorrelatedEnsemble``, each fault added on
    top of the last: probabilities first, then the arrays' rows, the register
    count, the alphabets, their caps, the register values and last the
    states. Probabilities that are no distribution raise before any report
    or ledger can be taken of them."""
    entry = make()
    th = entry.theory
    coords = th.variant.random_coords(np.random.default_rng(5), 4)
    registers = np.indices((2, 2)).reshape(2, -1).T
    probs = np.full(4, 0.25)
    CorrelatedEnsemble(th, probs, coords.copy(), registers.copy(), (2, 2))
    coords[2] = outside()
    ok = th.variant.check_states(coords)[1]
    with pytest.raises(ValueError) as err:
        CorrelatedEnsemble(th, probs, coords, registers.copy(), (2, 2))
    assert str(err.value) == f"invalid state in ensemble: {ok.detail}"
    with pytest.raises(ValueError, match="^register values of dtype float64, not an integer dtype$"):
        CorrelatedEnsemble(th, probs, coords, registers.astype(float), (2, 2))
    registers[3, 0] = 2
    with pytest.raises(ValueError, match="^register value 2 outside alphabet 2$"):
        CorrelatedEnsemble(th, probs, coords, registers, (2, 2))
    extra = np.vstack([coords, coords[:1]])
    faults = [
        (coords, registers, (2, 2048), "register alphabet 2048 above MAX_ALPHABET = 1024"),
        (coords, registers, (2.5, 2048), "register alphabets (2.5, 2048) are not all integers"),
        (coords, registers, (2.5,), "1 alphabets for 2 registers"),
        (coords, registers[:, :0], (2.5,), "entries need at least one register"),
        (extra, registers[:, :0], (2.5,), f"state coordinates {extra.shape} and register values (4, 0) for 4 "),
    ]
    for state_rows, register_rows, alphabets, message in faults:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            CorrelatedEnsemble(th, probs, state_rows, register_rows, alphabets)
    for bad, message in NOT_DISTRIBUTIONS.values():
        with pytest.raises(ValueError, match=message):
            CorrelatedEnsemble(th, np.array(bad, dtype=float), extra, registers[:, :0], (2.5,))


# each builds without error on an ensemble that checks only its probabilities,
# register values and states, and fails later, deep in numpy or with a
# misleading message
ROWS = "state coordinates {} and register values {}"
MALFORMED = {
    "one alphabet for two registers": (np.eye(2), [[0, 0], [1, 1]], (2,), "1 alphabets for 2 registers"),
    "three state rows": (np.eye(2)[[0, 1, 0]], [[0, 0], [1, 1]], (2, 2), ROWS.format((3, 2), (2, 2))),
    "three register rows": (np.eye(2), [[0, 0], [1, 1], [0, 1]], (2, 2), ROWS.format((2, 2), (3, 2))),
    "no register column": (np.eye(2), np.zeros((2, 0), dtype=int), (), "entries need at least one register"),
    "float registers": (np.eye(2), [[0.5, 0.0], [1.0, 1.0]], (2, 2), "register values of dtype float64"),
    "bool registers": (np.eye(2), [[False, False], [True, True]], (2, 2), "register values of dtype bool"),
    "fractional alphabet": (np.eye(2), [[0, 0], [1, 1]], (2.5, 2), "register alphabets (2.5, 2) are not all"),
}


@pytest.mark.parametrize("coords, registers, alphabets, message", MALFORMED.values(), ids=list(MALFORMED))
def test_a_malformed_ensemble_is_refused_when_built(coords, registers, alphabets, message):
    th = catalog.classical_bit().theory
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        CorrelatedEnsemble(th, np.full(2, 0.5), coords, np.asarray(registers), alphabets)


@pytest.mark.parametrize("probs", [np.full((2, 1), 0.5), np.float64(1.0), [[0.5], [0.5]]], ids=["column", "scalar", "nested list"])
def test_probabilities_that_are_no_flat_vector_are_refused(probs):
    # a (2, 1) array made the sum fail on lists and a 0-d one could not be iterated
    th = catalog.classical_bit().theory
    message = f"probabilities of shape {np.shape(probs)}, not one per entry"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CorrelatedEnsemble(th, probs, np.eye(2), np.array([[0], [1]]), (2,))


def test_an_ensemble_of_lists_holds_the_arrays_of_one_built_from_arrays():
    th = catalog.classical_bit().theory
    lists = CorrelatedEnsemble(th, [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [[0], [1]], (2,))
    arrays = CorrelatedEnsemble(th, np.full(2, 0.5), np.eye(2), np.array([[0], [1]]), (2,))
    for name in ("probs", "coords", "registers"):
        got, expected = getattr(lists, name), getattr(arrays, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected) and not got.flags.writeable, name
    # the lists keep their own dtype, so float register values are still refused
    with pytest.raises(ValueError, match="^register values of dtype float64, not an integer dtype$"):
        CorrelatedEnsemble(th, [0.5, 0.5], np.eye(2), [[0.0], [1.0]], (2,))


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_build_ensemble_refuses_a_register_value_outside_int64(bit_entry, value):
    s = bit_entry.theory.variant.vertices[0]
    with pytest.raises(ValueError, match=f"^register value {value} outside int64$"):
        build_ensemble(bit_entry.theory, [(1.0, s, (0,)), (0.0, s, (value,))])
    # the largest int64 value still fits, and its default alphabet is refused
    with pytest.raises(ValueError, match=f"^register alphabet {2**63} above MAX_ALPHABET = 1024$"):
        build_ensemble(bit_entry.theory, [(1.0, s, (2**63 - 1,))])


@pytest.mark.parametrize("value", [1.5, math.inf, True], ids=["fractional", "infinite", "bool"])
def test_a_register_value_that_is_no_integer_is_refused(bit_entry, value):
    """int() would truncate 1.5 to 1, raise OverflowError on inf and take True
    as 1; an ensemble of a float or bool dtype is refused too."""
    s = bit_entry.theory.variant.vertices[0]
    message = f"^register value {value!r} is not an integer$"
    with pytest.raises(ValueError, match=message):
        build_ensemble(bit_entry.theory, [(1.0, s, (value,))], (2,))
    assert build_ensemble(bit_entry.theory, [(1.0, s, (np.int64(1),))], (2,)).registers.tolist() == [[1]]


def test_build_ensemble_refuses_a_fractional_alphabet(bit_entry):
    # int() would truncate 2.7 to 2, an alphabet the caller never named
    states = bit_entry.theory.variant.vertices
    entries = [(0.5, states[0], (0, 0)), (0.5, states[1], (1, 1))]
    with pytest.raises(ValueError, match=re.escape("register alphabets (2.7, 2) are not all integers")):
        build_ensemble(bit_entry.theory, entries, (2.7, 2))
    assert build_ensemble(bit_entry.theory, entries, (np.int64(2), 2)).register_alphabets == (2, 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int16, np.uint64])
def test_narrow_register_values_index_their_own_cells(dtype):
    """Register cell indices of a 32 x 32 joint alphabet pass 255: in the
    registers' own dtype they wrapped round and put mass in the wrong cell."""
    th = catalog.classical_bit().theory
    registers = np.array([[31, 31], [0, 1]], dtype=dtype)
    ens = CorrelatedEnsemble(th, np.full(2, 0.5), np.eye(2), registers, (32, 32))
    index, shape = ens.register_index((0, 1))
    assert index.dtype == np.int64 and index.tolist() == [1023, 1] and shape == (32, 32)
    marginal = register_marginal(ens)
    assert marginal[31, 31] == marginal[0, 1] == 0.5


def test_float_noise_probabilities_are_held_as_zero_and_the_sum_sees_them():
    th = catalog.classical_bit().theory
    coords, registers = np.eye(2), np.array([[0], [1]])
    ens = CorrelatedEnsemble(th, np.array([1.0 - 1e-13, -1e-13]), coords, registers, (2,))
    assert ens.probs.tolist() == [1.0 - 1e-13, 0.0]
    ens = CorrelatedEnsemble(th, np.array([1.0, -0.0]), coords, registers, (2,))
    assert repr(ens.probs[1]) == repr(np.float64(-0.0))
    # the sum is taken before the clip: |1 - 2.5e-12 - 1| > PROB_TOL * 2
    # rejects, where the clipped sum 1 - 1.5e-12 would pass
    with pytest.raises(ValueError, match="^entry probabilities sum to"):
        CorrelatedEnsemble(th, np.array([1.0 - 1.5e-12, -1e-12]), coords, registers, (2,))
    s = State(coords[0])
    with pytest.raises(ValueError, match="^entry probabilities sum to"):
        build_ensemble(th, [(1.0 - 1.5e-12, s, (0,)), (-1e-12, s, (1,))])


@pytest.mark.parametrize("make, labels", ORACLE_CASES[:3])
def test_a_register_outside_the_ensemble_is_rejected(make, labels):
    """Register -1 and register n_registers: no call reads another register
    in their place, and every call names the missing one."""
    entry = make()
    th = entry.theory
    ens = sampling.random_ensemble(entry, np.random.default_rng(7))
    for missing in (-1, ens.n_registers):
        message = f"^no register {missing} in ensemble$"
        assignment = ObservableAssignment(((th.measurement(labels[0]), 0), (th.measurement(labels[1]), missing)))
        with pytest.raises(ValueError, match=message):
            register_marginal(ens, (missing,))
        with pytest.raises(ValueError, match=message):
            register_marginal(ens, (0, missing))
        with pytest.raises(ValueError, match=message):
            evaluate_icp(ens, assignment)
        with pytest.raises(ValueError, match=message):
            proof_chain_check(ens, assignment)
        with pytest.raises(ValueError, match=message):
            maximize_extractable(th, assignment, OptimizerConfig(strategy="grid", max_evals=1))


def test_flat_index_is_the_row_major_index():
    rng = np.random.default_rng(11)
    for shape in ((1,), (5,), (2, 2), (3, 2, 4), (2, 3, 2, 2, 3)):
        values = np.stack([rng.integers(0, a, size=50) for a in shape], axis=1)
        assert engine._flat_index(values, shape).tolist() == np.ravel_multi_index(values.T, shape).tolist()


@pytest.mark.parametrize(
    "make, labels",
    [
        (catalog.classical_bit, ("X", "Z")),
        (catalog.classical_trit, ("E1", "E2")),
        (catalog.hbit, ("X", "Z")),
        (catalog.qubit, ("X", "Z")),
    ],
)
def test_ledger_extractable_matches_evaluate_icp(make, labels):
    entry = make()
    assignment = _assignment(entry, labels)
    rng = np.random.default_rng([37, len(entry.entry_id)])
    for _ in range(100):
        ens = sampling.random_ensemble(entry, rng)
        ledger = proof_chain_check(ens, assignment)
        assert abs(ledger.extractable - evaluate_icp(ens, assignment).extractable) <= 1e-12


def test_build_ensemble_rejects_ragged_states_and_alphabet_count(sbit_entry):
    th = sbit_entry.theory
    s = catalog.sbit_state(0.0, 0.0)
    short = State(s.coords[:2])
    with pytest.raises(ValueError, match="differ in dimension"):
        build_ensemble(th, [(0.5, s, (0,)), (0.5, short, (1,))], (2,))
    with pytest.raises(ValueError, match="alphabets for 1 registers"):
        build_ensemble(th, [(0.5, s, (0,)), (0.5, s, (1,))], (2, 2))


@pytest.mark.parametrize("alphabet", [engine.MAX_ALPHABET + 1, 10**9])
def test_an_alphabet_past_the_cap_is_refused_when_built(sbit_entry, alphabet):
    """However it is built, an ensemble refuses an alphabet above MAX_ALPHABET,
    before its one-hot identity could be asked for."""
    s = catalog.sbit_state(1.0, 1.0)
    with pytest.raises(ValueError, match=f"^register alphabet {alphabet} above MAX_ALPHABET = 1024$"):
        build_ensemble(sbit_entry.theory, [(1.0, s, (0, 0))], (2, alphabet))
    with pytest.raises(ValueError, match="above MAX_ALPHABET"):
        CorrelatedEnsemble(sbit_entry.theory, np.ones(1), s.coords[None], np.zeros((1, 2), dtype=int), (alphabet, 2))


def test_the_ensemble_cap_admits_max_alphabet(sbit_entry):
    th = sbit_entry.theory
    ens = build_ensemble(th, [(1.0, catalog.sbit_state(1.0, 1.0), (0, 0))], (2, engine.MAX_ALPHABET))
    assert ens.register_alphabets == (2, 1024)
    assignment = ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), 1)))
    assert evaluate_icp(ens, assignment).extractable == 0.0


@pytest.mark.parametrize("n_registers, alphabet", [(2, 0), (2, -1), (1, engine.MAX_ALPHABET + 1)])
def test_random_ensemble_refuses_an_alphabet_before_drawing(n_registers, alphabet):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^alphabet {alphabet} outside 1 .. 1024$"):
        sampling.random_ensemble(catalog.sbit(), rng, n_registers, alphabet)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("alphabets", [(1024, 1024, 2), (1024, 1024, 1024), (2,) * 21])
def test_a_joint_alphabet_past_the_cap_is_refused_when_built(alphabets):
    """An ensemble refuses register alphabets whose product exceeds
    MAX_JOINT_ALPHABET, before a register marginal over it could be asked for."""
    th = catalog.classical_trit().theory
    v = th.variant.vertices[0]
    joint = math.prod(alphabets)
    with pytest.raises(ValueError, match=f"^joint alphabet {joint} above MAX_JOINT_ALPHABET = 1048576$"):
        build_ensemble(th, [(1.0, v, (0,) * len(alphabets))], alphabets)


def test_the_ensemble_cap_admits_max_joint_alphabet(sbit_entry):
    th = sbit_entry.theory
    ens = build_ensemble(th, [(1.0, catalog.sbit_state(1.0, 1.0), (1023, 1023))])
    assert math.prod(ens.register_alphabets) == engine.MAX_JOINT_ALPHABET
    assignment = ObservableAssignment(((th.measurement("X"), 0), (th.measurement("Z"), 1)))
    assert evaluate_icp(ens, assignment).extractable == 0.0


@pytest.mark.parametrize("n_registers, alphabet", [(65, 1), (10**9, 1)])
def test_random_ensemble_refuses_more_than_max_registers_before_drawing(monkeypatch, n_registers, alphabet):
    def product(*args):
        raise AssertionError("the register product was built")

    monkeypatch.setattr(sampling, "_register_product", product)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{n_registers} registers above MAX_REGISTERS = 64$"):
        sampling.random_ensemble(catalog.classical_bit(), rng, n_registers, alphabet)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sizes", [(2.0, 2), (2, 2.0), (np.float64(2.0), 2)])
def test_random_ensemble_refuses_a_float_size_whatever_its_cache_holds(sizes):
    entry = catalog.classical_bit()
    sampling.random_ensemble(entry, np.random.default_rng(5), 2, 2)  # the (2, 2) product is cached
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(TypeError):
        sampling.random_ensemble(entry, rng, *sizes)
    assert rng.bit_generator.state == state


def test_an_ensemble_holds_at_most_max_registers(bit_entry):
    """numpy arrays have at most 64 axes, and a register marginal gives each
    register one: 64 registers evaluate, 65 are refused when built."""
    th = bit_entry.theory
    s = th.variant.vertices[0]
    with pytest.raises(ValueError, match="^65 registers above MAX_REGISTERS = 64$"):
        CorrelatedEnsemble(th, [1.0], s.coords[None], np.zeros((1, 65), dtype=int), (1,) * 65)
    ens = sampling.random_ensemble(bit_entry, np.random.default_rng(5), engine.MAX_REGISTERS, 1)
    assert ens.registers.shape == (1, 64) and ens.register_alphabets == (1,) * 64
    assert register_marginal(ens).shape == (1,) * 64
    pairs = tuple((th.measurement("X"), r) for r in range(64))
    assert evaluate_icp(ens, ObservableAssignment(pairs)).extractable == 0.0


@pytest.mark.parametrize("n_registers, alphabet", [(3, 1024), (21, 2), (10**9, 2), (3, 102)])
def test_random_ensemble_refuses_a_joint_alphabet_before_drawing(monkeypatch, n_registers, alphabet):
    def product(*args):
        raise AssertionError("the register product was built")

    monkeypatch.setattr(sampling, "_register_product", product)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    match = rf"^{alphabet}\*\*{n_registers} register combinations above MAX_JOINT_ALPHABET = 1048576$"
    with pytest.raises(ValueError, match=match):
        sampling.random_ensemble(catalog.classical_bit(), rng, n_registers, alphabet)
    assert rng.bit_generator.state == state
