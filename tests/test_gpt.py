"""State/effect layer: membership tests, measurement statistics, observed dimension."""
import gc
import math
import re
import weakref

import numpy as np
import pytest

from icp_lab import (
    MEMBERSHIP_TOL,
    Effect,
    Measurement,
    State,
    Theory,
    apply_effect,
    catalog,
    composite_dimension_bound,
    gpt,
    measure,
    observed_dimension,
    sampling,
    unit_effect,
    validate_measurement,
    validate_state,
    verify_distinguishable,
)
from icp_lab.gpt import NormConstraint, effect_values


def test_apply_effect_snaps_boundary(sbit_entry):
    # corner state against its own supporting effect: exactly 1 after snapping
    s = catalog.sbit_state(1.0, 1.0)
    x = sbit_entry.theory.measurement("X")
    val = apply_effect(x.effects[0], s)
    assert 0.0 <= val <= 1.0


def test_apply_effect_rejects_out_of_range_value(qubit_entry):
    # trace-10 "density": the Z0 readout would report probability 10
    bad = State(np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    e = qubit_entry.theory.measurement("Z").effects[0]
    with pytest.raises(ValueError):
        apply_effect(e, bad)


def test_effect_values_names_the_value_out_of_range():
    effects = np.eye(2)
    message = "effect value {} outside [0, 1]; invalid effect/state pair"
    # the low end is reported when both ends are out of range
    with pytest.raises(ValueError, match=re.escape(message.format(-0.5))):
        effect_values(effects, np.array([[0.2, -0.5], [1.5, 0.3]]))
    with pytest.raises(ValueError, match=re.escape(message.format(1.5))):
        effect_values(effects, np.array([[0.2, 0.5], [1.5, 0.3]]))
    # within the tolerance the values snap to the boundary
    vals = effect_values(effects, np.array([[1.0 + MEMBERSHIP_TOL / 2, -MEMBERSHIP_TOL / 2]]))
    assert vals.tolist() == [[1.0], [0.0]]


def test_effect_values_rejects_nan():
    # min and max are NaN once one value is, and every comparison with NaN is
    # false, so a test written as "lo < -tol or hi > 1 + tol" let this stack
    # through as [[nan, 2.5], [nan, 3.5]]
    effects = np.array([[0.5, 0.5, 0.0], [0.5, -0.5, 1.0]])
    states = np.array([[np.nan, np.nan, np.nan], [5.0, 0.0, 1.0]])
    message = "effect value {} outside [0, 1]; invalid effect/state pair"
    with pytest.raises(ValueError, match=re.escape(message.format("nan"))):
        effect_values(effects, states)
    with pytest.raises(ValueError, match=re.escape(message.format(3.5))):
        effect_values(effects, states[1:])


def test_apply_effect_rejects_dimension_mismatch(sbit_entry, qubit_entry):
    s = catalog.sbit_state(0.0, 0.0)
    e = qubit_entry.theory.measurement("Z").effects[0]
    with pytest.raises(ValueError):
        apply_effect(e, s)


def test_validate_state_polytope(sbit_entry):
    th = sbit_entry.theory
    assert validate_state(th, catalog.sbit_state(0.3, -0.8))
    corner = catalog.sbit_state(1.0, 0.0)
    outside = State(corner.coords * np.array([1.5, 1.5, 1.0]))
    assert not validate_state(th, outside)


def test_validate_state_quantum(qubit_entry):
    from icp_lab.gpt import density_to_coords

    th = qubit_entry.theory
    assert validate_state(th, catalog.qubit_state_from_bloch(0.6, 0.0, 0.8))
    with pytest.raises(ValueError):
        catalog.qubit_state_from_bloch(0.9, 0.0, 0.9)
    # hermitian, unit trace, but with a negative eigenvalue
    not_psd = State(density_to_coords(np.array([[0.9, 0.6], [0.6, 0.1]])))
    assert not validate_state(th, not_psd)


def test_validate_state_restricted_classical(hbit_entry):
    th = hbit_entry.theory
    assert validate_state(th, catalog.hbit_state(1, 0))
    assert not validate_state(th, State(np.array([0.5, 0.7, -0.2, 0.0])))


@pytest.mark.parametrize(
    "make",
    [catalog.sbit, catalog.classical_bit, catalog.qubit, lambda: catalog.pgnst(3, 2)],
    ids=["sbit", "classical-bit", "qubit", "pgnst-3-2"],
)
def test_check_states_rejects_non_finite_coordinates(make):
    entry = make()
    th = entry.theory
    good = sampling.random_state(entry, np.random.default_rng(5)).coords
    nan = np.full_like(good, np.nan)
    ok = validate_state(th, State(nan))
    assert not ok and ok.detail == "state coordinate is not finite"
    # a row is tested for finite coordinates before anything else
    inf = good.copy()
    inf[0] = np.inf
    assert th.variant.check_states(np.array([good, inf, nan])) == (1, ok)


@pytest.mark.parametrize(
    "make,off_span",
    [
        (catalog.classical_bit, [0.3, 0.3]),  # the vertices span the line x + y = 1
        (catalog.classical_trit, [0.0, 0.0, 1.2]),  # the vertices span the plane z = 1
    ],
    ids=["classical-bit", "classical-trit"],
)
def test_carrier_weights_refuses_states_off_the_vertex_simplex(make, off_span):
    """The ledger's ensemble check stops such states first, so these guards
    are reached only by calling the method itself."""
    th = make().theory
    verts = th.variant.vertex_matrix
    inside = verts.mean(axis=0)
    outside = 2.0 * verts[0] - verts[1]  # on the span, with weights (2, -1, ...)
    assert np.allclose(th.variant.carrier_weights(th.theory_id, inside[None]), 1.0 / len(verts))
    with pytest.raises(gpt.ChainNotApplicable, match="^states do not decompose over the vertices$"):
        th.variant.carrier_weights(th.theory_id, np.array([inside, off_span]))
    with pytest.raises(gpt.ChainNotApplicable, match="^states fall outside the vertex simplex$"):
        th.variant.carrier_weights(th.theory_id, np.array([inside, outside]))


def test_validate_measurement_completeness(qubit_entry):
    th = qubit_entry.theory
    for label in ("X", "Z"):
        assert validate_measurement(th, th.measurement(label))


def test_measure_returns_distribution(qubit_entry):
    th = qubit_entry.theory
    s = catalog.qubit_state_from_bloch(0.6, 0.0, 0.8)
    probs = measure(th, th.measurement("Z"), s)
    assert probs.shape == (2,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[0] == pytest.approx(0.9, abs=1e-12)  # (1 + bz) / 2


def test_unit_effect_sums_measurement(sbit_entry):
    th = sbit_entry.theory
    u = unit_effect(th)
    m = th.measurement("X")
    total = np.sum([e.coords for e in m.effects], axis=0)
    assert np.allclose(total, u.coords, atol=1e-12)


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 2), (5, 2), (6, 2), (12, 2), (20, 2)])
def test_polygon_observed_dimension(n, expected):
    report = observed_dimension(catalog.polygon(n).theory)
    assert report.d == expected
    assert report.certificate.verified


def test_observed_dimension_fixed_entries(hbit_entry, qubit_entry, trit_entry, bit_entry):
    assert observed_dimension(hbit_entry.theory).d == 2
    assert observed_dimension(qubit_entry.theory).d == 2
    assert observed_dimension(trit_entry.theory).d == 3
    assert observed_dimension(bit_entry.theory).d == 2


def test_observed_dimension_pgnst():
    assert observed_dimension(catalog.pgnst(3.0, 2).theory).d == 2
    assert observed_dimension(catalog.pgnst(float("inf"), 2).theory).d == 2


def test_verify_distinguishable_triangle():
    th = catalog.polygon(3).theory
    cert = observed_dimension(th).certificate
    assert cert.verified
    assert len(cert.states) == 3
    assert cert.max_deviation <= 1e-9
    # the same measurement with two states swapped is no longer a certificate
    sts = list(cert.states)
    bad = verify_distinguishable(th, [sts[1], sts[0], sts[2]], cert.measurement)
    assert not bad.verified


def test_verify_distinguishable_rejects_invalid_state(qubit_entry):
    from icp_lab.gpt import density_to_coords

    th = qubit_entry.theory
    bad = State(density_to_coords(np.array([[0.9, 0.6], [0.6, 0.1]])))
    with pytest.raises(ValueError):
        verify_distinguishable(th, [bad], th.measurement("Z"))


def test_composite_dimension_bound():
    assert composite_dimension_bound([2]) == 3
    assert composite_dimension_bound([2, 2]) == 9
    assert composite_dimension_bound([3, 3, 3]) == 64
    with pytest.raises(ValueError):
        composite_dimension_bound([])
    with pytest.raises(ValueError):
        composite_dimension_bound([0])
    assert composite_dimension_bound([2.0]) == 3


@pytest.mark.parametrize("dim", [math.inf, -math.inf, math.nan, 2.5])
def test_composite_dimension_bound_refuses_a_dimension_that_is_no_positive_integer(dim):
    # int() raised OverflowError on inf and its own message on NaN
    with pytest.raises(ValueError, match=f"^state-space dimension must be a positive integer, got {dim!r}$"):
        composite_dimension_bound([2, dim])


def test_dimension_report_is_kept_per_theory_object():
    # a triangle that borrows the square model's id must not get its d = 2,
    # neither from its search nor from its kept report
    assert observed_dimension(catalog.sbit().theory).d == 2
    triangle = catalog.polygon(3).theory
    impostor = Theory("sbit", triangle.variant, triangle.measurements)
    assert observed_dimension(impostor).d == 3
    assert observed_dimension(impostor).d == 3
    assert observed_dimension(catalog.sbit().theory).d == 2


@pytest.mark.parametrize("theory_id", ["qubit", "hbit", "pgnst:3:2", "polygon:7"])
def test_dimension_report_is_freed_with_its_theory(theory_id):
    theory = catalog.resolve(theory_id).theory
    report = weakref.ref(observed_dimension(theory))
    # the readout graph's lru_cache holds the last two polytopes searched
    gpt._readout_graph.cache_clear()
    del theory
    gc.collect()
    assert report() is None


def test_a_report_that_spends_the_budget_is_kept(monkeypatch):
    searches = []
    search = gpt._polytope_dimension
    monkeypatch.setattr(gpt, "_SEARCH_BUDGET", 2)
    monkeypatch.setattr(gpt, "_polytope_dimension", lambda theory, budget: searches.append(budget) or search(theory, budget))
    theory = catalog.polygon(7).theory
    report = observed_dimension(theory)
    assert not report.exhaustive
    assert observed_dimension(theory) is report
    assert searches == [2]



def test_a_restricted_theory_reads_its_own_named_measurements():
    # the hbit's simplex with a fine 4-outcome readout B added: B is allowed,
    # and it tells the four internal states apart
    hbit = catalog.hbit().theory
    basis = Measurement("B", tuple(Effect(row, f"B{i}") for i, row in enumerate(np.eye(4))))
    fine = Theory("hbit", hbit.variant, {**hbit.measurements, "B": basis})
    assert observed_dimension(fine).d == 4
    state = State(np.array([0.1, 0.2, 0.3, 0.4]))
    assert measure(fine, basis, state).tolist() == [0.1, 0.2, 0.3, 0.4]
    # the catalog's hbit keeps only its two coarse readouts
    assert observed_dimension(hbit).d == 2
    with pytest.raises(ValueError, match="is not available"):
        measure(hbit, basis, state)
    assert observed_dimension(catalog.hbit().theory).d == 2


def test_a_restricted_theory_reads_only_the_effect_rows_of_its_named_measurements():
    # a label names a measurement but does not make one: the four fine basis
    # effects under the hbit's label "X" would read its hidden internal state
    hbit = catalog.hbit().theory
    state = State(np.array([0.1, 0.2, 0.3, 0.4]))
    fine = Measurement("X", tuple(Effect(row, f"X{i}") for i, row in enumerate(np.eye(4))))
    with pytest.raises(ValueError, match="'X' is not available in 'hbit'"):
        measure(hbit, fine, state)
    x = hbit.measurement("X")
    assert measure(hbit, x, state).tolist() == pytest.approx([0.3, 0.7], abs=1e-12)
    relabelled = Measurement("parity", tuple(Effect(e.coords, f"p{i}") for i, e in enumerate(x.effects)))
    assert measure(hbit, relabelled, state).tolist() == measure(hbit, x, state).tolist()


def test_a_measurement_with_a_nan_effect_is_neither_valid_nor_a_certificate():
    # every comparison with NaN is false, so a test written "dev > tol" passed it
    th = catalog.classical_bit().theory
    bad = Measurement("bad", (Effect([1.0, np.nan]), Effect([0.0, 1.0])))
    ok = validate_measurement(th, bad)
    assert not ok and ok.detail == "effects sum deviates from unit by nan"
    with pytest.raises(ValueError, match="deviates from unit by nan"):
        verify_distinguishable(th, th.variant.vertices, bad)


def test_a_measurement_of_another_dimension_is_judged_not_valid(qubit_entry):
    # the qubit's unit effect has 8 coordinates; numpy refused to broadcast
    # the effect sum against it before the dimensions were compared
    th = qubit_entry.theory
    short = Measurement("short", (Effect([1.0, 0.0]), Effect([0.0, 1.0])))
    ok = validate_measurement(th, short)
    assert not ok and ok.detail == "effect dimension 2 differs from the theory's 8"
    with pytest.raises(ValueError, match="^effect dimension 2 differs from the theory's 8$"):
        verify_distinguishable(th, [], short)
    with pytest.raises(ValueError, match="^effect dimension 2 differs from the theory's 8$"):
        verify_distinguishable(th, [catalog.qubit_state_from_bloch(0.0, 0.0, 1.0)], short)


def test_verify_distinguishable_with_no_states_is_vacuous(bit_entry):
    cert = verify_distinguishable(bit_entry.theory, [], bit_entry.theory.measurement("X"))
    assert cert.verified and cert.max_deviation == 0.0 and cert.states == ()


def test_norm_corners_are_the_fiducial_extremes_without_negative_zeros():
    corners = NormConstraint(3.0, 3).corners()
    expected = [[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]]
    assert corners.tolist() == expected
    assert not np.signbit(corners[corners == 0.0]).any()


@pytest.mark.parametrize("p", [2.0, 3.0, 4.5, float("inf")])
@pytest.mark.parametrize("k", [2, 3])
def test_norm_equals_the_row_and_the_scalar_forms(p, k):
    """The one p-norm against the row form the membership test took and the
    scalar form the sampler and the optimizer took, bit for bit."""
    v = NormConstraint(p, k)
    rows = np.random.default_rng([k, int(min(p, 9))]).normal(size=(40, k)) * 0.8
    s = np.abs(rows)
    row_form = s.max(axis=1) if np.isinf(p) else (s**p).sum(axis=1) ** (1.0 / p)
    assert v.norm(rows).tobytes() == row_form.tobytes()
    for row in rows:
        scalar = np.abs(row).max() if np.isinf(p) else float((np.abs(row) ** p).sum()) ** (1.0 / p)
        assert float(v.norm(row)).hex() == float(scalar).hex()


@pytest.mark.parametrize(
    "make, size",
    [
        (lambda s: NormConstraint(3.0, s), 2.0),
        (gpt.Quantum, 2.0),
        (gpt.RestrictedClassical, 2.5),
        (lambda s: NormConstraint(3.0, s), np.int64(2)),
        (gpt.Quantum, np.int64(2)),
        (gpt.RestrictedClassical, np.int64(3)),
    ],
    ids=["norm-float", "quantum-float", "restricted-float", "norm-int64", "quantum-int64", "restricted-int64"],
)
def test_variant_sizes_go_through_operator_index(make, size):
    # a float size used to build, report float dimensions and fail later inside numpy
    if isinstance(size, float):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make(size)
        return
    v = make(size)
    theory = Theory("t", v)
    dims = (gpt.ambient_dimension(theory), gpt.state_space_dimension(theory))
    assert [type(d) for d in dims] == [int, int]
    assert unit_effect(theory).coords.size == dims[0]
    assert v.random_coords(np.random.default_rng(0), 2).shape == (2, dims[0])
    assert observed_dimension(theory).certificate.verified


def test_polytope_refuses_a_row_of_another_coordinate_count():
    v = catalog.polygon(5).theory.variant
    vertices = list(v.vertices)
    vertices[2] = State(vertices[2].coords[:2])
    with pytest.raises(ValueError, match="^vertex 3 has 2 coordinates, not the unit's 3$"):
        gpt.Polytope(tuple(vertices), v.extreme_effects, v.unit)
    effects = list(v.extreme_effects)
    effects[1] = Effect(effects[1].coords[:2], "e2")
    with pytest.raises(ValueError, match="^effect e2 has 2 coordinates, not the unit's 3$"):
        gpt.Polytope(v.vertices, tuple(effects), v.unit)
    # the unit fixes the count: vertices and effects in R^3 with a unit in R^2
    with pytest.raises(ValueError, match="^vertex 1 has 3 coordinates, not the unit's 2$"):
        gpt.Polytope(v.vertices, v.extreme_effects, Effect(np.array([0.0, 1.0]), "u"))
