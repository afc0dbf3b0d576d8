"""The pass-first checks against the scan-every-row forms they replaced.

Each variant's ``check_states``, ``engine._check_registers`` and ``gpt.effect_values``
test a whole stack with one minimum or maximum per bound and build per-row
masks only when that test fails. The oracles below are the forms that built
every mask on every call. On finite input the fast paths must give their
index, verdict, detail, message and bits; where the oracles let a NaN pass,
the fast paths must raise or fail instead. ``info._density_check`` is the one
quantum-state check: ``check_states``, ``DensityOperator`` and
``_von_neumann_rows`` must reach the same verdict through it.

A polytope's check and the density check go further: a stack whose values
(or Hermitian deviations) pass is taken as finite without a finite test.
The ``_first_failure`` forms below test finiteness first on every stack; a
NaN or an infinity anywhere must fail at their row, with their message and
no warning.
"""
import itertools
import re
import warnings
from typing import Callable, Sequence

import numpy as np
import pytest

from icp_lab import (
    MEMBERSHIP_TOL,
    CorrelatedEnsemble,
    State,
    apply_effect,
    build_ensemble,
    catalog,
    constructions,
    engine,
    gpt,
    info,
    sampling,
)
from icp_lab.gpt import (
    NormConstraint,
    Polytope,
    RestrictedClassical,
    Validation,
    ambient_dimension,
    coords_to_density,
    density_to_coords,
    effect_values,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# --- the oracles ----------------------------------------------------------------

def old_first_failure(
    checks: Sequence[tuple[np.ndarray, Callable[[int], str]]], passed: str
) -> tuple[int, Validation]:
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if not failing.any():
        return -1, Validation(True, passed)
    i = int(failing.argmax())
    return i, Validation(False, next(detail(i) for mask, detail in checks if mask[i]))


def old_check_states(theory, coords):
    v = theory.variant
    tol = MEMBERSHIP_TOL
    if coords.shape[1] != ambient_dimension(theory):
        return 0, Validation(False, "ambient dimension mismatch")
    finite = np.isfinite(coords).all(axis=1)
    nonfinite = (~finite, lambda i: "state coordinate is not finite")
    if isinstance(v, Polytope):
        bounding = (*v.extreme_effects, v.unit)
        vals = np.einsum("ij,kj->ik", coords, v.bounding_matrix)
        outside = (vals < -tol) | (vals > 1.0 + tol)

        def effect_detail(i):
            j = int(outside[i].argmax())
            return f"effect {bounding[j].label or '?'} evaluates to {float(vals[i, j])!r}"

        return old_first_failure(
            [
                nonfinite,
                (outside.any(axis=1), effect_detail),
                (np.abs(vals[:, -1] - 1.0) > tol, lambda i: f"unit effect evaluates to {float(vals[i, -1])!r}, not 1"),
            ],
            "inside all supporting halfspaces",
        )
    if isinstance(v, NormConstraint):
        norm = v.norm(coords[:, :-1])
        return old_first_failure(
            [
                nonfinite,
                (np.abs(coords[:, -1] - 1.0) > tol, lambda i: "normalization coordinate is not 1"),
                (norm > 1.0 + tol, lambda i: f"p-norm {float(norm[i])!r} exceeds 1"),
            ],
            f"p-norm {float(norm.max())!r}",
        )
    if isinstance(v, RestrictedClassical):
        total = coords.sum(axis=1)
        return old_first_failure(
            [
                nonfinite,
                (coords.min(axis=1) < -tol, lambda i: "negative internal weight"),
                (np.abs(total - 1.0) > tol, lambda i: f"weights sum to {float(total[i])!r}"),
            ],
            "internal simplex point",
        )
    m = coords_to_density(np.where(finite[:, None], coords, 0.0), v.hilbert_dim)
    trace = np.trace(m, axis1=1, axis2=2).real
    least = np.linalg.eigvalsh(m).min(axis=1)
    return old_first_failure(
        [
            nonfinite,
            (np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > tol,
             lambda i: "density matrix is not Hermitian"),
            (np.abs(trace - 1.0) > tol, lambda i: f"trace is {float(trace[i])!r}"),
            (least < -tol, lambda i: f"negative eigenvalue {float(least[i])!r}"),
        ],
        f"least eigenvalue {float(least.min())!r}",
    )


def old_check_registers(registers, register_alphabets):
    outside = (registers < 0) | (registers >= np.array(register_alphabets))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"register value {registers[i, j]} outside alphabet {register_alphabets[j]}")


def old_effect_values(effects, states):
    if effects.shape[1] != states.shape[1]:
        raise ValueError(f"effect dimension {effects.shape[1]} != state dimension {states.shape[1]}")
    vals = effects @ states.T
    lo, hi = np.minimum.reduce(vals, None), np.maximum.reduce(vals, None)
    if lo < -MEMBERSHIP_TOL or hi > 1.0 + MEMBERSHIP_TOL:
        value = float(lo if lo < -MEMBERSHIP_TOL else hi)
        raise ValueError(f"effect value {value!r} outside [0, 1]; invalid effect/state pair")
    vals[np.abs(vals) <= MEMBERSHIP_TOL] = 0.0
    vals[np.abs(vals - 1.0) <= MEMBERSHIP_TOL] = 1.0
    return vals


def _outcome(f, *args):
    """``f(*args)``, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


# --- stacks mixing interior, boundary, outside and non-finite rows ----------------

THEORIES = {
    "classical-bit": catalog.classical_bit,
    "sbit": catalog.sbit,
    "polygon-5": lambda: catalog.polygon(5),
    "pgnst-3-2": lambda: catalog.pgnst(3, 2),
    "hbit": catalog.hbit,
    "qubit": catalog.qubit,
}
ENTRIES = {name: make() for name, make in THEORIES.items()}
KINDS = ("interior", "face", "outside", "nonfinite")
# a boundary row sits this many tolerances past (+) or short of (-) a face;
# the neighbours of 1 probe the rounding of the comparisons themselves
OFFSETS = (-2.0, -1.0 - 2**-30, -1.0, -1.0 + 2**-30, -0.5, 0.5, 1.0 - 2**-30, 1.0, 1.0 + 2**-30, 2.0)


def _polytope_faces(v):
    """(boundary point, outward direction) pairs: a step t along the
    direction moves one bounding effect's value t past its bound."""
    verts, bounding = v.vertex_matrix, v.bounding_matrix
    unit = bounding[-1]
    pairs = [(verts[0], unit / (unit @ unit))]
    for b in verts:
        for e in bounding[:-1]:
            value = e @ b
            if min(abs(value), abs(value - 1.0)) < 1e-12:
                # e.d = 1 and unit.d = 0: the step leaves the normalisation alone
                d = np.linalg.lstsq(np.array([e, unit]), np.array([1.0, 0.0]), rcond=None)[0]
                pairs.append((b, -d if value < 0.5 else d))
    return pairs


def _face_row(theory, rng, offset):
    """A row ``offset`` tolerances outside a face of the state space (inside
    for a negative offset)."""
    v, t = theory.variant, offset * MEMBERSHIP_TOL
    if isinstance(v, Polytope):
        faces = _polytope_faces(v)
        b, d = faces[rng.integers(len(faces))]
        return b + t * d
    if isinstance(v, NormConstraint):
        direction = rng.normal(size=v.k)
        s = direction / v.norm(direction)
        if rng.integers(2):
            return np.append(s * (1.0 + t), 1.0)  # the p-norm face
        return np.append(s * rng.uniform(), 1.0 + t)  # the normalisation face
    if isinstance(v, RestrictedClassical):
        k, j = rng.choice(v.internal_states, size=2, replace=False)
        row = np.zeros(v.internal_states)
        if rng.integers(2):
            row[k], row[j] = 1.0 + t, -t  # weight j at -t, the sum at 1
        else:
            row[k] = 1.0 + t  # the sum at 1 + t
        return row
    dim = v.hilbert_dim
    face = rng.integers(3)
    if face == 0:  # least eigenvalue at -t
        rho = np.diag(np.append(1.0 + t, np.zeros(dim - 1)))
        rho[-1, -1] = -t
    elif face == 1:  # trace at 1 + t
        rho = np.eye(dim) * (1.0 + t) / dim
    else:  # not Hermitian by t
        rho = (np.eye(dim) / dim).astype(complex)
        rho[0, 1] += 1j * t
    return density_to_coords(rho)


def _row(entry, kind, rng, offset):
    theory = entry.theory
    if kind == "interior":
        return theory.variant.random_coords(rng, 1)[0]
    if kind == "face":
        return _face_row(theory, rng, offset)
    if kind == "outside":
        return _face_row(theory, rng, abs(offset) * 1e7)
    row = theory.variant.random_coords(rng, 1)[0]
    bad = rng.choice([np.nan, np.inf, -np.inf])
    if rng.integers(2):
        row[rng.integers(row.size)] = bad
    else:
        row[:] = bad
    return row


@st.composite
def stacks(draw, name):
    entry = ENTRIES[name]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    return entry, np.array([_row(entry, kind, rng, draw(st.sampled_from(OFFSETS))) for kind in kinds])


def _effect_matrices(theory):
    mats = [m.effect_matrix for m in theory.measurements.values()]
    if isinstance(theory.variant, Polytope):
        mats.append(theory.variant.bounding_matrix)
    return mats


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_check_states_equals_the_scan_every_row_oracle(name):
    @PROPERTY_SETTINGS
    @given(case=stacks(name))
    def check(case):
        entry, coords = case
        assert entry.theory.variant.check_states(coords) == old_check_states(entry.theory, coords)
        for i in range(len(coords)):
            assert gpt.validate_state(entry.theory, gpt.State(coords[i])) == old_check_states(
                entry.theory, coords[i : i + 1]
            )[1]

    check()


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_effect_values_equals_the_two_pass_oracle(name):
    @PROPERTY_SETTINGS
    @given(case=stacks(name))
    def check(case):
        entry, coords = case
        for effects in _effect_matrices(entry.theory):
            with np.errstate(invalid="ignore"):  # the stacks' NaN and infinite rows
                got, want = _outcome(effect_values, effects, coords), _outcome(old_effect_values, effects, coords)
            if isinstance(want, np.ndarray) and np.isnan(want).any():
                # the oracle let a NaN value through; the fast path names it
                assert isinstance(got, str) and got == "effect value nan outside [0, 1]; invalid effect/state pair"
            elif isinstance(want, str):
                assert got == want
            else:
                assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()

    check()


@PROPERTY_SETTINGS
@given(case=stacks("qubit"))
def test_density_check_gives_one_verdict_through_every_caller(case):
    entry, coords = case
    index, verdict = entry.theory.variant.check_states(coords)
    with np.errstate(invalid="ignore"):  # 1j * inf in the matrices of infinite rows
        m = coords_to_density(coords, entry.theory.variant.hilbert_dim)
    assert info._density_check(m)[:2] == (index, verdict)
    # DensityOperator row by row: the first row it rejects, with the same detail
    details = [_outcome(info.DensityOperator, rho) for rho in m]
    failing = [i for i, detail in enumerate(details) if isinstance(detail, str)]
    assert (failing[0] if failing else -1) == index
    if verdict:
        assert info._von_neumann_rows(m).tobytes() == np.array([info.von_neumann_entropy(rho) for rho in m]).tobytes()
    else:
        assert details[index] == verdict.detail
        assert _outcome(info._von_neumann_rows, m) == verdict.detail


@st.composite
def register_stacks(draw):
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(-3, 5), min_size=n * r, max_size=n * r))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.float64]))
    alphabets = tuple(draw(st.lists(st.integers(1, 4), min_size=r, max_size=r)))
    return np.array(values, dtype=dtype).reshape(n, r), alphabets


@settings(max_examples=300, deadline=None)
@given(case=register_stacks())
def test_check_registers_equals_the_mask_oracle(case):
    """The oracle's verdict on the values; a float stack it passes is then
    refused for its dtype."""
    want = _outcome(old_check_registers, *case)
    if want is None and case[0].dtype == np.float64:
        want = "register values of dtype float64, not an integer dtype"
    assert _outcome(engine._check_registers, *case) == want


def test_check_registers_rejects_nan_where_the_oracle_let_it_pass():
    regs = np.array([[0.0, 1.0], [np.nan, 0.0]])
    assert old_check_registers(regs, (2, 2)) is None
    with pytest.raises(ValueError, match=re.escape("register value nan outside alphabet 2")):
        engine._check_registers(regs, (2, 2))


def test_snaps_are_skipped_only_where_no_value_meets_them():
    effects = np.eye(2)
    for states in (
        np.array([[0.5, 0.25]]),  # neither snap
        np.array([[MEMBERSHIP_TOL, 0.5]]),  # the snap to 0 only
        np.array([[1.0 - MEMBERSHIP_TOL, 0.5]]),  # the snap to 1 only
        np.array([[np.nextafter(1.0 - MEMBERSHIP_TOL, 0.0), np.nextafter(MEMBERSHIP_TOL, 1.0)]]),
    ):
        got, want = effect_values(effects, states.copy()), old_effect_values(effects, states.copy())
        assert got.tobytes() == want.tobytes()


# --- non-finite entries on the pass-first paths ------------------------------------

def first_failure_polytope_rows(v, coords):
    """``Polytope._check_rows`` without its pass-first test: every stack goes
    through ``_first_failure``, finite coordinates first."""
    tol = MEMBERSHIP_TOL
    bounding = (*v.extreme_effects, v.unit)
    vals = np.einsum("ij,kj->ik", coords, v.bounding_matrix)

    def effect_detail(i):
        j = int(info._fails(vals[i], -tol, 1.0 + tol).argmax())
        return f"effect {bounding[j].label or '?'} evaluates to {float(vals[i, j])!r}"

    return info._first_failure(
        [
            info._finite(coords),
            (vals, -tol, 1.0 + tol, effect_detail),
            (np.abs(vals[:, -1] - 1.0), None, tol, lambda i: f"unit effect evaluates to {float(vals[i, -1])!r}, not 1"),
        ],
        "inside all supporting halfspaces",
    )


def first_failure_density_check(m):
    """``info._density_check`` without its pass-first Hermitian test: the
    non-finite entries are zeroed and every stack goes through
    ``_first_failure``, finite entries first. Returns the row, the verdict
    and the spectra."""
    tol = MEMBERSHIP_TOL
    finite = info._finite(m)
    m = np.where(finite[0], m, 0.0)
    trace = np.trace(m, axis1=1, axis2=2).real
    eigs = np.linalg.eigvalsh(m)
    i, verdict = info._first_failure(
        [
            finite,
            (np.abs(m - m.conj().transpose(0, 2, 1)), None, tol, lambda i: "density matrix is not Hermitian"),
            (np.abs(trace - 1.0), None, tol, lambda i: f"trace is {float(trace[i])!r}"),
            (eigs, -tol, None, lambda i: f"negative eigenvalue {float(eigs[i].min())!r}"),
        ],
        f"least eigenvalue {float(np.minimum.reduce(eigs, None, initial=np.inf))!r}",
    )
    return i, verdict, eigs


def _same_check(got, want):
    return got[:2] == want[:2] and got[2].tobytes() == want[2].tobytes()


def _raising_warnings(f, *args):
    """``f(*args)`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def _bases(entry, rng):
    """Three states, and three rows whose middle one lies outside the state
    space, so that the first failing row depends on where a bad entry goes."""
    theory = entry.theory
    inside = theory.variant.random_coords(rng, 3)
    outside = inside.copy()
    outside[1] = _face_row(theory, rng, 1e7)
    return inside, outside


BAD_VALUES = (np.nan, np.inf, -np.inf)
POLYTOPES = sorted(name for name, entry in ENTRIES.items() if isinstance(entry.theory.variant, Polytope))


@pytest.mark.parametrize("name", POLYTOPES)
def test_a_non_finite_coordinate_fails_as_on_the_first_failure_path(name):
    v = ENTRIES[name].theory.variant
    for base in _bases(ENTRIES[name], np.random.default_rng(7)):
        assert _raising_warnings(v.check_states, base) == first_failure_polytope_rows(v, base)
        for row, j, bad in itertools.product(range(len(base)), range(base.shape[1]), BAD_VALUES):
            coords = base.copy()
            coords[row, j] = bad
            got = _raising_warnings(v.check_states, coords)
            assert got == first_failure_polytope_rows(v, coords), (row, j, bad)
            assert not got[1]


@pytest.mark.parametrize("dim", [2, 3])
def test_a_non_finite_density_entry_fails_as_on_the_first_failure_path(dim):
    """Each entry's real or imaginary part set to NaN or an infinity, in a
    stack of densities and in one with a finite failing middle row."""
    rng = np.random.default_rng(dim)
    densities = info._densities(*info._density_draw_parts(rng, dim, 3))
    failing = densities.copy()
    failing[1, 0, 1] += 1e-3j  # not Hermitian
    for base in (densities, failing):
        assert _same_check(_raising_warnings(info._density_check, base), first_failure_density_check(base))
        for row, i, j, part, bad in itertools.product(range(3), range(dim), range(dim), ("real", "imag"), BAD_VALUES):
            m = base.copy()
            setattr(m[row, i, j:j + 1], part, bad)
            got = _raising_warnings(info._density_check, m)
            assert _same_check(got, first_failure_density_check(m)), (row, i, j, part, bad)
            assert not got[1]


def test_a_non_finite_qubit_coordinate_fails_as_on_the_first_failure_path():
    entry = ENTRIES["qubit"]
    v = entry.theory.variant
    for base in _bases(entry, np.random.default_rng(8)):
        for row, j, bad in itertools.product(range(len(base)), range(base.shape[1]), BAD_VALUES):
            coords = base.copy()
            coords[row, j] = bad
            with np.errstate(invalid="ignore"):  # 1j * inf
                m = coords_to_density(coords, v.hilbert_dim)
            assert _raising_warnings(v.check_states, coords) == first_failure_density_check(m)[:2], (row, j, bad)


# --- every public check rejects NaN -------------------------------------------------

BIT = ENTRIES["classical-bit"].theory
NAN_STATE = State(np.array([np.nan, 1.0]))
NAN_INPUTS = {
    "effect_values": lambda: effect_values(BIT.measurement("X").effect_matrix, np.array([[0.5, 0.5], [np.nan, 1.0]])),
    "apply_effect": lambda: apply_effect(BIT.measurement("X").effects[0], NAN_STATE),
    "check_states": lambda: BIT.variant.check_states(np.array([[0.5, 0.5], [np.nan, 1.0]]))[1],
    "validate_state": lambda: gpt.validate_state(BIT, NAN_STATE),
    "_as_prob_array": lambda: info._as_prob_array([np.nan, 0.5, 0.5]),
    "JointTable": lambda: info.JointTable(("A",), np.array([np.nan, 1.0])),
    "binary_entropy": lambda: info.binary_entropy(np.nan),
    "build_ensemble-probability": lambda: build_ensemble(
        BIT, [(np.nan, State(np.array([1.0, 0.0])), (0,)), (1.0, State(np.array([0.0, 1.0])), (1,))]
    ),
    "build_ensemble-state": lambda: build_ensemble(BIT, [(1.0, NAN_STATE, (0,))]),
    "CorrelatedEnsemble-probability": lambda: CorrelatedEnsemble(
        BIT, np.array([np.nan, 1.0]), np.eye(2), np.array([[0], [1]]), (2,)
    ),
    "DensityOperator": lambda: info.DensityOperator(np.diag([np.nan, 1.0])),
    "rac_recovery_halfpower": lambda: constructions.rac_recovery_halfpower(np.nan),
    "rac_recovery_optimized": lambda: constructions.rac_recovery_optimized(np.nan),
    "pgnst_bound_check-grid": lambda: constructions.pgnst_bound_check(3.0, 0.5, [0.9, np.nan]),
    "pgnst_bound_check-epsilon": lambda: constructions.pgnst_bound_check(3.0, np.nan),
    "pgnst_bound_check-p": lambda: constructions.pgnst_bound_check(np.nan, 0.5),
    "sbit_state": lambda: catalog.sbit_state(np.nan, 0.0),
    "qubit_state_from_bloch": lambda: catalog.qubit_state_from_bloch(np.nan, 0.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_every_public_check_rejects_nan(name):
    try:
        result = NAN_INPUTS[name]()
    except ValueError:
        return
    assert isinstance(result, Validation) and not result, result
