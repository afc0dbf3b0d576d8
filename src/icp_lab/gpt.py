"""Core state/effect/measurement machinery for generalized probabilistic theories.

States and effects are real coordinate vectors and an effect applied to a
state is their Euclidean inner product. Each theory variant embeds its states
so that this single convention covers all of them:

* ``Polytope`` -- explicit extreme states and extreme effects (classical
  simplices, polygon models). Catalog constructions carry a trailing
  normalization coordinate fixed to 1, with the unit effect reading it off.
* ``NormConstraint`` -- states hold k fiducial mean values followed by a
  normalization coordinate, ``(s_1, ..., s_k, 1)``, constrained by
  ``sum_i |s_i|^p <= 1``. The fiducial effects ``(1 +/- s_i)/2`` are then
  linear in the embedded vector.
* ``RestrictedClassical`` -- probability vectors over an internal simplex,
  read only through the theory's named measurements.
* ``Quantum`` -- density matrices flattened to concatenated real and
  imaginary parts, so the dot product of effect and state coordinates equals
  ``Tr(E rho)`` exactly for Hermitian operators.

Extreme states and effects of polytope theories are indexed 1-based with
wraparound (vertex n+k is vertex k), matching the usual polygon conventions.

Every variant answers for itself what depends on its kind, so no caller tests
which kind it holds. Each provides ``ambient_dimension``, ``affine_dimension``,
``unit`` (the unit effect), ``classical_carrier`` (basis rows, or None),
``check_states(coords)``, ``random_coords(rng, n)`` (drawn as n calls with
n = 1 would draw them), the optimizer's search family (``search_params``
parameters per state within ``search_bounds``, ``build(params)`` and the
grid's ``search_seeds(measurements)``), ``dimension_report(theory)``, and the
ledger's ``carrier_weights(theory_id, coords)``: the states' weights over the
classical carrier, None for quantum states, or ``ChainNotApplicable``.
"""
from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .info import (
    DISTINGUISH_TOL,
    MEMBERSHIP_TOL,
    PROB_TOL,
    UNIT_TOL,
    Validation,
    _densities,
    _density_check,
    _density_draw_parts,
    _dirichlet_ones,
    _fails,
    _finite,
    _first_failure,
)


def _frozen_vector(coords) -> np.ndarray:
    arr = np.array(coords, dtype=float)
    if arr.ndim != 1:
        raise ValueError("coordinates must be a flat vector")
    arr.setflags(write=False)
    return arr


def _frozen_rows(vectors: Iterable[np.ndarray]) -> np.ndarray:
    arr = np.array(list(vectors), dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class State:
    """Point of a theory's state space, in the theory's embedding."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_vector(self.coords))


@dataclass(frozen=True, eq=False)
class Effect:
    """Linear functional mapping states to outcome probabilities."""

    coords: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_vector(self.coords))


@dataclass(frozen=True, eq=False)
class Measurement:
    """Finite collection of effects summing to the unit effect."""

    label: str
    effects: tuple[Effect, ...]

    def __post_init__(self):
        effects = tuple(self.effects)
        if not effects:
            raise ValueError("measurement needs at least one outcome")
        dims = {e.coords.size for e in effects}
        if len(dims) != 1:
            raise ValueError("effect dimensions disagree within a measurement")
        object.__setattr__(self, "effects", effects)

    def __len__(self) -> int:
        return len(self.effects)

    @cached_property
    def effect_matrix(self) -> np.ndarray:
        """Effect coordinates, one row per outcome (read-only)."""
        return _frozen_rows(e.coords for e in self.effects)


# ``Polytope.check_states``' verdict on a stack that passes
_INSIDE = Validation(True, "inside all supporting halfspaces")


class ChainNotApplicable(ValueError):
    """The ensemble's theory has no classical or quantum carrier for S."""


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Entry probabilities from raw search weights: clipped at 0, then
    normalized, uniform when nothing is left."""
    # np.clip(weights, 0.0, None) and w.sum(), without their wrapper cost
    w = np.maximum(weights, 0.0)
    total = np.add.reduce(w)
    return np.full_like(w, 1.0 / len(w)) if total <= 0.0 else w / total


class _StateSpace:
    """Every variant's ambient dimension, the unit's coordinate count, and the
    guard ``check_states`` runs on it before the variant's ``_check_rows``."""

    @cached_property
    def ambient_dimension(self) -> int:
        return self.unit.coords.size

    def check_states(self, coords: np.ndarray) -> tuple[int, Validation]:
        """Membership test for each row of an (n, D) array of state coordinates:
        ``(-1, passing Validation)`` when every row lies in the state space,
        else the index of the first row that does not and its failing Validation."""
        if coords.shape[1] != self.ambient_dimension:
            return 0, Validation(False, "ambient dimension mismatch")
        return self._check_rows(coords)


class _VertexSpace(_StateSpace):
    """What a state space spanned by the rows of ``vertex_matrix`` takes from
    them: its affine dimension, carrier and random states, and its search
    family, one raw weight per vertex normalized into a mixture, each vertex a seed."""

    search_bounds = (0.0, 1.0)

    @cached_property
    def affine_dimension(self) -> int:
        coords = self.vertex_matrix
        if len(coords) == 1:
            return 0
        return int(np.linalg.matrix_rank(coords[1:] - coords[0], tol=1e-9))

    @property
    def classical_carrier(self) -> np.ndarray | None:
        return self.vertex_matrix if len(self.vertex_matrix) == self.affine_dimension + 1 else None

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform (Dirichlet) mixtures of the vertices, one row each."""
        w = _dirichlet_ones(rng, len(self.vertex_matrix), n)
        # einsum forms each row on its own, so a state's coordinates do not
        # depend on n; a BLAS product can round differently by batch size
        return np.einsum("ij,jk->ik", w, self.vertex_matrix)

    @property
    def search_params(self) -> int:
        return len(self.vertex_matrix)

    def build(self, params: np.ndarray) -> np.ndarray:
        return _normalized(params) @ self.vertex_matrix

    def search_seeds(self, measurements: Sequence[Measurement]) -> list[np.ndarray]:
        return list(np.eye(self.search_params))


@dataclass(frozen=True, eq=False)
class Polytope(_VertexSpace):
    """State space spanned by its vertices, cut out by its extreme effects and
    the unit."""

    vertices: tuple[State, ...]
    extreme_effects: tuple[Effect, ...]
    unit: Effect

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("polytope needs at least one vertex")
        # the unit fixes the coordinate count; another would leave a stack ragged
        dim = self.unit.coords.size
        for i, s in enumerate(self.vertices, 1):
            if s.coords.size != dim:
                raise ValueError(f"vertex {i} has {s.coords.size} coordinates, not the unit's {dim}")
        coords = self.vertex_matrix
        # every comparison with NaN is false, so a non-finite coordinate would
        # pass the tests below and fail later in an SVD
        nonfinite = ~np.isfinite(coords).all(axis=1)
        if nonfinite.any():
            raise ValueError(f"vertex {int(nonfinite.argmax()) + 1} has a non-finite coordinate")
        for e in (*self.extreme_effects, self.unit):
            if e.coords.size != dim:
                raise ValueError(f"effect {e.label or '?'} has {e.coords.size} coordinates, not the unit's {dim}")
            if not np.isfinite(e.coords).all():
                raise ValueError(f"effect {e.label or '?'} has a non-finite coordinate")
        # max-abs distance <= 1e-12, one coordinate at a time so that only an
        # (n, n) array is held; np.nonzero lists the pairs i < j in
        # itertools.combinations order
        close = np.ones((len(coords), len(coords)), dtype=bool)
        for column in coords.T:
            close &= np.abs(column[:, None] - column) <= 1e-12
        i, j = np.nonzero(np.triu(close, 1))
        if i.size:
            raise ValueError(f"vertices {i[0] + 1} and {j[0] + 1} coincide")

    @cached_property
    def vertex_matrix(self) -> np.ndarray:
        """Vertex coordinates, one row per vertex (read-only)."""
        return _frozen_rows(s.coords for s in self.vertices)

    @cached_property
    def bounding_matrix(self) -> np.ndarray:
        """Coordinates of the extreme effects and, in the last row, the unit."""
        return _frozen_rows(e.coords for e in (*self.extreme_effects, self.unit))

    @cached_property
    def barycentric_map(self) -> np.ndarray:
        """Pseudo-inverse of the vertex matrix (one column per vertex) with a
        row of ones appended; it maps (coords, 1) to barycentric weights when
        the vertices are affinely independent."""
        verts = self.vertex_matrix
        return np.linalg.pinv(np.vstack([verts.T, np.ones(len(verts))]))

    def _check_rows(self, coords: np.ndarray) -> tuple[int, Validation]:
        # dual feasibility: every extreme effect (and the unit) must stay in
        # [0, 1]. For the catalog polytopes the extreme effects cut out the
        # state space exactly, so this is a membership test, not just a
        # necessary condition.
        tol = MEMBERSHIP_TOL
        # einsum forms each row on its own, so a row's values (and the detail
        # below) do not depend on the other rows
        vals = np.einsum("ij,kj->ik", coords, self.bounding_matrix)
        # a NaN or infinite coordinate makes every value of its row NaN or
        # infinite, so values that pass both bounds prove the coordinates
        # finite; comparisons are written so that NaN fails. Only a failing
        # stack is scanned row by row.
        if not vals.size or (
            np.minimum.reduce(vals, None) >= -tol
            and np.maximum.reduce(vals, None) <= 1.0 + tol
            and np.maximum.reduce(np.abs(vals[:, -1] - 1.0)) <= tol
        ):
            return -1, _INSIDE
        bounding = (*self.extreme_effects, self.unit)

        def effect_detail(i: int) -> str:
            j = int(_fails(vals[i], -tol, 1.0 + tol).argmax())
            return f"effect {bounding[j].label or '?'} evaluates to {float(vals[i, j])!r}"

        return _first_failure(
            [
                _finite(coords),
                (vals, -tol, 1.0 + tol, effect_detail),
                (np.abs(vals[:, -1] - 1.0), None, tol,
                 lambda i: f"unit effect evaluates to {float(vals[i, -1])!r}, not 1"),
            ],
            _INSIDE.detail,
        )

    def carrier_weights(self, theory_id: str, coords: np.ndarray) -> np.ndarray:
        verts = self.classical_carrier
        if verts is None:
            raise ChainNotApplicable(f"{theory_id!r} state space is not a simplex")
        # augment with a normalization column so the weights are barycentric
        target = np.empty((len(coords), coords.shape[1] + 1))
        target[:, :-1], target[:, -1] = coords, 1.0
        weights = target @ self.barycentric_map.T
        # the reduces behind np.max and np.min, without their wrapper cost
        if np.maximum.reduce(np.abs(weights @ verts - coords), None) > MEMBERSHIP_TOL:
            raise ChainNotApplicable("states do not decompose over the vertices")
        if np.minimum.reduce(weights, None) < -MEMBERSHIP_TOL:
            raise ChainNotApplicable("states fall outside the vertex simplex")
        return weights

    def dimension_report(self, theory: Theory) -> DimensionReport:
        return _polytope_dimension(theory, _SEARCH_BUDGET)


@dataclass(frozen=True)
class NormConstraint(_StateSpace):
    """k fiducial observables with sum_i |s_i|^p <= 1; p = math.inf allowed."""

    p: float
    k: int

    classical_carrier = None
    search_bounds = (-1.0, 1.0)

    def __post_init__(self):
        if not (self.p >= 2.0):
            raise ValueError(f"norm exponent must be >= 2, got {self.p!r}")
        object.__setattr__(self, "k", operator.index(self.k))
        if self.k not in (2, 3):
            raise ValueError(f"unsupported fiducial count {self.k!r}")

    @property
    def affine_dimension(self) -> int:
        return self.k

    # the search moves the k fiducial values
    search_params = affine_dimension

    def norm(self, s: np.ndarray) -> np.ndarray:
        """The p-norm of fiducial values ``s`` over the last axis."""
        a = np.abs(s)
        return a.max(axis=-1) if math.isinf(self.p) else (a**self.p).sum(axis=-1) ** (1.0 / self.p)

    def corners(self) -> np.ndarray:
        """The 2k states +-1 on one fiducial axis, as (s_1, ..., s_k, 1) rows, + before -."""
        out = np.zeros((2 * self.k, self.k + 1))
        out[:, -1] = 1.0
        # each +-1 set on its own: a product with -1 would leave -0.0 off the axis
        out[np.arange(2 * self.k), np.arange(2 * self.k) // 2] = np.tile([1.0, -1.0], self.k)
        return out

    @cached_property
    def unit(self) -> Effect:
        return Effect(np.eye(self.k + 1)[-1], "u")

    def _check_rows(self, coords: np.ndarray) -> tuple[int, Validation]:
        tol = MEMBERSHIP_TOL
        norm = self.norm(coords[:, :-1])
        return _first_failure(
            [
                _finite(coords),
                (np.abs(coords[:, -1] - 1.0), None, tol, lambda i: "normalization coordinate is not 1"),
                (norm, None, 1.0 + tol, lambda i: f"p-norm {float(norm[i])!r} exceeds 1"),
            ],
            f"p-norm {float(norm.max())!r}",
        )

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        rows = []
        for _ in range(n):
            direction = rng.normal(size=self.k)
            radius = rng.uniform() ** (1.0 / self.k)
            rows.append(np.append(direction / self.norm(direction) * radius, 1.0))
        return np.array(rows).reshape(n, self.k + 1)  # (0, k + 1) when n = 0

    def build(self, params: np.ndarray) -> np.ndarray:
        s = np.asarray(params, dtype=float)
        norm = self.norm(s)
        if norm > 1.0:
            s = s / norm
        return np.append(s, 1.0)

    def search_seeds(self, measurements: Sequence[Measurement]) -> list[np.ndarray]:
        return list(self.corners()[:, :-1])

    def carrier_weights(self, theory_id: str, coords: np.ndarray) -> np.ndarray:
        raise ChainNotApplicable(f"{theory_id!r} has no classical carrier")

    def dimension_report(self, theory: Theory) -> DimensionReport:
        return _pointer_dimension(theory, self.corners(), theory.measurements.values(), "fiducial readouts")


@dataclass(frozen=True, eq=False)
class RestrictedClassical(_VertexSpace):
    """A classical simplex of ``internal_states`` points; its readouts are its
    theory's named measurements and no others."""

    internal_states: int

    def __post_init__(self):
        object.__setattr__(self, "internal_states", operator.index(self.internal_states))
        if self.internal_states < 2:
            raise ValueError("need at least two internal states")

    @cached_property
    def vertex_matrix(self) -> np.ndarray:
        return _frozen_rows(np.eye(self.internal_states))

    @cached_property
    def unit(self) -> Effect:
        return Effect(np.ones(self.internal_states), "u")

    def _check_rows(self, coords: np.ndarray) -> tuple[int, Validation]:
        total = coords.sum(axis=1)
        return _first_failure(
            [
                _finite(coords),
                (coords, -MEMBERSHIP_TOL, None, lambda i: "negative internal weight"),
                (np.abs(total - 1.0), None, MEMBERSHIP_TOL, lambda i: f"weights sum to {float(total[i])!r}"),
            ],
            "internal simplex point",
        )

    def carrier_weights(self, theory_id: str, coords: np.ndarray) -> np.ndarray:
        """The states themselves: each is its weights over the internal states."""
        return coords

    def dimension_report(self, theory: Theory) -> DimensionReport:
        named = theory.measurements.values()
        return _pointer_dimension(theory, self.vertex_matrix, named, "restricted measurement catalog")


@dataclass(frozen=True)
class Quantum(_StateSpace):
    """Density matrices on a Hilbert space of dimension 2..8."""

    hilbert_dim: int

    classical_carrier = None
    search_bounds = (-1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "hilbert_dim", operator.index(self.hilbert_dim))
        if not 2 <= self.hilbert_dim <= 8:
            raise ValueError("hilbert_dim must lie in 2..8")

    @property
    def affine_dimension(self) -> int:
        return self.hilbert_dim**2 - 1

    @property
    def search_params(self) -> int:
        """3, a Bloch vector: only the qubit has a family, which ``build`` and ``search_seeds`` assume."""
        if self.hilbert_dim != 2:
            raise NotImplementedError("state search supports quantum dimension 2 only")
        return 3

    @cached_property
    def unit(self) -> Effect:
        return Effect(density_to_coords(np.eye(self.hilbert_dim)), "u")

    def _check_rows(self, coords: np.ndarray) -> tuple[int, Validation]:
        # 1j * inf has a NaN real part, so numpy's warning is silenced: the
        # row of an infinite coordinate fails the density check's finite test
        with np.errstate(invalid="ignore"):
            return _density_check(coords_to_density(coords, self.hilbert_dim))[:2]

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n density matrices, each drawn in its own order (exponentials, then the
        real and the imaginary Gaussian parts, as ``_density_draw_parts`` draws
        them); only ``_densities``' finishing is stacked."""
        return density_to_coords(_densities(*_density_draw_parts(rng, self.hilbert_dim, n)))

    def build(self, params: np.ndarray) -> np.ndarray:
        b = np.asarray(params, dtype=float)
        norm = np.linalg.norm(b)
        return bloch_coords(b / norm if norm > 1.0 else b)

    def search_seeds(self, measurements: Sequence[Measurement]) -> list[np.ndarray]:
        """The Bloch axes of the measurements' first effects and their bisectors, each both ways."""
        ops = [coords_to_density(m.effects[0].coords, 2) for m in measurements]
        axes = [np.array([2 * op[0, 1].real, 2 * op[1, 0].imag, (op[0, 0] - op[1, 1]).real]) for op in ops]
        seeds = [s for a in axes for s in (a, -a)]
        for a, b in itertools.combinations(axes, 2):
            for u in (a + b, a - b):
                n = np.linalg.norm(u)
                if n > 1e-12:
                    seeds.extend([u / n, -u / n])
        return seeds

    def carrier_weights(self, theory_id: str, coords: np.ndarray) -> None:
        """None: the states are their own, quantum, carrier."""
        return None

    def dimension_report(self, theory: Theory) -> DimensionReport:
        # the basis projectors |i><i|: entry (i, j, k) of the stack is 1 where i = j = k
        coords = density_to_coords(np.eye(self.hilbert_dim)[:, :, None] * np.eye(self.hilbert_dim))
        basis = Measurement("basis", tuple(Effect(c, f"P{i}") for i, c in enumerate(coords)))
        return _pointer_dimension(theory, coords, [basis], "projective basis (analytic)")


@dataclass(frozen=True, eq=False)
class Theory:
    """A state space (``variant``) with its named measurements."""

    theory_id: str
    variant: Polytope | NormConstraint | RestrictedClassical | Quantum
    measurements: Mapping[str, Measurement] = field(default_factory=dict)

    def measurement(self, name: str) -> Measurement:
        try:
            return self.measurements[name]
        except KeyError as exc:
            raise KeyError(f"theory {self.theory_id!r} has no measurement {name!r}") from exc


def ambient_dimension(theory: Theory) -> int:
    return theory.variant.ambient_dimension


def state_space_dimension(theory: Theory) -> int:
    """Affine dimension of the state space (3 for a gbit, d^2-1 for quantum)."""
    return theory.variant.affine_dimension


def classical_carrier(theory: Theory) -> np.ndarray | None:
    """The basis states of the theory's classical carrier S, one row each: a
    simplex polytope's vertices or a restricted theory's internal states;
    None for every other theory. Each state is one mixture of these rows, so
    H(S) <= log2 |S|, their count."""
    return theory.variant.classical_carrier


def unit_effect(theory: Theory) -> Effect:
    return theory.variant.unit


# --- quantum embedding -------------------------------------------------------

def density_to_coords(matrix) -> np.ndarray:
    """Flatten a Hermitian matrix to (Re entries, Im entries).

    The Euclidean dot product of two such vectors equals Tr(AB) for
    Hermitian A, B, which is what makes quantum effects linear here. A stack
    of matrices, shape (..., d, d), gives a stack of vectors, (..., 2 d^2).
    """
    m = np.asarray(matrix, dtype=complex)
    d = m.shape[-1]
    flat = m.shape[:-2] + (d * d,)  # not -1, which an empty stack cannot infer
    return np.concatenate([m.real.reshape(flat), m.imag.reshape(flat)], axis=-1)


def bloch_coords(b: np.ndarray) -> np.ndarray:
    """Coordinates of the qubit density matrix (I + b . sigma)/2 of a Bloch
    vector ``b``; its length is not checked."""
    rho = np.array([[1.0 + b[2], b[0] - 1j * b[1]], [b[0] + 1j * b[1], 1.0 - b[2]]], dtype=complex) / 2.0
    return density_to_coords(rho)


def coords_to_density(coords, dim: int) -> np.ndarray:
    """Inverse of ``density_to_coords``, also on a stack (..., 2 d^2)."""
    arr = np.asarray(coords, dtype=float)
    if arr.shape[-1:] != (2 * dim * dim,):
        raise ValueError(f"expected {2 * dim * dim} coordinates for dimension {dim}")
    square = arr.shape[:-1] + (dim, dim)
    re = arr[..., : dim * dim].reshape(square)
    im = arr[..., dim * dim :].reshape(square)
    return re + 1j * im


# --- evaluation --------------------------------------------------------------

def effect_values(effects: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Outcome probabilities of (k, D) effect rows on (n, D) state rows, shape (k, n).

    Values within ``MEMBERSHIP_TOL`` of 0 or 1 snap to the boundary so that
    exactly distinguishable configurations produce exactly deterministic
    statistics; a value further outside [0, 1], or NaN, raises ValueError.
    """
    if effects.shape[1] != states.shape[1]:
        raise ValueError(f"effect dimension {effects.shape[1]} != state dimension {states.shape[1]}")
    vals = effects @ states.T
    # vals.min() and vals.max() without their wrapper cost; both are NaN when
    # a value is, and the test is written so that NaN fails
    lo, hi = np.minimum.reduce(vals, None), np.maximum.reduce(vals, None)
    if not (lo >= -MEMBERSHIP_TOL and hi <= 1.0 + MEMBERSHIP_TOL):
        value = float(hi if lo >= -MEMBERSHIP_TOL else lo)
        raise ValueError(f"effect value {value!r} outside [0, 1]; invalid effect/state pair")
    # a snap runs only when some value can meet its condition
    if not lo > MEMBERSHIP_TOL:
        vals[np.abs(vals) <= MEMBERSHIP_TOL] = 0.0
    if not hi < 1.0 - MEMBERSHIP_TOL:
        vals[np.abs(vals - 1.0) <= MEMBERSHIP_TOL] = 1.0
    return vals


def apply_effect(effect: Effect, state: State) -> float:
    """Outcome probability of an effect on a state: the 1 x 1 ``effect_values``."""
    return float(effect_values(effect.coords[None, :], state.coords[None, :])[0, 0])


def validate_state(theory: Theory, state: State) -> Validation:
    """Membership test for a state in the theory's state space: the variant's
    ``check_states`` on one row."""
    return theory.variant.check_states(state.coords[None, :])[1]


def validate_measurement(theory: Theory, measurement: Measurement, tol: float = PROB_TOL) -> Validation:
    u = theory.variant.unit
    if (dim := measurement.effect_matrix.shape[1]) != u.coords.size:
        return Validation(False, f"effect dimension {dim} differs from the theory's {u.coords.size}")
    total = measurement.effect_matrix.sum(axis=0)
    dev = float(np.max(np.abs(total - u.coords)))
    if not dev <= tol:
        return Validation(False, f"effects sum deviates from unit by {dev!r}")
    return Validation(True, f"effects sum to unit within {dev!r}")


def measure(theory: Theory, measurement: Measurement, state: State) -> np.ndarray:
    """Outcome distribution of a measurement on a state."""
    if isinstance(theory.variant, RestrictedClassical):
        rows = measurement.effect_matrix
        if not any(np.array_equal(m.effect_matrix, rows) for m in theory.measurements.values()):
            raise ValueError(
                f"measurement {measurement.label!r} is not available in {theory.theory_id!r}"
            )
    probs = effect_values(measurement.effect_matrix, state.coords[None, :]).ravel()
    total = probs.sum()
    if abs(total - 1.0) > UNIT_TOL:
        raise ValueError(f"outcome probabilities sum to {total!r}")
    return probs


# --- distinguishability and observed dimension -------------------------------

@dataclass(frozen=True, eq=False)
class DistinguishabilityCertificate:
    """States plus a measurement claimed to satisfy e_j(w_i) = delta_ij."""

    states: tuple[State, ...]
    measurement: Measurement
    verified: bool
    max_deviation: float = float("nan")


def verify_distinguishable(
    theory: Theory,
    states: Sequence[State],
    measurement: Measurement,
) -> DistinguishabilityCertificate:
    """Check that outcome j fires exactly on state j (pairing by position)."""
    states = tuple(states)
    if len(measurement.effects) < len(states):
        raise ValueError("measurement has fewer outcomes than states")
    coords = np.array([s.coords for s in states]) if states else np.empty((0, measurement.effect_matrix.shape[1]))
    if states:
        _, ok = theory.variant.check_states(coords)
        if not ok:
            raise ValueError(f"state outside the state space: {ok.detail}")
    ok = validate_measurement(theory, measurement, tol=UNIT_TOL)
    if not ok:
        raise ValueError(ok.detail)
    # NaN propagates through the max and fails the test below
    vals = measurement.effect_matrix[: len(states)] @ coords.T
    worst = float(np.max(np.abs(vals - np.eye(len(states))), initial=0.0))
    return DistinguishabilityCertificate(states, measurement, worst <= DISTINGUISH_TOL, worst)


@dataclass(frozen=True, eq=False)
class DimensionReport:
    """Largest certified count of jointly perfectly distinguishable states."""

    d: int
    certificate: DistinguishabilityCertificate
    exhaustive: bool
    notes: str = ""


# each theory's report, held while the theory lives: a Theory is keyed by identity
_DIMENSION_REPORTS: weakref.WeakKeyDictionary[Theory, DimensionReport] = weakref.WeakKeyDictionary()
# subsets tested and effect choices tried before a polytope search stops
_SEARCH_BUDGET = 2_000_000


def _dedupe_effects(effects: Iterable[Effect]) -> list[Effect]:
    """The first effect of each set whose coordinates agree to 12 decimals."""
    effects = list(effects)
    seen = {}
    for e, key in zip(effects, np.round(np.array([e.coords for e in effects]), 12)):
        seen.setdefault(tuple(key), e)
    return list(seen.values())


def _readouts(effects: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks, shape (effect, state), of the (k, D) effect rows that read 1 and
    that read 0 on the (n, D) state rows, within ``DISTINGUISH_TOL``."""
    vals = effects @ states.T
    # one temporary beside vals: |vals| first, then |vals - 1| in its place
    scratch = np.abs(vals)
    zero = scratch <= DISTINGUISH_TOL
    np.abs(np.subtract(vals, 1.0, out=scratch), out=scratch)
    return scratch <= DISTINGUISH_TOL, zero


# vertex rows of the pair graph formed per product: bounds the float copies
# of the masks held at once
_PAIR_ROWS = 256


def _readable_pairs(one: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """(n, n) graph of the vertex pairs i, k that some candidate reads as 1 on
    i and 0 on k, and some candidate as 1 on k and 0 on i.

    The (candidate, vertex) readout masks are multiplied as float counts,
    which stay positive where a narrow integer count could wrap round to 0,
    ``_PAIR_ROWS`` vertices of one side at a time.
    """
    zeros = zero.astype(float)
    separable = np.empty((one.shape[1],) * 2, dtype=bool)
    for start in range(0, len(separable), _PAIR_ROWS):
        rows = slice(start, start + _PAIR_ROWS)
        separable[rows] = one[:, rows].T.astype(float) @ zeros > 0.0
    return separable & separable.T


# cliques the dimension search holds at once, which bounds their memory
_SUBSET_CHUNK = 4096
# entries of the (cliques, vertices) extension mask formed at once: bounds the
# mask and the index arrays of its extensions
_EXTEND_ENTRIES = 1 << 16


def _clique_chunks(adjacent: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """The m-cliques of the graph ``adjacent`` (symmetric, (n, n) bool) in
    ``itertools.combinations`` order, as index rows, at most
    ``_SUBSET_CHUNK`` rows at a time.

    Each m-clique is an (m-1)-clique extended by a later vertex adjacent to
    all its members, so extending the (m-1)-cliques in order keeps that
    order.
    """
    n = len(adjacent)
    chunks = (np.arange(i, min(i + _SUBSET_CHUNK, n))[:, None] for i in range(0, n, _SUBSET_CHUNK))
    for _ in range(m - 1):
        chunks = _extended_cliques(adjacent, chunks)
    return chunks


def _extended_cliques(adjacent: np.ndarray, cliques: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Every clique of the chunks ``cliques``, in order, extended by each later
    vertex adjacent to all its members, as chunks of at most ``_SUBSET_CHUNK``
    rows, none empty.

    The cliques are extended a block at a time, which bounds the (cliques, n)
    extension mask by ``_EXTEND_ENTRIES`` entries when n is at most that.
    """
    n = len(adjacent)
    step = max(1, _EXTEND_ENTRIES // n)
    vertices = np.arange(n)
    for parents in cliques:
        for start in range(0, len(parents), step):
            block = parents[start : start + step]
            extends = vertices > block[:, -1:]
            for column in block.T:
                extends &= adjacent[column]
            # row-major positions, as np.nonzero gives them, from one flat pass
            parent, vertex = np.divmod(np.flatnonzero(extends), n)
            rows = np.column_stack([block[parent], vertex])
            yield from (rows[i : i + _SUBSET_CHUNK] for i in range(0, len(rows), _SUBSET_CHUNK))


# the last two theories' graphs: ``polygon_mismatch`` reads one twice, once
# through ``_readable_clique_number`` and once in the dimension search
@lru_cache(maxsize=2)
def _readout_graph(theory: Theory) -> tuple[tuple[Effect, ...], np.ndarray, np.ndarray, np.ndarray]:
    """A polytope's candidate effects (its extreme effects, their complements
    and the unit, deduplicated), their (candidate, vertex) masks of reading 1
    and 0, and the readable-pair graph of its vertices, all read-only.

    Cached per theory object: a theory is frozen, so its graph cannot change.
    """
    v = theory.variant
    candidates = _dedupe_effects(
        [
            *v.extreme_effects,
            *(
                Effect(v.unit.coords - e.coords, f"u-{e.label or '?'}")
                for e in v.extreme_effects
            ),
            v.unit,
        ]
    )
    one, zero = _readouts(np.array([e.coords for e in candidates]), v.vertex_matrix)
    pairs = _readable_pairs(one, zero)
    for arr in (one, zero, pairs):
        arr.setflags(write=False)
    return tuple(candidates), one, zero, pairs


def _readable_clique_number(theory: Theory) -> int:
    """Size of the largest set of a polytope's vertices that are pairwise
    readable (the clique number of ``_readable_pairs``' graph).

    Every set that one measurement distinguishes is such a clique, so this
    bounds the observed dimension from above.
    """
    pairs = _readout_graph(theory)[3]
    # one walk up the levels, each held whole: the m-cliques extend to the
    # (m+1)-cliques until a level is empty
    m, cliques = 1, list(_clique_chunks(pairs, 1))
    while cliques := list(_extended_cliques(pairs, cliques)):
        m += 1
    return m


def _polytope_dimension(theory: Theory, budget: int) -> DimensionReport:
    """Exhaustive search over the subsets of extreme states, smallest first.

    A subset of m vertices is distinguishable only if each member has a
    candidate effect (an extreme effect, its complement or the unit) reading
    1 on it and 0 on the other members. So every pair in it is readable
    (``_readable_pairs``), and only the m-cliques of that pair graph are
    built, in ``itertools.combinations`` order. Each clique goes to the exact
    test, which tries every choice of one such effect per member (in
    ``itertools.product`` order; a member with none leaves nothing to try),
    completes it with the remainder effect and verifies the certificate.
    ``budget`` counts each clique tested and each choice of effects tried.
    Subsets that are not cliques are never built and cost nothing, so a size
    with no clique ends the search as exhaustive whatever the budget.
    """
    v = theory.variant
    vertices = v.vertices
    unit = v.unit
    candidates, one, zero, pairs = _readout_graph(theory)
    cap = min(len(vertices), v.affine_dimension + 1)

    best = DimensionReport(
        1,
        verify_distinguishable(theory, [vertices[0]], Measurement("trivial", (unit,))),
        True,
        "single state, unit effect",
    )
    work = 0
    for m in range(2, cap + 1):
        exhausted = DimensionReport(
            best.d, best.certificate, False, f"search budget {budget} exhausted at size {m}"
        )
        found = None
        for subset in itertools.chain.from_iterable(rows.tolist() for rows in _clique_chunks(pairs, m)):
            work += 1
            if work > budget:
                return exhausted
            selectors = [
                np.flatnonzero(one[:, i] & zero[:, [k for k in subset if k != i]].all(axis=1)).tolist()
                for i in subset
            ]
            for combo in itertools.product(*selectors):
                work += 1
                if work > budget:
                    return exhausted
                remainder = unit.coords - np.sum([candidates[j].coords for j in combo], axis=0)
                rem_vals = v.vertex_matrix @ remainder
                if rem_vals.min() < -DISTINGUISH_TOL:
                    continue
                effects = [candidates[j] for j in combo]
                if np.max(np.abs(rem_vals)) > PROB_TOL or np.max(np.abs(remainder)) > PROB_TOL:
                    effects.append(Effect(remainder, "rest"))
                cert = verify_distinguishable(
                    theory,
                    [vertices[i] for i in subset],
                    Measurement(f"distinguish-{m}", tuple(effects)),
                )
                if cert.verified:
                    found = cert
                    break
            if found:
                break
        if found is None:
            return DimensionReport(best.d, best.certificate, True, "exhaustive over extreme points")
        best = DimensionReport(m, found, True, "exhaustive over extreme points")
    return best


def _pointer_dimension(
    theory: Theory, states: np.ndarray, measurements: Iterable[Measurement], label: str
) -> DimensionReport:
    """The most outcomes of one of ``measurements`` that each have a pointer,
    the first row of ``states`` on which that outcome reads 1, and that
    ``verify_distinguishable`` tells apart by their pointers; with none, d = 1
    by the unit effect."""
    best = None
    for m in measurements:
        one, _ = _readouts(m.effect_matrix, states)
        if one.any(axis=1).all() and (best is None or len(m) > best.d):
            cert = verify_distinguishable(theory, [State(states[i]) for i in one.argmax(axis=1)], m)
            if cert.verified:
                best = DimensionReport(len(m), cert, True, label)
    if best is None:
        trivial = Measurement("trivial", (theory.variant.unit,))
        cert = verify_distinguishable(theory, [State(states[0])], trivial)
        best = DimensionReport(1, cert, True, "no deterministic readout found")
    return best


def observed_dimension(theory: Theory) -> DimensionReport:
    """Largest number of jointly perfectly distinguishable states.

    Polytope theories are searched exhaustively over extreme states and
    extreme effects (distinguishing states can be taken extremal, and any
    distinguishing measurement can be refined to extremal effects). Only the
    vertex subsets whose every pair some effects tell apart both ways are
    built, and each goes straight to the exact test. ``_SEARCH_BUDGET``
    counts every such subset tested and every choice of effects tried; when
    it runs out, the report has ``exhaustive=False`` and ``d`` is only a
    lower bound. A size with no clique proves that ``d`` is no larger, so the
    search is then exhaustive whatever the budget.

    Restricted, norm-constraint and quantum theories read d off pointer
    states (``_pointer_dimension``): the simplex vertices or the norm body's
    corners with the theory's named measurements, or the basis projectors
    with the basis measurement.

    The variant's search (``dimension_report``) runs once per theory object.
    Its budget is fixed, so its report, exhaustive or not, is kept while the
    theory lives.
    """
    report = _DIMENSION_REPORTS.get(theory)
    if report is None:
        report = _DIMENSION_REPORTS[theory] = theory.variant.dimension_report(theory)
    return report


def composite_dimension_bound(component_dims: Sequence[int]) -> int:
    """Upper bound prod_i (dim_i + 1) on the observed dimension of a product.

    ``component_dims`` are the affine state-space dimensions of the factors;
    each factor alone obeys d <= dim + 1, with equality only for simplices.
    """
    dims = list(component_dims)
    if not dims:
        raise ValueError("no components")
    out = 1
    for d in dims:
        # written so that NaN and the infinities fail: inf % 1 is NaN
        if not (d >= 1 and d % 1 == 0):
            raise ValueError(f"state-space dimension must be a positive integer, got {d!r}")
        out *= int(d) + 1
    return out
