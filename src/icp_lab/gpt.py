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
* ``RestrictedClassical`` -- probability vectors over an internal simplex
  whose measurements are restricted to a fixed list of coarse readouts.
* ``Quantum`` -- density matrices flattened to concatenated real and
  imaginary parts, so the dot product of effect and state coordinates equals
  ``Tr(E rho)`` exactly for Hermitian operators.

Extreme states and effects of polytope theories are indexed 1-based with
wraparound (vertex n+k is vertex k), matching the usual polygon conventions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .info import DISTINGUISH_TOL, MEMBERSHIP_TOL, PROB_TOL


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
    theory_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_vector(self.coords))


@dataclass(frozen=True, eq=False)
class Effect:
    """Linear functional mapping states to outcome probabilities."""

    coords: np.ndarray
    theory_id: str = ""
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


@dataclass(frozen=True, eq=False)
class Polytope:
    vertices: tuple[State, ...]
    extreme_effects: tuple[Effect, ...]
    unit: Effect

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("polytope needs at least one vertex")
        coords = self.vertex_matrix
        # every comparison with NaN is false, so a non-finite coordinate would
        # pass the tests below and fail later in an SVD
        nonfinite = ~np.isfinite(coords).all(axis=1)
        if nonfinite.any():
            raise ValueError(f"vertex {int(nonfinite.argmax()) + 1} has a non-finite coordinate")
        for e in (*self.extreme_effects, self.unit):
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
    def affine_dimension(self) -> int:
        coords = self.vertex_matrix
        if len(coords) == 1:
            return 0
        return int(np.linalg.matrix_rank(coords[1:] - coords[0], tol=1e-9))

    @cached_property
    def barycentric_map(self) -> np.ndarray:
        """Pseudo-inverse of the vertex matrix (one column per vertex) with a
        row of ones appended; it maps (coords, 1) to barycentric weights when
        the vertices are affinely independent."""
        verts = self.vertex_matrix
        return np.linalg.pinv(np.vstack([verts.T, np.ones(len(verts))]))


@dataclass(frozen=True)
class NormConstraint:
    """k fiducial observables with sum_i |s_i|^p <= 1; p = math.inf allowed."""

    p: float
    k: int

    def __post_init__(self):
        if not (self.p >= 2.0):
            raise ValueError(f"norm exponent must be >= 2, got {self.p!r}")
        if self.k not in (2, 3):
            raise ValueError(f"unsupported fiducial count {self.k!r}")


@dataclass(frozen=True, eq=False)
class RestrictedClassical:
    internal_states: int
    allowed_measurements: tuple[Measurement, ...]

    def __post_init__(self):
        if self.internal_states < 2:
            raise ValueError("need at least two internal states")
        if not self.allowed_measurements:
            raise ValueError("restricted theory needs at least one measurement")


@dataclass(frozen=True)
class Quantum:
    hilbert_dim: int

    def __post_init__(self):
        if not 2 <= self.hilbert_dim <= 8:
            raise ValueError("hilbert_dim must lie in 2..8")


Variant = Polytope | NormConstraint | RestrictedClassical | Quantum


@dataclass(frozen=True, eq=False)
class Theory:
    theory_id: str
    variant: Variant
    measurements: Mapping[str, Measurement] = field(default_factory=dict)

    def measurement(self, name: str) -> Measurement:
        try:
            return self.measurements[name]
        except KeyError as exc:
            raise KeyError(f"theory {self.theory_id!r} has no measurement {name!r}") from exc

    @cached_property
    def _dimension_key(self) -> tuple:
        return _dimension_cache_key(self)


def ambient_dimension(theory: Theory) -> int:
    v = theory.variant
    if isinstance(v, Polytope):
        return v.unit.coords.size
    if isinstance(v, NormConstraint):
        return v.k + 1
    if isinstance(v, RestrictedClassical):
        return v.internal_states
    return 2 * v.hilbert_dim**2


def state_space_dimension(theory: Theory) -> int:
    """Affine dimension of the state space (3 for a gbit, d^2-1 for quantum)."""
    v = theory.variant
    if isinstance(v, Polytope):
        return v.affine_dimension
    if isinstance(v, NormConstraint):
        return v.k
    if isinstance(v, RestrictedClassical):
        return v.internal_states - 1
    return v.hilbert_dim**2 - 1


def unit_effect(theory: Theory) -> Effect:
    v = theory.variant
    if isinstance(v, Polytope):
        return v.unit
    if isinstance(v, NormConstraint):
        coords = np.zeros(v.k + 1)
        coords[-1] = 1.0
        return Effect(coords, theory.theory_id, "u")
    if isinstance(v, RestrictedClassical):
        return Effect(np.ones(v.internal_states), theory.theory_id, "u")
    return Effect(density_to_coords(np.eye(v.hilbert_dim)), theory.theory_id, "u")


# --- quantum embedding -------------------------------------------------------

def density_to_coords(matrix) -> np.ndarray:
    """Flatten a Hermitian matrix to (Re entries, Im entries).

    The Euclidean dot product of two such vectors equals Tr(AB) for
    Hermitian A, B, which is what makes quantum effects linear here. A stack
    of matrices, shape (..., d, d), gives a stack of vectors, (..., 2 d^2).
    """
    m = np.asarray(matrix, dtype=complex)
    flat = m.shape[:-2] + (-1,)
    return np.concatenate([m.real.reshape(flat), m.imag.reshape(flat)], axis=-1)


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
    statistics; a value further outside [0, 1] raises ValueError.
    """
    if effects.shape[1] != states.shape[1]:
        raise ValueError(f"effect dimension {effects.shape[1]} != state dimension {states.shape[1]}")
    vals = effects @ states.T
    lo, hi = vals.min(), vals.max()
    if lo < -MEMBERSHIP_TOL or hi > 1.0 + MEMBERSHIP_TOL:
        value = float(lo if lo < -MEMBERSHIP_TOL else hi)
        raise ValueError(f"effect value {value!r} outside [0, 1]; invalid effect/state pair")
    vals[np.abs(vals) <= MEMBERSHIP_TOL] = 0.0
    vals[np.abs(vals - 1.0) <= MEMBERSHIP_TOL] = 1.0
    return vals


def apply_effect(effect: Effect, state: State) -> float:
    """Outcome probability of an effect on a state: the 1 x 1 ``effect_values``."""
    return float(effect_values(effect.coords[None, :], state.coords[None, :])[0, 0])


@dataclass(frozen=True)
class Validation:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _first_failure(
    checks: Sequence[tuple[np.ndarray, Callable[[int], str]]], passed: str
) -> tuple[int, Validation]:
    """First failing row of per-row checks, given in the order a row is tested.

    Each check is a boolean row mask (True = fails) and the detail message of
    a failing row.
    """
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if not failing.any():
        return -1, Validation(True, passed)
    i = int(failing.argmax())
    return i, Validation(False, next(detail(i) for mask, detail in checks if mask[i]))


def check_states(theory: Theory, coords: np.ndarray, tol: float = MEMBERSHIP_TOL) -> tuple[int, Validation]:
    """Membership test for each row of an (n, D) array of state coordinates.

    Returns ``(-1, passing Validation)`` when every row lies in the state
    space, else the index of the first row that does not and its failing
    Validation. ``validate_state`` is the one-row case.
    """
    v = theory.variant
    if coords.shape[1] != ambient_dimension(theory):
        return 0, Validation(False, "ambient dimension mismatch")
    # every row is first tested for finite coordinates, because every
    # comparison with NaN is false and would let the tests below pass
    finite = np.isfinite(coords).all(axis=1)
    nonfinite = (~finite, lambda i: "state coordinate is not finite")
    if isinstance(v, Polytope):
        # dual feasibility: every extreme effect (and the unit) must stay in
        # [0, 1]. For the catalog polytopes the extreme effects cut out the
        # state space exactly, so this is a membership test, not just a
        # necessary condition.
        bounding = (*v.extreme_effects, v.unit)
        # einsum forms each row on its own, so a row's values (and the detail
        # below) do not depend on the other rows
        vals = np.einsum("ij,kj->ik", coords, v.bounding_matrix)
        outside = (vals < -tol) | (vals > 1.0 + tol)

        def effect_detail(i: int) -> str:
            j = int(outside[i].argmax())
            return f"effect {bounding[j].label or '?'} evaluates to {float(vals[i, j])!r}"

        return _first_failure(
            [
                nonfinite,
                (outside.any(axis=1), effect_detail),
                (np.abs(vals[:, -1] - 1.0) > tol,
                 lambda i: f"unit effect evaluates to {float(vals[i, -1])!r}, not 1"),
            ],
            "inside all supporting halfspaces",
        )
    if isinstance(v, NormConstraint):
        s = np.abs(coords[:, :-1])
        norm = s.max(axis=1) if math.isinf(v.p) else (s**v.p).sum(axis=1) ** (1.0 / v.p)
        return _first_failure(
            [
                nonfinite,
                (np.abs(coords[:, -1] - 1.0) > tol, lambda i: "normalization coordinate is not 1"),
                (norm > 1.0 + tol, lambda i: f"p-norm {float(norm[i])!r} exceeds 1"),
            ],
            f"p-norm {float(norm.max())!r}",
        )
    if isinstance(v, RestrictedClassical):
        total = coords.sum(axis=1)
        return _first_failure(
            [
                nonfinite,
                (coords.min(axis=1) < -tol, lambda i: "negative internal weight"),
                (np.abs(total - 1.0) > tol, lambda i: f"weights sum to {float(total[i])!r}"),
            ],
            "internal simplex point",
        )
    # a non-finite row is set to 0 so that eigvalsh sees finite input only
    m = coords_to_density(np.where(finite[:, None], coords, 0.0), v.hilbert_dim)
    trace = np.trace(m, axis1=1, axis2=2).real
    least = np.linalg.eigvalsh(m).min(axis=1)
    return _first_failure(
        [
            nonfinite,
            (np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > tol,
             lambda i: "density matrix is not Hermitian"),
            (np.abs(trace - 1.0) > tol, lambda i: f"trace is {float(trace[i])!r}"),
            (least < -tol, lambda i: f"negative eigenvalue {float(least[i])!r}"),
        ],
        f"least eigenvalue {float(least.min())!r}",
    )


def validate_state(theory: Theory, state: State, tol: float = MEMBERSHIP_TOL) -> Validation:
    """Membership test for a state in the theory's state space."""
    return check_states(theory, state.coords[None, :], tol)[1]


def validate_measurement(theory: Theory, measurement: Measurement, tol: float = PROB_TOL) -> Validation:
    u = unit_effect(theory)
    total = measurement.effect_matrix.sum(axis=0)
    dev = float(np.max(np.abs(total - u.coords)))
    if dev > tol:
        return Validation(False, f"effects sum deviates from unit by {dev!r}")
    return Validation(True, f"effects sum to unit within {dev!r}")


def measure(theory: Theory, measurement: Measurement, state: State) -> np.ndarray:
    """Outcome distribution of a measurement on a state."""
    if isinstance(theory.variant, RestrictedClassical):
        allowed = theory.variant.allowed_measurements
        if all(m is not measurement and m.label != measurement.label for m in allowed):
            raise ValueError(
                f"measurement {measurement.label!r} is not available in {theory.theory_id!r}"
            )
    probs = effect_values(measurement.effect_matrix, state.coords[None, :]).ravel()
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
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
    tol: float = DISTINGUISH_TOL,
) -> DistinguishabilityCertificate:
    """Check that outcome j fires exactly on state j (pairing by position)."""
    states = tuple(states)
    if len(measurement.effects) < len(states):
        raise ValueError("measurement has fewer outcomes than states")
    if states:
        _, ok = check_states(theory, np.array([s.coords for s in states]))
        if not ok:
            raise ValueError(f"state outside the state space: {ok.detail}")
    ok = validate_measurement(theory, measurement, tol=1e-9)
    if not ok:
        raise ValueError(ok.detail)
    worst = 0.0
    for i, s in enumerate(states):
        for j, e in enumerate(measurement.effects[: len(states)]):
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(float(np.dot(e.coords, s.coords)) - target))
    return DistinguishabilityCertificate(states, measurement, worst <= tol, worst)


@dataclass(frozen=True, eq=False)
class DimensionReport:
    """Largest certified count of jointly perfectly distinguishable states."""

    d: int
    certificate: DistinguishabilityCertificate
    exhaustive: bool
    notes: str = ""


# keyed by the theory's content, see _dimension_cache_key
_DIMENSION_CACHE: dict[tuple, DimensionReport] = {}


def _rows_key(rows: np.ndarray) -> tuple:
    return rows.shape, rows.tobytes()


def _measurement_key(m: Measurement) -> tuple:
    return m.label, tuple(e.label for e in m.effects), _rows_key(m.effect_matrix)


def _dimension_cache_key(theory: Theory) -> tuple:
    """Everything the dimension search reads, so equal keys give equal reports.

    ``Theory._dimension_key`` holds it, computed once per theory object.
    """
    v = theory.variant
    if isinstance(v, Polytope):
        content = (
            _rows_key(v.vertex_matrix),
            _rows_key(v.bounding_matrix),
            tuple(e.label for e in (*v.extreme_effects, v.unit)),
        )
    elif isinstance(v, RestrictedClassical):
        content = (v.internal_states, tuple(_measurement_key(m) for m in v.allowed_measurements))
    elif isinstance(v, NormConstraint):
        content = (v.p, v.k, tuple(_measurement_key(m) for m in theory.measurements.values()))
    else:
        content = (v.hilbert_dim,)
    return (theory.theory_id, type(v).__name__, content)


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


# vertex subsets the dimension search's mask pre-filter tests at once, which
# bounds the memory it holds
_SUBSET_CHUNK = 4096


def _clique_chunks(adjacent: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """The m-cliques of the graph ``adjacent`` (symmetric, (n, n) bool) in
    ``itertools.combinations`` order, as index rows, at most
    ``_SUBSET_CHUNK`` rows at a time.

    Each m-clique is an (m-1)-clique extended by a later vertex adjacent to
    all its members, so extending the (m-1)-cliques in order keeps that
    order. They are extended a few at a time, which bounds the (cliques, n)
    extension mask by ``_SUBSET_CHUNK`` entries when n is at most that.
    """
    n = len(adjacent)
    if m == 1:
        yield from (np.arange(i, min(i + _SUBSET_CHUNK, n))[:, None] for i in range(0, n, _SUBSET_CHUNK))
        return
    step = max(1, _SUBSET_CHUNK // n)
    vertices = np.arange(n)
    for parents in _clique_chunks(adjacent, m - 1):
        for start in range(0, len(parents), step):
            block = parents[start : start + step]
            extends = vertices > block[:, -1:]
            for column in block.T:
                extends &= adjacent[column]
            parent, vertex = np.nonzero(extends)
            rows = np.column_stack([block[parent], vertex])
            yield from (rows[i : i + _SUBSET_CHUNK] for i in range(0, len(rows), _SUBSET_CHUNK))


def _combination_rank(subset: Sequence[int], n: int) -> int:
    """Position of a sorted subset among ``itertools.combinations(range(n), len(subset))``."""
    m = len(subset)
    return math.comb(n, m) - 1 - sum(math.comb(n - 1 - c, m - i) for i, c in enumerate(subset))


def _readable_subsets(rows: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Positions, in ascending order, of the subsets (index rows) that give
    each member a candidate effect reading 1 on it and 0 on the other members.

    ``ones[i]`` and ``zeros[i]`` are the candidates reading 1 and 0 on vertex
    i, packed along the candidate axis with ``np.packbits``.
    """
    kept = np.arange(len(rows))
    for p in range(rows.shape[1]):
        subsets = rows[kept]
        fits = ones[subsets[:, p]]
        for q in range(rows.shape[1]):
            if q != p:
                fits &= zeros[subsets[:, q]]
        kept = kept[fits.any(axis=1)]
    return kept


def _polytope_dimension(theory: Theory, budget: int) -> DimensionReport:
    """Exhaustive search over the subsets of extreme states, smallest first.

    A subset of m vertices is distinguishable only if each member has a
    candidate effect (an extreme effect, its complement or the unit) reading
    1 on it and 0 on the other members. So every pair in it is readable
    (``_readable_pairs``), and only the m-cliques of that pair graph are
    built, in ``itertools.combinations`` order. Chunks of them are screened
    with packed readout masks; each subset that passes goes to the exact
    test, which tries every choice of one such effect per member (in
    ``itertools.product`` order), completes it with the remainder effect and
    verifies the certificate. ``budget`` counts every m-subset up to the one
    tested, by its position in combinations order, built or not, and every
    choice of effects tried; a size that yields no certificate is charged
    in full.
    """
    v = theory.variant
    vertices = v.vertices
    nv = len(vertices)
    unit = v.unit
    candidates = _dedupe_effects(
        [
            *v.extreme_effects,
            *(
                Effect(unit.coords - e.coords, theory.theory_id, f"u-{e.label or '?'}")
                for e in v.extreme_effects
            ),
            unit,
        ]
    )
    one, zero = _readouts(np.array([e.coords for e in candidates]), v.vertex_matrix)
    packed_ones, packed_zeros = np.packbits(one.T, axis=1), np.packbits(zero.T, axis=1)
    pairs = _readable_pairs(one, zero)
    cap = min(nv, state_space_dimension(theory) + 1)

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
        counted = 0  # m-subsets already in work
        for rows in _clique_chunks(pairs, m):
            for pos in _readable_subsets(rows, packed_ones, packed_zeros).tolist():
                subset = rows[pos].tolist()
                rank = _combination_rank(subset, nv)
                work += rank + 1 - counted
                counted = rank + 1
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
                    rem_vals = np.array([float(np.dot(remainder, s.coords)) for s in vertices])
                    if rem_vals.min() < -DISTINGUISH_TOL:
                        continue
                    effects = [candidates[j] for j in combo]
                    if np.max(np.abs(rem_vals)) > PROB_TOL or np.max(np.abs(remainder)) > PROB_TOL:
                        effects.append(Effect(remainder, theory.theory_id, "rest"))
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
            if found:
                break
        if found is None:
            work += math.comb(nv, m) - counted
            if work > budget:
                return exhausted
            return DimensionReport(best.d, best.certificate, True, "exhaustive over extreme points")
        best = DimensionReport(m, found, True, "exhaustive over extreme points")
    return best


def _restricted_dimension(theory: Theory, states: Sequence[State], label: str) -> DimensionReport:
    # a state is a deterministic pointer for outcome j when e_j fires with
    # certainty; effects of one measurement then exclude each other
    best: tuple[int, DistinguishabilityCertificate] | None = None
    for m in _allowed_measurements(theory):
        chosen: list[State] = []
        for e in m.effects:
            hit = next(
                (s for s in states if abs(float(np.dot(e.coords, s.coords)) - 1.0) <= DISTINGUISH_TOL),
                None,
            )
            if hit is not None:
                chosen.append(hit)
            else:
                break
        if len(chosen) >= 1 and (best is None or len(chosen) > best[0]):
            if len(chosen) == len(m.effects):
                cert = verify_distinguishable(theory, chosen, m)
                if cert.verified:
                    best = (len(chosen), cert)
    if best is None:
        u = unit_effect(theory)
        cert = verify_distinguishable(theory, [states[0]], Measurement("trivial", (u,)))
        return DimensionReport(1, cert, True, "no deterministic readout found")
    return DimensionReport(best[0], best[1], True, label)


def _allowed_measurements(theory: Theory) -> tuple[Measurement, ...]:
    v = theory.variant
    if isinstance(v, RestrictedClassical):
        return v.allowed_measurements
    return tuple(theory.measurements.values())


def _norm_corner_states(theory: Theory) -> list[State]:
    v = theory.variant
    states = []
    for axis in range(v.k):
        for sign in (1.0, -1.0):
            coords = np.zeros(v.k + 1)
            coords[axis] = sign
            coords[-1] = 1.0
            states.append(State(coords, theory.theory_id))
    return states


def observed_dimension(theory: Theory, budget: int = 2_000_000, use_cache: bool = True) -> DimensionReport:
    """Largest number of jointly perfectly distinguishable states.

    Polytope theories are searched exhaustively over extreme states and
    extreme effects (distinguishing states can be taken extremal, and any
    distinguishing measurement can be refined to extremal effects). Only the
    vertex subsets whose every pair some effects tell apart both ways are
    built; chunks of them are screened with packed masks of which effects
    read 1 and 0 on which vertices, and only the subsets that pass get the
    exact test. ``budget`` counts every subset, built or not, screened out
    or not, and every choice of effects tried; when it runs out, the report
    has ``exhaustive=False`` and ``d`` is only a lower bound.

    Restricted and norm-constraint theories search their available
    measurements; quantum theories have an analytic basis certificate.
    """
    if use_cache and theory._dimension_key in _DIMENSION_CACHE:
        return _DIMENSION_CACHE[theory._dimension_key]
    v = theory.variant
    if isinstance(v, Polytope):
        report = _polytope_dimension(theory, budget)
    elif isinstance(v, RestrictedClassical):
        basis = [
            State(np.eye(v.internal_states)[i], theory.theory_id)
            for i in range(v.internal_states)
        ]
        report = _restricted_dimension(theory, basis, "restricted measurement catalog")
    elif isinstance(v, NormConstraint):
        report = _restricted_dimension(theory, _norm_corner_states(theory), "fiducial readouts")
    else:
        dim = v.hilbert_dim
        states = tuple(
            State(density_to_coords(np.outer(b, b.conj())), theory.theory_id)
            for b in np.eye(dim)
        )
        effects = tuple(
            Effect(density_to_coords(np.outer(b, b.conj())), theory.theory_id, f"P{i}")
            for i, b in enumerate(np.eye(dim))
        )
        cert = verify_distinguishable(theory, states, Measurement("basis", effects))
        report = DimensionReport(dim, cert, True, "projective basis (analytic)")
    if use_cache and report.exhaustive:
        _DIMENSION_CACHE[theory._dimension_key] = report
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
        if d < 1 or d != int(d):
            raise ValueError(f"state-space dimension must be a positive integer, got {d!r}")
        out *= int(d) + 1
    return out
