"""Dimension search: the polytope clique search against the chunked mask
search it replaced and the per-subset search, and the pointer search of
restricted, norm and quantum theories against a state-by-state one."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from icp_lab import catalog, constructions, gpt
from icp_lab.gpt import (
    DimensionReport,
    Effect,
    Measurement,
    Polytope,
    State,
    observed_dimension,
    state_space_dimension,
    verify_distinguishable,
)
from icp_lab.info import DISTINGUISH_TOL, PROB_TOL


def _candidates(theory):
    v = theory.variant
    return gpt._dedupe_effects(
        [
            *v.extreme_effects,
            *(Effect(v.unit.coords - e.coords, f"u-{e.label or '?'}") for e in v.extreme_effects),
            v.unit,
        ]
    )


def _scalar_polytope_dimension(theory, budget):
    """The reference search: every subset and every readout one at a time.

    A subset with a pair that no candidates read apart both ways is skipped
    free; every other subset costs 1, and so does every choice of effects.
    """
    v = theory.variant
    vertices = v.vertices
    nv = len(vertices)
    unit = v.unit
    candidates = _candidates(theory)
    P = np.array([[float(np.dot(e.coords, s.coords)) for s in vertices] for e in candidates])
    ones = [int(sum(1 << i for i in range(nv) if abs(P[j, i] - 1.0) <= DISTINGUISH_TOL)) for j in range(len(candidates))]
    zeros = [int(sum(1 << i for i in range(nv) if abs(P[j, i]) <= DISTINGUISH_TOL)) for j in range(len(candidates))]
    by_one = [[j for j in range(len(candidates)) if ones[j] >> i & 1] for i in range(nv)]
    reads = [[any(zeros[j] >> k & 1 for j in by_one[i]) for k in range(nv)] for i in range(nv)]
    cap = min(nv, state_space_dimension(theory) + 1)

    best = DimensionReport(
        1,
        verify_distinguishable(theory, [vertices[0]], Measurement("trivial", (unit,))),
        True,
        "single state, unit effect",
    )
    work = 0
    for m in range(2, cap + 1):
        found = None
        for subset in itertools.combinations(range(nv), m):
            if not all(reads[i][k] and reads[k][i] for i, k in itertools.combinations(subset, 2)):
                continue
            work += 1
            if work > budget:
                return DimensionReport(best.d, best.certificate, False, f"search budget {budget} exhausted at size {m}")
            mask = sum(1 << i for i in subset)
            selectors = []
            for i in subset:
                need = mask & ~(1 << i)
                cand = [j for j in by_one[i] if zeros[j] & need == need]
                if not cand:
                    selectors = None
                    break
                selectors.append(cand)
            if selectors is None:
                continue
            for combo in itertools.product(*selectors):
                work += 1
                if work > budget:
                    return DimensionReport(
                        best.d, best.certificate, False, f"search budget {budget} exhausted at size {m}"
                    )
                remainder = unit.coords - np.sum([candidates[j].coords for j in combo], axis=0)
                rem_vals = np.array([float(np.dot(remainder, s.coords)) for s in vertices])
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


def _subset_chunks(n, m, chunk=4096):
    """All m-subsets of range(n) in combinations order, ``chunk`` rows at a time."""
    subsets = itertools.chain.from_iterable(itertools.combinations(range(n), m))
    while True:
        rows = np.fromiter(itertools.islice(subsets, chunk * m), dtype=np.intp)
        if not rows.size:
            return
        yield rows.reshape(-1, m)


def _readable_subsets(rows, ones, zeros):
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


def _chunked_polytope_dimension(theory, budget):
    """The mask search before the pair graph: every m-subset is built and
    screened, chunk by chunk, and the budget is charged a chunk at a time.
    Its reports at the default budget are the reference; its cut-offs charge
    subsets the clique search never builds."""
    v = theory.variant
    vertices = v.vertices
    nv = len(vertices)
    unit = v.unit
    candidates = _candidates(theory)
    one, zero = gpt._readouts(np.array([e.coords for e in candidates]), v.vertex_matrix)
    packed_ones, packed_zeros = np.packbits(one.T, axis=1), np.packbits(zero.T, axis=1)
    cap = min(nv, state_space_dimension(theory) + 1)

    best = DimensionReport(
        1,
        verify_distinguishable(theory, [vertices[0]], Measurement("trivial", (unit,))),
        True,
        "single state, unit effect",
    )
    work = 0
    for m in range(2, cap + 1):
        exhausted = DimensionReport(best.d, best.certificate, False, f"search budget {budget} exhausted at size {m}")
        found = None
        for rows in _subset_chunks(nv, m):
            counted = 0
            for pos in _readable_subsets(rows, packed_ones, packed_zeros).tolist():
                work += pos + 1 - counted
                counted = pos + 1
                if work > budget:
                    return exhausted
                subset = rows[pos].tolist()
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
                        effects.append(Effect(remainder, "rest"))
                    cert = verify_distinguishable(
                        theory, [vertices[i] for i in subset], Measurement(f"distinguish-{m}", tuple(effects))
                    )
                    if cert.verified:
                        found = cert
                        break
                if found:
                    break
            if found:
                break
            work += len(rows) - counted
            if work > budget:
                return exhausted
        if found is None:
            return DimensionReport(best.d, best.certificate, True, "exhaustive over extreme points")
        best = DimensionReport(m, found, True, "exhaustive over extreme points")
    return best


def _report_bytes(report):
    cert = report.certificate
    return (
        report.d,
        report.exhaustive,
        report.notes,
        cert.verified,
        np.float64(cert.max_deviation).tobytes(),
        tuple(s.coords.tobytes() for s in cert.states),
        cert.measurement.label,
        tuple((e.label, e.coords.tobytes()) for e in cert.measurement.effects),
    )


POLYGON_SIZES = (*range(3, 21), 37, 50)
POLYTOPES = pytest.mark.parametrize(
    "make",
    [*(lambda n=n: catalog.polygon(n) for n in POLYGON_SIZES), catalog.classical_bit, catalog.classical_trit, catalog.sbit],
    ids=[*(f"polygon{n}" for n in POLYGON_SIZES), "classical-bit", "classical-trit", "sbit"],
)


@POLYTOPES
def test_search_matches_the_scalar_search(make):
    theory = make().theory
    report = observed_dimension(theory)
    assert _report_bytes(report) == _report_bytes(_scalar_polytope_dimension(theory, gpt._SEARCH_BUDGET))


@pytest.mark.parametrize("make", [lambda: catalog.polygon(7), lambda: catalog.polygon(8), catalog.classical_trit])
def test_search_stops_where_the_scalar_search_does(make):
    theory = make().theory
    pairs = math.comb(len(theory.variant.vertices), 2)
    for budget in (1, 2, 10, pairs, pairs + 1, pairs + 50):
        report = gpt._polytope_dimension(theory, budget)
        assert _report_bytes(report) == _report_bytes(_scalar_polytope_dimension(theory, budget)), budget


@POLYTOPES
def test_readout_masks_match_the_per_pair_dot(make):
    theory = make().theory
    effects = np.array([e.coords for e in _candidates(theory)])
    vertices = theory.variant.vertex_matrix
    one, zero = gpt._readouts(effects, vertices)
    vals = np.array([[float(np.dot(e, s)) for s in vertices] for e in effects])
    assert np.array_equal(one, np.abs(vals - 1.0) <= DISTINGUISH_TOL)
    assert np.array_equal(zero, np.abs(vals) <= DISTINGUISH_TOL)


@pytest.mark.parametrize("n", range(3, 61))
def test_search_matches_the_chunked_search(n):
    theory = catalog.polygon(n).theory
    report = observed_dimension(theory)
    assert _report_bytes(report) == _report_bytes(_chunked_polytope_dimension(theory, gpt._SEARCH_BUDGET))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 60])
def test_search_stops_where_the_chunked_search_does(n):
    # the chunked search's cut points, checked against the scalar search,
    # which charges only the cliques
    theory = catalog.polygon(n).theory
    pairs, triples = math.comb(n, 2), math.comb(n, 3)
    if n < 60:
        budgets = range(1, pairs + triples + 2)  # every cut, the size-3 stage included
    else:
        budgets = [pairs + k for k in (1, 4095, 4096, 4097, 30_000, triples - 1, triples, triples + 1)]
    for budget in budgets:
        report = gpt._polytope_dimension(theory, budget)
        assert _report_bytes(report) == _report_bytes(_scalar_polytope_dimension(theory, budget)), budget


@pytest.mark.parametrize(
    "make", [lambda: catalog.polygon(3), catalog.classical_bit, catalog.classical_trit, catalog.sbit],
    ids=["polygon3", "classical-bit", "classical-trit", "sbit"],
)
def test_search_stops_where_the_scalar_search_does_at_every_cut(make):
    theory = make().theory
    n = len(theory.variant.vertices)
    for budget in range(1, math.comb(n, 2) + math.comb(n, 3) + 2):
        report = gpt._polytope_dimension(theory, budget)
        assert _report_bytes(report) == _report_bytes(_scalar_polytope_dimension(theory, budget)), budget


@pytest.mark.parametrize("n", [230, 500, 1000])
def test_polygon_without_a_readable_triple_is_exhaustive_at_any_size(n):
    # no three vertices of an n-gon with n >= 7 are pairwise readable, so the
    # size-3 stage builds nothing and d = 2 is proven however many triples
    # the budget could hold
    theory = catalog.polygon(n).theory
    report = observed_dimension(theory)
    assert (report.d, report.exhaustive, report.notes) == (2, True, "exhaustive over extreme points")
    assert gpt._readable_clique_number(theory) == 2
    assert observed_dimension(theory) is observed_dimension(theory)


@pytest.mark.parametrize("n", [230, 500, 1000])
def test_polygon_violation_holds_on_large_polygons(n):
    cert = constructions.polygon_violation(n)
    assert cert.report.extractable > 1.0
    assert cert.violated


def test_search_memory_stays_bounded():
    # polygon(1000) has no readable triple, so the size-3 stage holds no
    # subsets. The float arrays behind the readout masks and the pair graph
    # set the peak
    theory = catalog.polygon(1000).theory
    k, n = len(_candidates(theory)), len(theory.variant.vertices)
    tracemalloc.start()
    try:
        report = observed_dimension(theory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.d, report.exhaustive) == (2, True)
    assert peak < 3 * k * n * 8 + 4_000_000


def test_readout_masks_hold_two_candidate_by_vertex_floats():
    # vals and one temporary: the pair graph's blocks and the masks stay below
    # the second (candidate, vertex) float array
    theory = catalog.polygon(1000).theory
    k, n = len(_candidates(theory)), len(theory.variant.vertices)
    tracemalloc.start()
    try:
        report = observed_dimension(theory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.d, report.exhaustive) == (2, True)
    assert peak < 2 * k * n * 8 + 4_000_000


@pytest.mark.parametrize("seed", range(3))
def test_readout_masks_match_the_three_array_form(seed):
    rng = np.random.default_rng(seed)
    effects, states = rng.random((7, 3)), rng.random((40, 3))
    # rows that read exactly 0, exactly 1 and within or just past the tolerance
    effects[0] = 0.0
    states[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + DISTINGUISH_TOL / 2], [0.0, 0.0, 1.0 + 2 * DISTINGUISH_TOL],
                  [0.0, 0.0, DISTINGUISH_TOL]]
    effects[1] = [0.0, 0.0, 1.0]
    vals = effects @ states.T
    one, zero = gpt._readouts(effects, states)
    assert one.tobytes() == (np.abs(vals - 1.0) <= DISTINGUISH_TOL).tobytes()
    assert zero.tobytes() == (np.abs(vals) <= DISTINGUISH_TOL).tobytes()
    assert one[1, :2].all() and zero[0].all() and zero[1:, 3].any()


def test_readable_pairs_match_one_product_across_row_blocks():
    rng = np.random.default_rng(7)
    n = 2 * gpt._PAIR_ROWS + 3
    one, zero = rng.random((2, 5, n)) < 0.2
    separable = one.T.astype(float) @ zero.astype(float) > 0.0
    assert gpt._readable_pairs(one, zero).tobytes() == (separable & separable.T).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_readable_pairs_match_the_candidate_masks(seed):
    # random masks, so that "reads 1 on i and 0 on k" is not symmetric as on the polygons
    rng = np.random.default_rng(seed)
    one, zero = rng.random((2, 9, 7)) < 0.3
    n = one.shape[1]
    separable = [[bool((one[:, i] & zero[:, k]).any()) for k in range(n)] for i in range(n)]
    expected = [[separable[i][k] and separable[k][i] for k in range(n)] for i in range(n)]
    assert gpt._readable_pairs(one, zero).tolist() == expected


@pytest.mark.parametrize("n,m", [(5, 2), (9, 4), (40, 3)])
def test_clique_chunks_are_bounded_and_in_combinations_order(n, m):
    rng = np.random.default_rng(n * 10 + m)
    upper = np.triu(rng.random((n, n)) < 0.6, 1)
    for adjacent in (np.ones((n, n), dtype=bool), upper | upper.T):
        chunks = list(gpt._clique_chunks(adjacent, m))
        assert all(1 <= len(rows) <= gpt._SUBSET_CHUNK for rows in chunks)
        cliques = [c for c in itertools.combinations(range(n), m) if all(adjacent[i, k] for i, k in itertools.combinations(c, 2))]
        assert [tuple(r) for rows in chunks for r in rows.tolist()] == cliques


# the clique numbers of polygon 3...20, then sbit and classical-trit
CLIQUE_NUMBERS = [3, 4, 2, 3, *[2] * 14, 4, 3]


def test_readable_clique_number_walks_the_levels_once(monkeypatch):
    makes = [*(lambda n=n: catalog.polygon(n) for n in range(3, 21)), catalog.sbit, catalog.classical_trit]
    calls = []
    extend = gpt._extended_cliques

    def counted(adjacent, cliques):
        calls.append(1)
        return extend(adjacent, cliques)

    monkeypatch.setattr(gpt, "_extended_cliques", counted)
    for make, expected in zip(makes, CLIQUE_NUMBERS, strict=True):
        theory = make().theory
        pairs = gpt._readout_graph(theory)[3]
        # the old walk, restarted from size 1 for every size it tried
        m = 1
        while next(gpt._clique_chunks(pairs, m + 1), None) is not None:
            m += 1
        assert m == expected
        calls.clear()
        assert gpt._readable_clique_number(theory) == expected
        # one extension per level: sizes 2...m, then the empty level m + 1
        assert len(calls) == expected


def _pentagon(coords):
    entry = catalog.polygon(5)
    v = entry.theory.variant
    return Polytope(tuple(State(c) for c in coords), v.extreme_effects, v.unit)


def test_first_coinciding_pair_in_combinations_order():
    w = [catalog.polygon_vertex(5, i).coords for i in range(1, 4)]
    with pytest.raises(ValueError, match="^vertices 2 and 5 coincide$"):
        _pentagon([w[0], w[1], w[2], w[2], w[1]])


def test_near_coincidence_within_tolerance():
    w = [catalog.polygon_vertex(5, i).coords for i in range(1, 3)]
    with pytest.raises(ValueError, match="^vertices 1 and 3 coincide$"):
        _pentagon([w[0], w[1], w[0] + np.array([5e-13, 0.0, 0.0])])


def test_polytope_rejects_non_finite_coordinates():
    entry = catalog.polygon(5)
    v = entry.theory.variant
    bad = np.array([np.nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="^vertex 2 has a non-finite coordinate$"):
        _pentagon([v.vertices[0].coords, bad, *(s.coords for s in v.vertices[2:])])
    effects = list(v.extreme_effects)
    effects[3] = Effect(np.array([np.inf, 0.0, 0.5]), "e4")
    with pytest.raises(ValueError, match="^effect e4 has a non-finite coordinate$"):
        Polytope(v.vertices, tuple(effects), v.unit)
    with pytest.raises(ValueError, match="^effect u has a non-finite coordinate$"):
        Polytope(v.vertices, v.extreme_effects, Effect(np.array([0.0, np.nan, 1.0]), "u"))


@pytest.mark.parametrize("k", [2, 3])
def test_norm_cube_fiducial_dimension_matches_the_polytope_search(k):
    # pgnst:inf:k reads d off its catalogued readouts alone; the polytope
    # with the same vertices (+-1, ..., +-1, 1) and the same fiducial effects
    # searches every vertex subset
    entry = catalog.pgnst(math.inf, k)
    theory = entry.theory
    fiducial = observed_dimension(theory)
    assert (fiducial.d, fiducial.exhaustive, fiducial.notes) == (2, True, "fiducial readouts")
    vertices = tuple(State(np.array([*signs, 1.0])) for signs in itertools.product((1.0, -1.0), repeat=k))
    effects = tuple(e for m in theory.measurements.values() for e in m.effects)
    body = gpt.Theory(entry.entry_id, Polytope(vertices, effects, gpt.unit_effect(theory)), theory.measurements)
    searched = observed_dimension(body)
    assert (searched.d, searched.exhaustive) == (fiducial.d, True)
    assert searched.certificate.verified


def _scalar_certificate(theory, states, measurement):
    """A certificate checked one state and one effect at a time."""
    worst = 0.0
    for i, s in enumerate(states):
        for j, e in enumerate(measurement.effects[: len(states)]):
            worst = max(worst, abs(float(np.dot(e.coords, s.coords)) - (1.0 if i == j else 0.0)))
    return gpt.DistinguishabilityCertificate(tuple(states), measurement, worst <= DISTINGUISH_TOL, worst)


def _scalar_pointer_dimension(theory, states, label):
    """The reference search: for each effect of each named measurement, the
    first state on which it reads 1, one dot product at a time."""
    best = None
    for m in theory.measurements.values():
        chosen = []
        for e in m.effects:
            hit = next((s for s in states if abs(float(np.dot(e.coords, s.coords)) - 1.0) <= DISTINGUISH_TOL), None)
            if hit is None:
                break
            chosen.append(hit)
        if len(chosen) == len(m.effects) and (best is None or len(chosen) > best[0]):
            cert = _scalar_certificate(theory, chosen, m)
            if cert.verified:
                best = (len(chosen), cert)
    if best is None:
        trivial = Measurement("trivial", (gpt.unit_effect(theory),))
        return DimensionReport(1, _scalar_certificate(theory, [states[0]], trivial), True, "no deterministic readout found")
    return DimensionReport(*best, True, label)


def _scalar_observed_dimension(theory):
    """The pointer readouts of restricted, norm and quantum theories, state by state."""
    v = theory.variant
    if isinstance(v, gpt.RestrictedClassical):
        basis = [State(np.eye(v.internal_states)[i]) for i in range(v.internal_states)]
        return _scalar_pointer_dimension(theory, basis, "restricted measurement catalog")
    if isinstance(v, gpt.NormConstraint):
        corners = []
        for axis in range(v.k):
            for sign in (1.0, -1.0):
                coords = np.zeros(v.k + 1)
                coords[axis] = sign
                coords[-1] = 1.0
                corners.append(State(coords))
        return _scalar_pointer_dimension(theory, corners, "fiducial readouts")
    projectors = [gpt.density_to_coords(np.outer(b, b.conj())) for b in np.eye(v.hilbert_dim)]
    states = tuple(State(c) for c in projectors)
    effects = tuple(Effect(c, f"P{i}") for i, c in enumerate(projectors))
    cert = _scalar_certificate(theory, states, Measurement("basis", effects))
    return DimensionReport(v.hilbert_dim, cert, True, "projective basis (analytic)")


def _restricted_edge(name):
    half = np.full(3, 0.5)
    measurements = {
        # no outcome reads 1 on any internal state
        "no-readout": {"H": Measurement("H", (Effect(half, "h0"), Effect(half, "h1")))},
        # the unit alone fires everywhere: d = 1 under the search's own label
        "one-outcome": {"U": Measurement("U", (Effect(np.ones(3), "u"),))},
        "no-measurement": {},
    }[name]
    return gpt.Theory(name, gpt.RestrictedClassical(3), measurements)


POINTER_THEORIES = {
    "hbit": lambda: catalog.hbit().theory,
    **{f"pgnst-{p}-{k}": (lambda p=p, k=k: catalog.pgnst(p, k).theory) for p in (2, 2.5, 3, 8, math.inf) for k in (2, 3)},
    **{f"quantum-{d}": (lambda d=d: gpt.Theory(f"quantum-{d}", gpt.Quantum(d))) for d in range(2, 9)},
    **{name: (lambda name=name: _restricted_edge(name)) for name in ("no-readout", "one-outcome", "no-measurement")},
}


@pytest.mark.parametrize("make", POINTER_THEORIES.values(), ids=POINTER_THEORIES.keys())
def test_pointer_search_matches_the_scalar_readouts(make):
    theory = make()
    report = observed_dimension(theory)
    assert report.certificate.verified
    assert _report_bytes(report) == _report_bytes(_scalar_observed_dimension(theory))

