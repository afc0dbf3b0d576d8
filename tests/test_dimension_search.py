"""Polytope dimension search: the mask pre-filter against the per-subset search."""
import itertools
import math

import numpy as np
import pytest

from icp_lab import catalog, gpt
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
            *(Effect(v.unit.coords - e.coords, theory.theory_id, f"u-{e.label or '?'}") for e in v.extreme_effects),
            v.unit,
        ]
    )


def _scalar_polytope_dimension(theory, budget):
    """The reference search: every subset and every readout one at a time."""
    v = theory.variant
    vertices = v.vertices
    nv = len(vertices)
    unit = v.unit
    candidates = _candidates(theory)
    P = np.array([[float(np.dot(e.coords, s.coords)) for s in vertices] for e in candidates])
    ones = [int(sum(1 << i for i in range(nv) if abs(P[j, i] - 1.0) <= DISTINGUISH_TOL)) for j in range(len(candidates))]
    zeros = [int(sum(1 << i for i in range(nv) if abs(P[j, i]) <= DISTINGUISH_TOL)) for j in range(len(candidates))]
    by_one = [[j for j in range(len(candidates)) if ones[j] >> i & 1] for i in range(nv)]
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
        tuple((s.theory_id, s.coords.tobytes()) for s in cert.states),
        cert.measurement.label,
        tuple((e.theory_id, e.label, e.coords.tobytes()) for e in cert.measurement.effects),
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
    report = observed_dimension(theory, use_cache=False)
    assert _report_bytes(report) == _report_bytes(_scalar_polytope_dimension(theory, 2_000_000))


@pytest.mark.parametrize("make", [lambda: catalog.polygon(7), lambda: catalog.polygon(8), catalog.classical_trit])
def test_search_stops_where_the_scalar_search_does(make):
    theory = make().theory
    pairs = math.comb(len(theory.variant.vertices), 2)
    for budget in (1, 2, 10, pairs, pairs + 1, pairs + 50):
        report = observed_dimension(theory, budget=budget, use_cache=False)
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


@pytest.mark.parametrize("n,m", [(5, 2), (9, 4), (40, 3)])
def test_subset_chunks_are_bounded_and_in_combinations_order(n, m):
    chunks = list(gpt._subset_chunks(n, m))
    assert all(1 <= len(rows) <= gpt._SUBSET_CHUNK for rows in chunks)
    assert [tuple(r) for rows in chunks for r in rows.tolist()] == list(itertools.combinations(range(n), m))


def _pentagon(coords):
    entry = catalog.polygon(5)
    v = entry.theory.variant
    return Polytope(tuple(State(c, entry.entry_id) for c in coords), v.extreme_effects, v.unit)


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
    effects[3] = Effect(np.array([np.inf, 0.0, 0.5]), entry.entry_id, "e4")
    with pytest.raises(ValueError, match="^effect e4 has a non-finite coordinate$"):
        Polytope(v.vertices, tuple(effects), v.unit)
    with pytest.raises(ValueError, match="^effect u has a non-finite coordinate$"):
        Polytope(v.vertices, v.extreme_effects, Effect(np.array([0.0, np.nan, 1.0]), entry.entry_id, "u"))
