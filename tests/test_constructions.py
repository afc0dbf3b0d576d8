"""Violation constructions and their closed-form crosschecks."""
import json
import math

import numpy as np
import pytest

from icp_lab import catalog, constructions, gpt
from icp_lab.engine import ObservableAssignment, evaluate_icp, joint_outcome_table
from icp_lab.gpt import apply_effect
from icp_lab.serialize import assignment_from_json, certificate_to_json, ensemble_from_json
from icp_lab.constructions import (
    classical_bit_analysis,
    composite_gbit_extractable,
    hbit_violation,
    minimal_violating_gbits,
    pgnst_bound_check,
    pgnst_min_entropy_sum,
    pgnst_violation,
    polygon_mismatch,
    polygon_violation,
    qubit_rac_construction,
    rac_recovery_halfpower,
    rac_recovery_optimized,
    sbit_violation,
)


def test_sbit_violation_certificate():
    cert = sbit_violation()
    assert cert.report.extractable == pytest.approx(2.0, abs=1e-12)
    assert cert.report.observed_dim == 2
    assert cert.report.violated
    assert cert.crosscheck_max_abs_diff <= 1e-12
    assert cert.closed_form["redundancy"] == 0.0


def test_hbit_violation_certificate():
    cert = hbit_violation()
    assert cert.report.extractable == pytest.approx(2.0, abs=1e-12)
    assert cert.report.observed_dim == 2
    assert cert.report.violated
    assert cert.crosscheck_max_abs_diff <= 1e-12


def test_classical_bit_cannot_violate():
    report = classical_bit_analysis()
    assert report.extractable <= 1.0 + 1e-9
    assert not report.violated


def test_qubit_rac_construction_value():
    cert = qubit_rac_construction()
    success = (2.0 + math.sqrt(2.0)) / 4.0
    assert cert.closed_form["per_cell_success"] == pytest.approx(success, abs=1e-15)
    assert cert.report.extractable == pytest.approx(0.7982479266142879, abs=1e-12)
    assert not cert.report.violated
    assert cert.crosscheck_max_abs_diff <= 1e-12


# --- p-norm theories ----------------------------------------------------------


def test_pgnst_min_entropy_sum_frozen_values():
    pins = {
        2.0: (0.0, 1.0),
        2.5: (None, 0.9998229233457314),
        3.0: (None, 0.9578024777106202),
        4.0: (None, 0.8011958615964645),
        8.0: (None, 0.4982374127870024),
    }
    for p, (sx, hmin) in pins.items():
        got_sx, got_h = pgnst_min_entropy_sum(p)
        assert got_h == pytest.approx(hmin, abs=1e-12), p
        if sx is not None:
            assert got_sx == sx
        assert 0.0 <= got_sx <= 1.0


def test_pgnst_min_entropy_sum_mpmath_oracle():
    """Re-derive criterion 05's minima at 50 digits, without the program's grid.

    A coarse log grid over u = 1 - s_x locates the minimum; a bracketed root of
    the derivative then pins it.
    """
    mpmath = pytest.importorskip("mpmath")
    from test_acceptance import PNORM_ENTROPY_MINIMA

    mp = mpmath.mp

    def entropy_sum(p, s):
        total = mp.zero
        for x in (s, (1 - s**p) ** (1 / p)):
            a, b = (1 + x) / 2, (1 - x) / 2
            total -= a * mp.log(a, 2) + b * mp.log(b, 2)
        return total

    def slope(p, s):  # d/ds_x, using ds_z/ds_x = -(s_x/s_z)^(p-1)
        t = (1 - s**p) ** (1 / p)
        return (mp.atanh(t) * (s / t) ** (p - 1) - mp.atanh(s)) / mp.ln2

    with mpmath.workdps(50):
        for p, h_literal in PNORM_ENTROPY_MINIMA.items():
            p = mp.mpf(p)
            s_grid = [1 - mp.mpf(10) ** (-8 + mp.mpf(k) / 25) for k in range(200)]
            values = [entropy_sum(p, s) for s in s_grid]
            i = min(range(len(values)), key=values.__getitem__)
            assert 0 < i < len(values) - 1, p
            s_star = mp.findroot(
                lambda s: slope(p, s), (s_grid[i + 1], s_grid[i - 1]), solver="anderson"
            )
            assert abs(slope(p, s_star)) < mp.mpf(10) ** -40, p
            assert abs(entropy_sum(p, s_star) - h_literal) < 1e-15, p
            if p >= 3:  # the symmetric point s_x = s_z
                assert abs(s_star - 2 ** (-1 / p)) < mp.mpf(10) ** -30, p


def _default_grid():
    """The boundary grid u = 1 - s_x: 100 000 log points from 1e-12 to 1, then u = 0."""
    return np.concatenate([np.logspace(math.log10(1e-12), 0.0, 100_000), [0.0]])


def _per_p_min_entropy_sum(p):
    """The search the shared grid replaced: the grid and both entropies built for each p."""
    u = _default_grid()
    with np.errstate(divide="ignore"):
        w = np.exp(p * np.log1p(-u))
        v = -np.expm1(np.log1p(-w) / p)
    sums = constructions._entropy_from_gap(u) + constructions._entropy_from_gap(v)
    best = int(np.argmin(sums))
    return float(1.0 - u[best]), float(sums[best])


def test_pgnst_min_entropy_sum_matches_the_per_p_grid():
    for p in (2.0, 2.5, 3.0, 4.0, 8.0):
        assert pgnst_min_entropy_sum(p) == _per_p_min_entropy_sum(p), p


@pytest.mark.parametrize("p", [200.0, 500.0, 1e3, 1e4, 1e6])
def test_pgnst_min_entropy_sum_is_finite_for_large_p(p):
    """Where a gap's half underflows to 0, its entropy term is 0 log 0 = 0,
    not NaN, so the minimum is a number no larger than any finite grid value."""
    u = _default_grid()
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.exp(p * np.log1p(-u))
        v = -np.expm1(np.log1p(-w) / p)
        # H(1 - g/2) of both gaps, term by term: NaN where g/2 is 0
        half = np.stack([u, v]) / 2.0
        sums = (-(1.0 - half) * np.log2(1.0 - half) - half * np.log2(half)).sum(axis=0)
    _, h = pgnst_min_entropy_sum(p)
    assert math.isfinite(h)
    assert h <= np.min(sums[np.isfinite(sums)]) + 1e-12
    assert constructions._entropy_from_gap(np.array([5e-324])).tolist() == [0.0]


def test_pgnst_min_entropy_sum_infinite_p():
    sx, hmin = pgnst_min_entropy_sum(float("inf"))
    assert sx == 1.0
    assert hmin == 0.0


def test_pgnst_min_entropy_monotone_in_p():
    grid = [2.0 + 0.25 * k for k in range(17)]  # 2.0 .. 6.0
    values = [pgnst_min_entropy_sum(p)[1] for p in grid]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_pgnst_min_entropy_rejects_small_p():
    for p in (1.9, float("nan")):
        with pytest.raises(ValueError, match="need p >= 2"):
            pgnst_min_entropy_sum(p)


def test_pgnst_violation_certificates():
    for p, hmin in ((3.0, 0.9578024777106202), (4.0, 0.8011958615964645)):
        cert = pgnst_violation(p)
        assert cert.closed_form["entropy_min"] == pytest.approx(hmin, abs=1e-12)
        assert cert.closed_form["extractable"] == pytest.approx(2.0 - hmin, abs=1e-12)
        assert cert.report.extractable == pytest.approx(2.0 - hmin, abs=1e-9)
        assert cert.report.violated
        assert cert.crosscheck_max_abs_diff <= 1e-9


# the p values of the default ``icp-lab scan pgnst``, 2 to 6 in steps of 0.25
SCAN_PGNST_P = [2.0 + 0.25 * k for k in range(17)]


@pytest.mark.parametrize(
    "p",
    [
        pytest.param(
            p,
            marks=pytest.mark.xfail(
                strict=True,
                reason="effect_values snaps an X value of 1 - 4.7e-11 to 1, so the report reads extractable "
                "1.0000000017977657, margin -1.8e-9 and violated=True, where the closed form gives "
                "1.0000000001327898, margin -1.3e-10, inside VIOLATION_TOL (FOUND in CHANGES.md)",
            ),
        )
        if p == 2.25
        else p
        for p in SCAN_PGNST_P
    ],
)
def test_scan_pgnst_certificates_match_their_closed_form(p):
    assert pgnst_violation(p).crosscheck_max_abs_diff <= 1e-12


def test_pgnst_violation_infinite_p_reaches_two():
    cert = pgnst_violation(float("inf"))
    assert cert.report.extractable == pytest.approx(2.0, abs=1e-12)
    assert cert.report.violated


def test_pgnst_bound_check_default_window():
    ledger = pgnst_bound_check(4.0, epsilon=0.5)
    assert ledger.holds_pointwise
    assert ledger.ratio_monotone
    assert all(pt.lhs < pt.rhs for pt in ledger.points)
    assert len(ledger.points) == 200


def test_pgnst_bound_check_precondition():
    # (1 + eps) p must exceed 2
    with pytest.raises(ValueError):
        pgnst_bound_check(2.0, epsilon=0.0)
    ok = pgnst_bound_check(2.0, epsilon=0.1)
    assert ok.holds_pointwise


@pytest.mark.parametrize("grid", [[], [1.0], [0.99], [1.0, 0.99, 1.0]])
def test_pgnst_bound_check_needs_two_interior_points(grid):
    # both sides vanish at s_x = 1, so such a grid would test neither verdict
    with pytest.raises(ValueError, match="^s_x grid needs at least two points below 1$"):
        pgnst_bound_check(3.0, 0.5, grid)
    ledger = pgnst_bound_check(3.0, 0.5, [*grid, 0.999, 0.9999])
    assert len(ledger.points) == len(grid) + 2 and ledger.holds_pointwise and ledger.ratio_monotone


def test_rac_recovery_values():
    assert rac_recovery_halfpower(2.0) == pytest.approx(0.7071067811865476, abs=1e-15)
    assert rac_recovery_optimized(2.0) == pytest.approx(0.8535533905932737, abs=1e-15)
    # optimized beats the bare half-power recovery for every p
    for p in (2.0, 3.0, 5.0, 17.0):
        assert rac_recovery_optimized(p) > rac_recovery_halfpower(p)
    with pytest.raises(ValueError):
        rac_recovery_halfpower(1.0)
    with pytest.raises(ValueError):
        rac_recovery_optimized(1.0)


# --- polygons -----------------------------------------------------------------


def test_polygon_violation_frozen_values():
    pins = {
        5: 1.0704307871940208,
        6: 1.1887218755408673,
        49: 1.000741170589025,
        50: 1.0028458921100243,
    }
    for n, extractable in pins.items():
        cert = polygon_violation(n)
        assert cert.report.extractable == pytest.approx(extractable, abs=1e-9), n
        assert cert.report.violated, n
        assert cert.crosscheck_max_abs_diff <= 1e-9, n


def test_polygon_violation_square_is_maximal():
    cert = polygon_violation(4)
    assert cert.report.extractable == pytest.approx(2.0, abs=1e-12)


def test_polygon_triangle_does_not_violate():
    cert = polygon_violation(3)
    assert cert.report.observed_dim == 3
    assert cert.report.extractable <= math.log2(3)
    assert not cert.report.violated


def test_polygon_violation_all_gon_counts():
    evens, odds = [], []
    for n in range(4, 51):
        cert = polygon_violation(n)
        assert cert.report.violated, n
        (evens if n % 2 == 0 else odds).append(cert.report.extractable)
    # each parity class decays toward the classical bound from above
    for seq in (evens, odds):
        for a, b in zip(seq, seq[1:]):
            assert b < a
        assert seq[-1] > 1.0


def test_polygon_violation_rejects_small_n():
    with pytest.raises(ValueError):
        polygon_violation(2)


def test_polygon_mismatch_catalog():
    found = {}
    for n in range(3, 21):
        rec = polygon_mismatch(n)
        assert rec.mismatch == (rec.information_dimension > rec.measurement_dimension)
        if rec.mismatch:
            found[n] = (rec.measurement_dimension, rec.information_dimension)
    assert found == {4: (2, 4), 6: (2, 3)}


def test_polygon_mismatch_range_check():
    with pytest.raises(ValueError):
        polygon_mismatch(2)
    with pytest.raises(ValueError):
        polygon_mismatch(21)


def _max_clique_size(adj):
    """Largest clique of the graph ``adj`` (a set of neighbours per vertex),
    by Bron-Kerbosch with pivoting."""
    best = 0

    def expand(r, candidates, excluded):
        nonlocal best
        if not candidates and not excluded:
            best = max(best, r)
            return
        if r + len(candidates) <= best:
            return
        pivot = max(candidates | excluded, key=lambda v: len(adj[v] & candidates))
        for v in list(candidates - adj[pivot]):
            expand(r + 1, candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    expand(0, set(range(len(adj))), set())
    return best


def _or_graph(n, tol=1e-9):
    """The n-gon's vertex pairs that some extreme effect or its complement
    reads as 1 on one and 0 on the other, in either direction."""
    variant = catalog.polygon(n).theory.variant
    effects = list(variant.extreme_effects)
    unit = variant.unit.coords
    candidates = [e.coords for e in effects] + [unit - e.coords for e in effects]
    verts = np.array([s.coords for s in variant.vertices])
    vals = np.array(candidates) @ verts.T
    ones = np.abs(vals - 1.0) <= tol
    zeros = np.abs(vals) <= tol
    hits = (ones.astype(int).T @ zeros.astype(int)) > 0
    pairwise = hits | hits.T
    np.fill_diagonal(pairwise, False)
    return pairwise


@pytest.mark.parametrize("n", range(3, 21))
def test_polygon_mismatch_matches_the_or_graph_clique_search(n):
    # the candidates hold every complement u - e, so a pair read apart one way
    # is read apart the other way too: the OR graph is the search's AND graph
    pairwise = _or_graph(n)
    assert catalog.polygon(n).theory.variant._readout_graph[3].tolist() == pairwise.tolist()
    adj = [set(np.flatnonzero(row).tolist()) for row in pairwise]
    assert polygon_mismatch(n).information_dimension == _max_clique_size(adj)


# --- composites ---------------------------------------------------------------


def test_composite_gbit_frozen_values():
    r1 = composite_gbit_extractable(1)
    assert r1.extractable == pytest.approx(0.7679773462529957, abs=1e-12)
    assert r1.bound == pytest.approx(2.0, abs=1e-15)
    assert not r1.violated
    r4 = composite_gbit_extractable(4)
    assert r4.extractable == pytest.approx(6.618037441586345, abs=1e-12)
    assert not r4.violated
    r5 = composite_gbit_extractable(5)
    assert r5.extractable == pytest.approx(16.18589837565986, abs=1e-12)
    assert r5.bound == pytest.approx(10.0, abs=1e-15)
    assert r5.violated


def test_composite_gbit_internal_consistency():
    from icp_lab.info import binary_entropy

    for n in (1, 2, 3, 6):
        rec = composite_gbit_extractable(n)
        closed = (3**n) * (1.0 - binary_entropy(rec.p_rec))
        assert rec.extractable == pytest.approx(closed, abs=1e-12)
        assert rec.encoded_bits == 3**n
        assert rec.bound == pytest.approx(2.0 * n, abs=1e-12)


def test_minimal_violating_gbits():
    assert minimal_violating_gbits() == 5
    with pytest.raises(ValueError):
        composite_gbit_extractable(0)


def test_composite_gbit_stops_where_3_to_the_n_leaves_the_floats():
    r = composite_gbit_extractable(646)
    assert (r.p_rec, r.extractable, r.bound, r.violated) == (0.5139049919538787, 9.26685913188142e304, 1292.0, True)
    assert r.encoded_bits == 3**646
    with pytest.raises(ValueError, match=r"^need 1 <= n <= 646, got 647 "):
        composite_gbit_extractable(647)


def test_violation_certificate_serialization():
    from icp_lab.serialize import certificate_to_json

    cert = sbit_violation()
    doc = certificate_to_json(cert)
    assert doc["report"]["violated"] is True
    assert doc["theory"] == "sbit"
    assert "closed_form" in doc
    assert doc["crosscheck_max_abs_diff"] <= 1e-12


def _conditional(ensemble, measurement, register, outcome, value):
    """p(outcome | register value) from the outcome table."""
    table = joint_outcome_table(ensemble, measurement, register)
    return float(table[outcome, value] / table[:, value].sum())


def _recomputed_differences(ensemble, assignment, report, closed):
    """|closed form - recomputed value| for every derived key of ``closed``."""
    recomputed = {
        "I(X:A)": report["gains"][0],
        "I(Z:B)": report["gains"][1],
        "redundancy": report["redundancy"],
        "extractable": report["extractable"],
    }
    diffs = [abs(closed[k] - v) for k, v in recomputed.items()]
    (x_meas, x_reg), (z_meas, z_reg) = assignment.pairs
    if "per_cell_success" in closed:
        diffs.append(abs(closed["per_cell_success"] - _conditional(ensemble, x_meas, x_reg, 0, 0)))
    if "p(Z=0|B=0)" in closed:
        states = {tuple(r): gpt.State(c) for r, c in zip(ensemble.registers.tolist(), ensemble.coords)}
        for z in (0, 1):
            key = f"p(Z={z}|B={z})"
            effect = z_meas.effects[z]
            direct = 0.5 * (apply_effect(effect, states[(0, z)]) + apply_effect(effect, states[(1, z)]))
            diffs += [abs(closed[key] - direct), abs(closed[key] - _conditional(ensemble, z_meas, z_reg, z, z))]
    assert set(closed) - set(recomputed) <= {"per_cell_success", "p(Z=0|B=0)", "p(Z=1|B=1)", "s_x", "s_z", "entropy_min"}
    return diffs


@pytest.mark.parametrize(
    "make",
    [
        sbit_violation,
        hbit_violation,
        qubit_rac_construction,
        lambda: pgnst_violation(3.0),
        lambda: polygon_violation(5),
        lambda: polygon_violation(6),
    ],
    ids=["sbit", "hbit", "qubit-rac", "pgnst-3", "polygon-5", "polygon-6"],
)
def test_certificate_is_re_derived_from_its_json(make):
    doc = json.loads(json.dumps(certificate_to_json(make())))
    entry, ensemble = ensemble_from_json(doc["ensemble"])
    labels, registers = assignment_from_json(doc["assignment"])
    assignment = ObservableAssignment(tuple((entry.theory.measurement(l), r) for l, r in zip(labels, registers)))
    report = evaluate_icp(ensemble, assignment).to_json()
    assert report == doc["report"]
    diffs = _recomputed_differences(ensemble, assignment, report, doc["closed_form"])
    assert doc["crosscheck_max_abs_diff"] == max(diffs)
