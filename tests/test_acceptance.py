"""Acceptance suite. One test per shipped guarantee; each prints a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Heavy trial counts live here, not in the unit tests, so this module is the
slow part of the suite (still minutes, not hours).
"""
import math

import numpy as np
import pytest

from icp_lab import (
    CorrelatedEnsemble,
    ObservableAssignment,
    OptimizerConfig,
    catalog,
    evaluate_icp,
    maximize_extractable,
    proof_chain_check,
    qubit_rotation_sweep,
    sampling,
)
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
from icp_lab.gpt import observed_dimension
from icp_lab.info import VIOLATION_TOL
from icp_lab.proofs import axiom_suite


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} failed: {label}" + (f" ({detail})" if detail else "")


def _xz_assignment(entry, first="X", second="Z"):
    th = entry.theory
    return ObservableAssignment(((th.measurement(first), 0), (th.measurement(second), 1)))


def test_criterion_01_two_bit_demos():
    problems = []
    for cert in (sbit_violation(), hbit_violation()):
        if abs(cert.report.extractable - 2.0) > 1e-12:
            problems.append(f"{cert.ensemble.theory.theory_id} extractable {cert.report.extractable!r}")
        if abs(cert.report.bound - 1.0) > 1e-12:
            problems.append(f"{cert.ensemble.theory.theory_id} bound {cert.report.bound!r}")
        if not cert.report.violated:
            problems.append(f"{cert.ensemble.theory.theory_id} not flagged as violating")
    _verdict(1, "square and hidden-bit demos extract 2 bits against a 1-bit bound",
             not problems, "; ".join(problems))


def test_criterion_02_classical_bit_saturates():
    report = classical_bit_analysis()
    ok = (
        abs(sum(report.gains) - 2.0) <= 1e-6
        and abs(report.redundancy - 1.0) <= 1e-6
        and abs(report.extractable - 1.0) <= 1e-6
        and not report.violated
    )
    _verdict(2, "classical bit read twice: both gains full, all of it redundant",
             ok, f"gains={report.gains} redundancy={report.redundancy!r}")


def test_criterion_03_qubit_rac_value():
    cert = qubit_rac_construction()
    ok = (
        abs(cert.report.extractable - 0.79825) <= 1e-3
        and cert.report.redundancy <= 1e-9
    )
    _verdict(3, "qubit two-cell code extracts 0.798 bits with no redundancy",
             ok, f"extractable={cert.report.extractable!r}")


def test_criterion_04_qubit_rotation_sweep():
    points = qubit_rotation_sweep(np.linspace(0.0, math.pi / 2.0, 50))
    below = all(p.extractable <= 1.0 + 1e-9 for p in points)
    gains = [p.gains_sum for p in points]
    reds = [p.redundancy for p in points]
    toward_zero = all(a >= b - 1e-12 for a, b in zip(gains, gains[1:])) and all(
        a >= b - 1e-12 for a, b in zip(reds, reds[1:])
    )
    _verdict(4, "qubit axis sweep stays within one bit, gains and redundancy rise together",
             below and toward_zero)


# True minima of H(X)+H(Z) on the p-GNST boundary s_x^p + s_z^p = 1, derived
# with mpmath at 50 digits: a log-spaced grid over u = 1 - s_x, then a root of
# the derivative (residual below 1e-47). For p = 3, 4, 8 the minimiser is the
# symmetric point s_x = s_z = 2**(-1/p); for p = 2.5 it is s_x =
# 0.99981370579635502 (or its mirror s_z). test_constructions.py re-derives
# these values in test_pgnst_min_entropy_sum_mpmath_oracle.
PNORM_ENTROPY_MINIMA = {
    2.5: 0.99982292334515990,
    3.0: 0.95780247768851476,
    4.0: 0.80119586117208676,
    8.0: 0.49823741255587355,
}


def test_criterion_05_pnorm_entropy_minimum():
    problems = []
    _, h2 = pgnst_min_entropy_sum(2.0)
    if abs(h2 - 1.0) > 1e-6:
        problems.append(f"p=2 minimum {h2!r}")
    for p, h_star in PNORM_ENTROPY_MINIMA.items():
        _, h = pgnst_min_entropy_sum(p)
        # One-sided: a grid minimum can only lie above the true minimum.
        if not h_star - 1e-12 <= h <= h_star + 1e-8:
            problems.append(f"p={p} minimum {h!r} off the 50-digit value {h_star!r}")
        if not h < 1.0 - 1e-6:
            problems.append(f"p={p} minimum {h!r} not below 1 - 1e-6")
        cert = pgnst_violation(p)
        if not cert.report.extractable > 1.0:
            problems.append(f"p={p} extractable {cert.report.extractable!r}")
        if abs(cert.report.extractable - (2.0 - h)) > 1e-9:
            problems.append(f"p={p} extractable != 2 - minimum")
    _verdict(5, "p-norm boundary entropy minimum: 1 at p=2, below 1 past it",
             not problems, "; ".join(problems))


def test_criterion_06_pnorm_analytic_bound():
    problems = []
    for p, eps in ((3.0, 0.1), (4.0, 0.5)):
        ledger = pgnst_bound_check(p, epsilon=eps)
        us = [1.0 - pt.s_x for pt in ledger.points]
        if not (ledger.holds_pointwise and all(pt.margin > 0.0 for pt in ledger.points)):
            problems.append(f"p={p} eps={eps} bound fails")
        if not (min(us) >= 1e-8 * (1 - 1e-9) and max(us) <= 1e-2 * (1 + 1e-9)):
            problems.append(f"p={p} window [{min(us)}, {max(us)}]")
    _verdict(6, "entropy-gap lower bound holds pointwise near the corner",
             not problems, "; ".join(problems))


def test_criterion_07_polygon_family():
    problems = []
    for n in range(4, 51):
        cert = polygon_violation(n)
        if cert.crosscheck_max_abs_diff > 1e-12:
            problems.append(f"n={n} crosscheck {cert.crosscheck_max_abs_diff!r}")
        if not cert.report.extractable > 1.0:
            problems.append(f"n={n} extractable {cert.report.extractable!r}")
    if abs(polygon_violation(4).report.extractable - 2.0) > 1e-12:
        problems.append("n=4 does not reproduce the square-bit value")
    if abs(polygon_violation(6).report.extractable - 1.18872) > 1e-4:
        problems.append(f"n=6 extractable {polygon_violation(6).report.extractable!r}")
    _verdict(7, "every polygon count 4..50 beats one bit and matches its closed form",
             not problems, "; ".join(problems[:4]))


def test_criterion_08_polygon_dimensions():
    cert3 = polygon_violation(3)
    problems = []
    if cert3.report.observed_dim != 3 or cert3.report.violated:
        problems.append(f"triangle d={cert3.report.observed_dim} violated={cert3.report.violated}")
    for n in range(4, 21):
        d = observed_dimension(catalog.polygon(n).theory).d
        if d != 2:
            problems.append(f"n={n} d={d}")
    _verdict(8, "triangle is a trit and stays legal; wider polygons are two-dimensional",
             not problems, "; ".join(problems))


def test_criterion_09_dimension_mismatch_scan():
    flagged = sorted(n for n in range(4, 14) if polygon_mismatch(n).mismatch)
    _verdict(9, "joint-readout dimension exceeds pairwise dimension exactly for n=4 and n=6",
             flagged == [4, 6], f"flagged={flagged}")


def test_criterion_10_composite_cube_systems():
    r5 = composite_gbit_extractable(5)
    r4 = composite_gbit_extractable(4)
    ok = (
        abs(r5.extractable - 16.18) <= 0.02
        and r5.extractable > 10.0
        and r5.violated
        and abs(r4.extractable - 6.62) <= 0.01
        and r4.extractable < 8.0
        and not r4.violated
        and minimal_violating_gbits() == 5
    )
    _verdict(10, "five cube systems break the composite bound, four do not",
             ok, f"I_E(5)={r5.extractable!r} I_E(4)={r4.extractable!r}")


def test_criterion_11_rac_recovery_probabilities():
    half2 = rac_recovery_halfpower(2.0)
    opt2 = rac_recovery_optimized(2.0)
    qubit_success = qubit_rac_construction().closed_form["per_cell_success"]
    seq = [rac_recovery_halfpower(p) for p in (2.0, 4.0, 16.0, 256.0, 1e6)]
    ok = (
        abs(half2 - 0.70711) <= 1e-5
        and all(a < b for a, b in zip(seq, seq[1:]))
        and seq[-1] > 1.0 - 1e-5
        and abs(opt2 - 0.85355) <= 1e-5
        and abs(opt2 - qubit_success) <= 1e-9
    )
    _verdict(11, "code-state recovery: 0.70711 raw and 0.85355 recentered at p=2",
             ok, f"half={half2!r} opt={opt2!r}")


def test_criterion_12_entropy_axiom_suite():
    problems = []
    for kind, trials in (("shannon", 10_000), ("von-neumann", 1_000)):
        for report in axiom_suite(kind, trials=trials, seed=20260816):
            if not report.passed or report.max_violation > 1e-9:
                problems.append(f"{kind} axiom {report.axiom}: {report.max_violation!r}")
    _verdict(12, "all five entropy properties survive seeded random stress",
             not problems, "; ".join(problems))


def test_criterion_13_proof_chain_margins():
    worst_ineq = math.inf
    worst_ident = 0.0
    worst_sum_ident = 0.0

    def run(entry, assignment, trials, seed, n_registers=2):
        nonlocal worst_ineq, worst_ident, worst_sum_ident
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            ens = sampling.random_ensemble(entry, rng, n_registers=n_registers)
            ledger = proof_chain_check(ens, assignment)
            worst_ineq = min(worst_ineq, ledger.min_inequality_margin())
            worst_ident = max(worst_ident, ledger.max_identity_error())
            for step in ledger.steps:
                if step.name.startswith("sum of prefix correlations"):
                    worst_sum_ident = max(worst_sum_ident, abs(step.lhs - step.rhs))

    bit = catalog.classical_bit()
    run(bit, _xz_assignment(bit), 10_000, seed=101)
    qb = catalog.qubit()
    run(qb, _xz_assignment(qb), 1_000, seed=102)
    trit = catalog.classical_trit()
    th = trit.theory
    three = ObservableAssignment(
        tuple((th.measurement(f"E{i + 1}"), i) for i in range(3))
    )
    run(trit, three, 10_000, seed=103, n_registers=3)
    four = ObservableAssignment(
        tuple((th.measurement(l), i) for i, l in enumerate(("E1", "E2", "E3", "E1")))
    )
    run(trit, four, 10_000, seed=104, n_registers=4)

    ok = worst_ineq >= -1e-9 and worst_sum_ident <= 1e-12
    _verdict(13, "derivation ledger: every inequality margin and the correlation identity hold",
             ok, f"worst margin {worst_ineq!r}, identity error {worst_sum_ident!r}")
    assert worst_ident <= 1e-9  # structural identities track much tighter in practice


def test_criterion_14_icp_safety_on_proven_theories():
    worst = math.inf
    cases = (
        (catalog.classical_bit(), ("X", "Z"), 201),
        (catalog.classical_trit(), ("E1", "E2"), 202),
        (catalog.qubit(), ("X", "Z"), 203),
    )
    for entry, (first, second), seed in cases:
        rng = np.random.default_rng(seed)
        assignment = _xz_assignment(entry, first, second)
        for _ in range(10_000):
            ens = sampling.random_ensemble(entry, rng)
            report = evaluate_icp(ens, assignment)
            worst = min(worst, report.margin)
    _verdict(14, "no random ensemble on a compliant theory dips below the bound",
             worst >= -1e-9, f"worst margin {worst!r}")


# criterion 15's penalty-off searches, (strategy, max_evals, seed). The qubit
# grid has 24 576 candidates, so at these budgets every qubit optimum is a
# grid point; the qubit search past its grid is the xfail test below.
ADVERSARIAL_SEARCHES = (("coordinate-descent", 8000, 0), ("random-restart", 4000, 0), ("random-restart", 4000, 1))
ADVERSARIAL_THEORIES = ((catalog.classical_bit, ("X", "Z")), (catalog.classical_trit, ("E1", "E2")),
                        (catalog.qubit, ("X", "Z")))


def _penalty_off_optimum(entry, assignment, strategy, max_evals, seed):
    config = OptimizerConfig(strategy=strategy, max_evals=max_evals, seed=seed, equal_gain_constraint=False)
    return maximize_extractable(entry.theory, assignment, config)


def test_criterion_15_optimizer_finds_no_violation_on_proven_theories():
    """The search for the largest extractable information, with the equal-gain
    penalty off, stays within the bound on theories that obey it, and its
    optima sit on the bound."""
    problems, least = [], {}
    for make, labels in ADVERSARIAL_THEORIES:
        entry = make()
        assignment = _xz_assignment(entry, *labels)
        name = entry.theory.theory_id
        for strategy, max_evals, seed in ADVERSARIAL_SEARCHES:
            result = _penalty_off_optimum(entry, assignment, strategy, max_evals, seed)
            report = result.report
            least[name] = min(least.get(name, math.inf), report.margin)
            if report.margin < -VIOLATION_TOL or report.violated:
                problems.append(f"{name} {strategy} seed {seed}: margin {report.margin!r}")
            if not proof_chain_check(result.ensemble, assignment).all_hold():
                problems.append(f"{name} {strategy} seed {seed}: the derivation ledger fails")
    for name, margin in least.items():
        print(f"[criterion 15] {name}: least margin {margin!r}")
        # the equality cases: each theory's optimum reaches the bound
        if abs(margin) > 1e-12:
            problems.append(f"{name}: least margin {margin!r} is off the bound")
    _verdict(15, "the penalty-off optimizer finds no violation on a compliant theory",
             not problems, "; ".join(problems))


@pytest.mark.xfail(
    strict=True,
    reason="effect_values snaps a value within MEMBERSHIP_TOL of 0 or 1 to it, which lifts a qubit X gain "
    "of 0.99999997 to 1.0, so past the grid the search reaches margin -2.6e-9 and violated=True "
    "(FOUND in CHANGES.md)",
)
def test_criterion_15_qubit_search_past_its_grid():
    entry = catalog.qubit()
    assignment = _xz_assignment(entry)
    report = _penalty_off_optimum(entry, assignment, "random-restart", 28_000, 0).report
    print(f"[criterion 15] qubit past its grid: margin {report.margin!r}")
    assert report.margin >= -VIOLATION_TOL and not report.violated


# the optimum that the default search (random-restart, 60 000 evaluations)
# with the penalty off converges to on X and Z of the disc (pgnst:2:2, a
# rebit) and the ball (pgnst:2:3, the Bloch ball), written out: 4 uniform
# entries, register A reading the sign of x and B the sign of z. Each x lies
# 1.8e-9 inside the unit circle, so its X effect value lies 9.0e-10 below 1.
DISC_AND_BALL_OPTIMA = (
    ("pgnst:2:2", 2, [
        [0.9999999981912233, -6.014610025648197e-05, 1.0],
        [0.9999999981912233, 6.014610025648197e-05, 1.0],
        [-0.9999999981912233, -6.014610025648197e-05, 1.0],
        [-0.9999999981912233, 6.014610025648197e-05, 1.0],
    ]),
    ("pgnst:2:3", 3, [
        [0.9999999981912233, 0.0, -6.014610025648197e-05, 1.0],
        [0.9999999981912233, 0.0, 6.014610025648197e-05, 1.0],
        [-0.9999999981912233, 0.0, -6.014610025648197e-05, 1.0],
        [-0.9999999981912233, 0.0, 6.014610025648197e-05, 1.0],
    ]),
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: effect_values snaps the X value 1 - 9.0e-10 to 1.0, so the X gain reads 1.0 and "
    "the report extractable 1.0000000026095133, margin -2.6e-9 and violated=True, on a theory equivalent "
    "to a quantum one",
)
@pytest.mark.parametrize("name,dim,coords", DISC_AND_BALL_OPTIMA, ids=[c[0] for c in DISC_AND_BALL_OPTIMA])
def test_criterion_15_disc_and_ball_optima(name, dim, coords):
    entry = catalog.pgnst(2.0, dim)
    ensemble = CorrelatedEnsemble(
        entry.theory, np.full(4, 0.25), np.array(coords), np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), (2, 2)
    )
    report = evaluate_icp(ensemble, _xz_assignment(entry))
    print(f"[criterion 15] {name} penalty-off optimum: margin {report.margin!r}")
    assert not report.violated
