"""Named ensembles and scans exercising the extractable-information bound.

Every recipe returns a certificate that carries the concrete ensemble, the
engine's report on it, and the analytic values the report must reproduce.
The certificate stores the worst absolute difference between the two paths,
so each number can be re-derived offline from the stored data alone.

Conventions used throughout: registers (A, B) are uniform and independent
unless stated otherwise, measurement X is paired with register A and Z with
B, and binary entropy is written H.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import info
from .catalog import (
    CatalogEntry,
    classical_bit,
    hbit,
    hbit_state,
    norm_state,
    pgnst,
    polygon,
    polygon_vertex,
    qubit,
    qubit_state_from_bloch,
    sbit,
    sbit_state,
)
from .engine import (
    CorrelatedEnsemble,
    ICPReport,
    ObservableAssignment,
    OptimizerConfig,
    build_ensemble,
    evaluate_icp,
    joint_outcome_table,
    maximize_extractable,
)
from .gpt import _readable_clique_number, apply_effect, composite_dimension_bound, observed_dimension
from .info import VIOLATION_TOL


@dataclass(frozen=True, eq=False)
class ViolationCertificate:
    """An ensemble, its report, and the closed-form values it must match."""

    ensemble: CorrelatedEnsemble
    assignment: ObservableAssignment
    report: ICPReport
    closed_form: dict[str, float]
    crosscheck_max_abs_diff: float


def _two_register_assignment(entry: CatalogEntry) -> ObservableAssignment:
    return ObservableAssignment(((entry.theory.measurement("X"), 0), (entry.theory.measurement("Z"), 1)))


def _uniform_four(entry: CatalogEntry, states) -> CorrelatedEnsemble:
    """Uniform ensemble over (a, b) in {0,1}^2 with the given state table."""
    return build_ensemble(
        entry.theory,
        [(0.25, states[(a, b)], (a, b)) for a in (0, 1) for b in (0, 1)],
        register_alphabets=(2, 2),
    )


def _conditional(table: np.ndarray, outcome: int, value: int) -> float:
    col = table[:, value]
    return float(col[outcome] / col.sum())


def _certificate(ensemble, assignment, closed, *crosschecks) -> ViolationCertificate:
    """Evaluate the ensemble and certify it against its closed form: the
    stored difference is the largest gap between the report and ``closed`` in
    both gains, the redundancy and the extractable information, or among the
    further absolute differences ``crosschecks``."""
    report = evaluate_icp(ensemble, assignment)
    diff = max(
        abs(closed["I(X:A)"] - report.gains[0]),
        abs(closed["I(Z:B)"] - report.gains[1]),
        abs(closed["redundancy"] - report.redundancy),
        abs(closed["extractable"] - report.extractable),
        *crosschecks,
    )
    return ViolationCertificate(ensemble, assignment, report, closed, diff)


def _two_bit_corners(entry: CatalogEntry, state) -> ViolationCertificate:
    """Register values (a, b) sent as ``state(a, b)``, which X and Z read out
    exactly: two bits where log2 d = 1."""
    ensemble = _uniform_four(entry, {(a, b): state(a, b) for a in (0, 1) for b in (0, 1)})
    closed = {"I(X:A)": 1.0, "I(Z:B)": 1.0, "redundancy": 0.0, "extractable": 2.0}
    return _certificate(ensemble, _two_register_assignment(entry), closed)


def sbit_violation() -> ViolationCertificate:
    """Square-model corners read out perfectly in X and Z at once."""
    return _two_bit_corners(sbit(), lambda a, b: sbit_state(1.0 - 2.0 * a, 1.0 - 2.0 * b))


def hbit_violation() -> ViolationCertificate:
    """Two classical bits coexist inside; either one is readable on demand."""
    return _two_bit_corners(hbit(), hbit_state)


def classical_bit_analysis() -> ICPReport:
    """Best equal-gain encoding of one classical bit read twice.

    Both gains reach 1 only by duplicating the registers, so the redundancy
    term eats the second bit and the extractable information stays at 1.
    """
    entry = classical_bit()
    assignment = _two_register_assignment(entry)
    config = OptimizerConfig(strategy="coordinate-descent", max_evals=8000)
    return maximize_extractable(entry.theory, assignment, config).report


def qubit_rac_construction() -> ViolationCertificate:
    """Two bits packed into one qubit, decoded by X or Z at will.

    Encoding states sit on the four X-Z bisectors, so either readout
    succeeds with probability (2+sqrt(2))/4. No violation: the total stays
    under one bit.
    """
    entry = qubit()
    s = 1.0 / math.sqrt(2.0)
    states = {
        (a, b): qubit_state_from_bloch((1.0 - 2.0 * a) * s, 0.0, (1.0 - 2.0 * b) * s)
        for a in (0, 1)
        for b in (0, 1)
    }
    ensemble = _uniform_four(entry, states)
    success = (2.0 + math.sqrt(2.0)) / 4.0
    gain = 1.0 - info.binary_entropy(success)
    closed = {
        "per_cell_success": success,
        "I(X:A)": gain,
        "I(Z:B)": gain,
        "redundancy": 0.0,
        "extractable": 2.0 * gain,
    }
    x_table = joint_outcome_table(ensemble, entry.theory.measurement("X"), 0)
    success_diff = abs(success - _conditional(x_table, 0, 0))
    return _certificate(ensemble, _two_register_assignment(entry), closed, success_diff)


# --- norm-constraint family ----------------------------------------------------

def _entropy_from_gap(gap: np.ndarray) -> np.ndarray:
    """H(m) for m = 1 - gap/2, accurate for gaps near 0."""
    gap = np.asarray(gap, dtype=float)
    out = np.zeros_like(gap)
    # a gap whose half underflows to 0 counts as 0: the 0 log 0 = 0 convention
    pos = (gap / 2.0 > 0.0) & (gap < 2.0)
    g = gap[pos]
    out[pos] = -(1.0 - g / 2.0) * np.log1p(-g / 2.0) / info.LN2 - (g / 2.0) * np.log2(g / 2.0)
    return out


@functools.lru_cache(maxsize=1)
def _pgnst_grid() -> tuple[np.ndarray, np.ndarray]:
    """The boundary grid u = 1 - s_x and H((1+s_x)/2) on it, read-only.

    u is log-spaced over 100 000 points from 1e-12 up to 1, and the corner
    u = 0 is appended exactly. The grid does not depend on p, so it is built
    once and shared by every p.
    """
    u = np.concatenate([np.logspace(-12.0, 0.0, 100_000), [0.0]])
    h_u = _entropy_from_gap(u)
    u.setflags(write=False)
    h_u.setflags(write=False)
    return u, h_u


def _boundary_entropy_sum(p: float, u: np.ndarray, h_u: np.ndarray) -> np.ndarray:
    """H((1+s_x)/2) + H((1+s_z)/2) on the curve s_x^p + s_z^p = 1, s_x = 1-u,
    given the first term ``h_u``."""
    with np.errstate(divide="ignore"):
        w = np.exp(p * np.log1p(-u))  # s_x^p
        v = -np.expm1(np.log1p(-w) / p)  # 1 - s_z
    return h_u + _entropy_from_gap(v)


# grid points per slice of ``pgnst_min_entropy_sum``: its temporaries stay
# small, and the elementwise ufuncs give the same bits as one pass
_GRID_CHUNK = 8192


def pgnst_min_entropy_sum(p: float) -> tuple[float, float]:
    """Minimize H(X)+H(Z) over boundary states; returns (s_x*, min value).

    Pure grid evaluation: the same grid serves every p, which keeps the
    minimum exactly monotone in p point by point. The value returned is the
    smallest grid value, so it is an upper bound on the true boundary minimum
    (up to float rounding).
    """
    # written so that NaN fails: every comparison with NaN is false
    if not p >= 2.0:
        raise ValueError(f"need p >= 2, got {p!r}")
    if math.isinf(p):
        return 1.0, 0.0
    u, h_u = _pgnst_grid()
    sums = np.empty_like(u)
    for start in range(0, len(u), _GRID_CHUNK):
        part = slice(start, start + _GRID_CHUNK)
        sums[part] = _boundary_entropy_sum(p, u[part], h_u[part])
    best = int(np.argmin(sums))
    return float(1.0 - u[best]), float(sums[best])


def pgnst_violation(p: float) -> ViolationCertificate:
    """Four sign-flipped copies of the sharpest boundary state.

    The state minimizing H(X)+H(Z) is reflected through both axes to give
    psi_{++}, psi_{+-}, psi_{-+}, psi_{--}; registers pick the sign pattern
    uniformly. Both reduced readouts are exactly unbiased, the registers are
    independent, and the extractable information is 2 minus the entropy
    minimum, which exceeds 1 whenever p > 2.
    """
    entry = pgnst(p, 2)
    sx, h_min = pgnst_min_entropy_sum(p)
    if math.isinf(p):
        sz = 1.0
    elif sx >= 1.0:
        sz = 0.0
    elif sx <= 0.0:
        sz = 1.0
    else:
        w = math.exp(p * math.log1p(-(1.0 - sx)))  # s_x^p
        sz = math.exp(math.log1p(-w) / p) if w < 1.0 else 0.0
    states = {
        (a, b): norm_state(entry, [(1.0 - 2.0 * a) * sx, (1.0 - 2.0 * b) * sz])
        for a in (0, 1)
        for b in (0, 1)
    }
    ensemble = _uniform_four(entry, states)
    gain_x = 1.0 - float(_entropy_from_gap(np.array([1.0 - sx]))[0])
    gain_z = 1.0 - float(_entropy_from_gap(np.array([1.0 - sz]))[0])
    closed = {
        "s_x": sx,
        "s_z": sz,
        "entropy_min": h_min,
        "I(X:A)": gain_x,
        "I(Z:B)": gain_z,
        "redundancy": 0.0,
        "extractable": 2.0 - h_min,
    }
    return _certificate(ensemble, _two_register_assignment(entry), closed)


@dataclass(frozen=True)
class BoundCheckPoint:
    """One grid point s_x of ``pgnst_bound_check``: both sides of the inequality,
    lhs < rhs to hold."""

    s_x: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {"s_x": self.s_x, "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


@dataclass(frozen=True, eq=False)
class BoundCheckLedger:
    """``pgnst_bound_check``'s points near s_x = 1, whether rhs > lhs at every
    interior point, and whether rhs/lhs grows toward the corner."""

    p: float
    epsilon: float
    points: tuple[BoundCheckPoint, ...]
    holds_pointwise: bool
    ratio_monotone: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "epsilon": self.epsilon,
            "points": [pt.to_json() for pt in self.points],
            "holds_pointwise": self.holds_pointwise,
            "ratio_monotone": self.ratio_monotone,
        }


def pgnst_bound_check(
    p: float, epsilon: float, s_x_grid=None
) -> BoundCheckLedger:
    """Check ((1-s_x)/2)^(1+eps) < (1/4)(1-s_x^p)^(2/p) on a window near s_x = 1.

    Requires (1+epsilon)p > 2, which makes the right side dominate as
    s_x -> 1; the ledger also records whether the rhs/lhs ratio grows
    monotonically toward the corner. At s_x = 1 both sides vanish, so the
    grid needs at least two interior points (s_x < 1) for either verdict to
    test anything.
    """
    # written so that NaN fails: every comparison with NaN is false
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not (1.0 + epsilon) * p > 2.0:
        raise ValueError(f"need (1+epsilon)*p > 2, got p={p!r}, epsilon={epsilon!r}")
    if s_x_grid is None:
        u = np.logspace(-8, -2, 200)[::-1]  # ascending s_x
        s_x_grid = 1.0 - u
    else:
        s_x_grid = np.asarray(s_x_grid, dtype=float)
        if not ((s_x_grid >= 0.0) & (s_x_grid <= 1.0)).all():
            raise ValueError("s_x values must lie in [0, 1]")
        u = 1.0 - s_x_grid
    interior = u > 0.0
    if np.count_nonzero(interior) < 2:
        raise ValueError("s_x grid needs at least two points below 1")
    with np.errstate(divide="ignore"):
        lhs = np.where(interior, (u / 2.0) ** (1.0 + epsilon), 0.0)
        one_minus_sxp = -np.expm1(p * np.log1p(-u))
        rhs = np.where(interior, 0.25 * one_minus_sxp ** (2.0 / p), 0.0)
    points = tuple(
        BoundCheckPoint(float(s), float(l), float(r))
        for s, l, r in zip(s_x_grid, lhs, rhs)
    )
    holds = bool(np.all(rhs[interior] > lhs[interior]))
    ratio = rhs[interior] / lhs[interior]
    order = np.argsort(s_x_grid[interior])
    ratio_monotone = bool(np.all(np.diff(ratio[order]) > 0.0))
    return BoundCheckLedger(float(p), float(epsilon), points, holds, ratio_monotone)


def rac_recovery_halfpower(p: float) -> float:
    """Recovery probability (1/2)^(1/p) for the two-bit code on one system."""
    if not p >= 2.0:
        raise ValueError(f"need p >= 2, got {p!r}")
    return 0.5 ** (1.0 / p)


def rac_recovery_optimized(p: float) -> float:
    """Best symmetric recovery (1+s)/2 with both mean values s, 2 s^p <= 1.

    Disagrees with rac_recovery_halfpower at finite p (0.854 vs 0.707 at
    p = 2, where it reproduces the qubit code's success rate); the two
    coincide in the p -> infinity corner, where both reach 1.
    """
    if not p >= 2.0:
        raise ValueError(f"need p >= 2, got {p!r}")
    return (1.0 + 0.5 ** (1.0 / p)) / 2.0


# --- polygon family -------------------------------------------------------------

def polygon_violation(n: int) -> ViolationCertificate:
    """Two-observable ensemble on the n-gon with a perfect X readout.

    Even n: the four states are w_2, w_1, w_{n/2+1}, w_{n/2+2}; X = E2 reads
    register A exactly and Z = E_{floor(n/4)+2} sees register B through a
    binary symmetric channel with success c = (1 + sin(2 pi floor(n/4) / n)
    tan(pi/n)) / 2.

    Odd n: A = 0 always sends w_1 while A = 1 splits into w_{h+1}, w_{h+2}
    (h = floor(n/2)); X = E1 stays exact and Z = E_{floor(n/4)+1} reads B
    through an asymmetric binary channel whose conditionals have closed
    forms in sec^2(pi/2n).

    n = 3 is the classical triangle: the same recipe lands exactly on the
    bound with nothing to spare, and the certificate reports no violation.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    entry = polygon(n)
    if n % 2 == 0:
        m = n // 4 + 2
        x_name = "E2"
        states = {
            (0, 0): polygon_vertex(n, 2),
            (0, 1): polygon_vertex(n, 1),
            (1, 0): polygon_vertex(n, n // 2 + 1),
            (1, 1): polygon_vertex(n, n // 2 + 2),
        }
        c = 0.5 * (1.0 + math.sin(2.0 * math.pi * (n // 4) / n) * math.tan(math.pi / n))
        cond_00, cond_11 = c, c
        gain_z = 1.0 - info.binary_entropy(c)
    else:
        m = n // 4 + 1
        h = n // 2
        x_name = "E1"
        states = {
            (0, 0): polygon_vertex(n, 1),
            (0, 1): polygon_vertex(n, 1),
            (1, 0): polygon_vertex(n, h + 1),
            (1, 1): polygon_vertex(n, h + 2),
        }
        sec2 = 1.0 / math.cos(math.pi / (2.0 * n)) ** 2
        cond_00 = 0.25 * sec2 * (
            2.0 * math.cos(math.pi / n)
            + math.cos(2.0 * math.pi * (m - 1) / n)
            + math.cos(2.0 * math.pi * (m - 1 - h) / n)
        )
        cond_11 = 0.25 * sec2 * (
            2.0
            - math.cos(2.0 * math.pi * (m - 1) / n)
            - math.cos(2.0 * math.pi * (m - 2 - h) / n)
        )
        # asymmetric channel, uniform input
        gain_z = info.binary_entropy((1.0 + cond_00 - cond_11) / 2.0) - 0.5 * (
            info.binary_entropy(cond_00) + info.binary_entropy(cond_11)
        )
    z_name = f"E{m}"
    ensemble = _uniform_four(entry, states)
    assignment = ObservableAssignment(
        ((entry.theory.measurement(x_name), 0), (entry.theory.measurement(z_name), 1))
    )
    closed = {
        "p(Z=0|B=0)": cond_00,
        "p(Z=1|B=1)": cond_11,
        "I(X:A)": 1.0,
        "I(Z:B)": gain_z,
        "redundancy": 0.0,
        "extractable": 1.0 + gain_z,
    }
    z_meas = entry.theory.measurement(z_name)
    z_table = joint_outcome_table(ensemble, z_meas, 1)
    direct_00 = 0.5 * (
        apply_effect(z_meas.effects[0], states[(0, 0)])
        + apply_effect(z_meas.effects[0], states[(1, 0)])
    )
    direct_11 = 0.5 * (
        apply_effect(z_meas.effects[1], states[(0, 1)])
        + apply_effect(z_meas.effects[1], states[(1, 1)])
    )
    return _certificate(
        ensemble,
        assignment,
        closed,
        abs(closed["p(Z=0|B=0)"] - direct_00),
        abs(closed["p(Z=1|B=1)"] - direct_11),
        abs(closed["p(Z=0|B=0)"] - _conditional(z_table, 0, 0)),
        abs(closed["p(Z=1|B=1)"] - _conditional(z_table, 1, 1)),
    )


@dataclass(frozen=True)
class MismatchRecord:
    """The n-gon's measurement dimension (jointly distinguishable states) against
    its information dimension (pairwise readable vertices)."""

    n: int
    measurement_dimension: int
    information_dimension: int
    mismatch: bool

    def to_json(self) -> dict:
        return asdict(self)


def polygon_mismatch(n: int) -> MismatchRecord:
    """Compare joint and pairwise perfect distinguishability on the n-gon.

    measurement_dimension counts states one measurement separates jointly
    (``observed_dimension``); information_dimension is the largest vertex set
    whose members are pairwise separated by some extreme two-outcome
    readout: the clique number of the readable-pair graph that the
    dimension search builds.
    """
    if not 3 <= n <= 20:
        raise ValueError(f"need 3 <= n <= 20, got {n}")
    theory = polygon(n).theory
    info_dim = _readable_clique_number(theory)
    meas_dim = observed_dimension(theory).d
    return MismatchRecord(n, meas_dim, info_dim, info_dim > meas_dim)


# --- composite cube systems -----------------------------------------------------

@dataclass(frozen=True)
class CompositeGbitRecord:
    """The super-strong code on n cube systems: its extractable bits against log2
    of the composite dimension bound."""

    n: int
    p_rec: float
    encoded_bits: int
    extractable: float
    bound: float
    violated: bool

    def to_json(self) -> dict:
        return asdict(self)


_MAX_CUBE_SYSTEMS = 646  # the most cube systems for which 3^n converts to a float


def composite_gbit_extractable(n: int) -> CompositeGbitRecord:
    """Super-strong code on n cube systems against the composite bound.

    3^n observable strings each recover their bit with probability
    p_rec = 1/2 + 1/(2 sqrt(2n+1)), giving 3^n (1 - H(p_rec)) extractable
    bits, while the composite dimension bound caps the content at
    log2(4^n) = 2n. The gain term grows like (3/2)^n / n, so it overtakes
    the bound at a finite n.
    """
    if not 1 <= n <= _MAX_CUBE_SYSTEMS:
        raise ValueError(f"need 1 <= n <= {_MAX_CUBE_SYSTEMS}, got {n} (3^n would overflow a float)")
    p_rec = 0.5 + 0.5 / math.sqrt(2.0 * n + 1.0)
    encoded = 3**n
    extractable = encoded * (1.0 - info.binary_entropy(p_rec))
    bound = math.log2(composite_dimension_bound([3] * n))
    return CompositeGbitRecord(
        n, p_rec, encoded, extractable, bound, extractable > bound + VIOLATION_TOL
    )


def minimal_violating_gbits(limit: int = 16) -> int:
    """Smallest cube-system count whose composite code breaks the bound."""
    for n in range(1, limit + 1):
        if composite_gbit_extractable(n).violated:
            return n
    raise RuntimeError(f"no violation up to {limit} systems")
