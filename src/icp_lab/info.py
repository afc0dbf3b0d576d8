"""Shannon and von Neumann entropy calculus on finite tables.

All entropies are in bits (base-2 logarithms). Joint distributions are dense
numpy arrays with one axis per register; mutual information and its
multivariate generalization are computed directly from marginal entropies.
The random-draw primitives live here too: this numpy-only module is the one
that ``gpt``, ``engine``, ``proofs``, ``sampling``, ``axioms`` and ``sweep``
all import at the top.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

# every tolerance of the package, in one table
PROB_TOL = 1e-12  # a table's entries and sum as a probability distribution
VIOLATION_TOL = 1e-9  # how far extractable information must exceed log2 d to count
MEMBERSHIP_TOL = 1e-9  # state membership, and snapping effect values to 0 and 1
DISTINGUISH_TOL = 1e-9  # perfect distinguishability in the dimension search
UNIT_TOL = 1e-9  # effects summing to the unit; outcomes, and per entry a distribution, to 1
AXIOM_TOL = 1e-9  # an entropy inequality's allowed violation
IDENTITY_TOL = 1e-12  # an entropy identity's allowed error
LN2 = math.log(2.0)


def _ordered_sum(values) -> float:
    """0 + v_0 + v_1 + ..., added left to right: the built-in ``sum`` of
    floats up to Python 3.11, bit for bit (the int 0 when ``values`` is
    empty). From 3.12 that ``sum`` compensates its rounding, so a reported
    sum would depend on the Python version."""
    return functools.reduce(operator.add, values, 0)


def _as_prob_array(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        raise ValueError("empty distribution")
    # min and sum without ndarray's wrappers; NaN fails: every comparison with NaN is false
    lo = np.minimum.reduce(arr, None)
    if not lo >= -PROB_TOL:
        raise ValueError(f"negative or NaN probability: min entry {float(lo)!r}")
    total = float(np.add.reduce(arr, None))
    if not abs(total - 1.0) <= max(PROB_TOL, UNIT_TOL * arr.size):
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return arr


@dataclass(frozen=True)
class Validation:
    """A check's verdict and its detail; true when it passed."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _fails(values: np.ndarray, lo: float | None, hi: float | None) -> np.ndarray:
    """True where a value lies outside [lo, hi] (None: no bound) or is NaN."""
    ok = True
    if lo is not None:
        ok = values >= lo
    if hi is not None:
        ok = ok & (values <= hi)
    return ~ok


def _first_failure(
    checks: Sequence[tuple[np.ndarray, float | None, float | None, Callable[[int], str]]], passed: str
) -> tuple[int, Validation]:
    """First failing row of per-row checks, given in the order a row is tested.

    Each check is an array of values, one row per state (a row may hold
    several values), the bounds ``lo`` and ``hi`` every value must meet
    (None: no bound) and the detail message of a failing row. A NaN value
    fails. The whole stack is tested first, one minimum or maximum per bound;
    only a stack that fails is scanned row by row.
    """
    for values, lo, hi, _ in checks:
        # written so that NaN fails: every comparison with NaN is false
        if values.size and not (
            (lo is None or np.minimum.reduce(values, None) >= lo)
            and (hi is None or np.maximum.reduce(values, None) <= hi)
        ):
            break
    else:
        return -1, Validation(True, passed)
    failing = [_fails(values, lo, hi).reshape(len(values), -1).any(axis=1) for values, lo, hi, _ in checks]
    i = int(np.logical_or.reduce(failing).argmax())
    return i, Validation(False, next(check[-1](i) for row, check in zip(failing, checks) if row[i]))


def _finite(values: np.ndarray) -> tuple:
    """Every state check's first condition, in ``_first_failure`` form: finite
    entries, without which the later details would mean nothing."""
    return (np.isfinite(values), True, None, lambda i: "state coordinate is not finite")


def _density_check(m: np.ndarray) -> tuple[int, Validation, np.ndarray]:
    """The one quantum-state check, on a stack (n, d, d) of complex matrices:
    finite entries, Hermitian, unit trace, least eigenvalue >= -MEMBERSHIP_TOL,
    in that order and each to ``MEMBERSHIP_TOL``. Returns ``_first_failure``'s
    row and verdict, and the spectra (n, d). A NaN or infinite entry makes
    its Hermitian deviation NaN or infinite, so a stack that passes the
    Hermitian test is finite and needs no finite test. In a stack that fails,
    non-finite entries are set to 0 so that eigvalsh sees finite input only;
    their rows fail the first test.
    """
    tol = MEMBERSHIP_TOL
    # inf - inf is NaN, which fails the test below; numpy's warning is silenced
    with np.errstate(invalid="ignore"):
        hermitian = np.abs(m - m.conj().transpose(0, 2, 1))
    if np.maximum.reduce(hermitian, None, initial=0.0) <= tol:
        checks = []
    else:
        finite = _finite(m)
        m = np.where(finite[0], m, 0.0)
        hermitian = np.abs(m - m.conj().transpose(0, 2, 1))
        checks = [finite, (hermitian, None, tol, lambda i: "density matrix is not Hermitian")]
    trace = np.trace(m, axis1=1, axis2=2).real
    eigs = np.linalg.eigvalsh(m)
    i, verdict = _first_failure(
        [
            *checks,
            (np.abs(trace - 1.0), None, tol, lambda i: f"trace is {float(trace[i])!r}"),
            (eigs, -tol, None, lambda i: f"negative eigenvalue {float(eigs[i].min())!r}"),
        ],
        f"least eigenvalue {float(np.minimum.reduce(eigs, None, initial=np.inf))!r}",
    )
    return i, verdict, eigs


def _is_distribution(p: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``_as_prob_array``'s tests on every table of a stack, each table
    spanning ``axes``: True where it passes both. NaN fails them."""
    total = p.sum(axis=axes)
    size = math.prod(p.shape[a] for a in axes)
    return (p.min(axis=axes) >= -PROB_TOL) & (np.abs(total - 1.0) <= max(PROB_TOL, UNIT_TOL * size))


def _plogp_bits(p: np.ndarray) -> float:
    """-sum p log2 p over an array of any shape: the one entropy kernel.

    The 0*log(0) = 0 convention holds, and tiny negatives from float noise
    count as zero mass. The entries are not checked to form a distribution.
    """
    q = p[p > 0.0]
    # the bits of (-q) . log2 q without negating q; 0.0 - keeps a one-hot table's +0.0
    return 0.0 - float(np.dot(q, np.log2(q)))


def _total_correlation(p: np.ndarray) -> float:
    """sum_i H(axis i) - H(all axes) of a bare joint array: I(X:A) on two
    axes, 0 on one."""
    if p.ndim <= 1:
        return 0.0
    if p.ndim == 2:
        # the general sum below, bit for bit, without its generator and the
        # ndarray.sum wrapper around the same reduce
        return _plogp_bits(np.add.reduce(p, 1)) + _plogp_bits(np.add.reduce(p, 0)) - _plogp_bits(p)
    axes = range(p.ndim)
    marginals = _ordered_sum(_plogp_bits(p.sum(axis=tuple(j for j in axes if j != i))) for i in axes)
    return marginals - _plogp_bits(p)


def _plogp_bits_rows(p: np.ndarray) -> np.ndarray:
    """``_plogp_bits`` of every table p[i] of a stack (n, ...), bit for bit.

    The tables whose entries are all positive take the scalar kernel's BLAS
    dot product, stacked; a table with an entry <= 0 or NaN goes through
    ``_plogp_bits`` on its own.
    """
    p = p.reshape(len(p), -1)
    positive = (p > 0.0).all(axis=1)
    out = np.empty(len(p))
    q = p[positive]
    out[positive] = ((-q)[:, None, :] @ np.log2(q)[:, :, None])[:, 0, 0]
    for i in np.flatnonzero(~positive):
        out[i] = _plogp_bits(p[i])
    return out


def _total_correlation_rows(p: np.ndarray) -> np.ndarray:
    """``_total_correlation`` of every table p[i] of a stack, bit for bit."""
    axes = range(1, p.ndim)
    marginals = sum(_plogp_bits_rows(p.sum(axis=tuple(j for j in axes if j != i))) for i in axes)
    return marginals - _plogp_bits_rows(p)


def _plogp_bits_stacked(p: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``_plogp_bits`` of every table in a stack, each spanning ``axes``; it
    agrees with the scalar kernel to a few ulps, not bit for bit."""
    positive = p > 0.0
    return -np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0).sum(axis=axes)


def _total_correlation_stacked(p: np.ndarray) -> np.ndarray:
    """I(X:A) of every two-axis table p[i] of a stack (n, k, a).

    One kernel call takes every table's row, column and joint entropies from
    a zero-padded (n, 3, k a) stack, which saves two calls' fixed cost on the
    ledger's small stacks (``grid_scores``' large chunks make three calls).
    Zeros add nothing to a sum, so on a C-contiguous stack it gives the bits
    of one call per entropy unless a marginal of 4 or more entries meets
    numpy's pairwise summation (k a >= 8). There, and on a strided stack,
    whose joint sum numpy orders by memory layout, the two agree to a few ulps.
    """
    n, k, a = p.shape
    parts = np.zeros((n, 3, k * a))
    np.add.reduce(p, 2, out=parts[:, 0, :k])
    np.add.reduce(p, 1, out=parts[:, 1, :a])
    parts[:, 2] = p.reshape(n, -1)
    h = _plogp_bits_stacked(parts, (2,))
    return h[:, 0] + h[:, 1] - h[:, 2]


def shannon_entropy(p) -> float:
    """H(p) = -sum p_i log2 p_i for a finite distribution."""
    return _plogp_bits(_as_prob_array(p))


def _binary_entropy_bits(x: np.ndarray) -> np.ndarray:
    """H(x) of every entry of an array in [0, 1]: the binary entropy kernel.

    It is 0 at the endpoints; the entries are not checked.
    """
    inner = (x > 0.0) & (x < 1.0)
    y = np.where(inner, x, 0.5)
    # log1p keeps the (1-x) term accurate near the endpoints
    return np.where(inner, -y * np.log2(y) - (1.0 - y) * np.log1p(-y) / LN2, 0.0)


def binary_entropy(x: float) -> float:
    """H(x) for a two-outcome distribution (x, 1-x); 0 at the endpoints."""
    # written so that NaN fails: every comparison with NaN is false
    if not -PROB_TOL <= x <= 1.0 + PROB_TOL:
        raise ValueError(f"binary_entropy argument {x!r} outside [0, 1]")
    return float(_binary_entropy_bits(np.asarray(x, dtype=float)))


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense joint distribution over named registers (one array axis each)."""

    register_names: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        arr = _as_prob_array(self.probs)
        if arr.ndim != len(self.register_names):
            raise ValueError("register count does not match table rank")
        if len(set(self.register_names)) != len(self.register_names):
            raise ValueError("duplicate register names")
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "register_names", tuple(self.register_names))

    def _axes(self, names: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.register_names.index(n) for n in names)
        except ValueError as exc:
            raise KeyError(f"unknown register in {names!r}") from exc

    def _summed(self, names: Sequence[str]) -> tuple[np.ndarray, tuple[int, ...]]:
        """The table summed over every register not named, and the kept axes."""
        keep = self._axes(names)
        if len(set(keep)) != len(keep):
            raise ValueError("repeated register in marginal request")
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        return (self.probs.sum(axis=drop) if drop else self.probs), keep

    def marginal(self, names: Sequence[str]) -> "JointTable":
        marg, keep = self._summed(names)
        # axis order follows the requested name order
        order = tuple(sorted(range(len(keep)), key=lambda i: keep[i]))
        inv = tuple(order.index(i) for i in range(len(keep)))
        return JointTable(tuple(names), np.transpose(marg, inv))

    def entropy(self, names: Sequence[str] | None = None) -> float:
        # axis order does not change an entropy, so no table is built
        return _plogp_bits(self.probs if names is None else self._summed(names)[0])


def mutual_information(table: JointTable, a: str, b: str) -> float:
    """I(A:B) = H(A) + H(B) - H(AB), marginalizing any other registers."""
    return table.entropy([a]) + table.entropy([b]) - table.entropy([a, b])


def multivariate_mutual_information(table: JointTable, names: Sequence[str] | None = None) -> float:
    """Total correlation sum_i H(A_i) - H(A_1...A_n); 0 for a single register."""
    names = tuple(names) if names is not None else table.register_names
    if len(names) <= 1:
        return 0.0
    return _ordered_sum(table.entropy([n]) for n in names) - table.entropy(names)


def _von_neumann_rows(m: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` of every matrix of a stack (..., d, d), bit for bit."""
    _, ok, spectra = _density_check(m.reshape(-1, *m.shape[-2:]))
    if not ok:
        raise ValueError(ok.detail)
    return _plogp_bits_rows(spectra).reshape(m.shape[:-2])


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian unit-trace positive-semidefinite matrix, with the spectrum
    its positivity check computes."""

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density operator must be square")
        _, ok, spectra = _density_check(m[None])
        if not ok:
            raise ValueError(ok.detail)
        spectrum = spectra[0]
        m = np.array(m)
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho via the eigenvalue spectrum."""
    op = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    return _plogp_bits(op.spectrum)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of stress-testing one entropy axiom on random instances."""

    axiom: str
    entropy_kind: str
    trials: int
    max_violation: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def _dirichlet_ones(rng: np.random.Generator, k: int, size: int | None = None) -> np.ndarray:
    """``rng.dirichlet(np.ones(k), size)``, bit for bit, without its per-call
    argument checks: unit-shape gammas are standard exponentials, and numpy
    normalises each row as ``_dirichlet_rows`` does."""
    return _dirichlet_rows(rng.standard_exponential((k,) if size is None else (size, k)))


def _dirichlet_rows(draws: np.ndarray) -> np.ndarray:
    """Standard exponential draws (..., k) normalised as numpy's Dirichlet
    normalises them: each row by its left-to-right sum and the reciprocal of
    that sum."""
    return draws * (1.0 / np.add.accumulate(draws, axis=-1)[..., -1:])


def _haar_from_gaussian(parts: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., d, d) from Gaussian parts (..., 2, d, d), the
    real part first, by QR with the phases of R's diagonal divided out
    (Mezzadri, Notices AMS 54, 592 (2007))."""
    q, r = np.linalg.qr(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
    # fix phases so the distribution is Haar rather than QR-convention-biased
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _density_draw_parts(rng: np.random.Generator, dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws of n random density matrices, state after state: each
    one's standard exponentials, then its Gaussian parts, into its rows of
    (n, dim) and (n, 2, dim, dim). The one draw of every random density
    matrix; ``_densities`` finishes them."""
    exponentials, parts = np.empty((n, dim)), np.empty((n, 2, dim, dim))
    for i in range(n):
        rng.standard_exponential(out=exponentials[i])
        rng.standard_normal(out=parts[i])
    return exponentials, parts


def _densities(exponentials: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The density matrices u diag(eigs) u^dagger (..., dim, dim) of raw
    draws (..., dim) and (..., 2, dim, dim): eigs Dirichlet, u Haar. Every
    step is row by row or matrix by matrix, so a stack of any leading shape
    is finished once with the bits of finishing each state alone."""
    eigs, u = _dirichlet_rows(exponentials), _haar_from_gaussian(parts)
    return (u * eigs[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)
