"""Entropy and mutual-information primitives."""
import math

import numpy as np
import pytest

from icp_lab import (
    DensityOperator,
    JointTable,
    binary_entropy,
    multivariate_mutual_information,
    mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from icp_lab.info import (
    LN2,
    _binary_entropy_bits,
    _density_check,
    _is_distribution,
    _ordered_sum,
    _plogp_bits,
    _plogp_bits_rows,
    _total_correlation,
    _total_correlation_rows,
)
from icp_lab.sampling import random_density_matrix


def test_ordered_sum_adds_left_to_right_on_every_python():
    # from Python 3.12 the built-in sum of floats compensates its rounding and reads 2.0 here
    assert _ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert repr(_ordered_sum([])) == repr(sum([])) == "0" and _ordered_sum(iter([0.5, 0.25])) == 0.75
    assert math.copysign(1.0, _ordered_sum([-0.0])) == 1.0  # 0 + -0.0 is 0.0, as the built-in sum gives
    rng = np.random.default_rng(3)
    triples = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-20, 20, (2000, 3))
    for a, b, c in triples.tolist():
        assert _ordered_sum([a, b, c]) == ((0.0 + a) + b) + c


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_binary_entropy_pinned_values():
    assert binary_entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-15)
    assert binary_entropy(0.650756) == pytest.approx(0.9333910704638491, abs=1e-15)
    # symmetry
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(float("nan"))


def _scalar_binary_entropy(x: float) -> float:
    """The per-point binary entropy the array kernel replaced."""
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log1p(-x) / LN2)


def test_binary_entropy_kernel_matches_the_scalar_form_bitwise():
    # the register-correlation grid and its readout probabilities on the
    # default 50-point sweep, and the endpoints
    qs = np.linspace(0.5, 1.0 - 1e-12, 513)
    grids = [qs, np.array([0.0, 1.0, 1e-300, 1.0 - 1e-16])]
    for t in np.linspace(0.0, math.pi / 2.0, 50):
        c, s = (1.0 + math.cos(t / 2.0)) / 2.0, (1.0 + math.sin(t / 2.0)) / 2.0
        grids.append(qs * c + (1.0 - qs) * s)
    for x in grids:
        expected = np.array([_scalar_binary_entropy(float(v)) for v in x])
        assert _binary_entropy_bits(x).tobytes() == expected.tobytes()
        assert np.array([binary_entropy(float(v)) for v in x]).tobytes() == expected.tobytes()


def test_shannon_entropy_basic():
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-15)
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0, abs=1e-12)


def test_shannon_entropy_rejects_non_distribution():
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, -0.1, 0.6])
    # NaN fails both tests, so it cannot pass as a distribution
    for p in ([math.nan, 0.5, 0.5], [math.nan, 1.0], [math.nan] * 2):
        with pytest.raises(ValueError):
            shannon_entropy(p)
    stack = np.array([[[0.5, 0.0], [0.0, 0.5]], [[math.nan, 0.5], [0.25, 0.25]], [[0.5, 0.5], [0.5, 0.5]]])
    assert _is_distribution(stack, (1, 2)).tolist() == [True, False, False]
    # the same tables with the stack axis last, as the optimizer's grid holds them
    assert _is_distribution(np.moveaxis(stack, 0, 2), (0, 1)).tolist() == [True, False, False]


def test_joint_table_marginals_and_entropy():
    p = np.array([[0.4, 0.1], [0.1, 0.4]])
    t = JointTable(("A", "B"), p)
    ma = t.marginal(["A"])
    assert np.allclose(ma.probs, [0.5, 0.5])
    assert t.entropy(["A"]) == pytest.approx(1.0, abs=1e-12)
    assert t.entropy() == pytest.approx(shannon_entropy(p.ravel()), abs=1e-15)


def test_joint_table_marginal_axis_order():
    p = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])
    t = JointTable(("A", "B"), p)
    swapped = t.marginal(["B", "A"])
    assert swapped.register_names == ("B", "A")
    assert np.allclose(swapped.probs, p.T)


def test_joint_table_validation():
    with pytest.raises(ValueError):
        JointTable(("A",), np.array([[0.5, 0.5]]))  # rank mismatch
    with pytest.raises(ValueError):
        JointTable(("A", "A"), np.full((2, 2), 0.25))


def test_mutual_information_pinned():
    t = JointTable(("X", "Y"), np.array([[0.4, 0.1], [0.1, 0.4]]))
    assert mutual_information(t, "X", "Y") == pytest.approx(
        0.27807190511263774, abs=1e-15
    )


def test_mutual_information_independent_is_zero():
    t = JointTable(("X", "Y"), np.outer([0.3, 0.7], [0.6, 0.4]))
    assert abs(mutual_information(t, "X", "Y")) < 1e-12


def test_mutual_information_perfect_copy():
    t = JointTable(("X", "Y"), np.diag([0.5, 0.5]))
    assert mutual_information(t, "X", "Y") == pytest.approx(1.0, abs=1e-12)


def test_multivariate_mi_copied_coin():
    # three perfect copies of a fair coin: sum H(single) - H(joint) = 3 - 1
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 1] = 0.5
    t = JointTable(("A", "B", "C"), p)
    assert multivariate_mutual_information(t) == pytest.approx(2.0, abs=1e-12)


def test_multivariate_mi_two_registers_reduces_to_mi():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(6)).reshape(2, 3)
    t = JointTable(("A", "B"), p)
    assert multivariate_mutual_information(t) == pytest.approx(
        mutual_information(t, "A", "B"), abs=1e-14
    )


def test_von_neumann_entropy_pure_and_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([0.8, 0.2])) == pytest.approx(
        0.7219280948873623, abs=1e-15
    )


def test_von_neumann_entropy_unitary_invariance():
    eigs = np.diag([0.8, 0.2]).astype(complex)
    theta = 0.7
    u = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    rotated = u @ eigs @ u.conj().T
    assert von_neumann_entropy(rotated) == pytest.approx(
        von_neumann_entropy(eigs), abs=1e-12
    )


def test_density_operator_validation():
    with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
        DensityOperator(np.array([[0.5, 0.1], [0.4, 0.5]]))
    with pytest.raises(ValueError, match=r"^trace is 1\.2$"):
        DensityOperator(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError, match=r"^negative eigenvalue -0\.5$"):
        DensityOperator(np.diag([1.5, -0.5]))
    ok = DensityOperator(np.eye(3) / 3)
    assert ok.dim == 3


@pytest.mark.parametrize(
    "matrix",
    [np.full((2, 2), np.nan), np.diag([np.nan, 0.5]), np.array([[0.5, np.nan], [np.nan, 0.5]])],
)
def test_von_neumann_entropy_rejects_nan(matrix):
    with pytest.raises(ValueError):
        von_neumann_entropy(matrix)


def test_density_check_checks_a_stack_like_one_matrix():
    rng = np.random.default_rng(8)
    stack = np.array([random_density_matrix(rng, 3) for _ in range(20)])
    index, ok, spectra = _density_check(stack)
    assert index == -1 and ok
    assert all(np.array_equal(s, DensityOperator(m).spectrum) for s, m in zip(spectra, stack))
    bad = stack.copy()
    bad[7] = np.diag([1.5, -0.5, 0.0])
    index, ok, _ = _density_check(bad)
    assert index == 7 and not ok and ok.detail.startswith("negative eigenvalue")


def _generic_total_correlation(p):
    """``_total_correlation``'s formula for any number of axes, as it reads
    for more than two."""
    axes = range(p.ndim)
    marginals = sum(_plogp_bits(p.sum(axis=tuple(j for j in axes if j != i))) for i in axes)
    return marginals - _plogp_bits(p)


def test_two_axis_total_correlation_equals_the_general_formula_bitwise():
    rng = np.random.default_rng(23)
    for k in range(2, 7):
        for a in range(2, 7):
            tables = rng.dirichlet(np.ones(k * a), size=60).reshape(60, k, a)
            tables[rng.random(tables.shape) < 0.3] = 0.0
            tables[::7, 0, 1] = -1e-17
            # one-hot tables: every entropy is a signed zero
            tables[1::9] = 0.0
            tables[1::9, 0, 0] = 1.0
            for p in tables:
                assert repr(_total_correlation(p)) == repr(_generic_total_correlation(p))
    for p in (np.zeros((2, 3)), np.full((3, 2), np.nan), np.ones((2, 2))):
        assert repr(_total_correlation(p)) == repr(_generic_total_correlation(p))


def test_plogp_bits_rows_equals_the_scalar_kernel_bitwise():
    rng = np.random.default_rng(21)
    rows = [rng.dirichlet(np.ones(k), size=300) for k in (2, 3, 5, 8, 16, 64)]
    # rows that take the one-at-a-time path: zeros, float-noise negatives, NaN
    mixed = rng.dirichlet(np.ones(4), size=40)
    mixed[::3, 1] = 0.0
    mixed[1::3, 2] = -1e-17
    mixed[5, 0] = np.nan
    for p in (*rows, mixed, np.zeros((3, 2))):
        expected = np.array([_plogp_bits(row) for row in p])
        assert _plogp_bits_rows(p).tobytes() == expected.tobytes()
    tables = rng.dirichlet(np.ones(12), size=50).reshape(50, 3, 4)
    expected = np.array([_total_correlation(t) for t in tables])
    assert _total_correlation_rows(tables).tobytes() == expected.tobytes()


def _negated_dot_plogp_bits(p):
    """The entropy kernel as it read with the negation inside the dot product."""
    q = p[p > 0.0]
    return float(-q @ np.log2(q))


def test_plogp_bits_gives_the_bits_of_the_negated_dot_product():
    rng = np.random.default_rng(29)
    # length 1 is a one-hot table: its entropy is a signed zero
    for n in range(1, 65):
        for p in rng.dirichlet(np.ones(n), size=20):
            assert repr(_plogp_bits(p)) == repr(_negated_dot_plogp_bits(p))
    tables = rng.dirichlet(np.ones(12), size=60).reshape(60, 3, 4)
    tables[::3, 0, 1] = 0.0
    tables[1::3, 2, 2] = -1e-17
    tables[5::11, 1, 0] = np.nan
    tables[2::7] = 0.0
    tables[2::7, 1, 3] = 1.0
    tables[4::9, 0] = [1.0, 0.0, 0.0, 0.0]
    for p in (*tables, np.zeros((2, 2)), np.ones((1, 1))):
        assert repr(_plogp_bits(p)) == repr(_negated_dot_plogp_bits(p))
    assert repr(_plogp_bits(np.eye(3)[1])) == "0.0"
