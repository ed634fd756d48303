import numpy as np
import pytest

from circ2crn.errors import SingularMatrix
from circ2crn.numerics import REL_PIVOT_TOL, as_matrix, as_vector, failed_pivot, invert


def _residual(m, y, rhs) -> float:
    return float(np.max(np.abs(np.asarray(m) @ y - rhs)))


class TestSolveLinear:
    """Solving M y = rhs as invert(M) @ rhs, the way every caller does."""

    def test_identity(self):
        y = invert(np.eye(3)) @ [1.0, 2.0, 3.0]
        assert np.array_equal(y, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        y = invert([[2.0, 0.0], [0.0, 4.0]]) @ [2.0, 8.0]
        assert np.array_equal(y, [1.0, 2.0])

    def test_general_verified_by_substitution(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        rhs = np.array([3.0, 1.0])
        y = invert(m) @ rhs
        assert np.allclose(y, [2.0, 1.0], atol=1e-12)
        assert _residual(m, y, rhs) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert([[1.0, 1.0], [1.0, 1.0]])

    def test_zero_column_raises(self):
        with pytest.raises(SingularMatrix):
            invert([[0.0, 1.0], [0.0, 2.0]])

    def test_near_singular_below_threshold_raises(self):
        # second pivot collapses to ~1e-16 of the column scale
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrix):
            invert(m)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            invert(np.ones((2, 3)))
        with pytest.raises(ValueError):
            invert([1.0, 2.0])


class TestInvert:
    def test_identity(self):
        assert np.array_equal(invert(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        out = invert([[2.0, 0.0], [0.0, 0.5]])
        assert np.allclose(out, [[0.5, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_shear_product_is_identity(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        inv = invert(m)
        assert np.allclose(inv, [[1.0, -1.0], [0.0, 1.0]], atol=1e-15)
        assert np.max(np.abs(m @ inv - np.eye(2))) <= 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert(np.zeros((2, 2)))


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_vector([np.inf])

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_vector([[1.0]])


class TestFailedPivot:
    def test_identity_passes(self):
        assert failed_pivot(np.eye(3)) is None

    def test_exactly_singular_reports_column(self):
        # QR leaves a rounding residue of ~5e-17 where elimination left 0
        col, value = failed_pivot([[1.0, 1.0], [1.0, 1.0]])
        assert col == 1
        assert value <= REL_PIVOT_TOL * np.linalg.norm([1.0, 1.0])

    def test_verdict_invariant_under_column_scaling(self):
        # pivot 1e-13 against column scale 1 fails the 1e-12 rule
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        good = np.array([[1.0, 2.0], [3.0, 4.0]])
        for scale in (1e-8, 1.0, 1e8):
            cols = np.array([1.0, scale])
            assert failed_pivot(near * cols)[0] == 1
            assert failed_pivot(good * cols) is None

    def test_well_conditioned_with_tiny_det_ratio_passes(self):
        # 1-D Laplacian, n = 40: det / prod(column max) = 41 / 2^40 < 1e-10,
        # yet every pivot stays above 1 and cond is only ~700
        n = 40
        m = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        assert np.linalg.det(m) / 2.0**n < 1e-10
        assert failed_pivot(m) is None

    def test_inverse_matches_lapack(self):
        m = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.0], [0.5, 0.0, 2.0]])
        assert np.array_equal(invert(m), np.linalg.inv(m))


def _random_well_conditioned(rng, size):
    while True:
        m = rng.standard_normal((size, size))
        if np.linalg.cond(m) < 1e6:
            return m


def test_random_matrix_properties():
    """200 seeded well-conditioned systems: solve, invert, and round trips."""
    rng = np.random.default_rng(20260810)
    for trial in range(200):
        size = int(rng.integers(1, 13))
        m = _random_well_conditioned(rng, size)
        rhs = rng.standard_normal(size)
        inv = invert(m)
        y = inv @ rhs
        rhs_norm = max(np.max(np.abs(rhs)), 1e-300)
        assert _residual(m, y, rhs) <= 1e-8 * rhs_norm

        assert np.max(np.abs(invert(inv) - m)) <= 1e-7 * max(1.0, np.max(np.abs(m)))

        x = rng.standard_normal(size)
        back = inv @ (m @ x)
        assert np.max(np.abs(back - x)) <= 1e-8 * max(1.0, np.max(np.abs(x)))


def _lu_failed_pivot(m) -> tuple[int, float] | None:
    """The elimination rule the QR rank test replaced, kept as a reference.

    LU with partial pivoting, stopping at the first pivot
    |U_kk| <= REL_PIVOT_TOL * (largest initial magnitude in column k).
    """
    a = np.array(m, dtype=float)
    col_scale = np.max(np.abs(a), axis=0, initial=0.0)
    for k in range(a.shape[0]):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = abs(a[p, k])
        if pivot <= REL_PIVOT_TOL * col_scale[k]:
            return k, float(pivot)
        a[[k, p]] = a[[p, k]]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k + 1 :])
    return None


def _column_scalings(rng, size):
    """Unit scales, then per-column scales drawn log-uniformly in [1e-8, 1e8]."""
    yield np.ones(size)
    for _ in range(3):
        yield 10.0 ** rng.uniform(-8.0, 8.0, size)


def _dependent_column(rng, size):
    """An integer matrix whose column j >= 1 is an exact integer combination
    of the columns before it; the other columns are well conditioned."""
    while True:
        rest = rng.integers(-9, 10, (size, size - 1)).astype(float)
        if np.linalg.cond(rest) < 1e6:
            break
    j = int(rng.integers(1, size))
    coef = rng.integers(-3, 4, j).astype(float)
    coef[rng.integers(0, j)] = rng.choice([-2.0, -1.0, 1.0, 2.0])
    return np.insert(rest, j, rest[:, :j] @ coef, axis=1), j


class TestFailedPivotAgainstElimination:
    """The QR rank test and the elimination rule agree on verdict and column."""

    def test_well_conditioned_pass_both(self):
        rng = np.random.default_rng(20261019)
        for _ in range(60):
            size = int(rng.integers(1, 41))
            m = _random_well_conditioned(rng, size)
            for scale in _column_scalings(rng, size):
                assert failed_pivot(m * scale) is None
                assert _lu_failed_pivot(m * scale) is None

    def test_dependent_column_fails_both_at_it(self):
        rng = np.random.default_rng(18120330)
        for _ in range(60):
            size = int(rng.integers(2, 41))
            m, j = _dependent_column(rng, size)
            for scale in _column_scalings(rng, size):
                qr, lu = failed_pivot(m * scale), _lu_failed_pivot(m * scale)
                assert qr is not None and lu is not None
                assert qr[0] == lu[0] == j
