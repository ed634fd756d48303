from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circ2crn import numerics
from circ2crn.errors import NonFiniteState, SingularMatrix
from circ2crn.numerics import (
    REL_PIVOT_TOL,
    as_matrix,
    as_vector,
    expm,
    failed_pivot,
    invert,
    propagate,
)


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


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestExpm:
    """The Pade-13 scaling-and-squaring exponential against closed forms."""

    @pytest.mark.parametrize("omega", [0.7, 3.0, 40.0])
    def test_rotation(self, omega):
        c, s = np.cos(omega), np.sin(omega)
        got = expm([[0.0, omega], [-omega, 0.0]])
        assert _rel_err(got, [[c, s], [-s, c]]) <= 1e-13

    def test_diagonal(self):
        d = np.array([-30.0, -3.0, 0.0, 0.5, 2.0])
        assert _rel_err(expm(np.diag(d)), np.diag(np.exp(d))) <= 1e-13

    @pytest.mark.parametrize("a", [0.3, 25.0])
    def test_nilpotent_jordan_block(self, a):
        j = a * np.eye(4, k=1)
        want = np.eye(4) + j + j @ j / 2.0 + j @ j @ j / 6.0
        assert _rel_err(expm(j), want) <= 1e-13

    @pytest.mark.parametrize("a, b, d", [(-1.0, 2.0, 0.5), (-20.0, 3.0, -0.1)])
    def test_distinct_real_eigenvalues(self, a, b, d):
        ea, ed = np.exp(a), np.exp(d)
        want = [[ea, b * (ea - ed) / (a - d)], [0.0, ed]]
        assert _rel_err(expm([[a, b], [0.0, d]]), want) <= 1e-13

    def test_times_its_negation_is_identity(self):
        rng = np.random.default_rng(5)
        for size in (1, 3, 8):
            m = rng.normal(size=(size, size))
            assert np.max(np.abs(expm(m) @ expm(-m) - np.eye(size))) <= 1e-13

    def test_agrees_with_taylor_series_at_small_norm(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6))
        m *= 0.09 / np.linalg.norm(m, 2)
        term, want = np.eye(6), np.eye(6)
        for k in range(1, 40):
            term = term @ m / k
            want = want + term
        assert _rel_err(expm(m), want) <= 1e-15

    def test_empty_and_zero(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        # a zero row, such as a DC source's, stays exactly constant
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def _binary_powers(phi, y0, steps):
    """Phi^k y0 for k = 1..steps, each from the squares Phi^(2^i) that
    np.linalg.matrix_power multiplies for k, applied to y0 one at a time."""
    squares = [phi]
    while 2 ** len(squares) <= steps:
        squares.append(squares[-1] @ squares[-1])
    rows = []
    for k in range(1, steps + 1):
        y = y0
        for i, square in enumerate(squares):
            if k >> i & 1:
                y = square @ y
        rows.append(y)
    return np.array(rows)


class TestPropagate:
    def test_hundred_steps_equal_the_powers(self):
        # a 40 x 40 table holds 40 powers: one block of 100 rows, filled by
        # three products of 40, 40 and 20 rows
        rng = np.random.default_rng(11)
        m = rng.normal(size=(40, 40)) - 6.0 * np.eye(40)
        phi, y0 = expm(0.01 * m), rng.normal(size=40)
        blocks = [block for [block] in propagate([phi], y0, 100, 0.01)]
        assert [len(b) for b in blocks] == [100]
        rows = np.concatenate(blocks)
        for k in (1, 2, 39, 40, 41, 80, 81, 99, 100):
            want = np.linalg.matrix_power(phi, k) @ y0
            assert _rel_err(rows[k - 1], want) <= 1e-13

    @pytest.mark.parametrize("width", [1, 5, 40, 125])
    def test_blocks_of_fixed_length_hold_the_powers(self, width):
        # blocks of 512 rows times the most periods within 2^16 values, at
        # least one, then the rest; the tables hold min(512, 65536 // width^2)
        # powers, restarted every 512 rows whatever the block length
        period = numerics._BLOCK_ROWS
        per = {1: 65536, 5: 12800, 40: 1536, 125: 512}[width]
        rng = np.random.default_rng(width)
        m = rng.normal(size=(width, width)) / np.sqrt(width) - np.eye(width)
        phi, y0 = expm(0.1 * m), rng.normal(size=width)
        longest = 2 * period + 1
        want = _binary_powers(phi, y0, longest)
        for k in (1, period - 1, period, longest):
            assert _rel_err(want[k - 1], np.linalg.matrix_power(phi, k) @ y0) <= 1e-13
        for steps in (0, 1, period - 1, period, period + 1, longest,
                      per - 1, per, per + 1, 2 * per + 1):
            blocks = [block.copy() for [block] in propagate([phi], y0, steps, 0.1)]
            full, rest = divmod(steps, per)
            assert [len(b) for b in blocks] == [per] * full + [rest] * (rest > 0)
            # the first 2 * 512 + 1 rows, across the anchors at rows 513 and 1025
            for got, row in zip(chain.from_iterable(blocks), want):
                assert _rel_err(got, row) <= 1e-13

    def test_block_length_moves_no_bit(self, monkeypatch):
        # a 12 x 12 table holds 455 powers, which do not divide the 512 rows
        # between anchors; 3 blocks of 5 120 rows and a ragged end, against
        # 30 blocks of 512 and the same end
        rng = np.random.default_rng(12)
        m = rng.normal(size=(12, 12)) / np.sqrt(12) - np.eye(12)
        phi, y0 = expm(0.1 * m), rng.normal(size=12)
        steps = 3 * 5120 + 77
        rows = []
        for entries in (numerics._BLOCK_ENTRIES, 0):
            monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
            blocks = [block.copy() for [block] in propagate([phi], y0, steps, 0.1)]
            rows.append(np.concatenate(blocks))
            assert len(blocks) == (4 if entries else 31)
        assert np.array_equal(*rows)

    def test_no_steps_no_rows(self):
        assert list(propagate([np.eye(2)], np.ones(2), 0, 0.1)) == []

    def test_first_non_finite_row_raises_with_its_time(self):
        rows = []
        with pytest.raises(NonFiniteState) as exc_info:
            for [block] in propagate([np.array([[1e200]])], np.array([1.0]), 5, 0.5):
                rows.extend(block.tolist())
        assert exc_info.value.time == 1.0
        assert rows == [[1e200]]

    def test_rows_before_a_blowup_inside_a_block_are_yielded(self):
        # the rows 2^(k - 1074) are exact and finite up to k = 2097, which
        # lies inside a block after the first
        rows = []
        with pytest.raises(NonFiniteState) as exc_info:
            for [block] in propagate([np.array([[2.0]])], np.array([2.0**-1074]), 3000, 0.5):
                rows.extend(block[:, 0].tolist())
        assert exc_info.value.time == 2098 * 0.5
        assert rows == [2.0 ** (k - 1074) for k in range(1, 2098)]

    @pytest.mark.parametrize("phis", [
        [np.ones((2, 3))],  # a block that is not square
        [np.eye(2), np.ones(3)],  # a vector among the blocks
        np.eye(2),  # one matrix where its list is due: its rows are not blocks
        [],  # no block: nothing would fill the rows
    ], ids=["not_square", "vector", "bare_matrix", "no_block"])
    def test_blocks_that_are_not_square_matrices_are_refused(self, phis):
        with pytest.raises(ValueError, match="square diagonal blocks"):
            list(propagate(phis, np.ones(2), 3, 0.1))

    @pytest.mark.parametrize("rates, bad", [
        ((2.0, 0.5), 2098),  # the first block overflows, the second is finite
        ((0.5, 2.0), 2098),  # the second overflows
        ((2.0, 4.0), 1049),  # both overflow: 4^k 2^-1074 = 2^(2k - 1074) first at k = 1049
    ], ids=["first", "second", "both"])
    def test_the_earliest_blowup_of_any_block_is_raised(self, rates, bad):
        # each scalar block steps 2^-1074 by its rate, beside a finite 7 x 7 block
        rng = np.random.default_rng(3)
        finite = expm(0.01 * (rng.normal(size=(7, 7)) - 4.0 * np.eye(7)))
        x0 = rng.normal(size=7)
        phis = [np.array([[rates[0]]]), finite, np.array([[rates[1]]])]
        y0 = np.concatenate([[2.0**-1074], x0, [2.0**-1074]])
        got = []
        with pytest.raises(NonFiniteState) as exc_info:
            for parts in propagate(phis, y0, 3000, 0.5):
                got.append([part.copy() for part in parts])
        assert exc_info.value.time == bad * 0.5
        # the rows before it, in every diagonal block's own array
        first, middle, last = (np.concatenate(rows) for rows in zip(*got))
        for rows in (first, middle, last):
            assert len(rows) == bad - 1 and np.isfinite(rows).all()
        alone = np.concatenate([block.copy() for [block] in propagate([finite], x0, bad - 1, 0.5)])
        assert np.array_equal(middle, alone)


@st.composite
def diagonal_blocks(draw):
    """1 to 3 square blocks of sizes 1 to 12, each scaled to a spectral
    radius of at most 1, and a state that stacks them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phis = []
    for size in draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)):
        m = rng.normal(size=(size, size))
        radius = np.max(np.abs(np.linalg.eigvals(m)))
        phis.append(m * (draw(st.floats(0.0, 1.0)) / radius if radius > 0.0 else 1.0))
    return phis, rng.normal(size=sum(len(phi) for phi in phis))


@settings(max_examples=60, deadline=None)
@given(diagonal_blocks(), st.integers(0, 2000))
def test_each_block_of_a_joint_stream_is_its_own_propagation(blocks, steps):
    phis, y0 = blocks
    # a block is valid until the next one is requested: keep copies
    joint = [[part.copy() for part in parts] for parts in propagate(phis, y0, steps, 0.1)]
    period = numerics._BLOCK_ROWS
    per = max(1, numerics._BLOCK_ENTRIES // len(y0) // period) * period
    full, rest = divmod(steps, per)
    lengths = [per] * full + [rest] * (rest > 0)
    # one C-contiguous array per diagonal block, as wide as that block
    assert [[part.shape for part in parts] for parts in joint] == [
        [(n, len(phi)) for phi in phis] for n in lengths]
    assert all(part.flags.c_contiguous for parts in joint for part in parts)
    lo = 0
    for i, phi in enumerate(phis):
        hi = lo + len(phi)
        empty = [np.empty((0, len(phi)))]
        alone = empty + [block.copy() for [block] in propagate([phi], y0[lo:hi], steps, 0.1)]
        own = empty + [parts[i] for parts in joint]
        assert np.array_equal(np.concatenate(own), np.concatenate(alone))
        lo = hi
