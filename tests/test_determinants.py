import math
import warnings

import numpy as np
import pytest

from detratio.determinants import (confluent_vandermonde_logpolar, lu_det,
                                   scaled_lu_det)


def test_lu_det_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 7):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        det, cond = lu_det(a)
        assert det == pytest.approx(np.linalg.det(a), rel=1e-11)
        assert cond >= 1.0


def test_empty_det_is_one():
    assert lu_det(np.zeros((0, 0))) == (1.0 + 0j, 1.0)
    assert scaled_lu_det(np.zeros((0, 0))) == (1.0 + 0j, 0, 1.0)


def test_subnormal_rows_are_lifted_by_a_power_of_two():
    # the first row's max modulus is subnormal; the scaling is exact, so
    # the determinant keeps the digits the subnormal entries carry
    a = np.array([[3e-320j, 1e-321], [1.5, 2.0 - 1j]])
    lifted = a * np.array([[2.0 ** 1000], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mant, exponent, _ = scaled_lu_det(a)
    ref, ref_exponent, _ = scaled_lu_det(lifted)
    assert mant == pytest.approx(ref, rel=1e-15)
    assert exponent == ref_exponent - 1000


def test_scaled_det_reassembles():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) * np.logspace(0, 12, 5)[:, None]
    mant, exponent, _ = scaled_lu_det(a)
    assert mant * 2.0 ** exponent == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_rows_are_scaled_by_powers_of_two():
    # every row's largest modulus lands in [0.5, 1), so a 1x1 mantissa is
    # the entry with its exponent taken out, bit for bit
    for x in (3.0 - 4j, 5e-324, -1e300j, 0.75):
        mant, exponent, cond = scaled_lu_det(np.array([[x]]))
        assert 0.5 <= abs(mant) < 1.0 and cond == 1.0
        assert complex(math.ldexp(mant.real, exponent),
                       math.ldexp(mant.imag, exponent)) == x


def test_singular_row_gives_zero():
    a = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
    mant, _, cond = scaled_lu_det(a)
    assert mant == 0
    assert cond == float("inf")


def direct_vandermonde(xs):
    """prod_{i>j} (x_i - x_j), written out term by term."""
    out = 1.0 + 0j
    for i in range(len(xs)):
        for j in range(i):
            out *= xs[i] - xs[j]
    return out


def test_vandermonde_conventions():
    # empty and singleton products are 1
    assert confluent_vandermonde_logpolar([], ()) == (0.0, 0.0)
    assert confluent_vandermonde_logpolar([3.7], (1,)) == (0.0, 0.0)
    # prod_{i>j}(x_i - x_j) = 3 - 1
    assert confluent_vandermonde_logpolar([1.0, 3.0], (1, 1)) == (math.log(2.0), 0.0)
    xs = [0.5, 1.5 + 1j, -2.0]
    log_mod, phase = confluent_vandermonde_logpolar(xs, (1, 1, 1))
    assert np.exp(log_mod + 1j * phase) == pytest.approx(direct_vandermonde(xs),
                                                        rel=1e-13)


def test_confluent_vandermonde_reduces_to_plain():
    xs = [0.5, 1.5 + 1j, -2.0]
    log_mod, phase = confluent_vandermonde_logpolar(xs, (1, 1, 1))
    direct = direct_vandermonde(xs)
    assert log_mod == pytest.approx(math.log(abs(direct)), rel=1e-13)
    assert np.exp(1j * phase) == pytest.approx(direct / abs(direct), rel=1e-13)
    # multiplicity powers
    log_mod, _ = confluent_vandermonde_logpolar([0.0, 2.0], (2, 3))
    assert log_mod == pytest.approx(6 * np.log(2.0))


def test_vandermonde_phase_underflows_to_zero():
    # the difference 2 + 5e-324j has a phase below the smallest double;
    # cmath.phase raises OverflowError there, atan2 returns 0
    assert confluent_vandermonde_logpolar([0j, 2 + 5e-324j], (1, 1)) == (
        math.log(2.0), 0.0)


def _scipy_lu_det(a):
    """Determinant and pivot ratio from LAPACK's getrf, the reference."""
    lu_factor = pytest.importorskip("scipy.linalg").lu_factor
    lu, piv = lu_factor(a)
    sign = (-1) ** np.count_nonzero(piv != np.arange(len(piv)))
    diag = np.abs(lu.diagonal())
    return sign * np.prod(lu.diagonal()), diag.max() / diag.min()


def test_lu_det_follows_lapack_pivots():
    # the |re| + |im| pivot rule reproduces getrf's pivot sequence, so U's
    # diagonal, and with it the conditioning, agree to rounding
    rng = np.random.default_rng(7)
    for n in range(2, 10):
        for _ in range(20):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            det, cond = lu_det(a)
            ref_det, ref_cond = _scipy_lu_det(a)
            assert abs(det - ref_det) <= 1e-13 * abs(ref_det)
            assert cond == pytest.approx(ref_cond, rel=1e-13)


@pytest.mark.parametrize("a", [
    [[0]],                                    # zero 1x1, no shortcut
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],       # zero first column
    [[1, 2j, 3], [2, 4j, 6], [-1, -2j, -3]],  # rank 1
    [[1, 2, 3], [2, 4, 5], [1, 2, 7]],        # zero second pivot
], ids=["zero-1x1", "zero-column", "rank-1", "zero-second-pivot"])
def test_exactly_singular_matrix_gives_zero_and_infinite_conditioning(a):
    assert lu_det(np.array(a, dtype=complex)) == (0j, math.inf)
    assert scaled_lu_det(np.array(a, dtype=complex))[::2] == (0j, math.inf)


def test_row_swap_flips_the_sign():
    assert lu_det(np.array([[0, 1], [1, 0]], dtype=complex)) == (-1 + 0j, 1.0)
