import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import detratio
from detratio.determinants import (confluent_vandermonde, lu_det, reassemble,
                                   scaled_lu_det, scaled_product)
from detratio.errors import NumericalError

EPS = 2.0 ** -52


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
    assert confluent_vandermonde([], ()) == (1.0 + 0j, 0)
    assert confluent_vandermonde([3.7], (1,)) == (1.0 + 0j, 0)
    # prod_{i>j}(x_i - x_j) = 3 - 1 = 0.5 * 2**2
    assert confluent_vandermonde([1.0, 3.0], (1, 1)) == (0.5 + 0j, 2)
    xs = [0.5, 1.5 + 1j, -2.0]
    mantissa, exponent = confluent_vandermonde(xs, (1, 1, 1))
    assert 0.5 <= abs(mantissa) < 1.0
    assert reassemble(mantissa, exponent, "vandermonde") == pytest.approx(
        direct_vandermonde(xs), rel=4 * EPS)


def test_confluent_vandermonde_reduces_to_plain():
    xs = [0.5, 1.5 + 1j, -2.0]
    assert reassemble(*confluent_vandermonde(xs, (1, 1, 1)), "vandermonde") == \
        pytest.approx(direct_vandermonde(xs), rel=4 * EPS)
    # multiplicity powers: each difference once per pair of repeats
    mantissa, exponent = confluent_vandermonde(xs, (1, 2, 3))
    d10, d20, d21 = xs[1] - xs[0], xs[2] - xs[0], xs[2] - xs[1]
    assert reassemble(mantissa, exponent, "vandermonde") == pytest.approx(
        d10 ** 2 * d20 ** 3 * d21 ** 6, rel=1e-14)
    assert confluent_vandermonde([0.0, 2.0], (2, 3)) == (0.5 + 0j, 7)


def test_vandermonde_difference_keeps_its_bits():
    # a lone difference is split by powers of two only, so it comes back
    # bit for bit, subnormal parts included; 2 + 5e-324j keeps its real
    # part, its imaginary part being 2^-1076 of its modulus, below the
    # last place of any mantissa in [0.5, 1)
    for x in (3 - 4j, 5e-324, 2 + 2.0 ** -50 * 1j, -1e300j, 3e-320 + 1e-321j):
        assert reassemble(*confluent_vandermonde([0j, x], (1, 1)), "difference") == x
    assert reassemble(*confluent_vandermonde([0j, 2 + 5e-324j], (1, 1)),
                      "difference") == 2


def test_scaled_product_keeps_a_product_past_the_double_range():
    # 400 factors of modulus 1e10: the plain product overflows, while the
    # mantissa and exponent carry the rounding of 400 multiplications
    mpmath = pytest.importorskip("mpmath")
    factors = [1e10 * complex(math.cos(0.37 * k), math.sin(0.37 * k)) for k in range(400)]
    assert not math.isfinite(abs(math.prod(factors)))
    mantissa, exponent = scaled_product(factors)
    assert 0.5 <= abs(mantissa) < 1.0
    with mpmath.workdps(40):
        exact = mpmath.fprod(mpmath.mpc(x) for x in factors)
        got = mpmath.mpc(mantissa) * mpmath.mpf(2) ** exponent
        assert float(abs(got - exact) / abs(exact)) <= 400 * 3 * EPS
    with pytest.raises(NumericalError):
        reassemble(mantissa, exponent, "the product")
    assert scaled_product([]) == (1.0 + 0j, 0)


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


def test_the_wide_range_format_has_one_owner():
    # mantissas and powers of two are split and joined in determinants.py
    # alone (frexp, ldexp, from math or numpy), and ratios.py assembles its
    # value in that format: a logarithm or exponential there, from math
    # or cmath, is a second format whose rounding grows with N
    found = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                module = getattr(getattr(func, "value", None), "id", None)
                if name in ("frexp", "ldexp") and path.name != "determinants.py":
                    found.append(f"{path.name}:{node.lineno}: {name}")
                if path.name == "ratios.py" and module in ("math", "cmath") \
                        and name.startswith(("exp", "log")):
                    found.append(f"{path.name}:{node.lineno}: {module}.{name}")
            elif isinstance(node, ast.ImportFrom) and path.name == "ratios.py" \
                    and node.module in ("math", "cmath"):
                found.append(f"{path.name}:{node.lineno}: from {node.module} import")
    assert not found
