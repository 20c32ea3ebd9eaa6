"""Dense complex determinants with conditioning diagnostics, and the one
format for numbers past the double range: a mantissa and a power of two.

Determinants are evaluated by LU factorization with partial pivoting,
written as plain Python elimination over complex scalars (numpy and the
standard library only).  The pivot of each column maximises |re| + |im|,
LAPACK's getf2 rule, so the pivot sequence is LAPACK's; the conditioning
indicator is the ratio of the largest to the smallest pivot magnitude,
and an exactly singular matrix gives det 0 and conditioning inf.
``scaled_lu_det`` is the one entry: it scales each row by a power of two
and returns the determinant as a mantissa and a binary exponent.
Products come in that form from ``scaled_product``, Vandermonde factors
from ``confluent_vandermonde`` (the plain product is its case with every
multiplicity 1), and ``reassemble`` is the one way back to a number.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError


def lu_det(matrix) -> tuple[complex, float]:
    """Determinant and pivot-ratio conditioning; a 0x0 matrix has det 1.

    The elimination kernel of ``scaled_lu_det``.  The assembled matrices
    are a few rows across, where elimination over Python complex scalars
    is cheaper than a vectorised or LAPACK call.  A vanishing determinant
    is a legitimate value here (the bordered q-determinants vanish at the
    deformation points by design).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.size == 0:
        return 1.0 + 0j, 1.0
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    rows = a.tolist()
    n = len(rows)
    det = 1.0 + 0j
    sizes = []
    for k in range(n):
        p, best = k, -1.0
        for i in range(k, n):
            x = rows[i][k]
            size = abs(x.real) + abs(x.imag)
            if size > best:
                p, best = i, size
        if best == 0.0:
            return 0j, math.inf
        pivot_row = rows[p]
        if p != k:
            rows[p], rows[k] = rows[k], pivot_row
            det = -det
        pivot = pivot_row[k]
        det *= pivot
        sizes.append(abs(pivot))
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= f * pivot_row[j]
    return det, max(sizes) / min(sizes)


def scaled_lu_det(matrix) -> tuple[complex, int, float]:
    """(mantissa, exponent, conditioning) with det = mantissa * 2**exponent.

    Each row is multiplied by the power of two that brings its largest
    modulus into [0.5, 1), and the exponents are summed (LAPACK's xGEEQUB
    equilibration).  A power of two scales normal and subnormal rows alike
    without rounding, save entries some 2^1021 below their row's largest,
    and a zero row stays zero: det 0, conditioning inf.
    """
    rows = np.asarray(matrix, dtype=complex).tolist()
    exponent = 0
    for i, row in enumerate(rows):
        e = math.frexp(max(map(abs, row), default=0.0))[1]
        rows[i] = [complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in row]
        exponent += e
    mantissa, cond = lu_det(rows)
    return mantissa, exponent, cond


def scaled_product(factors) -> tuple[complex, int]:
    """(mantissa, exponent) with prod(factors) = mantissa * 2**exponent.

    Each finite factor is scaled into [0.5, 1) by the power of two of its
    modulus, taken as two halves so that neither overflows, before it
    multiplies, and the product, in [0.25, 1), is doubled back into
    [0.5, 1): no partial product leaves the double range or turns
    subnormal, and only the multiplications round.
    """
    mantissa, exponent = 1.0 + 0j, 0
    for x in factors:
        e = math.frexp(abs(x))[1]
        mantissa *= x * math.ldexp(1.0, -(e // 2)) * math.ldexp(1.0, e // 2 - e)
        if abs(mantissa) < 0.5:
            mantissa, e = 2 * mantissa, e - 1
        exponent += e
    return mantissa, exponent


def reassemble(mantissa: complex, exponent: int, what: str) -> complex:
    """mantissa * 2**exponent, refused where it leaves the double range."""
    try:
        return complex(math.ldexp(mantissa.real, exponent),
                       math.ldexp(mantissa.imag, exponent))
    except OverflowError:
        raise NumericalError(f"{what} overflows: {mantissa!r} * 2**{exponent}") from None


def confluent_vandermonde(values, multiplicities) -> tuple[complex, int]:
    """(mantissa, exponent) of prod over pairs i > j of (x_i - x_j)^(m_i m_j),
    the Vandermonde limit matching derivative rows normalized by 1/t!; no
    extra factorial product appears in that convention."""
    return scaled_product([values[i] - values[j] for i in range(len(values)) for j in range(i)
                           for _ in range(multiplicities[i] * multiplicities[j])])
