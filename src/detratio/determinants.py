"""Dense complex determinants with conditioning diagnostics.

Determinants are evaluated by LU factorization with partial pivoting,
written as plain Python elimination over complex scalars (numpy and the
standard library only).  The pivot of each column maximises |re| + |im|,
LAPACK's getf2 rule, so the pivot sequence is LAPACK's; the conditioning
indicator is the ratio of the largest to the smallest pivot magnitude,
and an exactly singular matrix gives det 0 and conditioning inf.
``scaled_lu_det`` is the one entry: it scales each row by a power of two
and returns the determinant as a mantissa and a binary exponent, so
products of large or tiny determinants and factorials can be reassembled
in log-polar form, or as a ratio of mantissas.  Vandermonde factors come
only in that form, from ``confluent_vandermonde_logpolar``; the plain
product is its case with every multiplicity 1.
"""

from __future__ import annotations

import math

import numpy as np


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


def confluent_vandermonde_logpolar(values, multiplicities) -> tuple[float, float]:
    """Log-polar prod over distinct pairs (x_i - x_j)^(m_i m_j).

    This is the Vandermonde limit matching derivative rows normalized by
    1/t!; no extra factorial product appears in that convention.
    """
    log_mod, phase = 0.0, 0.0
    xs = [complex(v) for v in values]
    for i in range(len(xs)):
        for j in range(i):
            d = xs[i] - xs[j]
            if d == 0:
                return float("-inf"), 0.0
            power = multiplicities[i] * multiplicities[j]
            log_mod += power * math.log(abs(d))
            phase += power * math.atan2(d.imag, d.real)
    return log_mod, phase
