"""Dense complex determinants with conditioning diagnostics.

Determinants are evaluated by LU factorization with partial pivoting,
written as plain Python elimination over complex scalars (numpy and the
standard library only).  The pivot of each column maximises |re| + |im|,
LAPACK's getf2 rule, so the pivot sequence is LAPACK's; the conditioning
indicator is the ratio of the largest to the smallest pivot magnitude,
and an exactly singular matrix gives det 0 and conditioning inf.  For
overflow-prone assemblies a row-scaled variant
returns a mantissa determinant together with the logarithm of the
factored-out row scales, so products of large determinants and
factorials can be reassembled in log-polar form.  Vandermonde factors
come only in that form, from ``confluent_vandermonde_logpolar``; the
plain product is its case with every multiplicity 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import SingularMatrixError

_TINY = np.finfo(float).tiny  # the smallest normal double


def lu_det(matrix) -> tuple[complex, float]:
    """Determinant and pivot-ratio conditioning; a 0x0 matrix has det 1.

    The assembled matrices are a few rows across, where elimination over
    Python complex scalars is cheaper than a vectorised or LAPACK call.
    A vanishing determinant is a legitimate value here (the bordered
    q-determinants vanish at the deformation points by design).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.size == 0:
        return 1.0 + 0j, 1.0
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    if a.shape[0] == 1:
        return complex(a[0, 0]), 1.0
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


def scaled_lu_det(matrix) -> tuple[complex, float, float]:
    """(mantissa, log_scale, conditioning) with det = mantissa * exp(log_scale).

    Rows are rescaled by their max modulus before factorization and the
    logs of the scales are accumulated separately.  A row whose max
    modulus is subnormal, where dividing by it would overflow, is first
    multiplied by an exact power of two, whose log joins the scales.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.size == 0:
        return 1.0 + 0j, 0.0, 1.0
    scales = np.max(np.abs(a), axis=1)
    log_lift = 0.0
    if np.min(scales) < _TINY:
        if np.any(scales == 0.0):
            return 0j, 0.0, float("inf")
        low = scales < _TINY
        exps = -np.frexp(scales[low])[1][:, None]
        a = a.copy()
        a[low] = np.ldexp(a[low].real, exps) + 1j * np.ldexp(a[low].imag, exps)
        scales[low] = np.max(np.abs(a[low]), axis=1)
        log_lift = int(np.sum(exps)) * math.log(2.0)
    mantissa, cond = lu_det(a / scales[:, None])
    return mantissa, float(np.sum(np.log(scales))) - log_lift, cond


def require_nonsingular(det: complex, cond: float, what: str) -> None:
    if det == 0:
        raise SingularMatrixError(f"{what} is singular: its determinant is exactly 0")
    if not math.isfinite(cond):
        raise SingularMatrixError(
            f"{what} is numerically singular (conditioning {cond:.3e})")


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
            phase += power * cmath.phase(d)
    return log_mod, phase
