"""Monic orthogonal polynomials in the complex plane.

Given a positive weight with centre c and moments
M_jk = integral zeta^j conj(zeta)^k dw about it, zeta = z - c, there is a
unique family of monic polynomials pi_k = zeta^k + ... with

    integral_D  pi_k(z) conj(pi_j(z)) dw = delta_kj r_k,    r_k > 0.

A ``Poly`` holds its coefficients in powers of zeta with its ``centre``,
which ``eval_poly`` and ``poly_derivative`` honour.  Construction is by
Cholesky factorization of the moment matrix: with M = L L^H the
coefficient rows are diag(L) L^(-1) (unit diagonal, hence monic) and the
squared norms are the squared Cholesky pivots.  This is numerically
stabler than naive Gram-Schmidt and fails cleanly when the matrix is not
positive definite.  An independent construction through bordered
determinants of moment minors is provided for cross-checking.

The polynomials depend on z only; coefficients of conjugate monomials
are absent by construction.  Neither a three-term recursion nor a
Christoffel-Darboux identity is assumed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConstraintError, NumericalError, is_integer
from .weight import (MomentMatrix, WeightSpec, moment_matrix, truncation_radius,
                     weighted_grid)

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Poly:
    """Complex coefficients in ascending powers of z - ``centre``."""

    coeffs: tuple
    centre: complex = 0j

    def __post_init__(self):
        if len(self.coeffs) == 0:
            object.__setattr__(self, "coeffs", (0j,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MonicPoly(Poly):
    """Polynomial whose leading coefficient is exactly 1."""

    def __post_init__(self):
        super().__post_init__()
        if self.coeffs[-1] != 1:
            raise ConstraintError("monic polynomial must have leading coefficient 1")


def eval_poly(p: Poly | Sequence[complex], z):
    """Horner evaluation in z - ``p.centre``, vectorized over z; a bare
    coefficient sequence is taken about 0.  ``z`` is never modified."""
    coeffs = p.coeffs if isinstance(p, Poly) else tuple(p)
    centre = p.centre if isinstance(p, Poly) else 0
    z = np.asarray(z, dtype=complex)
    z = z - centre if centre else z
    out = np.full_like(z, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * z + c
    if out.ndim == 0:
        return complex(out)
    return out


def poly_derivative(p: Poly, order: int = 1) -> Poly:
    """Exact coefficient-wise derivative of the given order (d/dzeta = d/dz)."""
    if order < 0:
        raise ConstraintError("derivative order must be non-negative")
    coeffs = np.asarray(p.coeffs, dtype=complex)
    for _ in range(order):
        if len(coeffs) == 1:
            coeffs = np.array([0j])
            break
        coeffs = coeffs[1:] * np.arange(1, len(coeffs))
    return Poly(tuple(coeffs), p.centre)


@dataclass(frozen=True, eq=False)
class OrthoSystem:
    """Monic orthogonal polynomials pi_0..pi_n with norms r_0..r_n, and the
    quadrature Cauchy rows' harmonic table per tolerance (``cauchy``)."""

    weight: WeightSpec
    max_degree: int
    polys: tuple
    norms: tuple
    conditioning: float = 1.0
    _cauchy_tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.polys) != self.max_degree + 1 or len(self.norms) != self.max_degree + 1:
            raise ConstraintError("system depth does not match max_degree")
        if any(r <= 0 for r in self.norms):
            raise NumericalError("orthogonal-polynomial norms must be positive")

    def poly(self, k: int) -> MonicPoly:
        if not 0 <= k <= self.max_degree:
            raise ConstraintError(
                f"polynomial degree {k} is outside 0..{self.max_degree}")
        return self.polys[k]


def lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by row-wise forward substitution."""
    eye = np.eye(lower.shape[0], dtype=lower.dtype)
    inv = np.zeros_like(eye)
    for i in range(len(eye)):
        inv[i] = (eye[i] - lower[i, :i] @ inv[:i]) / lower[i, i]
    return inv


def build_ortho_system(m: MomentMatrix, weight: WeightSpec) -> OrthoSystem:
    """Orthogonalize the powers of z - ``weight.centre`` against their moments."""
    # Conditioning is judged after Jacobi equilibration: a plain condition
    # number only reflects the spread of the diagonal (norms grow like k!
    # for gaussian weights), not the cancellation Cholesky actually faces.
    diag = m.entries.diagonal().real
    cond = float("inf")
    if np.all(diag > 0):
        scale = np.sqrt(diag)
        cond = float(np.linalg.cond(m.entries / np.outer(scale, scale)))
        if cond > CONDITION_LIMIT:
            raise NumericalError(
                f"moment matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
                "reduce max_degree")
    lower = m.cholesky()
    pivots = lower.diagonal().real
    inv = lower_inverse(lower)
    coeff_rows = pivots[:, None] * inv
    polys = []
    for k in range(m.order + 1):
        coeffs = coeff_rows[k, :k + 1].copy()
        coeffs[-1] = 1.0 + 0j
        polys.append(MonicPoly(tuple(coeffs), weight.centre))
    norms = tuple(float(p * p) for p in pivots)
    return OrthoSystem(weight=weight, max_degree=m.order, polys=tuple(polys),
                       norms=norms, conditioning=cond)


def ortho_system(weight: WeightSpec, max_degree: int) -> OrthoSystem:
    """Convenience: moment matrix plus Cholesky construction in one call."""
    return build_ortho_system(moment_matrix(weight, max_degree), weight)


def bordered_coefficients(m: MomentMatrix, k: int) -> np.ndarray:
    """Coefficients of pi_k from bordered determinants of moment minors.

    Independent of the Cholesky path: pi_k(z) is the determinant of the
    transposed moment minor bordered by the monomial row, normalized by
    the k-th principal minor.
    """
    if not 0 <= k <= m.order:
        raise ConstraintError("degree exceeds moment matrix order")
    if k == 0:
        return np.array([1.0 + 0j])
    nt = m.entries.T
    dk = np.linalg.det(nt[:k, :k])
    coeffs = np.empty(k + 1, dtype=complex)
    cols = list(range(k + 1))
    for j in range(k + 1):
        minor = nt[np.ix_(range(k), [c for c in cols if c != j])]
        coeffs[j] = (-1) ** (k + j) * np.linalg.det(minor) / dk
    return coeffs


def require_eigenvalue_count(n) -> None:
    """Refuse with ConstraintError an eigenvalue count N that is not an
    integer >= 1; a bool is no count."""
    if not is_integer(n) or n < 1:
        raise ConstraintError(f"the eigenvalue count N must be an integer >= 1, got {n!r}")


def partition_function(sys: OrthoSystem, n_eigenvalues: int) -> float:
    """Normalization integral of the n-eigenvalue measure: N! prod r_j."""
    require_eigenvalue_count(n_eigenvalues)
    if n_eigenvalues > sys.max_degree + 1:
        raise ConstraintError(
            f"partition function for N={n_eigenvalues} needs norms up to "
            f"r_{n_eigenvalues - 1}; system depth is {sys.max_degree}")
    value = float(math.factorial(n_eigenvalues))
    for r in sys.norms[:n_eigenvalues]:
        value *= r
    return value


def orthogonality_residual_matrix(sys: OrthoSystem) -> np.ndarray:
    """Normalized Gram residuals |<pi_j, pi_k> - delta r_k| / sqrt(r_j r_k)
    measured by quadrature on the 192x256 grid, whose disk holds moments
    of order 2 max_degree."""
    radius = truncation_radius(sys.weight, 2 * sys.max_degree)
    nodes, wvals = weighted_grid(sys.weight, radius, 192, 256)
    values = np.vstack([eval_poly(p, nodes) for p in sys.polys])
    gram = (values * wvals) @ values.conj().T
    expected = np.diag(np.asarray(sys.norms))
    scale = np.sqrt(np.outer(sys.norms, sys.norms))
    return np.abs(gram - expected) / scale
