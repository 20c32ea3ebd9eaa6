"""Monic orthogonal polynomials in the complex plane.

Given a positive weight with moment matrix M_jk = integral z^j zbar^k dw,
there is a unique family of monic polynomials pi_k(z) = z^k + ... with

    integral_D  pi_k(z) conj(pi_j(z)) dw = delta_kj r_k,    r_k > 0.

Construction is by Cholesky factorization of the moment matrix: with
M = L L^H the coefficient rows are diag(L) L^(-1) (unit diagonal, hence
monic) and the squared norms are the squared Cholesky pivots.  This is
numerically stabler than naive Gram-Schmidt and fails cleanly when the
matrix is not positive definite.  An independent construction through
bordered determinants of moment minors is provided for cross-checking.

The polynomials depend on z only; coefficients of conjugate monomials
are absent by construction.  Neither a three-term recursion nor a
Christoffel-Darboux identity is assumed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConstraintError, NumericalError
from .quadrature import star_grid
from .weight import MomentMatrix, WeightSpec, moment_matrix

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients in ascending powers of z."""

    coeffs: tuple

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
    """Horner evaluation, vectorized over z; ``z`` is never modified."""
    coeffs = p.coeffs if isinstance(p, Poly) else tuple(p)
    z = np.asarray(z, dtype=complex)
    out = np.full_like(z, coeffs[-1])
    if out.size > 1:
        # out = out * z + c without a new array per step, to the same bits
        for c in reversed(coeffs[:-1]):
            out *= z
            out += c
    else:
        # numpy rounds a one-element product made in place differently
        for c in reversed(coeffs[:-1]):
            out = out * z + c
    if out.ndim == 0:
        return complex(out)
    return out


def poly_derivative(p: Poly, order: int = 1) -> Poly:
    """Exact coefficient-wise derivative of the given order."""
    if order < 0:
        raise ConstraintError("derivative order must be non-negative")
    coeffs = np.asarray(p.coeffs, dtype=complex)
    for _ in range(order):
        if len(coeffs) == 1:
            coeffs = np.array([0j])
            break
        coeffs = coeffs[1:] * np.arange(1, len(coeffs))
    return Poly(tuple(coeffs))


@dataclass(frozen=True, eq=False)
class OrthoSystem:
    """Monic orthogonal polynomials pi_0..pi_n with norms r_0..r_n."""

    weight: WeightSpec
    max_degree: int
    polys: tuple
    norms: tuple
    conditioning: float = 1.0

    def __post_init__(self):
        if len(self.polys) != self.max_degree + 1 or len(self.norms) != self.max_degree + 1:
            raise ConstraintError("system depth does not match max_degree")
        if any(r <= 0 for r in self.norms):
            raise NumericalError("orthogonal-polynomial norms must be positive")

    def poly(self, k: int) -> MonicPoly:
        if not 0 <= k <= self.max_degree:
            raise ConstraintError(
                f"polynomial degree {k} exceeds system depth {self.max_degree}")
        return self.polys[k]


def build_ortho_system(m: MomentMatrix, weight: WeightSpec) -> OrthoSystem:
    """Orthogonalize the monomials against the given moment matrix."""
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
    inv = solve_triangular(lower, np.eye(m.order + 1), lower=True)
    coeff_rows = pivots[:, None] * inv
    polys = []
    for k in range(m.order + 1):
        coeffs = coeff_rows[k, :k + 1].copy()
        coeffs[-1] = 1.0 + 0j
        polys.append(MonicPoly(tuple(coeffs)))
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


def partition_function(sys: OrthoSystem, n_eigenvalues: int) -> float:
    """Normalization integral of the n-eigenvalue measure: N! prod r_j."""
    if n_eigenvalues < 1:
        raise ConstraintError("the eigenvalue count must be positive")
    if n_eigenvalues > sys.max_degree + 1:
        raise ConstraintError(
            f"partition function for N={n_eigenvalues} needs norms up to "
            f"r_{n_eigenvalues - 1}; system depth is {sys.max_degree}")
    value = float(math.factorial(n_eigenvalues))
    for r in sys.norms[:n_eigenvalues]:
        value *= r
    return value


def orthogonality_residual_matrix(sys: OrthoSystem, n_r: int = 192,
                                  n_t: int = 256) -> np.ndarray:
    """Normalized Gram residuals |<pi_j, pi_k> - delta r_k| / sqrt(r_j r_k)
    measured by quadrature."""
    spec = sys.weight
    grid = star_grid(0j, spec.domain.quad_radius, n_r, n_t)
    wvals = spec.evaluate(grid.nodes) * grid.weights
    values = np.vstack([eval_poly(p, grid.nodes) for p in sys.polys])
    gram = (values * wvals) @ values.conj().T
    expected = np.diag(np.asarray(sys.norms))
    scale = np.sqrt(np.outer(sys.norms, sys.norms))
    return np.abs(gram - expected) / scale
