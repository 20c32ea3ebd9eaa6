"""Expectation values of characteristic-polynomial ratios.

For an N-eigenvalue ensemble with weight w, the normalized expectation
of prod_{j<=L} prod_i (mu_j - z_i) over prod_{k<=M} prod_i (ebar_k - zbar_i)
equals, for 0 <= M <= N and pairwise distinct variables,

    (-1)^(M(M-1)/2) * prod_{j=N-M}^{N-1} (2 pi / (i r_j))
    / (Delta_L(mu) Delta_M(ebar))
    * det [ h_d(ebar_k)   (M rows)
            pi_d(mu_j)    (L rows) ],   d = N-M, ..., N+L-1,

with pi the monic orthogonal polynomials of w, r their squared norms and
h their Cauchy transforms.  This module evaluates that determinant
expression, its two telescope factorizations (products only through the
Christoffel-deformed polynomials; inverse powers only through deformed
Cauchy transforms), and the confluent version for coinciding variables,
where repeated rows become derivative rows scaled by 1/t! and the
Vandermonde factors become products over distinct pairs raised to the
product of multiplicities.  The rows come from
``deformed.determinant_rows``, which builds every determinant of the
package and returns the h rows' relative error with them; the error
estimates add M times that error to the rounding of the determinant,
and nothing here reads the Cauchy evaluator but its method.

The prefactor 2 pi/(i r_j) is evaluated as -2 pi i / r_j exactly, and
the determinant, the norms and the Vandermonde factors are combined as
mantissas and powers of two (``determinants.scaled_product``), so that
large N + L assemblies cannot overflow and the value carries only the
rounding of its few multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cauchy import CauchyEvaluator
from .deformed import (canonical_variables, christoffel_poly, deformed_cauchy,
                       determinant_rows)
from .determinants import confluent_vandermonde, reassemble, scaled_lu_det, scaled_product
from .errors import ConstraintError, NumericalError
from .orthopoly import OrthoSystem, Poly, require_eigenvalue_count


@dataclass(frozen=True)
class RatioQuery:
    """(N, {mu_j}, {ebar_k}) with optional multiplicities for confluence.

    Values within each list must be pairwise distinct; repetition is
    expressed through the multiplicity lists, and the total inverse count
    (multiplicities included) may not exceed N.
    """

    N: int
    mus: tuple = ()
    epsbars: tuple = ()
    mu_multiplicities: tuple = None
    eps_multiplicities: tuple = None

    def __post_init__(self):
        require_eigenvalue_count(self.N)
        object.__setattr__(self, "N", int(self.N))
        mus, mm = canonical_variables(self.mus, "mus", self.mu_multiplicities)
        epsbars, em = canonical_variables(self.epsbars, "epsbars",
                                          self.eps_multiplicities)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "epsbars", epsbars)
        object.__setattr__(self, "mu_multiplicities", mm)
        object.__setattr__(self, "eps_multiplicities", em)
        if self.M_total > self.N:
            raise ConstraintError(
                f"M = {self.M_total} inverse factors exceed N = {self.N}")

    @property
    def L_total(self) -> int:
        return sum(self.mu_multiplicities)

    @property
    def M_total(self) -> int:
        return sum(self.eps_multiplicities)

    @property
    def is_confluent(self) -> bool:
        return any(m > 1 for m in self.mu_multiplicities + self.eps_multiplicities)

    def expanded_mus(self) -> tuple:
        return tuple(mu for mu, m in zip(self.mus, self.mu_multiplicities)
                     for _ in range(m))

    def expanded_epsbars(self) -> tuple:
        return tuple(eb for eb, m in zip(self.epsbars, self.eps_multiplicities)
                     for _ in range(m))


@dataclass(frozen=True)
class Diagnostics:
    det_conditioning: float
    backend: str
    warnings: tuple = ()


@dataclass(frozen=True)
class EvalResult:
    value: complex
    abs_error_estimate: float
    diagnostics: Diagnostics

    def __post_init__(self):
        v = self.value
        if not (math.isfinite(v.real) and math.isfinite(v.imag)
                and math.isfinite(self.abs_error_estimate)):
            raise NumericalError(f"non-finite evaluation result {v!r} "
                                 f"(error estimate {self.abs_error_estimate!r})")


def _result(value: complex, rel_err: float, diagnostics: Diagnostics) -> EvalResult:
    """The value with the error |value| * rel_err, at least one ulp of it."""
    error = max(abs(value) * rel_err, math.ulp(abs(value)))   # binds if subnormal
    return EvalResult(complex(value), error, diagnostics)


def _require_depth(sys: OrthoSystem, q: RatioQuery) -> None:
    need = max(q.N + q.L_total - 1, q.N - 1)
    if need > sys.max_degree:
        raise ConstraintError(
            f"query requires system depth {need} (N + L - 1); "
            f"system.max_degree is {sys.max_degree}")


def expectation_ratio(q: RatioQuery, sys: OrthoSystem,
                      cev: CauchyEvaluator) -> EvalResult:
    """Evaluate the determinant expression for the given query;
    multiplicities produce derivative rows.  ``cev`` may be None for a
    query without ebars."""
    _require_depth(sys, q)
    M, L = q.M_total, q.L_total
    if M == 0 and L == 0:
        return EvalResult(1.0 + 0j, 0.0,
                          Diagnostics(1.0, "empty-product", ()))
    n_ev = q.N
    degrees = range(n_ev - M, n_ev + L)
    matrix, warnings, h_error = determinant_rows(
        sys, cev, q.epsbars, q.eps_multiplicities, q.mus, q.mu_multiplicities,
        degrees)
    mant, exponent, cond = scaled_lu_det(matrix)
    v_mu, e_mu = confluent_vandermonde(q.mus, q.mu_multiplicities)
    v_eps, e_eps = confluent_vandermonde(q.epsbars, q.eps_multiplicities)
    num, e_num = scaled_product([(-1) ** (M * (M - 1) // 2) * mant] + [-2j * math.pi] * M)
    den, e_den = scaled_product(sys.norms[n_ev - M:n_ev])
    value = reassemble(num / (den * v_mu * v_eps), exponent + e_num - e_den - e_mu - e_eps,
                       "the ratio")
    rel_err = cond * (M + L) * 1e-15 + M * h_error
    backend = cev.method if M > 0 else "polynomial"
    return _result(value, rel_err, Diagnostics(cond, backend, warnings))


def expectation_products(q: RatioQuery, sys: OrthoSystem) -> EvalResult:
    """Telescope product of Christoffel-deformed polynomial values; valid
    for queries with no inverse factors."""
    if q.M_total != 0:
        raise ConstraintError("the product path requires M = 0")
    if q.is_confluent:
        raise ConstraintError(
            "the product path needs pairwise distinct mus; use the "
            "confluent determinant evaluation instead")
    _require_depth(sys, q)
    value = 1.0 + 0j
    cond = 1.0
    for j, mu in enumerate(q.mus):
        res = christoffel_poly(sys, q.mus[:j], q.N, mu)
        value *= res.value
        cond = max(cond, res.conditioning)
    return _result(value, cond * 1e-14 * max(len(q.mus), 1),
                   Diagnostics(cond, "telescope-products", ()))


def expectation_inverses(q: RatioQuery, sys: OrthoSystem,
                         cev: CauchyEvaluator) -> EvalResult:
    """Telescope product of deformed Cauchy transforms; valid for queries
    with no polynomial factors."""
    if q.L_total != 0:
        raise ConstraintError("the inverse path requires L = 0")
    if q.is_confluent:
        raise ConstraintError(
            "the inverse path needs pairwise distinct epsbars; use the "
            "confluent determinant evaluation instead")
    _require_depth(sys, q)
    m_total = q.M_total
    value = 1.0 + 0j
    for j in range(1, m_total + 1):
        r = sys.norms[q.N - j]
        h = deformed_cauchy(sys, cev, q.epsbars[:m_total - j], q.N - j,
                            q.epsbars[m_total - j])
        value *= (-2j * math.pi / r) * h
    # every h row of the query is in the memo: the first factor read them
    _, _, h_error = determinant_rows(sys, cev, q.epsbars, q.eps_multiplicities,
                                     (), (), range(q.N - m_total, q.N))
    return _result(value, m_total * h_error + m_total * 1e-14,
                   Diagnostics(1.0, "telescope-inverses", ()))


def partial_fractions(j: int, epsbars) -> tuple[np.ndarray, Poly]:
    """Decompose zbar^j / prod_k (ebar_k - zbar) into simple poles plus a
    polynomial remainder.

    Returns the pole coefficients a_k = ebar_k^j / prod_{l != k}
    (ebar_l - ebar_k) and the quotient polynomial p with
    zbar^j / prod = sum_k a_k/(ebar_k - zbar) + p(zbar).
    """
    if j < 0:
        raise ConstraintError("the monomial power must be non-negative")
    eps, _ = canonical_variables(epsbars, "epsbars")
    m = len(eps)
    if m == 0:
        return np.zeros(0, dtype=complex), Poly((0j,) * j + (1.0 + 0j,))
    coeffs = np.empty(m, dtype=complex)
    for k in range(m):
        denom = np.prod([eps[l] - eps[k] for l in range(m) if l != k]) if m > 1 else 1.0
        coeffs[k] = eps[k] ** j / denom
    numerator = np.zeros(j + 1, dtype=complex)
    numerator[j] = 1.0
    denominator = (-1) ** m * npoly.polyfromroots(eps)
    quotient, _ = npoly.polydiv(numerator, denominator)
    return coeffs, Poly(tuple(quotient))
