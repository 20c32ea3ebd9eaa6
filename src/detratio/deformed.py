"""Orthogonal polynomials for polynomially deformed measures.

Multiplying the weight by prod_j (mu_j - z) and dividing by
prod_k (ebar_k - zbar) produces a complex-valued measure whose monic
bi-orthogonal polynomials admit bordered-determinant expressions in the
undeformed pi's and their Cauchy transforms h.

One engine builds every such determinant, and the ratio determinant of
``ratios`` as well: ``determinant_rows`` lays out, over columns of
consecutive degrees d, first the h rows h_d^(t)(ebar_k)/t! for each
ebar and each t below its multiplicity, then the pi rows
pi_d^(t)(mu_j)/t! likewise, and reports the h rows' relative error
with them, the one place it is formed.  A deformed quantity is the
determinant of such rows bordered by one last row, divided by its
top-left minor (the same rows without the last column), both from
``scaled_lu_det``, as a ratio of mantissas times 2 to the difference of
the exponents, brought back to a number by ``determinants.reassemble``:

* multiplication only (Christoffel): pi rows at the mu's bordered by the
  pi row at z, divided by prod_j (z - mu_j)^(m_j); repeated mu's give
  derivative rows;
* division only (Uvarov): h rows bordered by the pi row at z;
* both: h rows, then pi rows, bordered by the pi row at z;
* the Cauchy transform of the divided-measure polynomials: h rows
  bordered by the h row at the evaluation point, with the prefactor
  (-1)^m / prod_k (ebar - ebar_k).

The deformation variables must be pairwise distinct; nearly coincident
variables lose all significant digits in the determinant ratio long
before the analytic (confluent) limit is reached, so they are rejected
and the caller is directed to derivative rows.  ``canonical_variables``
checks every variable list of the package, and ``_bordered_matrix``
checks the degree range of every deformed formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import CauchyEvaluator, cauchy_row
from .determinants import reassemble, scaled_lu_det
from .errors import (ConstraintError, DegenerateVariablesError, SingularMatrixError,
                     is_integer)
from .orthopoly import OrthoSystem, eval_poly, poly_derivative

NEAR_DEGENERACY_RTOL = 1e-8


def check_nondegenerate(values, label: str) -> None:
    """Reject lists with (nearly) coincident entries.

    The threshold is relative to the largest pairwise separation, with a
    floor of 1 when the list carries no scale of its own.
    """
    xs = [complex(v) for v in values]
    if len(xs) < 2:
        return
    dists = [abs(a - b) for i, a in enumerate(xs) for b in xs[:i]]
    scale = max(max(dists), 1.0)
    worst = min(dists)
    if worst < NEAR_DEGENERACY_RTOL * scale:
        raise DegenerateVariablesError(
            f"{label} contains variables closer than {NEAR_DEGENERACY_RTOL:g} "
            f"of the list scale (min distance {worst:.3e}); "
            "declare multiplicities and use the confluent path")


def canonical_variables(values, label: str, multiplicities=None) -> tuple[tuple, tuple]:
    """Complex values and int multiplicities (1 by default) of a variable
    list.  Refuses multiplicities that are not one integer >= 1 (bools
    excluded) per value, and values that are not pairwise distinct."""
    xs = tuple(complex(v) for v in values)
    mults = (1,) * len(xs) if multiplicities is None else tuple(multiplicities)
    if len(mults) != len(xs) or any(not is_integer(k) or k < 1 for k in mults):
        raise ConstraintError(
            f"{label}: expected one integer multiplicity >= 1 per variable, "
            f"got {mults!r} for {len(xs)} variables")
    check_nondegenerate(xs, label)
    return xs, tuple(int(k) for k in mults)


@dataclass(frozen=True)
class DeformedPolyResult:
    value: complex
    conditioning: float


def determinant_rows(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, eps_mults,
                     mus, mu_mults, degrees) -> tuple[np.ndarray, tuple, float]:
    """Rows of the ratio determinant over the columns d in ``degrees``.

    One row h_d^(t)(ebar)/t! for each ebar and each t below its
    multiplicity, then one row pi_d^(t)(mu)/t! for each mu and t.  Each h
    row is one ``cauchy_row`` request, sliced from the evaluator's row at
    (ebar, t), and each pi row one evaluation of the system's coefficient
    rows; a degree outside 0..max_degree is refused.  Returns the matrix,
    the transform warnings, each listed once, and the h rows' relative
    error: per row, the largest error estimate of its transforms over
    their largest magnitude, the worst row floored at
    ``cev.relative_error``; 0 with no ebars.  An entry far below its row's L1 scale carries that
    scale's error, so the tolerance alone can understate the row's.

    ``cev`` may be None only when there are no ebars; an evaluator built
    for another system is refused, since its h rows would not belong to
    the pi rows of ``sys``.
    """
    if cev is None and epsbars:
        raise ConstraintError(
            "the h rows of the ebars need a Cauchy evaluator, got None")
    if cev is not None and cev.system is not sys:
        raise ConstraintError(
            f"the Cauchy evaluator was built for another orthogonal system "
            f"({cev.weight.label()} to degree {cev.system.max_degree}), not for "
            f"{sys.weight.label()} to degree {sys.max_degree}")
    degrees = tuple(degrees)
    sys.check_degrees(degrees)
    rows, warnings, h_error = [], [], 0.0
    for eps, mult in zip(epsbars, eps_mults):
        for t in range(mult):
            scale = 1.0 / math.factorial(t)
            results = cauchy_row(cev, degrees, eps, order=t)
            rows.append([res.value * scale for res in results])
            for res in results:
                for w in res.warnings:
                    if w not in warnings:
                        warnings.append(w)
            magnitude = max(abs(res.value) for res in results)
            if magnitude > 0:   # a row of zeros makes the determinant 0
                h_error = max(h_error, max(res.error for res in results) / magnitude)
    if epsbars:
        h_error = max(cev.relative_error, h_error)
    block = sys.coeffs[np.asarray(degrees, dtype=int), :max(degrees, default=0) + 1]
    for mu, mult in zip(mus, mu_mults):
        for t in range(mult):
            scale = 1.0 / math.factorial(t)
            rows.append(eval_poly(poly_derivative(block, t), mu - sys.weight.centre) * scale)
    matrix = np.array(rows, dtype=complex).reshape(len(rows), len(degrees))
    return matrix, tuple(warnings), h_error


def _bordered_ratio(matrix: np.ndarray, what: str) -> tuple[complex, float]:
    """det(matrix) over its top-left minor ``what``, which must be
    nonsingular, and the worse of the two pivot ratios; neither
    determinant is formed on its own.  Callers apply their prefactors."""
    num, e_num, cond_num = scaled_lu_det(matrix)
    den, e_den, cond_den = scaled_lu_det(matrix[:-1, :-1])
    if den == 0:
        raise SingularMatrixError(f"{what} is singular: its determinant is exactly 0")
    if not math.isfinite(cond_den):
        raise SingularMatrixError(
            f"{what} is numerically singular (conditioning {cond_den:.3e})")
    ratio = reassemble(num / den, e_num - e_den, f"the ratio over the {what}")
    return ratio, max(cond_num, cond_den)


def _bordered_matrix(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, mus,
                     mu_mults, n: int, what: str, *, z=None, eps=None) -> np.ndarray:
    """Matrix of a degree-n deformed formula: the h rows at ``epsbars`` and
    the pi rows at ``mus``, bordered by the pi row at ``z`` or else the h
    row at ``eps``, over the degrees n - M .. n + L.  Refuses degrees
    outside 0 <= M <= n and n + L <= system depth, with M = len(epsbars)
    inverse factors and L = sum(mu_mults) multiplied ones."""
    m, ell = len(epsbars), sum(mu_mults)
    if not 0 <= m <= n or n + ell > sys.max_degree:
        raise ConstraintError(
            f"{what} of degree {n} needs 0 <= M <= n and n + L <= {sys.max_degree}, "
            f"the system depth; here M = {m} inverse factors and L = {ell} "
            "multiplied ones")
    if eps is None:
        mus, mu_mults = mus + (complex(z),), mu_mults + (1,)
    else:
        epsbars = epsbars + (complex(eps),)
    matrix, _, _ = determinant_rows(sys, cev, epsbars, (1,) * len(epsbars), mus,
                                    mu_mults, range(n - m, n + ell + 1))
    return matrix


def _deformed_poly(sys: OrthoSystem, cev: CauchyEvaluator, mus, mu_mults,
                   epsbars, n: int, z: complex, what: str) -> DeformedPolyResult:
    """Monic degree-n polynomial for the measure
    prod_j (mu_j - z)^(m_j) / prod_k (ebar_k - zbar) times the weight;
    ``mu_mults`` None means simple mus."""
    mus, mu_mults = canonical_variables(mus, "mus", mu_mults)
    epsbars, _ = canonical_variables(epsbars, "epsbars")
    z = complex(z)
    if any(z == mu for mu in mus):
        raise ConstraintError(
            "evaluation point coincides with a deformation mu; "
            "use christoffel_q, which vanishes there")
    matrix = _bordered_matrix(sys, cev, epsbars, mus, mu_mults, n, what, z=z)
    ratio, cond = _bordered_ratio(matrix, f"{what} minor")
    factor = np.prod([(z - mu) ** k for mu, k in zip(mus, mu_mults)])
    return DeformedPolyResult(complex(ratio / factor), cond)


def christoffel_q(sys: OrthoSystem, mus, n: int, z: complex) -> complex:
    """Raw bordered determinant for the multiplied measure; vanishes at each mu."""
    mus, mults = canonical_variables(mus, "mus")
    what = "christoffel determinant"
    matrix = _bordered_matrix(sys, None, (), mus, mults, n, what, z=z)
    return reassemble(*scaled_lu_det(matrix)[:2], what)


def christoffel_poly(sys: OrthoSystem, mus, n: int, z: complex,
                     multiplicities=None) -> DeformedPolyResult:
    """Monic degree-n polynomial orthogonal after multiplying the weight
    by prod_j (mu_j - z)^(m_j), with m_j from ``multiplicities`` (1 by
    default); a repeated mu takes derivative rows in both determinants."""
    return _deformed_poly(sys, None, mus, multiplicities, (), n, z,
                          "christoffel formula")


def uvarov_q(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, n: int,
             z: complex) -> complex:
    """Raw bordered determinant for the divided measure."""
    epsbars, _ = canonical_variables(epsbars, "epsbars")
    what = "uvarov determinant"
    matrix = _bordered_matrix(sys, cev, epsbars, (), (), n, what, z=z)
    return reassemble(*scaled_lu_det(matrix)[:2], what)


def uvarov_poly(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, n: int,
                z: complex) -> DeformedPolyResult:
    """Monic degree-n polynomial orthogonal after dividing the weight by
    prod_k (ebar_k - zbar)."""
    return _deformed_poly(sys, cev, (), None, epsbars, n, z, "uvarov formula")


def combined_poly(sys: OrthoSystem, cev: CauchyEvaluator, mus, epsbars, n: int,
                  z: complex) -> DeformedPolyResult:
    """Monic degree-n polynomial for the general deformed measure
    prod_j (mu_j - z) / prod_k (ebar_k - zbar) times the weight."""
    return _deformed_poly(sys, cev, mus, None, epsbars, n, z,
                          "combined deformation formula")


def deformed_cauchy(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, n: int,
                    eps: complex) -> complex:
    """Cauchy transform of the divided-measure polynomial, expressed
    entirely through the undeformed transforms."""
    epsbars, _ = canonical_variables(epsbars, "epsbars")
    eps = complex(eps)
    if any(eps == eb for eb in epsbars):
        raise ConstraintError(
            "evaluation point coincides with a deformation ebar")
    check_nondegenerate(epsbars + (eps,), "epsbars plus evaluation point")
    matrix = _bordered_matrix(sys, cev, epsbars, (), (), n,
                              "deformed Cauchy transform", eps=eps)
    ratio, _ = _bordered_ratio(matrix, "deformed-transform h-minor")
    prefactor = (-1) ** len(epsbars) / np.prod([eps - eb for eb in epsbars])
    return complex(prefactor * ratio)
