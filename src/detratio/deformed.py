"""Orthogonal polynomials for polynomially deformed measures.

Multiplying the weight by prod_j (mu_j - z) and dividing by
prod_k (ebar_k - zbar) produces a complex-valued measure whose monic
bi-orthogonal polynomials admit bordered-determinant expressions in the
undeformed pi's and their Cauchy transforms h.

One engine builds every such determinant, and the ratio determinant of
``ratios`` as well: ``determinant_rows`` lays out, over columns of
consecutive degrees d, first the h rows h_d^(t)(ebar_k)/t! for each
ebar and each t below its multiplicity, then the pi rows
pi_d^(t)(mu_j)/t! likewise.  A deformed quantity is the determinant of
such rows bordered by one last row, divided by its top-left minor (the
same rows without the last column):

* multiplication only (Christoffel): pi rows at the mu's bordered by the
  pi row at z, divided by prod_j (z - mu_j)^(m_j); repeated mu's give
  derivative rows;
* division only (Uvarov): h rows bordered by the pi row at z;
* both: h rows, then pi rows, bordered by the pi row at z;
* the Cauchy transform of the divided-measure polynomials: h rows
  bordered by the h row at the evaluation point, with the prefactor
  (-1)^m / prod_k (ebar - ebar_k).

Deformation variables must be pairwise distinct; nearly coincident
variables lose all significant digits in the determinant ratio long
before the analytic (confluent) limit is reached, so they are rejected
and the caller is directed to derivative rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import CauchyEvaluator, cauchy_row
from .determinants import lu_det, require_nonsingular
from .errors import ConstraintError, DegenerateVariablesError
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


@dataclass(frozen=True)
class Deformation:
    """Multiplicative mu-factors and inverse ebar-factors of a measure."""

    mus: tuple = ()
    epsbars: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "mus", tuple(complex(v) for v in self.mus))
        object.__setattr__(self, "epsbars", tuple(complex(v) for v in self.epsbars))
        check_nondegenerate(self.mus, "mus")
        check_nondegenerate(self.epsbars, "epsbars")


@dataclass(frozen=True)
class DeformedPolyResult:
    value: complex
    numerator_det: complex
    denominator_det: complex
    conditioning: float


def determinant_rows(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, eps_mults,
                     mus, mu_mults, degrees) -> tuple[np.ndarray, tuple]:
    """Rows of the ratio determinant over the columns d in ``degrees``.

    One row h_d^(t)(ebar)/t! for each ebar and each t below its
    multiplicity, then one row pi_d^(t)(mu)/t! for each mu and t.  Each h
    row is one ``cauchy_row`` request, so its missing transforms are
    computed in one pass.  Returns the matrix and the transform warnings,
    each listed once.  ``cev`` may be None when there are no ebars; an
    evaluator built for another system is refused, since its h rows
    would not belong to the pi rows of ``sys``.
    """
    if cev is not None and cev.system is not sys:
        raise ConstraintError(
            f"the Cauchy evaluator was built for another orthogonal system "
            f"({cev.weight.label()} to degree {cev.system.max_degree}), not for "
            f"{sys.weight.label()} to degree {sys.max_degree}")
    degrees = tuple(degrees)
    rows, warnings = [], []
    for eps, mult in zip(epsbars, eps_mults):
        for t in range(mult):
            scale = 1.0 / math.factorial(t)
            results = cauchy_row(cev, degrees, eps, order=t)
            rows.append([res.value * scale for res in results])
            for res in results:
                for w in res.warnings:
                    if w not in warnings:
                        warnings.append(w)
    for mu, mult in zip(mus, mu_mults):
        for t in range(mult):
            scale = 1.0 / math.factorial(t)
            rows.append([eval_poly(poly_derivative(sys.poly(d), t), mu) * scale
                         for d in degrees])
    matrix = np.array(rows, dtype=complex).reshape(len(rows), len(degrees))
    return matrix, tuple(warnings)


def _bordered_ratio(matrix: np.ndarray, what: str) -> tuple[complex, complex, float]:
    """Numerator, denominator and conditioning of a bordered ratio.

    The numerator is det(matrix); the denominator is its top-left minor,
    without the border row and the last column, and must be nonsingular.
    The conditioning is the worse of the two pivot ratios.  Callers divide
    themselves, each with its own prefactor.
    """
    num, cond_num = lu_det(matrix)
    den, cond_den = lu_det(matrix[:-1, :-1])
    require_nonsingular(den, cond_den, what)
    return num, den, max(cond_num, cond_den)


def _require_depth(sys: OrthoSystem, degree: int, what: str) -> None:
    if degree > sys.max_degree:
        raise ConstraintError(
            f"{what} needs polynomials up to degree {degree}; "
            f"system depth is {sys.max_degree}")


def _deformed_poly(sys: OrthoSystem, cev: CauchyEvaluator, mus, mu_mults,
                   epsbars, n: int, z: complex, what: str) -> DeformedPolyResult:
    """Monic degree-n polynomial for the measure
    prod_j (mu_j - z)^(m_j) / prod_k (ebar_k - zbar) times the weight."""
    check_nondegenerate(mus, "mus")
    check_nondegenerate(epsbars, "epsbars")
    ell, m = sum(mu_mults), len(epsbars)
    if n < 0:
        raise ConstraintError("polynomial degree must be non-negative")
    if m > n:
        raise ConstraintError("the number of inverse factors cannot exceed the degree")
    _require_depth(sys, n + ell, what)
    z = complex(z)
    if any(z == mu for mu in mus):
        raise ConstraintError(
            "evaluation point coincides with a deformation mu; "
            "use christoffel_q, which vanishes there")
    matrix, _ = determinant_rows(sys, cev, epsbars, (1,) * m, mus + (z,),
                                 mu_mults + (1,), range(n - m, n + ell + 1))
    num, den, cond = _bordered_ratio(matrix, f"{what} minor")
    factor = np.prod([(z - mu) ** k for mu, k in zip(mus, mu_mults)])
    return DeformedPolyResult(num / (den * factor), num, den, cond)


def christoffel_q(sys: OrthoSystem, mus, n: int, z: complex) -> complex:
    """Raw bordered determinant for the multiplied measure; vanishes at each mu."""
    mus = tuple(complex(v) for v in mus)
    ell = len(mus)
    _require_depth(sys, n + ell, "christoffel determinant")
    matrix, _ = determinant_rows(sys, None, (), (), mus + (complex(z),),
                                 (1,) * (ell + 1), range(n, n + ell + 1))
    return lu_det(matrix)[0]


def christoffel_poly(sys: OrthoSystem, mus, n: int, z: complex) -> DeformedPolyResult:
    """Monic degree-n polynomial orthogonal after multiplying the weight
    by prod_j (mu_j - z)."""
    mus = tuple(mus)
    return christoffel_poly_confluent(sys, mus, (1,) * len(mus), n, z)


def christoffel_poly_confluent(sys: OrthoSystem, mus, multiplicities, n: int,
                               z: complex) -> DeformedPolyResult:
    """Christoffel formula with repeated mu's: derivative rows replace the
    coincident-value rows in both determinants."""
    mus = tuple(complex(v) for v in mus)
    mults = tuple(int(m) for m in multiplicities)
    if len(mus) != len(mults) or any(m < 1 for m in mults):
        raise ConstraintError("multiplicities must be positive, one per mu")
    return _deformed_poly(sys, None, mus, mults, (), n, z, "christoffel formula")


def uvarov_q(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, n: int,
             z: complex) -> complex:
    """Raw bordered determinant for the divided measure."""
    epsbars = tuple(complex(v) for v in epsbars)
    m = len(epsbars)
    if m > n:
        raise ConstraintError("the number of inverse factors cannot exceed the degree")
    _require_depth(sys, n, "uvarov determinant")
    matrix, _ = determinant_rows(sys, cev, epsbars, (1,) * m, (complex(z),), (1,),
                                 range(n - m, n + 1))
    return lu_det(matrix)[0]


def uvarov_poly(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, n: int,
                z: complex) -> DeformedPolyResult:
    """Monic degree-n polynomial orthogonal after dividing the weight by
    prod_k (ebar_k - zbar)."""
    return _deformed_poly(sys, cev, (), (), tuple(complex(v) for v in epsbars),
                          n, z, "uvarov formula")


def combined_poly(sys: OrthoSystem, cev: CauchyEvaluator, mus, epsbars, n: int,
                  z: complex) -> DeformedPolyResult:
    """Monic degree-n polynomial for the general deformed measure
    prod_j (mu_j - z) / prod_k (ebar_k - zbar) times the weight."""
    mus = tuple(complex(v) for v in mus)
    return _deformed_poly(sys, cev, mus, (1,) * len(mus),
                          tuple(complex(v) for v in epsbars), n, z,
                          "combined deformation formula")


def deformed_cauchy(sys: OrthoSystem, cev: CauchyEvaluator, epsbars, n: int,
                    eps: complex) -> complex:
    """Cauchy transform of the divided-measure polynomial, expressed
    entirely through the undeformed transforms."""
    epsbars = tuple(complex(v) for v in epsbars)
    check_nondegenerate(epsbars, "epsbars")
    m = len(epsbars)
    if m > n:
        raise ConstraintError("the number of inverse factors cannot exceed the degree")
    _require_depth(sys, n, "deformed Cauchy transform")
    eps = complex(eps)
    if any(eps == eb for eb in epsbars):
        raise ConstraintError(
            "evaluation point coincides with a deformation ebar")
    check_nondegenerate(epsbars + (eps,), "epsbars plus evaluation point")
    matrix, _ = determinant_rows(sys, cev, epsbars + (eps,), (1,) * (m + 1), (), (),
                                 range(n - m, n + 1))
    num, den, _ = _bordered_ratio(matrix, "deformed-transform h-minor")
    prefactor = (-1) ** m / np.prod([eps - eb for eb in epsbars])
    return complex(prefactor * num / den)

