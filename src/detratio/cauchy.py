"""Cauchy transforms of the orthogonal polynomials.

The transform of pi_n against a planar weight is

    h_n(ebar) = 1/(2 pi i) * integral_D  pi_n(z) / (zbar - ebar) dw,

a function of the single complex argument ebar; the pole is an
integrable singularity in two dimensions, so ebar may lie inside the
domain (such evaluations are flagged, since accuracy degrades there).

Two backends:

* ``rotinv-series``: for rotation-invariant weights pi_n = z^n and the
  angular integral collapses the geometric expansion of the kernel to a
  single term,

      h_n(u) = i * I_n(|u|) / u^(n+1),
      I_n(t) = integral_0^t r^(2n+1) w(r) dr,

  exact for any u != 0 (the shell |z| > |u| integrates to zero angle by
  angle).  Derivatives of the transform, in the differentiate-under-the-
  integral sense d^k: k!/(zbar-u)^(k+1), follow term by term:

      h_n^(k)(u) = i (-1)^k k! binom(n+k, k) I_n(|u|) / u^(n+k+1).

* ``quadrature``: generic singularity-aware integration.  When the pole
  lies inside the (truncated) domain the grid is re-centered on it, so
  the 1/rho singularity cancels against the rho of the area element and
  the integrand stays smooth; otherwise a plain origin-centered grid is
  used.  Both are refined adaptively.

Derivative transforms deserve a caveat: for k >= 1 the kernel is only
conditionally integrable in 2D, and with the pole inside the weight's
effective support differently foliated iterated integrals disagree by
an O(w at the pole) ambiguity, mirroring the fact that the coinciding-
variable limit they feed diverges there.  Both backends therefore treat
derivative transforms as defined for poles away from the support (where
every convention coincides); the quadrature backend refuses interior
poles at k >= 1, and the series backend extends the termwise formula
inward as a convention.

The transform obtained by dividing by (z - eps) instead is intentionally
not provided; it reduces to the lower-degree polynomials and h_0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConstraintError, ConvergenceError, NumericalError
from .orthopoly import MonicPoly, OrthoSystem, eval_poly
from .quadrature import (ROUNDING_FLOOR, adaptive_integral, cauchy_kernel_grid,
                         disk_chord_lengths, star_grid)
from .weight import DISK, WeightSpec, radial_mass

ROTINV_SERIES = "rotinv-series"
QUADRATURE = "quadrature"

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class CauchyResult:
    """Value with an error estimate and accuracy warnings."""

    value: complex
    error: float
    warnings: tuple = ()

    def __complex__(self) -> complex:
        return self.value


@dataclass(frozen=True, eq=False)
class CauchyEvaluator:
    """Per-weight evaluator of h_n(ebar) for one orthogonal system."""

    weight: WeightSpec
    system: OrthoSystem
    method: str
    tolerance: float = 1e-9
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in (ROTINV_SERIES, QUADRATURE):
            raise ConstraintError(f"unknown Cauchy method {self.method!r}")
        if self.method == ROTINV_SERIES and not self.weight.rotation_invariant:
            raise ConstraintError(
                "the series backend requires a rotation-invariant weight")
        # the series values carry rounding error too, so both backends
        # refuse what quadrature refinement could not certify
        if not self.tolerance >= ROUNDING_FLOOR:
            raise ConvergenceError(
                f"cauchy tolerance {self.tolerance:g} is below the rounding "
                f"floor {ROUNDING_FLOOR:.2e}")


def cauchy_evaluator(system: OrthoSystem, method: Optional[str] = None,
                     tolerance: float = 1e-9) -> CauchyEvaluator:
    if method is None:
        method = ROTINV_SERIES if system.weight.rotation_invariant else QUADRATURE
    return CauchyEvaluator(weight=system.weight, system=system, method=method,
                           tolerance=tolerance)


def series_transform(spec: WeightSpec, n: int, eps: complex, order: int = 0) -> complex:
    """Closed-form transform (and derivatives) for rotation-invariant weights."""
    u = complex(eps)
    if u == 0:
        if order == 0:
            return 0j
        raise NumericalError("transform derivatives at the origin are singular")
    mass = radial_mass(spec, n, abs(u))
    coeff = 1j * (-1) ** order * math.factorial(order) * math.comb(n + order, order)
    return coeff * mass / u ** (n + order + 1)


def _inside_warnings(spec: WeightSpec, eps: complex) -> tuple:
    if spec.domain.kind == DISK:
        if abs(eps) <= spec.domain.radius:
            return ("singularity inside domain",)
        return ()
    if abs(eps) < spec.effective_support_radius:
        return ("singularity inside effective support",)
    return ()


def cauchy_quadrature(spec: WeightSpec, poly: MonicPoly, eps: complex,
                      tolerance: float = 1e-9, order: int = 0) -> CauchyResult:
    """Adaptive singularity-aware quadrature of the transform integral.

    ``eps`` is the value subtracted in the kernel (the ebar of the
    transform), so the pole in z-space sits at z = conj(eps).

    Derivative kernels (order >= 1) are only conditionally integrable;
    with the pole inside the effective support the value depends on the
    integration foliation and the coinciding-variable limit they serve
    does not exist, so that combination is refused.
    """
    u = complex(eps)
    pole = np.conj(u)
    boundary = spec.domain.quad_radius
    centered = abs(u) <= boundary
    if order >= 1 and abs(u) < spec.effective_support_radius:
        raise NumericalError(
            f"derivative transform of order {order} at eps={u:.6g}: the pole "
            "lies inside the effective support, where the coinciding-variable "
            "limit is undefined")

    if centered:
        if spec.domain.kind == DISK:
            rho_max = disk_chord_lengths(pole, spec.domain.radius)
        else:
            rho_max = boundary + abs(u)

        def evaluate(n_r: int, n_t: int) -> complex:
            grid = cauchy_kernel_grid(pole, rho_max, n_r, n_t, order=order)
            f = spec.evaluate(grid.nodes) * eval_poly(poly, grid.nodes)
            return grid.integrate(f) / _TWO_PI_I

        probe = cauchy_kernel_grid(pole, rho_max, 48, 64, order=order)
        l1 = float(np.sum(np.abs(spec.evaluate(probe.nodes)
                                 * eval_poly(poly, probe.nodes))
                          * np.abs(probe.weights))) / (2 * math.pi)
    else:
        def evaluate(n_r: int, n_t: int) -> complex:
            grid = star_grid(0j, boundary, n_r, n_t)
            kern = math.factorial(order) / (np.conj(grid.nodes) - u) ** (order + 1)
            f = spec.evaluate(grid.nodes) * eval_poly(poly, grid.nodes) * kern
            return grid.integrate(f) / _TWO_PI_I

        probe = star_grid(0j, boundary, 48, 64)
        kern = math.factorial(order) / np.abs(np.conj(probe.nodes) - u) ** (order + 1)
        l1 = float(np.sum(np.abs(spec.evaluate(probe.nodes)
                                 * eval_poly(poly, probe.nodes)) * kern
                          * probe.weights)) / (2 * math.pi)

    value, err = adaptive_integral(
        evaluate, tolerance, start=(96, 128), max_doublings=3,
        scale=1e-6 * max(l1, 1e-300),
        what=f"cauchy transform at eps={u:.6g} (order {order})")
    return CauchyResult(value=value, error=err,
                        warnings=_inside_warnings(spec, u))


def cauchy_transform_full(ev: CauchyEvaluator, n: int, eps: complex,
                          order: int = 0) -> CauchyResult:
    """Transform with diagnostics; results are memoized per evaluator."""
    if not 0 <= n <= ev.system.max_degree:
        raise ConstraintError(
            f"transform degree {n} exceeds system depth {ev.system.max_degree}")
    if order < 0:
        raise ConstraintError("derivative order must be non-negative")
    key = (n, complex(eps), order)
    hit = ev._memo.get(key)
    if hit is not None:
        return hit
    if ev.method == ROTINV_SERIES:
        value = series_transform(ev.weight, n, eps, order)
        result = CauchyResult(value=value, error=abs(value) * 1e-15,
                              warnings=_inside_warnings(ev.weight, complex(eps)))
    else:
        result = cauchy_quadrature(ev.weight, ev.system.poly(n), eps,
                                   ev.tolerance, order)
    ev._memo[key] = result
    return result


def cauchy_transform(ev: CauchyEvaluator, n: int, eps: complex) -> complex:
    """h_n(ebar) for the evaluator's weight and system."""
    return cauchy_transform_full(ev, n, eps).value


def cauchy_derivative(ev: CauchyEvaluator, n: int, eps: complex,
                      order: int) -> complex:
    """k-th derivative of the transform in the under-the-integral sense."""
    return cauchy_transform_full(ev, n, eps, order=order).value


def write_table_csv(path, ev: CauchyEvaluator, degrees, eps_values) -> None:
    """Tabulate h_n over a grid of (n, eps) into a CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "eps_re", "eps_im", "h_re", "h_im", "err_estimate"])
        for n in degrees:
            for eps in eps_values:
                res = cauchy_transform_full(ev, n, eps)
                writer.writerow([n, repr(complex(eps).real), repr(complex(eps).imag),
                                 repr(res.value.real), repr(res.value.imag),
                                 repr(res.error)])
