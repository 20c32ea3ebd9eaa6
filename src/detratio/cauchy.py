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
  used.  Both are refined adaptively.  A row of transforms at one pole
  and order, over several degrees, is integrated in one pass: each
  refinement level builds its grid, weight values and kernel once for
  the whole row, and each entry still converges on its own.

Derivative transforms deserve a caveat: for k >= 1 the kernel is only
conditionally integrable in 2D, and with the pole inside the weight's
effective support differently foliated iterated integrals disagree by
an O(w at the pole) ambiguity, mirroring the fact that the coinciding-
variable limit they feed diverges there.  Derivative transforms are
therefore defined only for poles outside the effective support, where
every convention coincides, and both backends refuse poles on or
inside it at k >= 1 with the same check.

The transform obtained by dividing by (z - eps) instead is intentionally
not provided; it reduces to the lower-degree polynomials and h_0.
"""

from __future__ import annotations

import csv
import functools
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


def _refuse_interior_derivative_pole(spec: WeightSpec, eps: complex,
                                    order: int) -> None:
    """Refuse a derivative transform whose pole does not lie strictly
    outside the effective support; both backends call this before
    computing anything.  On a disk boundary the chord grid has
    zero-length rays, which the derivative kernel divides by."""
    if order >= 1 and abs(eps) <= spec.effective_support_radius:
        raise NumericalError(
            f"derivative transform of order {order} at eps={complex(eps):.6g}: "
            "the pole lies on or inside the effective support, where the "
            "coinciding-variable limit is undefined")


def series_transform(spec: WeightSpec, n: int, eps: complex, order: int = 0) -> complex:
    """Closed-form transform (and derivatives) for rotation-invariant weights."""
    u = complex(eps)
    _refuse_interior_derivative_pole(spec, u, order)
    if u == 0:
        return 0j
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


def cauchy_quadrature_row(spec: WeightSpec, polys, eps: complex,
                          tolerance: float = 1e-9,
                          order: int = 0) -> tuple[CauchyResult, ...]:
    """Adaptive singularity-aware quadrature of the transforms of ``polys``.

    ``eps`` is the value subtracted in the kernel (the ebar of the
    transform), so the pole in z-space sits at z = conj(eps).  Each
    refinement level, the probe level included, builds its grid, weight
    values and (for a pole outside the domain) kernel once for the whole
    row.  Each entry then runs its own ``adaptive_integral`` on those
    tables, with its own probe scale, and stops at its own level, so its
    value, error and warnings are those of a row holding it alone.

    Derivative kernels (order >= 1) are only conditionally integrable;
    with the pole on or inside the effective support the value depends
    on the integration foliation and the coinciding-variable limit they
    serve does not exist, so that combination is refused.
    """
    u = complex(eps)
    _refuse_interior_derivative_pole(spec, u, order)
    pole = np.conj(u)
    boundary = spec.domain.quad_radius

    if abs(u) <= boundary:
        # centred on the pole: the kernel is folded into the grid weights
        if spec.domain.kind == DISK:
            rho_max = disk_chord_lengths(pole, spec.domain.radius)
        else:
            rho_max = boundary + abs(u)

        def level(n_r: int, n_t: int):
            grid = cauchy_kernel_grid(pole, rho_max, n_r, n_t, order=order)
            return grid, spec.evaluate(grid.nodes), None

        probe, probe_w, _ = level(48, 64)
        probe_kern = None
    else:
        def level(n_r: int, n_t: int):
            grid = star_grid(0j, boundary, n_r, n_t)
            kern = math.factorial(order) / (np.conj(grid.nodes) - u) ** (order + 1)
            return grid, spec.evaluate(grid.nodes), kern

        probe = star_grid(0j, boundary, 48, 64)
        probe_w = spec.evaluate(probe.nodes)
        probe_kern = (math.factorial(order)
                      / np.abs(np.conj(probe.nodes) - u) ** (order + 1))
    probe_weights = np.abs(probe.weights)

    tables = {}

    def integrate(poly, n_r: int, n_t: int) -> complex:
        if (n_r, n_t) not in tables:
            tables[n_r, n_t] = level(n_r, n_t)
        grid, w, kern = tables[n_r, n_t]
        f = w * eval_poly(poly, grid.nodes)
        if kern is not None:
            f = f * kern
        return grid.integrate(f) / _TWO_PI_I

    warnings = _inside_warnings(spec, u)
    results = []
    for poly in polys:
        magnitude = np.abs(probe_w * eval_poly(poly, probe.nodes))
        if probe_kern is not None:
            magnitude = magnitude * probe_kern
        l1 = float(np.sum(magnitude * probe_weights)) / (2 * math.pi)
        value, err = adaptive_integral(
            functools.partial(integrate, poly), tolerance, start=(96, 128),
            max_doublings=3, scale=1e-6 * max(l1, 1e-300),
            what=f"cauchy transform of degree {poly.degree} at eps={u:.6g} "
                 f"(order {order})")
        results.append(CauchyResult(value=value, error=err, warnings=warnings))
    return tuple(results)


def cauchy_quadrature(spec: WeightSpec, poly: MonicPoly, eps: complex,
                      tolerance: float = 1e-9, order: int = 0) -> CauchyResult:
    """Quadrature transform of one polynomial: a row of one entry."""
    return cauchy_quadrature_row(spec, (poly,), eps, tolerance, order)[0]


def cauchy_row(ev: CauchyEvaluator, degrees, eps: complex,
               order: int = 0) -> tuple[CauchyResult, ...]:
    """Transforms h_d^(order)(eps) for each d in ``degrees``, memoized per
    evaluator under (d, eps, order).

    The degrees missing from the memo are computed together; on the
    quadrature backend that is one ``cauchy_quadrature_row`` pass.
    """
    degrees = tuple(degrees)
    for n in degrees:
        if not 0 <= n <= ev.system.max_degree:
            raise ConstraintError(
                f"transform degree {n} exceeds system depth {ev.system.max_degree}")
    if order < 0:
        raise ConstraintError("derivative order must be non-negative")
    u = complex(eps)
    missing = [n for n in dict.fromkeys(degrees) if (n, u, order) not in ev._memo]
    if missing:
        if ev.method == ROTINV_SERIES:
            computed = []
            for n in missing:
                value = series_transform(ev.weight, n, u, order)
                computed.append(CauchyResult(value=value, error=abs(value) * 1e-15,
                                             warnings=_inside_warnings(ev.weight, u)))
        else:
            computed = cauchy_quadrature_row(
                ev.weight, [ev.system.poly(n) for n in missing], u, ev.tolerance,
                order)
        for n, result in zip(missing, computed):
            ev._memo[n, u, order] = result
    return tuple(ev._memo[n, u, order] for n in degrees)


def cauchy_transform_full(ev: CauchyEvaluator, n: int, eps: complex,
                          order: int = 0) -> CauchyResult:
    """Transform with diagnostics; a row of one degree."""
    return cauchy_row(ev, (n,), eps, order)[0]


def cauchy_transform(ev: CauchyEvaluator, n: int, eps: complex) -> complex:
    """h_n(ebar) for the evaluator's weight and system."""
    return cauchy_transform_full(ev, n, eps).value


def cauchy_derivative(ev: CauchyEvaluator, n: int, eps: complex,
                      order: int) -> complex:
    """k-th derivative of the transform in the under-the-integral sense."""
    return cauchy_transform_full(ev, n, eps, order=order).value


def write_table_csv(path, ev: CauchyEvaluator, degrees, eps_values) -> None:
    """Tabulate h_n over a grid of (n, eps) into a CSV file, n-major.

    Each eps is computed as one row over ``degrees``."""
    degrees = tuple(degrees)
    eps_values = tuple(eps_values)
    rows = [cauchy_row(ev, degrees, eps) for eps in eps_values]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "eps_re", "eps_im", "h_re", "h_im", "err_estimate"])
        for i, n in enumerate(degrees):
            for eps, row in zip(eps_values, rows):
                res = row[i]
                writer.writerow([n, repr(complex(eps).real), repr(complex(eps).imag),
                                 repr(res.value.real), repr(res.value.imag),
                                 repr(res.error)])
