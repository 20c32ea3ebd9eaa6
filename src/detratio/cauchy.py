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
  refinement level builds its nodes and one weighted-kernel vector g
  (weight values times quadrature weights, times the kernel on the
  plain grid) once for the whole row, so an entry's value at that level
  is the dot product of pi_n at the nodes with g, over 2 pi i.  Each
  entry still converges on its own.  An evaluator keeps the levels in a
  table that its later rows read.  The plain grid (Gauss-Legendre in
  the radius, the periodic trapezoid rule in the angle; Trefethen &
  Weideman, SIAM Rev. 56 (2014)) does not depend on the pole, so its
  nodes, w * weights and pi_n values serve every far row, and only the
  kernel and the dot products are per row.  A centred grid's nodes, w
  values and pi_n values serve the rows at the same pole, such as the
  order-1 row of a confluent pole, until a row at another centred pole
  replaces them.

Derivative transforms deserve a caveat: for k >= 1 the kernel is only
conditionally integrable in 2D, and with the pole inside the weight's
effective support differently foliated iterated integrals disagree by
an O(w at the pole) ambiguity, mirroring the fact that the coinciding-
variable limit they feed diverges there.  Both backends therefore
refuse poles on or inside the effective support at k >= 1, with the
same check.  Outside it the conventions coincide exactly only where the
weight vanishes at the pole, as outside a disk.  A full-plane weight is
positive everywhere, so the ambiguity persists beyond its effective
support and shrinks with the weight at the pole: on ``gaussian_weight()``
the order-1 quadrature transform differs from the series one by 1.7e-2,
3.1e-4, 2.3e-7 and 1.6e-11 relative at |ebar| = 3.2, 4, 5 and 6, while
the quadrature error estimate stays near 2e-14 and does not see it.

The transform obtained by dividing by (z - eps) instead is intentionally
not provided; it reduces to the lower-degree polynomials and h_0.
"""

from __future__ import annotations

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


@dataclass(eq=False)
class _Level:
    """One refinement level: its nodes, a weight vector on them, and the
    values of each polynomial on them, evaluated on first use."""

    nodes: np.ndarray
    weighted: np.ndarray
    poly_values: dict = field(default_factory=dict)

    def values(self, poly) -> np.ndarray:
        vals = self.poly_values.get(poly)
        if vals is None:
            vals = self.poly_values[poly] = eval_poly(poly, self.nodes)
        return vals


@dataclass(eq=False)
class _LevelTable:
    """Quadrature levels shared by the rows of one weight.

    ``far`` maps (n_r, n_t) to the origin-centred grid's level, whose
    weight vector is w * weights; it holds for every far pole.
    ``centred`` maps (n_r, n_t) to the level of the grid centred on
    ``centred_pole``, whose weight vector is w; a row at another
    centred pole replaces it.
    """

    far: dict = field(default_factory=dict)
    centred_pole: Optional[complex] = None
    centred: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class CauchyEvaluator:
    """Per-weight evaluator of h_n(ebar) for one orthogonal system.

    ``_memo`` holds every transform computed, under (degree, eps, order).
    On the quadrature backend ``_levels`` holds the refinement levels
    its rows built: for the origin-centred grid of far poles, each
    level's nodes, w * weights and pi_d at the nodes, kept for the
    evaluator's life; for the grid centred on the most recent centred
    pole, each level's nodes, w and pi_d values, replaced when a row
    at another centred pole arrives.  A row visits at most five levels
    (the probe and the four of ``adaptive_integral``), so with D degrees
    requested the table never exceeds 2 x 5 x (2 + D) vectors, the
    largest of 786,432 nodes, however many poles a scan visits.
    """

    weight: WeightSpec
    system: OrthoSystem
    method: str
    tolerance: float = 1e-9
    _memo: dict = field(default_factory=dict, repr=False, compare=False)
    _levels: _LevelTable = field(default_factory=_LevelTable, repr=False,
                                 compare=False)

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
    refinement level builds its grid once for the whole row and keeps
    its nodes and one vector g = w * weights (times the kernel, for a
    pole outside the domain), so an entry's value there is
    dot(pi(nodes), g) / (2 pi i).  An entry's L1 scale is the dot
    product of |pi(nodes)| with |g| on the probe level.  Each entry runs
    its own ``adaptive_integral`` on those tables, with its own probe
    scale, and stops at its own level, so its value, error and warnings
    are those of a row holding it alone.

    The levels, with the weight values and each pi(nodes) on them, live
    in a table that this call builds and drops.  ``cauchy_row`` runs the
    same code on its evaluator's table (see ``CauchyEvaluator``), where
    far levels outlive the row and centred levels last until a row at
    another centred pole; the values, errors and warnings are the same
    bits either way.

    Derivative kernels (order >= 1) are only conditionally integrable;
    with the pole on or inside the effective support the value depends
    on the integration foliation and the coinciding-variable limit they
    serve does not exist, so that combination is refused.
    """
    return _quadrature_row(spec, polys, complex(eps), tolerance, order,
                           _LevelTable())


# refinement schedule of a quadrature row: one probe level, then
# adaptive_integral from _START with at most _MAX_DOUBLINGS doublings
_PROBE = (48, 64)
_START = (96, 128)
_MAX_DOUBLINGS = 3


def _quadrature_row(spec: WeightSpec, polys, u: complex, tolerance: float,
                    order: int, table: _LevelTable) -> tuple[CauchyResult, ...]:
    _refuse_interior_derivative_pole(spec, u, order)
    pole = np.conj(u)
    boundary = spec.domain.quad_radius

    if abs(u) <= boundary:
        # centred on the pole: the kernel is folded into the grid weights
        if spec.domain.kind == DISK:
            rho_max = disk_chord_lengths(pole, spec.domain.radius)
        else:
            rho_max = boundary + abs(u)
        if table.centred_pole != u:
            table.centred_pole, table.centred = u, {}
        levels = table.centred

        def level(n_r: int, n_t: int):
            # the weights depend on the order, the nodes do not
            grid = cauchy_kernel_grid(pole, rho_max, n_r, n_t, order=order)
            lv = levels.get((n_r, n_t))
            if lv is None:
                lv = levels[n_r, n_t] = _Level(grid.nodes, spec.evaluate(grid.nodes))
            return lv, lv.weighted * grid.weights
    else:
        levels = table.far

        def level(n_r: int, n_t: int):
            lv = levels.get((n_r, n_t))
            if lv is None:
                grid = star_grid(0j, boundary, n_r, n_t)
                lv = levels[n_r, n_t] = _Level(
                    grid.nodes, spec.evaluate(grid.nodes) * grid.weights)
            # g = w * weights * order!/(zbar - ebar)^(order+1), one division
            g = lv.weighted
            shift = np.conj(lv.nodes)
            shift -= u
            if order:
                g = g * math.factorial(order)
                shift **= order + 1
            return lv, g / shift

    probe, probe_g = level(*_PROBE)
    probe_scale = np.abs(probe_g)

    row_levels = {}

    def integrate(poly, n_r: int, n_t: int) -> complex:
        if (n_r, n_t) not in row_levels:
            row_levels[n_r, n_t] = level(n_r, n_t)
        lv, g = row_levels[n_r, n_t]
        return complex(np.dot(lv.values(poly), g)) / _TWO_PI_I

    warnings = _inside_warnings(spec, u)
    results = []
    for poly in polys:
        l1 = float(np.dot(np.abs(probe.values(poly)), probe_scale)) \
            / (2 * math.pi)
        value, err = adaptive_integral(
            functools.partial(integrate, poly), tolerance, start=_START,
            max_doublings=_MAX_DOUBLINGS, scale=1e-6 * max(l1, 1e-300),
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
    quadrature backend that is one ``cauchy_quadrature_row`` pass, run
    on the evaluator's level table.
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
            computed = _quadrature_row(
                ev.weight, [ev.system.poly(n) for n in missing], u, ev.tolerance,
                order, ev._levels)
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
