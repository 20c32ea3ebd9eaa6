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

* ``quadrature``: singularity-aware integration over a disk about the
  weight's centre c, |z - c| <= R with R = row_radius(spec, max_degree)
  for the evaluator's system: on a built-in full-plane weight the
  gaussian cutoff that holds rows up to its depth, narrower than the
  disk the moments are taken on below depth 32 and wider past it; on a
  disk or a custom weight the domain.  ``cauchy_quadrature`` sizes its
  disk from its one polynomial's degree.  So on the gaussians a
  quadrature transform depends on the system's depth, at rounding level
  and well within the tolerance.  A pole in the disk gets a grid centred
  on it, rays to the circle, so 1/rho cancels against the rho of the
  area element; other poles use ``weighted_grid``.  On the gaussians a
  pole within ``row_margin(spec, R)`` (1% of R) of the circle, on either
  side, gets a centred grid whose circle lies that margin past it, where
  the weight is below 1e-16 of its peak: near-tangent rays, or a near
  pole on the plain grid, keep derivative rows of order 2 and 3 from
  converging on the circle itself.  Both are refined
  adaptively.  A row of transforms at one pole and order, over several
  degrees, is integrated in one pass: each refinement level builds its
  nodes and one weighted-kernel vector g (weight values times quadrature
  weights, times the kernel on the plain grid) once for the whole row,
  so an entry's value at that level is the dot product of pi_n at the
  nodes with g, over 2 pi i.  Each entry still converges on its own,
  over at most five levels of ``adaptive_integral``, the probe first:
  the 48x64 probe sets the entry's scale and is also its first value, so
  an entry whose 48x64 and 96x128 values agree stops at 96x128.  An
  evaluator keeps the levels in a table that its later rows read.  The
  plain grid (Gauss-Legendre in the radius, the periodic trapezoid rule
  in the angle; Trefethen & Weideman, SIAM Rev. 56 (2014)) does not
  depend on the pole, so its nodes, w * weights and pi_n values serve
  every far row, and only the kernel and the dot products are per row.
  A centred grid's nodes, w values and pi_n values serve the rows at the
  same pole, such as the order-1 row of a confluent pole, until a row at
  another centred pole replaces them; only its kernel weights, which
  depend on the order, are formed per row.

Derivative transforms deserve a caveat: for k >= 1 the kernel is only
conditionally integrable in 2D, and with the pole inside the weight's
effective support differently foliated iterated integrals disagree by
an O(w at the pole) ambiguity, mirroring the fact that the coinciding-
variable limit they feed diverges there.  Both backends therefore
refuse poles on or inside the effective support at k >= 1, with the
same check, ``_check_pole``.  Outside it the conventions coincide exactly only where the
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

from .errors import ConstraintError, NumericalError
from .orthopoly import MonicPoly, OrthoSystem, eval_poly
from .quadrature import (PROBE, adaptive_integral, cauchy_kernel_grid,
                         cauchy_kernel_weights, disk_chord_lengths,
                         require_certifiable)
from .weight import (DISK, WeightSpec, radial_mass, row_margin, row_radius,
                     weighted_grid)

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
    """One refinement level: its nodes as zeta = z - ``centre``, a weight
    vector on them, and each polynomial's values on them, evaluated on
    first use."""

    zeta: np.ndarray
    weighted: np.ndarray
    centre: complex
    poly_values: dict = field(default_factory=dict)

    def values(self, poly) -> np.ndarray:
        vals = self.poly_values.get(poly)
        if vals is None:
            vals = self.poly_values[poly] = eval_poly(poly.coeffs, self.zeta) \
                if poly.centre == self.centre else eval_poly(poly, self.zeta + self.centre)
        return vals


@dataclass(eq=False)
class _LevelTable:
    """Quadrature levels shared by the rows of one weight.

    ``radius`` is that of the disk about the weight's centre that every
    row on the table integrates over, ``row_radius`` of the deepest
    degree it serves, and ``margin`` its ``row_margin``; an evaluator
    sets both on its first quadrature row.
    ``far`` maps (n_r, n_t) to the level of the weight's own grid on
    that disk, whose weight vector is w * weights; it holds for every
    pole more than ``margin`` outside the disk.
    ``centred`` maps (n_r, n_t) to the level of the grid centred on
    ``centred_pole``, whose weight vector is w, with rays to the disk's
    circle or, for a pole within ``margin`` of it, to the circle
    ``margin`` past the pole; a row at another centred pole replaces it.
    """

    radius: Optional[float] = None
    margin: float = 0.0
    far: dict = field(default_factory=dict)
    centred_pole: Optional[complex] = None
    centred: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class CauchyEvaluator:
    """Per-weight evaluator of h_n(ebar) for one orthogonal system.

    ``_memo`` maps a pole eps to the transforms computed there, under
    (degree, order).  It keeps at most ``max_degree + 1`` poles and
    evicts the least recently requested first: a query has at most
    N <= max_degree + 1 distinct eps, so its own poles stay while a long
    scan moves on.
    On the quadrature backend every row integrates on the disk of
    ``row_radius(weight, max_degree)`` about the weight's centre, which
    the first quadrature row computes with its ``row_margin``, so that
    setting an evaluator up runs no bisection; on a built-in gaussian it
    is narrower than the moments' disk below depth 32.  ``_levels``
    holds that radius and margin and the refinement levels its rows
    built: for the weight's own grid, which serves every pole past the
    margin outside the disk, each level's nodes (held as z - c),
    w * weights and pi_d at the nodes, kept for the evaluator's life;
    for the grid centred on the most recent pole inside the disk or its
    margin, each level's nodes, w and pi_d values, replaced when a row
    at another such pole arrives.
    A row visits at most five levels of ``adaptive_integral``, the probe
    first, so with D degrees requested the table never exceeds
    2 x 5 x (2 + D) vectors, the largest of 786,432 nodes, however many
    poles a scan visits.
    """

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
        require_certifiable(self.tolerance, "cauchy evaluator")

    @property
    def weight(self) -> WeightSpec:
        return self.system.weight

    @property
    def relative_error(self) -> float:
        """Relative error of one transform: rounding, or the tolerance."""
        return 1e-14 if self.method == ROTINV_SERIES else self.tolerance


def cauchy_evaluator(system: OrthoSystem, method: Optional[str] = None,
                     tolerance: float = 1e-9) -> CauchyEvaluator:
    if method is None:
        method = ROTINV_SERIES if system.weight.rotation_invariant else QUADRATURE
    return CauchyEvaluator(system=system, method=method, tolerance=tolerance)


def _check_pole(spec: WeightSpec, eps: complex, order: int) -> tuple:
    """The warnings of a row of transforms at the pole ``eps``.

    A pole on or inside the effective support (on a disk, the disk) is
    flagged at order 0 and refused with NumericalError at order >= 1.
    Each backend calls this once per row before computing anything, so a
    pole on a disk's boundary is refused before any grid is built;
    ``series_transform``, callable alone, checks its own entry too.
    """
    if abs(eps) <= spec.effective_support_radius:
        if order >= 1:
            raise NumericalError(
                f"derivative transform of order {order} at eps={complex(eps):.6g}: "
                "the pole lies on or inside the effective support, where the "
                "coinciding-variable limit is undefined")
        return ("singularity inside domain" if spec.domain.kind == DISK
                else "singularity inside effective support",)
    return ()


def series_transform(spec: WeightSpec, n: int, eps: complex, order: int = 0) -> complex:
    """Closed-form transform (and derivatives) for rotation-invariant weights."""
    u = complex(eps)
    _check_pole(spec, u, order)
    if u == 0:
        return 0j
    mass = radial_mass(spec, n, abs(u))
    coeff = 1j * (-1) ** order * math.factorial(order) * math.comb(n + order, order)
    k = n + order + 1
    try:
        return coeff * mass / u ** k
    except OverflowError:  # a far pole: the power overflows, its inverse need not
        return coeff * mass * (1 / u) ** k


def _quadrature_row(spec: WeightSpec, polys, u: complex, tolerance: float,
                    order: int, table: _LevelTable) -> tuple[CauchyResult, ...]:
    """Transforms of ``polys`` at the ebar ``u`` (pole z = conj(u)) on the
    levels of ``table``, over its disk; each entry stops at its own
    level, so its bits are those of a row holding it alone, on any table
    of the same radius."""
    warnings = _check_pole(spec, u, order)
    pole, c, radius, margin = np.conj(u), spec.centre, table.radius, table.margin

    if abs(pole - c) <= radius + margin:
        # centred on the pole, rays to a circle about c at least ``margin``
        # past it (the disk's own unless the pole lies next to it), kernel
        # in the weights
        rho_max = disk_chord_lengths(pole - c, max(radius, abs(pole - c) + margin))
        if table.centred_pole != u:
            table.centred_pole, table.centred = u, {}
        levels = table.centred

        def level(n_r: int, n_t: int):
            lv = levels.get((n_r, n_t))
            if lv is None:
                grid = cauchy_kernel_grid(pole, rho_max, n_r, n_t, order=order)
                lv = levels[n_r, n_t] = _Level(grid.nodes - c if c else grid.nodes,
                                               spec.evaluate(grid.nodes), c)
                return lv, lv.weighted * grid.weights
            # the weights depend on the order, the nodes do not
            return lv, lv.weighted * cauchy_kernel_weights(rho_max, n_r, n_t, order)
    else:
        levels = table.far

        def level(n_r: int, n_t: int):
            lv = levels.get((n_r, n_t))
            if lv is None:
                nodes, weighted = weighted_grid(spec, radius, n_r, n_t)
                lv = levels[n_r, n_t] = _Level(nodes - c if c else nodes, weighted, c)
            # g = w * weights * order!/(zbar - ebar)^(order+1), one division,
            # with zbar - ebar = conj(zeta) - (ebar - conj(c))
            g = lv.weighted
            shift = np.conj(lv.zeta)
            shift -= u - np.conj(c) if c else u
            if order:
                g = g * math.factorial(order)
                shift **= order + 1
            return lv, g / shift

    probe, probe_g = level(*PROBE)
    probe_scale = np.abs(probe_g)

    row_levels = {PROBE: (probe, probe_g)}

    def integrate(poly, n_r: int, n_t: int) -> complex:
        if (n_r, n_t) not in row_levels:
            row_levels[n_r, n_t] = level(n_r, n_t)
        lv, g = row_levels[n_r, n_t]
        return complex(np.dot(lv.values(poly), g)) / _TWO_PI_I

    results = []
    for poly in polys:
        l1 = float(np.dot(np.abs(probe.values(poly)), probe_scale)) \
            / (2 * math.pi)
        value, err = adaptive_integral(
            functools.partial(integrate, poly), tolerance, scale=1e-6 * max(l1, 1e-300),
            what=f"cauchy transform of degree {poly.degree} at eps={u:.6g} "
                 f"(order {order})")
        results.append(CauchyResult(value=value, error=err, warnings=warnings))
    return tuple(results)


def cauchy_quadrature(spec: WeightSpec, poly: MonicPoly, eps: complex,
                      tolerance: float = 1e-9, order: int = 0) -> CauchyResult:
    """Quadrature transform of one polynomial: a row of one entry, on a
    level table of its own, whose disk holds the polynomial's degree."""
    radius = row_radius(spec, poly.degree)
    return _quadrature_row(spec, (poly,), complex(eps), tolerance, order,
                           _LevelTable(radius, row_margin(spec, radius)))[0]


def cauchy_row(ev: CauchyEvaluator, degrees, eps: complex,
               order: int = 0) -> tuple[CauchyResult, ...]:
    """Transforms h_d^(order)(eps) for each d in ``degrees``, memoized per
    evaluator under eps and then (d, order).

    The degrees missing from the memo are computed together; on the
    quadrature backend that is one ``_quadrature_row`` pass on the
    evaluator's level table, whose disk the first such pass sizes.
    """
    degrees = tuple(degrees)
    polys = {n: ev.system.poly(n) for n in degrees}
    if order < 0:
        raise ConstraintError("derivative order must be non-negative")
    u = complex(eps)
    memo = ev._memo
    entries = memo.get(u, {})
    missing = [n for n in polys if (n, order) not in entries]
    if missing:
        if ev.method == ROTINV_SERIES:
            warnings = _check_pole(ev.weight, u, order)
            values = [series_transform(ev.weight, n, u, order) for n in missing]
            computed = [CauchyResult(value=v, error=abs(v) * 1e-15, warnings=warnings)
                        for v in values]
        else:
            table = ev._levels
            if table.radius is None:
                radius = row_radius(ev.weight, ev.system.max_degree)
                table.radius, table.margin = radius, row_margin(ev.weight, radius)
            computed = _quadrature_row(ev.weight, [polys[n] for n in missing], u,
                                       ev.tolerance, order, table)
        for n, result in zip(missing, computed):
            entries[n, order] = result
    memo.pop(u, None)
    memo[u] = entries   # the most recently requested pole is the last
    while len(memo) > ev.system.max_degree + 1:
        del memo[next(iter(memo))]
    return tuple(entries[n, order] for n in degrees)


def cauchy_transform_full(ev: CauchyEvaluator, n: int, eps: complex,
                          order: int = 0) -> CauchyResult:
    """Transform with diagnostics; a row of one degree."""
    return cauchy_row(ev, (n,), eps, order)[0]


def cauchy_transform(ev: CauchyEvaluator, n: int, eps: complex) -> complex:
    """h_n(ebar) for the evaluator's weight and system."""
    return cauchy_transform_full(ev, n, eps).value
