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
  integral sense d^k: k!/(zbar-u)^(k+1), follow term by term with I_n
  held fixed:

      h_n^(k)(u) = i (-1)^k k! binom(n+k, k) I_n(|u|) / u^(n+k+1).

  Inside a disk, and on a gaussian below scale |u|^2 = n + 1, I_n = |u|^(2n+2) J_n
  (``weight.scaled_radial_mass``) and an entry is formed from conj(u)^(n+1) J_n / u^k,
  which underflows only with its value; elsewhere I_n / u^(n+k+1) is formed before
  the coefficient multiplies.  An entry carries ``SERIES_ROUNDING`` (n + k + 1) |h|.

* ``quadrature``: the same expansion about the weight's centre c, for
  any weight (the split of Daripa's fast Cauchy transform, SIAM J. Sci.
  Stat. Comput. 13 (1992) 1418).  With zeta = z - c = rho e^{i phi},
  b = ebar - conj(c), s = |b| and w_m(rho) the angular harmonics of w
  about c, the kernel expands in conj(zeta)/b for rho < s and in
  b/conj(zeta) for rho > s, and the angle keeps one harmonic per power:

      h_n = i sum_j a_j sum_m integral_0^R rho^j (rho/b)^(m+j+1) w_m e drho,

  pi_n = sum_j a_j zeta^j, with e = 1 where rho < s and m + j >= 0,
  e = -1 where rho > s and m + j < 0, and e = 0 otherwise, so that no
  power exceeds 1.  R = ``row_radius(spec, depth)`` holds every row of
  the system.  One table per system and tolerance, built by the first
  quadrature row and kept with the system, holds those integrals up to
  each edge of fixed radial panels, and the harmonics w_m at the panels'
  Gauss-Legendre nodes (``weight.harmonic_moments``); a row reads the
  panels below and above s from it and integrates the panel holding s,
  split there, with w_m interpolated at the nodes of its two halves from
  the panel's own (barycentric Lagrange interpolation, Berrut &
  Trefethen, SIAM Rev. 46 (2004) 501), so it evaluates no weight and
  takes no FFT.  Past the disk (s >= R)
  a row is the far expansion h_n = i sum_k P_k / b^(k+1), where
  orthogonality sets P_k = 0 for k < n and P_n = r_n / 2 pi exactly, so
  deep far rows do not cancel.  An entry's error estimate is the table's
  relative doubling change times the L1 norm of the row's terms.

Derivative transforms deserve a caveat: for k >= 1 the kernel is only
conditionally integrable in 2D, and with the pole inside the weight's
effective support differently foliated iterated integrals disagree by
an O(w at the pole) ambiguity, mirroring the fact that the coinciding-
variable limit they feed diverges there.  Both backends therefore
refuse poles on or inside the effective support at k >= 1, with the
same check, ``_check_pole``.  Beyond it the quadrature backend
integrates by parts: the order-k row of pi_n is the order-0 row of
pi_n d^k w/dzbar^k, on a gaussian (-scale)^k times the row of
zeta^k pi_n (``weight.conj_derivative_factor``), so a gaussian's table
holds degree 2 max_degree; a disk or a custom weight admits k >= 1 only
past its domain, where the far expansion's term-by-term derivative is
exact.  The two conventions coincide only where the weight vanishes at
the pole, as outside a disk.  At order 1 the quadrature row less the
series row is (i/2) (conj(b)/b) pi_n(conj(ebar)) w(conj(ebar)): on
``gaussian_weight()`` 1.7e-2, 3.1e-4, 2.3e-7 and 1.6e-11 relative at
|ebar| = 3.2, 4, 5 and 6, which neither error estimate reports.

A ``CauchyEvaluator`` memoizes a row per (ebar, order): whole from one
quadrature pass, a requested degree at a time from the series.

The transform obtained by dividing by (z - eps) instead is intentionally
not provided; it reduces to the lower-degree polynomials and h_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstraintError, NumericalError
from .orthopoly import OrthoSystem
from .quadrature import PROBE, adaptive_integral, require_certifiable
from .weight import (DISK, PANEL_NODES, WeightSpec, both_signs, conj_derivative_factor,
                     harmonic_moments, panel_interpolation, radial_mass, row_radius,
                     scaled_radial_mass, split_panel)

ROTINV_SERIES = "rotinv-series"
QUADRATURE = "quadrature"
SERIES_ROUNDING = 4 * 2.0 ** -52   # per n + k + 1: up to 2.8 eps seen against mpmath


class CauchyResult(NamedTuple):
    """Value with an error estimate and accuracy warnings."""

    value: complex
    error: float
    warnings: tuple = ()


@dataclass(frozen=True, eq=False)
class _HarmonicTable:
    """``weight.harmonic_moments`` on the disk of ``radius`` from ``n_t`` angles,
    the finest table's alone: the partial ``moments`` and the ``harmonics``
    w_m, m >= 0, at the panels' nodes; its relative doubling ``change``;
    the coefficient matrix of its rows, in zeta, and ``far``.

    The last three fields serve every split row, whatever its pole: the
    ``powers`` p = m + j + 1, from -band + 1 to band + depth + 1; the
    ``window`` that indexes them per (j, m); and the ``sides``, 1 where a
    node of the split panel (its half below s, then above) lies on the
    side of s its power's terms take (p >= 1 below, p <= 0 above), else 0."""

    radius: float
    n_t: int
    moments: np.ndarray
    harmonics: np.ndarray
    change: float
    coeffs: np.ndarray
    far: np.ndarray
    powers: np.ndarray
    window: np.ndarray
    sides: np.ndarray


@dataclass(frozen=True, eq=False)
class CauchyEvaluator:
    """Per-weight evaluator of h_n(ebar) for one orthogonal system.

    ``_memo`` maps a key (eps, order) to its row, a slot per degree
    0..max_degree: all filled on the quadrature backend, the degrees
    requested so far on the series backend, whose closed forms share no
    work across degrees.  It keeps at most ``max_degree + 1`` keys and
    evicts the least recently requested first: a query needs at most
    M <= N <= max_degree + 1 keys, so its own rows stay while a long scan
    moves on.
    On the quadrature backend every row reads the system's harmonic
    table at the evaluator's tolerance, which the first quadrature row of
    any evaluator of the system builds into its ``_cauchy_tables``: one
    table however many poles a scan visits, and none while an evaluator
    is set up.  A row reads that table alone: no weight evaluation and no
    FFT, whether its pole lies past the table's disk or inside it.
    """

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
    Each backend calls this once before computing entries of a row;
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
    coeff = 1j * (-1) ** order * math.factorial(order) * math.comb(n + order, order)
    scaled = scaled_radial_mass(spec, n, abs(u))
    if scaled is not None:   # the mass is |u|^(2n+2) J_n, and |u|^2 / u = conj(u)
        return coeff * (u.conjugate() ** (n + 1) * scaled / u ** order)
    mass, k = radial_mass(spec, n, abs(u)), n + order + 1
    try:   # divided first, as coeff times the mass may overflow; a mass of 0 gives 0
        return coeff * (mass / u ** k) if mass else 0j
    except OverflowError:  # a far pole: the power overflows, its inverse need not
        return coeff * (mass * (1 / u) ** k)


def _harmonic_table(spec: WeightSpec, coeffs: np.ndarray, depth: int, tolerance: float,
                    norms=None) -> _HarmonicTable:
    """The harmonic table of degrees up to ``depth`` on the disk of
    ``row_radius(spec, depth)``, for the rows of ``coeffs`` (in zeta, at
    most depth + 1 wide); with their ``norms``, orthogonality sets P_k = 0
    below each degree n and P_n = r_n / 2 pi.

    ``adaptive_integral``'s sizes (n_r, n_t) stand for n_r / 6 panels and
    n_t angles: its 48x64 probe is the table of 8 panels and 64 angles,
    and each doubling doubles both.  Successive tables are compared on
    the moments at the probe's panel edges and the plain moments of its
    panels, each over its degree's L1 moment integral_0^R rho^j w_0 and
    summed over the m of each residue modulo 63, so that a harmonic one
    table lacks still counts; the finer table is kept, and only it."""
    radius, fold, finest = row_radius(spec, depth), PROBE[1] - 1, []

    def evaluate(n_r: int, n_t: int) -> np.ndarray:
        finest.clear()      # the coarser table is compared, no longer held
        moments, plain, harmonics = harmonic_moments(spec, radius, depth, n_r // 6, n_t)
        finest.extend((n_t, moments, harmonics))
        step, band = n_r // PROBE[0], (moments.shape[2] - 1) // 2
        both = np.concatenate([moments[step::step],
                               plain.reshape(-1, step, *plain.shape[1:]).sum(axis=1)])
        return both @ (np.arange(-band, band + 1)[:, None] % fold == np.arange(fold)) \
            / plain[:, :, band].real.sum(axis=0)[:, None]

    compared, err = adaptive_integral(
        evaluate, tolerance, what=f"harmonic table of {spec.label()} to degree {depth}")
    n_t, moments, harmonics = finest
    width = moments.shape[2]       # 2 band + 1
    # G[n, k] = P_k / R^(k+1) on the whole disk, k = m + j, so that a far
    # row is i sum_k (R/b)^(k+1) G[n, k]; the suffix part is 0 at R
    far = np.zeros((len(coeffs), depth + width), dtype=complex)
    for j in range(coeffs.shape[1]):
        far[:, j:j + width] += coeffs[:, j, None] * moments[-1, j]
    far = far[:, width // 2:]
    for d, norm in enumerate(norms or ()):
        far[d, :d] = 0.0
        far[d, d] = norm / (2 * math.pi * radius ** (d + 1))
    powers = np.arange(depth + width) - width // 2 + 1
    below = np.arange(2 * PANEL_NODES) < PANEL_NODES
    return _HarmonicTable(radius, n_t, moments, harmonics,
                          err / float(np.max(np.abs(compared))), coeffs, far, powers,
                          np.arange(depth + 1)[:, None] + np.arange(width),
                          (below[:, None] == (powers >= 1)).astype(float))


def _split_sums(table: _HarmonicTable, b: complex) -> tuple:
    """u_j = i sum_m of the terms of zeta^j at b inside the disk, j <= depth,
    and the L1 norm of those terms: the panels below the one holding
    s = |b| from the table's prefix, those above from its suffix, and that
    panel split at s, on the nodes of its two halves, with the harmonics
    interpolated there from the table's at the panel's own nodes."""
    radius, (panels, degrees, _), s = table.radius, table.moments.shape, abs(b)
    p, window, panels = table.powers, table.window, panels - 1
    a = min(int(s / radius * panels), panels - 1)
    low, high = radius * a / panels, radius * (a + 1) / panels
    inner = p >= 1
    # (rho/b)^p = (rho/s)^p (b/s)^-p, outer terms negated
    phase = np.exp(-1j * math.atan2(b.imag, b.real) * p) * np.where(inner, 1.0, -1.0)
    edge = np.where(inner, low / s if s else 0.0, s / high) ** np.abs(p)
    unit, weights = split_panel((s - low) / (high - low))
    rho, weights = low + (high - low) * unit, (high - low) * weights
    half = panel_interpolation(unit) @ table.harmonics[a * PANEL_NODES:(a + 1) * PANEL_NODES]
    # rho/s below s and s/rho above, each to the powers of its own side
    ratio = np.concatenate([rho[:PANEL_NODES] / s if s else np.zeros(PANEL_NODES),
                            s / rho[PANEL_NODES:]])
    split = np.einsum("rj,rjm,rm->jm", weights[:, None] * rho[:, None] ** np.arange(degrees),
                      (ratio[:, None] ** np.abs(p) * table.sides)[:, window],
                      both_signs(half))
    terms = phase[window] * (edge[window] * np.where(inner[window], table.moments[a],
                                                      table.moments[a + 1]) + split)
    return 1j * terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _quadrature_row(spec: WeightSpec, table: _HarmonicTable, u: complex,
                    order: int) -> tuple[CauchyResult, ...]:
    """Transforms at the ebar ``u`` (pole z = conj(u)) of every row of ``table``."""
    warnings = _check_pole(spec, u, order)
    b = u - np.conj(spec.centre)
    if abs(b) >= table.radius:
        # the far expansion, differentiated term by term in b
        k = np.arange(table.far.shape[1])
        rising = np.prod(k[:, None] + np.arange(1.0, order + 1), axis=1)
        terms = table.far * rising * (table.radius / b) ** (k + 1)
        values = 1j * (-1 / b) ** order * terms.sum(axis=1)
        l1 = abs(1 / b) ** order * np.abs(terms).sum(axis=1)
    else:
        # by parts: the order-t row of pi_n is a^t times the row of zeta^t pi_n
        a, coeffs = conj_derivative_factor(spec) if order else 1.0, table.coeffs
        width, depth = coeffs.shape[1], table.moments.shape[1] - 1
        if width + order > depth + 1:
            raise ConstraintError(f"a derivative row of order {order} inside the disk needs "
                                  f"degree {width - 1 + order}; the harmonic table holds {depth}")
        sums, l1 = _split_sums(table, b)
        values = a ** order * (coeffs * sums[order:order + width]).sum(axis=1)
        l1 = abs(a) ** order * (np.abs(coeffs) * l1[order:order + width]).sum(axis=1)
    return tuple(CauchyResult(v, e, warnings)
                 for v, e in zip(values.tolist(), (table.change * l1).tolist()))


def cauchy_quadrature(spec: WeightSpec, coeffs, eps: complex,
                      tolerance: float = 1e-9, order: int = 0) -> CauchyResult:
    """Quadrature transform of the polynomial with ``coeffs`` in powers of
    zeta = z - c, c the weight's centre, on a harmonic table of its own to
    its degree (plus ``order`` on a gaussian), with no orthogonality: the
    tests' reference, kept for them and bench/tracer.py (ROADMAP item 5)."""
    depth = len(coeffs) - 1 + (order if conj_derivative_factor(spec) is not None else 0)
    table = _harmonic_table(spec, np.asarray(coeffs, dtype=complex)[None], depth, tolerance)
    return _quadrature_row(spec, table, complex(eps), order)[0]


def cauchy_row(ev: CauchyEvaluator, degrees, eps: complex,
               order: int = 0) -> tuple[CauchyResult, ...]:
    """Transforms h_d^(order)(eps) for each d in ``degrees``, sliced from the
    evaluator's row at (eps, order): on a miss, every degree of a quadrature
    row in one pass; on the series backend, the requested degrees missing."""
    degrees, sys_, spec = tuple(degrees), ev.system, ev.weight
    sys_.check_degrees(degrees)
    if order < 0:
        raise ConstraintError("derivative order must be non-negative")
    key, memo = (complex(eps), order), ev._memo
    row = memo.pop(key, None)
    if ev.method == ROTINV_SERIES:
        row = row or [None] * (sys_.max_degree + 1)
        missing = {n for n in degrees if row[n] is None}
        warnings = _check_pole(spec, key[0], order) if missing else ()
        for n in missing:
            v = series_transform(spec, n, key[0], order)
            row[n] = CauchyResult(v, SERIES_ROUNDING * (n + order + 1) * abs(v), warnings)
    elif row is None:
        tables, tol = sys_._cauchy_tables, ev.tolerance
        if tol not in tables:   # the system's first row at this tolerance
            depth = sys_.max_degree * (1 if conj_derivative_factor(spec) is None else 2)
            tables[tol] = _harmonic_table(spec, sys_.coeffs, depth, tol, sys_.norms)
        row = _quadrature_row(spec, tables[tol], key[0], order)
    memo[key] = row     # the most recently requested key is the last
    while len(memo) > sys_.max_degree + 1:
        del memo[next(iter(memo))]
    return tuple(row[n] for n in degrees)


def cauchy_transform_full(ev: CauchyEvaluator, n: int, eps: complex,
                          order: int = 0) -> CauchyResult:
    """A row of one degree, kept for bench/tracer.py's TRACED list (ROADMAP item 5)."""
    return cauchy_row(ev, (n,), eps, order)[0]
