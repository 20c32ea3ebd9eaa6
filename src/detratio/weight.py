"""Weight functions on planar domains and their moments about the centre.

A weight is a strictly positive density w(z, zbar) on a domain D, either
a disk or the full complex plane (truncated at an effective cutoff
radius for quadrature).  The measure convention throughout the package
is dw = w(z, zbar) dA with dA the real Lebesgue area element.  Moments
are taken about the weight's centre c (``WeightSpec.centre``),

    M_jk = integral_D  zeta^j conj(zeta)^k w(z, zbar) dA,   zeta = z - c,

a Hermitian positive definite Gram matrix for any admissible weight.
The built-in families have them in closed form, diagonal for each
(``closed_moments``).  Quadrature moments, of a custom weight or on
request, are summed by ``planar_moments`` over the polar grid of
``weighted_grid`` centred on c, with no table of node powers.

This module is the only one that knows the weight families; no other
module names one.  ``FAMILIES`` lists the built-in families with their
configuration fields and factories, and the functions here define the
rest: values, centre, effective support, quadrature radius, closed-form
radial masses and moments, and the Monte Carlo sampler.  Adding or
removing a family touches this module alone.

* ``gaussian``          w = amplitude * exp(-scale |z|^2) on the plane;
  the shifted gaussian at 0, whose Cauchy transforms have a closed form
* ``disk-flat``         w = amplitude on |z| <= radius
* ``shifted-gaussian``  w = amplitude * exp(-scale |z - center|^2); its
  Cauchy transforms take the quadrature backend.

One rule truncates the built-in full-plane weights, however deep the
system built on them: the plane is cut at ``gaussian_cutoff(scale,
CUTOFF_ORDER) + |center|`` from the origin, which holds the disk of
radius ``gaussian_cutoff(scale, CUTOFF_ORDER)`` about the centre.
Every planar integral over a weight runs on a disk about its centre:
on ``weighted_grid``, or for Cauchy rows on the rings of a harmonic
table (``harmonic_moments``).  Two functions here size that disk, and
no other module reads the domain's radius or a gaussian's cutoff:

* ``truncation_radius(spec, order)``, for moments and everything built
  on them (quadrature moments, the orthogonality residual, the oracles,
  the deformed integrals): the domain's radius about the centre, wider
  past ``CUTOFF_ORDER`` on a built-in full-plane weight;
* ``row_radius(spec, degree)``, for Cauchy rows up to ``degree``: on a
  built-in full-plane weight the cutoff of order ceil(degree / 2),
  smaller than the domain's below degree 32 and wider past it; on a
  disk or a custom weight the domain's radius.

Custom weights supply an evaluator callable plus an explicit domain
(including a cutoff radius for full-plane weights); there is no
automatic support detection.  Their centre is 0, their moments and
Cauchy transforms come from quadrature, and they have no sampler.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConstraintError, NumericalError, SingularMatrixError
from .quadrature import adaptive_integral, angular_rule, star_grid, unit_radial_rule

MOMENT_TOL = 1e-10
# moment order whose gaussian cutoff truncates every built-in full-plane
# weight: it bounds the tail of r^33 exp(-scale r^2), so it holds Cauchy
# rows up to degree 32.  Moments take this disk; Cauchy rows take the
# one their system's depth needs (``row_radius``)
CUTOFF_ORDER = 16
# Gauss-Legendre nodes on each radial panel of a harmonic table
PANEL_NODES = 16
# share of every degree's L1 moment below which a harmonic table drops a
# harmonic: ten times the rounding noise of a ring's FFT, which reaches
# 6.4e-16 on a shifted gaussian as far off as c = 30i
HARMONIC_FLOOR = 1e-14

FULL_PLANE = "full-plane"
DISK = "disk"


@dataclass(frozen=True)
class DomainSpec:
    """A disk, or the plane truncated for quadrature, of radius ``quad_radius``."""

    kind: str
    quad_radius: float

    def __post_init__(self):
        if self.kind not in (DISK, FULL_PLANE):
            raise ConstraintError(f"unknown domain kind {self.kind!r}")
        if self.quad_radius <= 0:
            raise ConstraintError(f"{self.kind} domain requires a positive radius")

    @property
    def radius(self) -> float:
        """Alias of ``quad_radius``, read by bench/make_pools.py."""
        return self.quad_radius


def disk_domain(radius: float) -> DomainSpec:
    return DomainSpec(kind=DISK, quad_radius=float(radius))


def full_plane_domain(cutoff_radius: float) -> DomainSpec:
    return DomainSpec(kind=FULL_PLANE, quad_radius=float(cutoff_radius))


def gaussian_cutoff(scale: float, order: int) -> float:
    """Truncation radius R with exp(-scale R^2) R^(2n+1) below 1e-16 of the
    full radial integral for every moment order n up to ``order``.

    The bisection brackets the outer crossing from the peak of the
    integrand, at sqrt((2n+1) / (2 scale)), outward."""
    if scale <= 0:
        raise ConstraintError("gaussian scale must be positive")
    n = order
    target = math.log(1e-16) + math.lgamma(n + 1) - math.log(2.0) \
        - (n + 1) * math.log(scale)

    def excess(r: float) -> float:
        return -scale * r * r + (2 * n + 1) * math.log(r) - target

    lo = max(1.0, math.sqrt((2 * n + 1) / (2.0 * scale)))
    hi = 4.0  # doubled past the peak and then past the crossing
    while hi <= lo or excess(hi) > 0.0:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi + 0.5


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """A weight family instance together with its domain.

    ``kind`` is a key of ``FAMILIES`` or ``CUSTOM``.  ``parameters``
    carry the family parameters (gaussian scale, disk radius, shift
    center as two reals then the scale).  ``amplitude`` is an overall
    positive factor; every moment, norm and Cauchy transform scales
    linearly in it, which the tests rely on.
    """

    kind: str
    parameters: tuple
    domain: DomainSpec
    amplitude: float = 1.0
    evaluator: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in FAMILIES and self.kind != CUSTOM:
            raise ConstraintError(f"unknown weight kind {self.kind!r}")
        if self.amplitude <= 0:
            raise ConstraintError("weight amplitude must be positive")
        _check_positivity(self)

    def evaluate(self, z) -> np.ndarray:
        """Vectorized weight values; no domain membership check."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "disk-flat":
            vals = np.ones_like(z, dtype=float)
        elif self.kind == CUSTOM:
            # real values may come in a complex array; an evaluator with a
            # nonzero imaginary part is refused when the spec is built
            vals = np.asarray(np.real(self.evaluator(z)), dtype=float)
        else:  # a gaussian, shifted or centred at 0
            vals = np.exp(-self.parameters[-1] * np.abs(z - self.centre) ** 2)
        if self.domain.kind == DISK:
            vals = np.where(np.abs(z) <= self.domain.quad_radius * (1 + 1e-14),
                            vals, 0.0)
        return self.amplitude * vals

    @property
    def centre(self) -> complex:
        """Centre of the weight: 0 except for the shifted gaussian."""
        if self.kind == "shifted-gaussian":
            cre, cim, _ = self.parameters
            return cre + 1j * cim
        return 0j

    def sample(self, u, v) -> np.ndarray:
        """Draws from w/||w|| by polar inverse-CDF sampling of uniform
        variates: ``u`` sets the radius r and ``v`` the angle, and the
        draw is centre + r exp(2 pi i v).  The unit vector comes from the
        half angle (``_polar_point``), which is several times cheaper
        than the complex exponential and as accurate."""
        if self.kind == "disk-flat":
            return _polar_point(self.parameters[0] * np.sqrt(u), v)
        if self.kind == CUSTOM:
            raise ConstraintError(f"no Monte Carlo sampler for weight kind {self.kind!r}")
        r = np.sqrt(-np.log1p(-u) / self.parameters[-1])
        return self.centre + _polar_point(r, v)

    @property
    def rotation_invariant(self) -> bool:
        """Whether w depends on |z| alone: the centred gaussian and the disk."""
        return self.kind in ("gaussian", "disk-flat")

    @property
    def domain_scale(self) -> float:
        """Alias of ``effective_support_radius``, read by bench/make_pools.py."""
        return self.effective_support_radius

    @property
    def effective_support_radius(self) -> float:
        """Radius holding essentially all of the weight's mass."""
        if self.domain.kind == DISK or self.kind == CUSTOM:
            return self.domain.quad_radius
        return 3.0 / math.sqrt(self.parameters[-1]) + abs(self.centre)

    def label(self) -> str:
        params = ",".join(f"{p:g}" for p in self.parameters)
        return f"{self.kind}({params})x{self.amplitude:g}"


def _polar_point(r, v) -> np.ndarray:
    """r exp(2 pi i v) without a complex exponential.

    With t = tan(pi (v - 1/2)), the tangent of half the angle less a
    quarter turn, exp(2 pi i v) = (t^2 - 1 - 2 i t) / (1 + t^2).  Against
    mpmath the unit vector is within 5e-16 for v in [0, 1], v = 0 and
    v -> 1/2 and 1 included, where t is 0 or |t| reaches 1.6e16 with t^2
    still finite.
    """
    t = np.tan(np.pi * (v - 0.5))
    t2 = t * t
    s = r / (1.0 + t2)
    out = np.empty(s.shape, dtype=complex)
    np.multiply(s, t2 - 1.0, out=out.real)
    np.multiply(-2.0 * t, s, out=out.imag)
    return out


def _check_positivity(spec: WeightSpec) -> None:
    # about the centre: far from it a shifted gaussian underflows to 0
    rng = np.random.default_rng(1234)
    r = truncation_radius(spec, 0) * np.sqrt(rng.random(64))
    th = 2 * np.pi * rng.random(64)
    z = spec.centre + r * np.exp(1j * th)
    if spec.kind == CUSTOM:
        # complex arithmetic leaves rounding in the imaginary part: about
        # 1e-16 of the largest value for exp(-z * conj(z))
        raw = np.asarray(spec.evaluator(z))
        imag = np.max(np.abs(np.imag(raw)))
        if imag > 1e-12 * np.max(np.abs(raw)):   # non-finite: refused below
            raise ConstraintError(
                f"weight {spec.kind} is not real-valued on its domain "
                f"(imaginary parts up to {imag:.4g})")
    vals = spec.evaluate(z)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        bad = z[np.argmin(vals)]
        raise ConstraintError(
            f"weight {spec.kind} is not strictly positive on its domain "
            f"(w({bad:.4g}) = {np.min(vals):.4g})")


def gaussian_weight(scale: float = 1.0, amplitude: float = 1.0) -> WeightSpec:
    dom = full_plane_domain(gaussian_cutoff(scale, CUTOFF_ORDER))
    return WeightSpec(kind="gaussian", parameters=(float(scale),), domain=dom,
                      amplitude=float(amplitude))


def disk_flat_weight(radius: float = 1.0, amplitude: float = 1.0) -> WeightSpec:
    return WeightSpec(kind="disk-flat", parameters=(float(radius),),
                      domain=disk_domain(radius), amplitude=float(amplitude))


def shifted_gaussian_weight(center: complex, scale: float = 1.0,
                            amplitude: float = 1.0) -> WeightSpec:
    c = complex(center)
    cutoff = gaussian_cutoff(scale, CUTOFF_ORDER) + abs(c)
    return WeightSpec(kind="shifted-gaussian",
                      parameters=(c.real, c.imag, float(scale)),
                      domain=full_plane_domain(cutoff), amplitude=float(amplitude))


class Family(NamedTuple):
    """A built-in family as configuration knows it: its fields as
    (name, type, default), a default of None marking a required field,
    and its factory ``build``, which takes the fields and ``amplitude``
    as keywords."""

    fields: tuple
    build: Callable


CUSTOM = "custom"
# in the order configuration errors list them
FAMILIES = {
    "gaussian": Family((("scale", float, 1.0),), gaussian_weight),
    "disk-flat": Family((("radius", float, 1.0),), disk_flat_weight),
    "shifted-gaussian": Family((("center", complex, None), ("scale", float, 1.0)),
                               shifted_gaussian_weight),
}


def custom_weight(evaluator: Callable, domain: DomainSpec, *,
                  amplitude: float = 1.0) -> WeightSpec:
    """Wrap a user-supplied evaluator.  The domain (with cutoff, for
    full-plane weights) must be declared explicitly.  The evaluator may
    return a complex array, but its imaginary parts must be rounding
    only; a complex-valued weight is refused with ConstraintError.  Its
    moments and Cauchy transforms always come from quadrature, even when
    the evaluator depends on |z| alone."""
    return WeightSpec(kind=CUSTOM, parameters=(), domain=domain,
                      amplitude=float(amplitude), evaluator=evaluator)


def _log_poisson(k: int, x: float) -> float:
    """log(x^k e^-x / k!) for x > 0.  From k = 100 on, log k! is
    Stirling's series, whose next term is below 1e-17 there, so that no
    two logarithms of size k log x cancel."""
    if k < 100:
        return k * math.log(x) - x - math.lgamma(k + 1)
    return (k * math.log(x / k) + (k - x) - 0.5 * math.log(2.0 * math.pi * k)
            - (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * k * k)) / (k * k)) / k)


def _lower_gamma_series(a: int, x: float) -> float:
    """S = sum_k x^k / ((a+1)...(a+k)), so that P(a, x) = x^a e^-x / a! * S;
    the terms fall geometrically once a + k > x."""
    term = total = 1.0
    while term > total * 1e-17:
        a += 1
        term *= x / a
        total += term
    return total


def regularized_gamma_p(a: int, x: float) -> float:
    """Regularised lower incomplete gamma P(a, x) for an integer a >= 1."""
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < a + 1:
        total = _lower_gamma_series(a, x)
        if a <= 170 and a * math.log(x) < 700.0:
            return x ** a * math.exp(-x) / math.factorial(a) * total
        return math.exp(_log_poisson(a, x)) * total
    # 1 - Q(a, x), Q = e^-x sum_{k<a} x^k / k!, summed from e^-x so that
    # no term overflows
    term = math.exp(-x)
    if term < sys.float_info.min:
        # e^-x is subnormal: Q from its largest term, k = a - 1, down;
        # the terms fall since x > a
        term = total = 1.0
        for k in range(a - 1, 0, -1):
            term *= k / x
            total += term
            if term < total * 1e-17:
                break
        return 1.0 - math.exp(_log_poisson(a - 1, x)) * total
    total = term
    for k in range(1, a):
        term *= x / k
        total += term
    return 1.0 - total


def radial_mass(spec: WeightSpec, n: int, t: float) -> float:
    """integral_0^t r^(2n+1) w(r) dr for rotation-invariant weights
    (amplitude included)."""
    if not spec.rotation_invariant:
        raise ConstraintError("radial mass is defined for rotation-invariant weights")
    amp = spec.amplitude
    if spec.kind == "gaussian":
        (scale,) = spec.parameters
        full = math.gamma(n + 1) / (2.0 * scale ** (n + 1))
        return amp * full * regularized_gamma_p(n + 1, scale * t * t)
    return amp * min(t, spec.parameters[0]) ** (2 * n + 2) / (2 * n + 2)  # the disk


def scaled_radial_mass(spec: WeightSpec, n: int, t: float) -> Optional[float]:
    """``radial_mass`` / t^(2n+2) inside a disk, amp / (2n + 2), and on a gaussian
    below x = scale t^2 = n + 1, amp e^-x S / (2n + 2) with S the series of P(n + 1, x);
    else None.  Unlike the mass, it stays a normal double where t^(2n+2) does not."""
    if spec.kind == "disk-flat" and t <= spec.parameters[0]:
        return spec.amplitude / (2 * n + 2)
    if spec.kind == "gaussian" and (x := spec.parameters[0] * t * t) < n + 1:
        return spec.amplitude * math.exp(-x) * _lower_gamma_series(n + 1, x) / (2 * n + 2)
    return None


def closed_moments(spec: WeightSpec, n: int):
    """Closed-form moment matrix M_jk about the centre, 0 <= j,k <= n, for
    the built-in families, or None.  Each is diagonal, and the first order
    whose moment leaves the range of a double raises NumericalError."""
    if spec.kind == CUSTOM:
        return None
    amp, par = spec.amplitude, spec.parameters[-1]   # the radius, or the scale
    diagonal = []
    for k in range(n + 1):
        try:
            if spec.kind == "disk-flat":
                value = amp * math.pi * par ** (2 * k + 2) / (k + 1)
            else:  # a gaussian, shifted or centred at 0
                value = amp * math.pi * math.gamma(k + 1) / par ** (k + 1)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not 0.0 < value < math.inf:
            raise NumericalError(
                f"the closed-form moment of order {k} of {spec.label()} is outside "
                "the range of a double; reduce max_degree")
        diagonal.append(complex(value))
    return np.diag(diagonal)


def weighted_grid(spec: WeightSpec, radius: float, n_r: int,
                  n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid nodes on the disk of ``radius`` about the weight's centre, and
    w times their weights."""
    grid = star_grid(spec.centre, radius, n_r, n_t)
    return grid.nodes, spec.evaluate(grid.nodes) * grid.weights


def planar_moments(spec: WeightSpec, radius: float, n_r: int, n_t: int,
                   rows: int, cols: int, factor: Optional[Callable] = None) -> np.ndarray:
    """S_jk = sum of zeta^j conj(zeta)^k v(z) over the ``weighted_grid``
    nodes, zeta = z - c about the weight's centre c, for j < ``rows`` and
    k < ``cols``; v is w times the quadrature weights, times
    ``factor(nodes)`` when a factor is given.

    The grid runs ray by ray, zeta = rho_r e^{i phi_t} with
    phi_t = 2 pi t/n_t, so zeta^j conj(zeta)^k = rho_r^(j+k) e^{i(j-k) phi_t}.
    One FFT along the angle gives, per radial node, every angular harmonic
    sum_t v e^{i m phi_t}, its entry -m mod n_t, and each S_jk is then a
    sum over the n_r radial nodes: O(n log n_t + n_r rows cols) with no
    power of the nodes.  The sum is the direct one, regrouped."""
    nodes, v = weighted_grid(spec, radius, n_r, n_t)
    if factor is not None:
        v = v * factor(nodes)
    j, k = np.ogrid[:rows, :cols]
    harmonics = np.fft.fft(v.reshape(n_t, n_r), axis=0)[(k - j) % n_t]
    rho = radius * unit_radial_rule(n_r)[0]
    radial = rho ** np.arange(rows + cols - 1)[:, None]    # [j + k, r]
    return np.sum(harmonics * radial[j + k], axis=-1)


def ring_harmonics(spec: WeightSpec, rho: np.ndarray, n_t: int, band: int) -> np.ndarray:
    """Angular harmonics w_m(rho) of w about its centre, one FFT of n_t angles
    per ring: a row per radius in ``rho``, columns m = 0..band."""
    values = spec.evaluate(spec.centre + rho[:, None] * np.exp(1j * angular_rule(n_t)[0]))
    return np.fft.rfft(values, axis=1)[:, :band + 1] / n_t


def both_signs(harmonics: np.ndarray) -> np.ndarray:
    """Harmonics m = 0..band on the last axis widened to -band..band: w_-m = conj(w_m), w real."""
    return np.concatenate([harmonics[..., :0:-1].conj(), harmonics], axis=-1)


def panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, ``PANEL_NODES`` between successive ``edges``."""
    x, w_x = unit_radial_rule(PANEL_NODES)
    width = np.diff(edges)[:, None]
    return (edges[:-1, None] + width * x).ravel(), (width * w_x).ravel()


@lru_cache(maxsize=1)
def _barycentric_weights() -> np.ndarray:
    """1 / prod_(l != k) (x_k - x_l) over the panel rule's nodes x, built on first use."""
    x = unit_radial_rule(PANEL_NODES)[0]
    gaps = x[:, None] - x
    np.fill_diagonal(gaps, 1.0)
    return 1.0 / gaps.prod(axis=1)


def split_panel(cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the unit panel [0, 1] split at ``cut``:
    ``PANEL_NODES`` Gauss-Legendre nodes on [0, cut], then as many on [cut, 1]."""
    x, w = unit_radial_rule(PANEL_NODES)
    return np.concatenate([cut * x, x + cut * (1 - x)]), np.concatenate([cut * w, w - cut * w])


def panel_interpolation(unit: np.ndarray) -> np.ndarray:
    """The matrix that takes values at a panel's ``PANEL_NODES`` Gauss-Legendre
    nodes to their interpolating polynomial at the points ``unit``, given in
    the panel's coordinate (0 at its lower edge, 1 at its upper): the
    barycentric Lagrange formula (Berrut & Trefethen, SIAM Rev. 46 (2004)
    501), whose rows sum to 1.  A point on a node takes that node's value
    exactly."""
    x, barycentric = unit_radial_rule(PANEL_NODES)[0], _barycentric_weights()
    gaps = unit[:, None] - x
    hits = gaps == 0.0
    on_node = hits.any(axis=1)
    gaps[on_node] = 1.0            # no division by 0: these rows are set below
    matrix = barycentric / gaps
    matrix /= matrix.sum(axis=1, keepdims=True)
    matrix[on_node] = hits[on_node]
    return matrix


def harmonic_moments(spec: WeightSpec, radius: float, depth: int, panels: int,
                     n_t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial moments of the angular harmonics of w about its centre, split
    at each panel edge rho_J = J radius / ``panels``: for j <= ``depth``,
    p = m + j + 1,

        T[J, j, m] = integral_0^rho_J  rho^j (rho/rho_J)^p w_m(rho) drho   (p >= 1),
        T[J, j, m] = integral_rho_J^R  rho^j (rho/rho_J)^p w_m(rho) drho   (p <= 0),

    so that no power exceeds 1.  The harmonics come from ``ring_harmonics``
    on n_t angles, a panel's rings at a time, of which m >= 0 are kept
    (w_-m = conj(w_m), w real) with their L1 moments; those adding less
    than HARMONIC_FLOOR of every degree's L1 moment are dropped, so the
    last axis holds m = -band..band, the weight's own band (0 for a weight
    rotation invariant about c).  Each degree's panel sums are formed 2^17
    terms at a time, so no array holds every ring's 2 band + 1 harmonics.
    Prefix sums over the panels give the first kind and suffix sums the
    second, each scaled from one edge to the next by (rho_J/rho_J+1)^|p|.
    Returns T, the plain moments integral rho^j w_m drho of each panel, and
    the kept harmonics at the panel nodes for m = 0..band, a row per node."""
    edges = radius * np.arange(panels + 1) / panels
    rho, weights = panel_nodes(edges)
    half = n_t // 2 - 1
    moment = weights * rho ** np.arange(depth + 1)[:, None]        # [j, r]
    harmonics, l1 = np.empty((rho.size, half + 1), dtype=complex), np.zeros((depth + 1, half + 1))
    for J in range(panels):
        rings = slice(J * PANEL_NODES, (J + 1) * PANEL_NODES)
        harmonics[rings] = ring_harmonics(spec, rho[rings], n_t, half)
        l1 += moment[:, rings] @ np.abs(harmonics[rings])
    band = int(np.max(np.flatnonzero(np.max(l1 / l1[:, :1], axis=0) > HARMONIC_FLOOR)))
    harmonics, width = np.ascontiguousarray(harmonics[:, :band + 1]), 2 * band + 1
    p = np.arange(-band, band + 1) + np.arange(depth + 1)[:, None] + 1   # [j, m]
    inner = p >= 1
    # rho over its panel's upper edge (p >= 1), its lower edge over rho (p <= 0)
    upper = rho / np.repeat(edges[1:], PANEL_NODES)
    lower = np.repeat(edges[:-1], PANEL_NODES) / rho
    sums, plain = (np.empty((panels, depth + 1, width), dtype=complex) for _ in range(2))
    block = max(1, 2 ** 17 // (PANEL_NODES * width))
    for first in range(0, panels, block):
        rings = slice(first * PANEL_NODES, (first + block) * PANEL_NODES)
        ring = both_signs(harmonics[rings])
        for j in range(depth + 1):
            ratio = np.where(inner[j], upper[rings, None], lower[rings, None]) ** np.abs(p[j])
            sums[first:first + block, j] = (moment[j, rings, None] * ring * ratio).reshape(
                -1, PANEL_NODES, width).sum(axis=1)
        plain[first:first + block] = np.einsum("jpk,pkm->pjm", moment[:, rings].reshape(
            depth + 1, -1, PANEL_NODES), ring.reshape(-1, PANEL_NODES, width))
    step = (edges[:-1] / edges[1:])[:, None, None] ** np.abs(p)    # rho_J -> rho_J+1
    table = np.zeros((panels + 1, depth + 1, width), dtype=complex)
    for J in range(panels):
        table[J + 1] = np.where(inner, step[J] * table[J] + sums[J], 0)
    for J in range(panels - 1, -1, -1):
        table[J] = np.where(inner, table[J], step[J] * table[J + 1] + sums[J])
    return table, plain, harmonics


def conj_derivative_factor(spec: WeightSpec) -> Optional[float]:
    """The a with dw/dzbar = a (z - c) w, so that the derivative of order
    t is (a (z - c))^t w: -scale on a gaussian, shifted or centred at 0;
    None for a weight with no such rule (a disk's edge, a custom weight)."""
    return -spec.parameters[-1] if spec.kind in ("gaussian", "shifted-gaussian") else None


def truncation_radius(spec: WeightSpec, order: int) -> float:
    """Radius of the disk about the weight's centre that holds the moments
    of order up to ``order`` to 1e-16: the largest in the domain, or past
    ``CUTOFF_ORDER`` a built-in full-plane weight's cutoff of ``order``."""
    if spec.domain.kind == DISK or order <= CUTOFF_ORDER or spec.kind == CUSTOM:
        return spec.domain.quad_radius - abs(spec.centre)
    return gaussian_cutoff(spec.parameters[-1], order)


def row_radius(spec: WeightSpec, max_degree: int) -> float:
    """Radius of the disk about the weight's centre that holds the Cauchy
    rows of degree up to ``max_degree`` to 1e-16.

    A row of degree d integrates r^(d+1) w(r) against the area element,
    which the tail bound of order ceil(d / 2) on r^(2n+1) exp(-scale r^2)
    covers; so a built-in full-plane weight takes its cutoff of order
    ceil(max_degree / 2), the domain's at depth 2 ``CUTOFF_ORDER`` and
    wider past it.  A disk or a custom weight takes its domain's."""
    if spec.domain.kind == DISK or spec.kind == CUSTOM:
        return truncation_radius(spec, 0)
    return gaussian_cutoff(spec.parameters[-1], (max_degree + 1) // 2)


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Hermitian positive definite matrix of moments M_jk, 0 <= j,k <= order."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        n = self.order + 1
        if self.entries.shape != (n, n):
            raise ConstraintError("moment matrix shape does not match order")
        if not np.allclose(self.entries, self.entries.conj().T,
                           rtol=1e-12, atol=1e-12 * self._scale()):
            raise NumericalError("moment matrix is not Hermitian")

    def _scale(self) -> float:
        return float(np.max(np.abs(self.entries))) or 1.0

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor; failure reports the offending minor."""
        try:
            return np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError:
            for m in range(1, self.order + 2):
                try:
                    np.linalg.cholesky(self.entries[:m, :m])
                except np.linalg.LinAlgError:
                    raise SingularMatrixError(
                        f"moment matrix is not positive definite: leading minor "
                        f"of order {m} fails (index {m - 1})") from None
            raise


def moment_matrix(spec: WeightSpec, n: int, *, method: str = "auto") -> MomentMatrix:
    """Moment matrix about the weight's centre up to order n, Hermitized by
    mirroring the upper triangle.

    ``method`` is "quadrature", or "auto" for the closed form where the
    family has one and quadrature otherwise.  Quadrature refines to a
    relative tolerance of ``MOMENT_TOL``."""
    if n < 0:
        raise ConstraintError("moment matrix order must be non-negative")
    if method not in ("auto", "quadrature"):
        raise ConstraintError(f"unknown moment method {method!r}")
    entries = closed_moments(spec, n) if method == "auto" else None
    if entries is None:
        radius = truncation_radius(spec, 2 * n)
        entries, _ = adaptive_integral(
            lambda n_r, n_t: planar_moments(spec, radius, n_r, n_t, n + 1, n + 1),
            MOMENT_TOL, what=f"moment matrix of order {n} for {spec.label()}")

    # Hermiticity by construction: keep the upper triangle, mirror-conjugate it.
    herm = np.triu(entries, 1) + np.triu(entries, 1).conj().T \
        + np.diag(entries.diagonal().real)
    return MomentMatrix(order=n, entries=herm)
