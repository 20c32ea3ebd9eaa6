"""Weight functions on planar domains and their monomial moments.

A weight is a strictly positive density w(z, zbar) on a domain D, either
a disk or the full complex plane (truncated at an effective cutoff
radius for quadrature).  The measure convention throughout the package
is dw = w(z, zbar) dA with dA the real Lebesgue area element.  Monomial
moments are

    M_jk = integral_D  z^j zbar^k w(z, zbar) dA,

a Hermitian positive definite Gram matrix for any admissible weight.

This module is the only one that knows the weight families; no other
module names one.  ``FAMILIES`` lists the built-in families with their
configuration fields and factories, and the functions here define the
rest: values, centre, effective support, quadrature radius, closed-form
radial masses and moments, and the Monte Carlo sampler.  Adding or
removing a family touches this module alone.

* ``gaussian``          w = amplitude * exp(-scale |z|^2) on the plane;
  everywhere but in its closed forms, the shifted gaussian centred at 0
* ``disk-flat``         w = amplitude on |z| <= radius
* ``shifted-gaussian``  w = amplitude * exp(-scale |z - center|^2); not
  rotation invariant, with closed-form moments, used to exercise the
  generic code paths on a weight whose moment matrix is dense.

Custom weights supply an evaluator callable plus an explicit domain
(including a cutoff radius for full-plane weights); there is no
automatic support detection.  Their moments and radial masses come
from quadrature, and they have no sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import gammainc

from .errors import ConstraintError, NumericalError, SingularMatrixError
from .quadrature import adaptive_integral, star_grid, unit_radial_rule

DEFAULT_MOMENT_TOL = 1e-10

FULL_PLANE = "full-plane"
DISK = "disk"


@dataclass(frozen=True)
class DomainSpec:
    """Integration domain: a disk, or the plane truncated for quadrature."""

    kind: str
    radius: Optional[float] = None
    cutoff_radius: Optional[float] = None

    def __post_init__(self):
        if self.kind == DISK:
            if self.radius is None or self.radius <= 0:
                raise ConstraintError("disk domain requires a positive radius")
        elif self.kind == FULL_PLANE:
            if self.cutoff_radius is None or self.cutoff_radius <= 0:
                raise ConstraintError(
                    "full-plane domain requires a positive effective cutoff radius")
        else:
            raise ConstraintError(f"unknown domain kind {self.kind!r}")

    @property
    def quad_radius(self) -> float:
        """Radius actually used by quadrature grids."""
        return self.radius if self.kind == DISK else self.cutoff_radius


def disk_domain(radius: float) -> DomainSpec:
    return DomainSpec(kind=DISK, radius=float(radius))


def full_plane_domain(cutoff_radius: float) -> DomainSpec:
    return DomainSpec(kind=FULL_PLANE, cutoff_radius=float(cutoff_radius))


def gaussian_cutoff(scale: float, max_order: int, tail: float = 1e-16) -> float:
    """Truncation radius R with exp(-scale R^2) R^(2n+1) below ``tail`` of the
    full radial integral for every moment order up to ``max_order``."""
    n = max_order
    target = math.log(tail) + math.lgamma(n + 1) - math.log(2.0) \
        - (n + 1) * math.log(scale)

    def excess(r: float) -> float:
        return -scale * r * r + (2 * n + 1) * math.log(r) - target

    lo, hi = 1.0, 4.0
    while excess(hi) > 0.0 and hi < 1e3:
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
    rotation_invariant: bool = False
    evaluator: Optional[Callable] = field(default=None, repr=False)
    max_order: int = 16

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
            vals = np.asarray(self.evaluator(z), dtype=float)
        else:  # a gaussian, shifted or centred at 0
            vals = np.exp(-self.parameters[-1] * np.abs(z - self.centre) ** 2)
        if self.domain.kind == DISK:
            vals = np.where(np.abs(z) <= self.domain.radius * (1 + 1e-14), vals, 0.0)
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
        variates: ``u`` sets the radius and ``v`` the angle."""
        if self.kind == "disk-flat":
            return self.parameters[0] * np.sqrt(u) * np.exp(2j * np.pi * v)
        if self.kind == CUSTOM:
            raise ConstraintError(f"no Monte Carlo sampler for weight kind {self.kind!r}")
        r = np.sqrt(-np.log1p(-u) / self.parameters[-1])
        return self.centre + r * np.exp(2j * np.pi * v)

    @property
    def domain_scale(self) -> float:
        return self.domain.radius if self.domain.kind == DISK \
            else self.effective_support_radius

    @property
    def effective_support_radius(self) -> float:
        """Radius holding essentially all of the weight's mass."""
        if self.domain.kind == DISK or self.kind == CUSTOM:
            return self.domain.quad_radius
        return 3.0 / math.sqrt(self.parameters[-1]) + abs(self.centre)

    def label(self) -> str:
        params = ",".join(f"{p:g}" for p in self.parameters)
        return f"{self.kind}({params})x{self.amplitude:g}"


def _check_positivity(spec: WeightSpec, samples: int = 64) -> None:
    rng = np.random.default_rng(1234)
    r = spec.domain.quad_radius * np.sqrt(rng.random(samples))
    th = 2 * np.pi * rng.random(samples)
    z = r * np.exp(1j * th)
    vals = spec.evaluate(z)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        bad = z[np.argmin(vals)]
        raise ConstraintError(
            f"weight {spec.kind} is not strictly positive on its domain "
            f"(w({bad:.4g}) = {np.min(vals):.4g})")


def gaussian_weight(scale: float = 1.0, amplitude: float = 1.0,
                    max_order: int = 16) -> WeightSpec:
    if scale <= 0:
        raise ConstraintError("gaussian scale must be positive")
    dom = full_plane_domain(gaussian_cutoff(scale, max_order))
    return WeightSpec(kind="gaussian", parameters=(float(scale),), domain=dom,
                      amplitude=float(amplitude), rotation_invariant=True,
                      max_order=max_order)


def disk_flat_weight(radius: float = 1.0, amplitude: float = 1.0) -> WeightSpec:
    return WeightSpec(kind="disk-flat", parameters=(float(radius),),
                      domain=disk_domain(radius), amplitude=float(amplitude),
                      rotation_invariant=True)


def shifted_gaussian_weight(center: complex, scale: float = 1.0,
                            amplitude: float = 1.0, max_order: int = 16) -> WeightSpec:
    if scale <= 0:
        raise ConstraintError("gaussian scale must be positive")
    c = complex(center)
    cutoff = gaussian_cutoff(scale, max_order) + abs(c)
    return WeightSpec(kind="shifted-gaussian",
                      parameters=(c.real, c.imag, float(scale)),
                      domain=full_plane_domain(cutoff),
                      amplitude=float(amplitude), rotation_invariant=False,
                      max_order=max_order)


class Family(NamedTuple):
    """A built-in family as configuration knows it: its fields as
    (name, type, default), a default of None marking a required field,
    and ``build(values, max_order)``, which makes the weight from their
    values and the amplitude with a full-plane cutoff covering moments up
    to ``max_order``."""

    fields: tuple
    build: Callable


CUSTOM = "custom"
# in the order configuration errors list them
FAMILIES = {
    "gaussian": Family(
        (("scale", float, 1.0),),
        lambda p, max_order: gaussian_weight(p["scale"], p["amplitude"], max_order)),
    "disk-flat": Family(
        (("radius", float, 1.0),),
        lambda p, max_order: disk_flat_weight(p["radius"], p["amplitude"])),
    "shifted-gaussian": Family(
        (("center", complex, None), ("scale", float, 1.0)),
        lambda p, max_order: shifted_gaussian_weight(
            p["center"], p["scale"], p["amplitude"], max_order)),
}


def custom_weight(evaluator: Callable, domain: DomainSpec, *, amplitude: float = 1.0,
                  rotation_invariant: bool = False) -> WeightSpec:
    """Wrap a user-supplied evaluator.  The domain (with cutoff, for
    full-plane weights) must be declared explicitly."""
    return WeightSpec(kind=CUSTOM, parameters=(), domain=domain,
                      amplitude=float(amplitude),
                      rotation_invariant=rotation_invariant, evaluator=evaluator)


def radial_mass(spec: WeightSpec, n: int, t: float) -> float:
    """integral_0^t r^(2n+1) w(r) dr for rotation-invariant weights
    (amplitude included).  ``t = inf`` gives the full radial moment."""
    if not spec.rotation_invariant:
        raise ConstraintError("radial mass is defined for rotation-invariant weights")
    amp = spec.amplitude
    if spec.kind == "gaussian":
        (scale,) = spec.parameters
        full = math.gamma(n + 1) / (2.0 * scale ** (n + 1))
        if math.isinf(t):
            return amp * full
        return amp * full * float(gammainc(n + 1, scale * t * t))
    if spec.kind == "disk-flat":
        (radius,) = spec.parameters
        r = min(t, radius)
        return amp * r ** (2 * n + 2) / (2 * n + 2)
    # custom rotation-invariant weight: 1D Gauss-Legendre on [0, t]
    upper = min(t, spec.domain.quad_radius)
    x, w = unit_radial_rule(256)
    r = upper * x
    prof = spec.evaluate(r + 0j) / amp
    return amp * upper * float(np.sum(w * r ** (2 * n + 1) * prof))


def closed_moment(spec: WeightSpec, j: int, k: int):
    """Closed-form M_jk for the built-in families, or None."""
    amp = spec.amplitude
    if spec.kind == "gaussian":
        (scale,) = spec.parameters
        if j != k:
            return 0j
        return complex(amp * math.pi * math.gamma(k + 1) / scale ** (k + 1))
    if spec.kind == "disk-flat":
        (radius,) = spec.parameters
        if j != k:
            return 0j
        return complex(amp * math.pi * radius ** (2 * k + 2) / (k + 1))
    if spec.kind == "shifted-gaussian":
        scale, c = spec.parameters[-1], spec.centre
        total = 0j
        for a in range(min(j, k) + 1):
            total += (math.comb(j, a) * math.comb(k, a) * math.gamma(a + 1)
                      / scale ** (a + 1)) * c ** (j - a) * np.conj(c) ** (k - a)
        return complex(amp * math.pi * total)
    return None


def _moment_grid_radius(spec: WeightSpec, order: int) -> float:
    if spec.domain.kind == DISK:
        return spec.domain.radius
    if order <= spec.max_order or spec.kind == CUSTOM:
        return spec.domain.cutoff_radius
    return gaussian_cutoff(spec.parameters[-1], order) + abs(spec.centre)


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


def moment_matrix(spec: WeightSpec, n: int, *, method: str = "auto",
                  tol: float = DEFAULT_MOMENT_TOL) -> MomentMatrix:
    """Moment matrix up to order n, Hermitized by mirroring the upper triangle.

    ``method`` is "closed-form", "quadrature", or "auto" for the closed
    form where the family has one and quadrature otherwise."""
    if n < 0:
        raise ConstraintError("moment matrix order must be non-negative")
    if method not in ("auto", "closed-form", "quadrature"):
        raise ConstraintError(f"unknown moment method {method!r}")
    size = n + 1
    use_closed = method != "quadrature" and closed_moment(spec, 0, 0) is not None
    if use_closed:
        entries = np.array([[closed_moment(spec, j, k) for k in range(size)]
                            for j in range(size)], dtype=complex)
    else:
        if method == "closed-form":
            raise ConstraintError(f"no closed-form moments for weight {spec.kind!r}")
        radius = _moment_grid_radius(spec, 2 * n)

        def matrix_on(n_r: int, n_t: int) -> np.ndarray:
            grid = star_grid(0j, radius, n_r, n_t)
            powers = np.vstack([grid.nodes ** j for j in range(size)])
            wvals = spec.evaluate(grid.nodes) * grid.weights
            return (powers * wvals) @ powers.conj().T

        entries, _ = adaptive_integral(
            matrix_on, tol, start=(48, 64),
            what=f"moment matrix of order {n} for {spec.label()}")

    # Hermiticity by construction: keep the upper triangle, mirror-conjugate it.
    herm = np.triu(entries, 1) + np.triu(entries, 1).conj().T \
        + np.diag(entries.diagonal().real)
    return MomentMatrix(order=n, entries=herm)
