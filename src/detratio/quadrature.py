"""Polar tensor-product quadrature for planar integrals.

Every 2D integral in this package is taken over a disk or a radially
truncated plane, in polar form: Gauss-Legendre nodes in the radial
direction tensored with a uniform trapezoid rule in the angle (the
trapezoid rule is spectrally accurate for periodic integrands).  Grids
may be centered away from the origin.

A grid is just a flat list of complex nodes with matching quadrature
weights.  Weights are real for plain area integrals but may be complex:
the tests' ``cauchy_kernel_grid``, centred at c, folds the kernel
k!/(zbar - cbar)^(k+1) into them, and its rays' lengths vary with the angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError


@lru_cache(maxsize=64)
def unit_radial_rule(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped from [-1, 1] to [0, 1]."""
    x, w = leggauss(n_r)
    return 0.5 * (x + 1.0), 0.5 * w


def angular_rule(n_t: int) -> tuple[np.ndarray, float]:
    """Uniform angles on [0, 2pi) with the constant trapezoid weight."""
    return 2.0 * np.pi * np.arange(n_t) / n_t, 2.0 * np.pi / n_t


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Flattened quadrature nodes and weights on a planar region."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


def star_grid(center: complex, radius: float, n_r: int, n_t: int) -> PolarGrid:
    """Area grid on the disk {center + rho e^{i phi} : rho < radius}."""
    (phis, w_phi), (x, w_x) = angular_rule(n_t), unit_radial_rule(n_r)
    nodes = center + radius * x * np.exp(1j * phis)[:, None]
    weights = np.tile(radius * w_x * (radius * x) * w_phi, n_t)
    return PolarGrid(nodes=nodes.ravel(), weights=weights)


def cauchy_kernel_grid(center: complex, rho_max, n_r: int, n_t: int,
                       order: int = 0) -> PolarGrid:
    """Grid on {center + rho e^{i phi} : rho < rho_max(phi)}, ``rho_max`` a
    constant or a callable of the angle array, whose weights absorb the
    kernel order!/(zbar - conj(center))^(order+1): with z = center + rho e^{i phi}
    the kernel times the area element is order! e^{i(order+1)phi} rho^(-order)
    drho dphi.  The tests' reference for the harmonic table's rows, kept for
    them and for bench/tracer.py; ROADMAP item 5 moves it into the tests."""
    phis, w_phi = angular_rule(n_t)
    lengths = np.asarray(rho_max(phis) if callable(rho_max) else np.full(n_t, rho_max), float)
    x, w_x = unit_radial_rule(n_r)
    nodes = center + (lengths * np.exp(1j * phis))[:, None] * x[None, :]
    # a zero-length ray (a centre on the chord circle) covers no area
    ray_weights = np.power(lengths, 1 - order, out=np.zeros(n_t), where=lengths > 0) \
        * (w_phi * math.factorial(order)) * np.exp(1j * (order + 1) * phis)
    return PolarGrid(nodes=nodes.ravel(),
                     weights=(ray_weights[:, None] * (w_x / x ** order)[None, :]).ravel())


# Smallest relative tolerance a doubling can certify.  Two refinement
# levels summed in double precision agree only to a few ulps of the value,
# and may agree exactly by chance, so a change below this says nothing.
ROUNDING_FLOOR = 32 * float(np.finfo(float).eps)


def require_certifiable(tol: float, what: str) -> None:
    """Refuse with ConvergenceError a relative tolerance below
    ROUNDING_FLOOR, which no doubling can certify."""
    if not tol >= ROUNDING_FLOOR:
        raise ConvergenceError(
            f"{what}: tol={tol:g} is below the rounding floor "
            f"{ROUNDING_FLOOR:.2e}; no quadrature refinement can certify it")


# the one refinement schedule, of moments and Cauchy rows alike: the probe
# level, then at most four doublings of both node counts, up to 768x1024
PROBE = (48, 64)
MAX_DOUBLINGS = 4


def adaptive_integral(evaluate, tol: float, *, scale: float = 0.0,
                      what: str = "integral") -> tuple[complex | np.ndarray, float]:
    """Refine ``evaluate(n_r, n_t)`` from ``PROBE`` by doubling both node counts.

    ``evaluate`` returns a complex number or an array of them; for an
    array, changes and magnitudes are maxima over its entries.  Stops when
    successive values differ by less than ``tol`` relative to
    ref = max(|value|, scale); raises ConvergenceError otherwise.

    ``require_certifiable`` refuses a ``tol`` below ROUNDING_FLOOR (32
    machine epsilons) before anything is evaluated.  Returns the finest
    value together with the last doubling difference as an error
    estimate, raised to at least ROUNDING_FLOOR * ref, so it is never
    zero.  The ConvergenceError of a refinement that does not converge
    lists the change at every level it tried.
    """
    require_certifiable(tol, what)
    n_r, n_t = PROBE
    prev = np.asarray(evaluate(n_r, n_t), dtype=complex)
    history = []
    for _ in range(MAX_DOUBLINGS):
        n_r *= 2
        n_t *= 2
        cur = np.asarray(evaluate(n_r, n_t), dtype=complex)
        err = float(np.max(np.abs(cur - prev)))
        ref = max(float(np.max(np.abs(cur))), scale, 1e-300)
        if err <= tol * ref:
            value = complex(cur) if cur.ndim == 0 else cur
            return value, max(err, ROUNDING_FLOOR * ref)
        history.append(f"{n_r}x{n_t}: {err:.3e}")
        prev = cur
    raise ConvergenceError(
        f"{what}: quadrature did not reach tol={tol:g} after "
        f"{MAX_DOUBLINGS} doublings (change at each level: "
        f"{', '.join(history)}; value scale {ref:.3e})"
    )
