"""Polar tensor-product quadrature for planar integrals.

Every 2D integral in this package is taken over a disk or a radially
truncated plane, in polar form: Gauss-Legendre nodes in the radial
direction tensored with a uniform trapezoid rule in the angle (the
trapezoid rule is spectrally accurate for periodic integrands).  Grids
may be centered away from the origin; for a star-shaped region the
radial extent of each ray varies with its angle.

A grid is just a flat list of complex nodes with matching quadrature
weights.  Weights are real for plain area integrals but may be complex:
integrals against the kernel k!/(zbar - cbar)^(k+1) are done on a grid
centered at c, where the 1/rho singularity cancels against the rho of
the area element and the leftover angular phase is folded into the
weights.
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


def _ray_lengths(rho_max, n_t: int) -> tuple[np.ndarray, np.ndarray, float]:
    phis, w_phi = angular_rule(n_t)
    if callable(rho_max):
        lengths = np.asarray(rho_max(phis), dtype=float)
    else:
        lengths = np.full(n_t, float(rho_max))
    return phis, lengths, w_phi


def star_grid(center: complex, rho_max, n_r: int, n_t: int) -> PolarGrid:
    """Area grid on the star-shaped region {center + rho e^{i phi} : rho < rho_max(phi)}.

    ``rho_max`` is a constant or a callable of the angle array.
    """
    phis, lengths, w_phi = _ray_lengths(rho_max, n_t)
    x, w_x = unit_radial_rule(n_r)
    rho = lengths[:, None] * x[None, :]
    nodes = center + rho * np.exp(1j * phis)[:, None]
    weights = (lengths[:, None] * w_x[None, :]) * rho * w_phi
    return PolarGrid(nodes=nodes.ravel(), weights=weights.ravel())


def cauchy_kernel_grid(center: complex, rho_max, n_r: int, n_t: int,
                       order: int = 0) -> PolarGrid:
    """Grid whose weights absorb the kernel order!/(zbar - conj(center))^(order+1).

    Summing F(nodes) * weights evaluates the area integral of
    F(z) * order!/(zbar - conj(center))^(order+1) over the star-shaped
    region: with z = center + rho e^{i phi} the kernel times the area
    element equals order! e^{i(order+1)phi} rho^(-order) drho dphi.

    With rho = length * x on a ray, every factor depends on the ray or on
    the radial node alone, so nodes and weights are each one outer
    product of a ray vector and a radial vector.
    """
    phis, lengths, w_phi = _ray_lengths(rho_max, n_t)
    x, w_x = unit_radial_rule(n_r)
    ray_weights = lengths ** (1 - order) * (w_phi * math.factorial(order)) \
        * np.exp(1j * (order + 1) * phis)
    nodes = center + (lengths * np.exp(1j * phis))[:, None] * x[None, :]
    weights = ray_weights[:, None] * (w_x / x ** order)[None, :]
    return PolarGrid(nodes=nodes.ravel(), weights=weights.ravel())


def disk_chord_lengths(center: complex, radius: float):
    """Ray lengths from an interior point ``center`` to the circle |z| = radius."""
    c = complex(center)
    if abs(c) > radius:
        raise ValueError("chord grid requires the center inside the disk")

    def rho_max(phis: np.ndarray) -> np.ndarray:
        t = np.real(np.conj(c) * np.exp(1j * phis))
        disc = t * t + radius * radius - abs(c) ** 2
        return -t + np.sqrt(np.maximum(disc, 0.0))

    return rho_max


# Smallest relative tolerance a doubling can certify.  Two refinement
# levels summed in double precision agree only to a few ulps of the value,
# and may agree exactly by chance, so a change below this says nothing.
ROUNDING_FLOOR = 32 * float(np.finfo(float).eps)


def adaptive_integral(evaluate, tol: float, *, start: tuple[int, int] = (64, 96),
                      max_doublings: int = 4, scale: float = 0.0,
                      what: str = "integral") -> tuple[complex | np.ndarray, float]:
    """Refine ``evaluate(n_r, n_t)`` by doubling both node counts.

    ``evaluate`` returns a complex number or an array of them; for an
    array, changes and magnitudes are maxima over its entries.  Stops when
    successive values differ by less than ``tol`` relative to
    ref = max(|value|, scale); raises ConvergenceError otherwise.

    A ``tol`` below ROUNDING_FLOOR (32 machine epsilons) is refused with
    ConvergenceError before anything is evaluated: no doubling can certify
    it, whatever the sampled values.  Returns the finest value together
    with the last doubling difference as an error estimate, raised to at
    least ROUNDING_FLOOR * ref, so it is never zero.  The ConvergenceError
    of a refinement that does not converge lists the change at every
    level it tried.
    """
    if not tol >= ROUNDING_FLOOR:
        raise ConvergenceError(
            f"{what}: tol={tol:g} is below the rounding floor "
            f"{ROUNDING_FLOOR:.2e}; no quadrature refinement can certify it")
    n_r, n_t = start
    prev = np.asarray(evaluate(n_r, n_t), dtype=complex)
    history = []
    for _ in range(max_doublings):
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
        f"{max_doublings} doublings (change at each level: "
        f"{', '.join(history)}; value scale {ref:.3e})"
    )
