"""Brute-force evaluation of eigenvalue-ensemble expectations.

Ground truth for every determinant identity in the package: the
2N-real-dimensional integrals

    Z_N   = prod_i integral dw(z_i) |Delta_N|^2,
    <f>_w = (1/Z_N) prod_i integral dw(z_i) f(z) |Delta_N|^2,

evaluated either on tensor products of the polar quadrature grids
(N <= 2; cost grows as the square of the node count per eigenvalue) or
by Monte Carlo (N <= 4): eigenvalues drawn i.i.d. from the normalized
single-particle weight by inverse-CDF sampling in polar coordinates,
with |Delta|^2 applied as a reweighting factor and the expectation
computed as a ratio of sample means.

Monte Carlo error bars come from batch means over independently seeded,
deterministically derived per-batch RNG streams; the reduction order is
fixed, so estimates are bit-reproducible for a given (seed, config).
The second moment of an inverse factor 1/|eps - z|^2 is log-divergent
in 2D, so Monte Carlo runs with M > 0 require every eps to stay at
least half a domain scale away from the effective support; closer poles
belong to the quadrature oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed import Deformation
from .errors import ConstraintError, NumericalError, SingularMatrixError
from .orthopoly import MonicPoly
from .quadrature import star_grid
from .ratios import RatioQuery
from .weight import WeightSpec, closed_moment

TENSOR_QUADRATURE = "tensor-quadrature"
MONTE_CARLO = "monte-carlo"

MC_MIN_SUPPORT_DISTANCE = 0.5  # in units of the domain scale


@dataclass(frozen=True)
class OracleConfig:
    method: str = TENSOR_QUADRATURE
    radial_nodes: int = 48
    angular_nodes: int = 64
    samples: int = 200_000
    seed: int = 0
    batches: int = 32

    def __post_init__(self):
        if self.method not in (TENSOR_QUADRATURE, MONTE_CARLO):
            raise ConstraintError(f"unknown oracle method {self.method!r}")
        if min(self.radial_nodes, self.angular_nodes, self.samples,
               self.batches) < 1:
            raise ConstraintError("oracle node/sample/batch counts must be positive")


@dataclass(frozen=True)
class OracleEstimate:
    value: complex
    stderr: float
    neff: float
    method: str


def _check_n_limit(method: str, n_ev: int) -> None:
    limit = 2 if method == TENSOR_QUADRATURE else 4
    if n_ev > limit:
        raise ConstraintError(
            f"{method} oracle supports N <= {limit}, got N = {n_ev}")


def _ratio_factor(z: np.ndarray, mus, epsbars) -> np.ndarray:
    """prod_j (mu_j - z) / prod_k (ebar_k - zbar), elementwise."""
    out = np.ones_like(z, dtype=complex)
    for mu in mus:
        out = out * (mu - z)
    zbar = np.conj(z)
    for eb in epsbars:
        out = out / (eb - zbar)
    return out


def _pair_sum(z: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """sum_{a,b} u_a v_b |z_a - z_b|^2 over the tensored grid.

    Expanding |z_a - z_b|^2 = |z_a|^2 + |z_b|^2 - z_a zbar_b - zbar_a z_b
    turns the double sum into four products of single sums; this is an
    exact rewriting of the pairwise sum (asserted against the direct
    double loop in the tests), not an approximation.
    """
    r2 = np.abs(z) ** 2
    su, sv = np.sum(u), np.sum(v)
    return complex(np.sum(u * r2) * sv + su * np.sum(v * r2)
                   - np.sum(u * z) * np.sum(v * np.conj(z))
                   - np.sum(u * np.conj(z)) * np.sum(v * z))


def _weighted_grid(spec: WeightSpec, n_r: int, n_t: int):
    grid = star_grid(0j, spec.domain.quad_radius, n_r, n_t)
    return grid.nodes, spec.evaluate(grid.nodes) * grid.weights


def _quad_expectation(q: RatioQuery, spec: WeightSpec, n_r: int, n_t: int) -> complex:
    z, w = _weighted_grid(spec, n_r, n_t)
    f1 = _ratio_factor(z, q.expanded_mus(), q.expanded_epsbars())
    if q.N == 1:
        return complex(np.sum(w * f1) / np.sum(w))
    num = _pair_sum(z, w * f1, w * f1)
    den = _pair_sum(z, w.astype(complex), w.astype(complex))
    return num / den


def _quad_partition(spec: WeightSpec, n_ev: int, n_r: int, n_t: int) -> complex:
    z, w = _weighted_grid(spec, n_r, n_t)
    if n_ev == 1:
        return complex(np.sum(w))
    return _pair_sum(z, w.astype(complex), w.astype(complex))


def _check_mc_pole_policy(spec: WeightSpec, epsbars) -> None:
    floor = MC_MIN_SUPPORT_DISTANCE * spec.domain_scale
    for eb in epsbars:
        if abs(complex(eb) - spec.centre) - spec.effective_support_radius < floor:
            raise ConstraintError(
                f"Monte Carlo with an inverse factor requires "
                f"dist(eps, effective support) >= {floor:g}; eps = {eb} is too "
                "close (the estimator variance is divergent there). Use the "
                "tensor-quadrature oracle instead.")


def _sample_eigenvalues(spec: WeightSpec, rng: np.random.Generator,
                        shape) -> np.ndarray:
    """i.i.d. draws from w/||w|| by polar inverse-CDF sampling."""
    u = rng.random(shape)
    v = rng.random(shape)
    return spec.sample(u, v)


def _abs_delta_sq(z: np.ndarray) -> np.ndarray:
    """|Vandermonde|^2 across the last axis (the eigenvalue index)."""
    n_ev = z.shape[-1]
    out = np.ones(z.shape[:-1], dtype=float)
    for i in range(n_ev):
        for j in range(i):
            out *= np.abs(z[..., i] - z[..., j]) ** 2
    return out


def _mc_batches(q: RatioQuery, spec: WeightSpec, cfg: OracleConfig):
    """Per-batch means of f |Delta|^2 and |Delta|^2 plus weight tallies."""
    per_batch = max(1, cfg.samples // cfg.batches)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)
    mus = q.expanded_mus()
    epsbars = q.expanded_epsbars()
    num_means = np.empty(cfg.batches, dtype=complex)
    den_means = np.empty(cfg.batches, dtype=float)
    w_sum = 0.0
    w_sq_sum = 0.0
    for b, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        z = _sample_eigenvalues(spec, rng, (per_batch, q.N))
        delta_sq = _abs_delta_sq(z)
        f = np.prod(_ratio_factor(z, mus, epsbars), axis=-1)
        num_means[b] = np.mean(f * delta_sq)
        den_means[b] = np.mean(delta_sq)
        w_sum += float(np.sum(delta_sq))
        w_sq_sum += float(np.sum(delta_sq ** 2))
    neff = w_sum ** 2 / w_sq_sum if w_sq_sum > 0 else 0.0
    return num_means, den_means, neff, per_batch * cfg.batches


def _batch_ratio_stats(num_means, den_means) -> tuple[complex, float]:
    value = complex(np.sum(num_means) / np.sum(den_means))
    ratios = num_means / den_means
    nb = len(ratios)
    if nb < 2:
        return value, float("inf")
    var = np.var(ratios.real, ddof=1) + np.var(ratios.imag, ddof=1)
    return value, float(math.sqrt(var / nb))


def oracle_expectation(q: RatioQuery, spec: WeightSpec,
                       cfg: OracleConfig) -> OracleEstimate:
    """Direct estimate of the normalized ratio expectation."""
    _check_n_limit(cfg.method, q.N)
    if cfg.method == TENSOR_QUADRATURE:
        coarse = _quad_expectation(q, spec, cfg.radial_nodes, cfg.angular_nodes)
        fine = _quad_expectation(q, spec, 2 * cfg.radial_nodes,
                                 2 * cfg.angular_nodes)
        return OracleEstimate(fine, abs(fine - coarse), float("nan"),
                              TENSOR_QUADRATURE)
    if q.M_total > 0:
        _check_mc_pole_policy(spec, q.expanded_epsbars())
    num_means, den_means, neff, total = _mc_batches(q, spec, cfg)
    value, stderr = _batch_ratio_stats(num_means, den_means)
    if not math.isfinite(stderr) or neff < len(num_means):
        raise NumericalError(
            f"Monte Carlo variance blow-up: neff = {neff:.1f} of {total} samples")
    return OracleEstimate(value, stderr, neff, MONTE_CARLO)


def oracle_partition(spec: WeightSpec, n_ev: int, cfg: OracleConfig) -> OracleEstimate:
    """Direct estimate of the partition function Z_N."""
    if n_ev < 1:
        raise ConstraintError("the eigenvalue count must be positive")
    _check_n_limit(cfg.method, n_ev)
    if cfg.method == TENSOR_QUADRATURE:
        coarse = _quad_partition(spec, n_ev, cfg.radial_nodes, cfg.angular_nodes)
        fine = _quad_partition(spec, n_ev, 2 * cfg.radial_nodes,
                               2 * cfg.angular_nodes)
        return OracleEstimate(fine, abs(fine - coarse), float("nan"),
                              TENSOR_QUADRATURE)
    q = RatioQuery(N=n_ev)
    num_means, den_means, neff, total = _mc_batches(q, spec, cfg)
    # the sampler refused custom weights, so M_00 has a closed form
    norm = closed_moment(spec, 0, 0).real ** n_ev
    value = complex(norm * np.mean(den_means))
    nb = len(den_means)
    stderr = float(norm * np.std(den_means, ddof=1) / math.sqrt(nb)) if nb > 1 \
        else float("inf")
    return OracleEstimate(value, stderr, neff, MONTE_CARLO)


def deformed_integral(spec: WeightSpec, deformation: Deformation, fn,
                      n_r: int = 96, n_t: int = 128) -> complex:
    """integral fn(z) dw^(deformation) over the domain (complex measure)."""
    z, w = _weighted_grid(spec, n_r, n_t)
    measure = w * _ratio_factor(z, deformation.mus, deformation.epsbars)
    return complex(np.sum(measure * fn(z)))


def oracle_deformed_op(spec: WeightSpec, deformation: Deformation, n: int,
                       cfg: OracleConfig) -> MonicPoly:
    """Monic degree-n polynomial solving the one-sided orthogonality
    conditions against zbar^k, k < n, for the deformed measure.

    Works directly from quadrature moments of the deformed measure and is
    therefore independent of every determinant formula.
    """
    if n < 0:
        raise ConstraintError("polynomial degree must be non-negative")
    if n > 4:
        raise ConstraintError("the deformed-measure solver is desk-scale: n <= 4")

    def moments_on(n_r: int, n_t: int) -> np.ndarray:
        z, w = _weighted_grid(spec, n_r, n_t)
        measure = w * _ratio_factor(z, deformation.mus, deformation.epsbars)
        powers = np.vstack([z ** j for j in range(n + 1)])
        conj_pow = np.vstack([np.conj(z) ** k for k in range(max(n, 1))])
        return (powers * measure) @ conj_pow.T  # [j, k]

    coarse = moments_on(cfg.radial_nodes, cfg.angular_nodes)
    fine = moments_on(2 * cfg.radial_nodes, 2 * cfg.angular_nodes)
    scale = float(np.max(np.abs(fine))) or 1.0
    if float(np.max(np.abs(fine - coarse))) > 1e-7 * scale:
        fine = moments_on(4 * cfg.radial_nodes, 4 * cfg.angular_nodes)
    if n == 0:
        return MonicPoly((1.0 + 0j,))
    a = fine[:n, :n].T  # equations k, unknowns j
    b = -fine[n, :n]
    try:
        lower = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "deformed-moment system is singular: the bi-orthogonal polynomial "
            f"is not unique at degree {n} for this deformation") from None
    return MonicPoly(tuple(lower) + (1.0 + 0j,))
