"""Brute-force evaluation of eigenvalue-ensemble expectations.

Ground truth for every determinant identity in the package: the
2N-real-dimensional integrals

    Z_N   = prod_i integral dw(z_i) |Delta_N|^2,
    <f>_w = (1/Z_N) prod_i integral dw(z_i) f(z) |Delta_N|^2,

evaluated either on tensor products of the polar quadrature grid, as
Andreief's identity on ``planar_moments`` (N <= 2), or by Monte Carlo
(N <= 4; the limits are ``MAX_N``): eigenvalues drawn i.i.d. from the
normalized single-particle weight by inverse-CDF sampling in polar
coordinates, with |Delta|^2 applied as a reweighting factor and the
expectation computed as a ratio of sample means.  ``OracleConfig.method``
names the method; left unset, tensor quadrature takes N <= 2 and Monte
Carlo the larger N.

Monte Carlo error bars come from batch means, at least two, over
independently seeded, deterministically derived per-batch RNG streams;
the reduction order is fixed, so estimates are bit-reproducible for a
given (seed, config).
Each batch is eigenvalue-major: its (samples, N) draws are transposed
once into N contiguous rows.  |Delta|^2 multiplies re^2 + im^2 of the
pair differences, and the ratio factor prod_i F(z_i) is
prod_mu P(mu) / conj(prod_eb P(conj eb)) with P(x) = prod_i (x - z_i),
one complex division per sample.
The second moment of an inverse factor 1/|eps - z|^2 is log-divergent
in 2D, so Monte Carlo runs with M > 0 require every eps to stay at
least half the effective-support radius away from the effective support;
closer poles belong to the quadrature oracle.

``oracle_deformed_op`` refines its moments on the tensor oracle's grid by
``adaptive_integral`` and refuses moments that do not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .deformed import canonical_variables
from .errors import ConstraintError, NumericalError, SingularMatrixError, is_integer
from .orthopoly import MonicPoly
from .quadrature import adaptive_integral
from .ratios import RatioQuery
from .weight import (WeightSpec, closed_moments, planar_moments, truncation_radius,
                     weighted_grid)

TENSOR_QUADRATURE = "tensor-quadrature"
MONTE_CARLO = "monte-carlo"

MAX_N = {TENSOR_QUADRATURE: 2, MONTE_CARLO: 4}  # largest N per method
MC_MIN_SUPPORT_DISTANCE = 0.5  # in units of the effective-support radius
DEFORMED_MOMENT_TOL = 1e-7  # relative to the largest deformed moment


@dataclass(frozen=True)
class OracleConfig:
    """Oracle settings; ``method`` None picks tensor quadrature up to its
    N limit and Monte Carlo above it, so a default config runs the
    ``samples``-point Monte Carlo estimate at N = 3 and 4 where naming
    tensor quadrature is refused."""

    method: Optional[str] = None
    radial_nodes: int = 48
    angular_nodes: int = 64
    samples: int = 200_000
    seed: int = 0
    batches: int = 32

    def __post_init__(self):
        if self.method not in (None, TENSOR_QUADRATURE, MONTE_CARLO):
            raise ConstraintError(f"oracle.method: unknown method {self.method!r}")
        # batch means need two batches for a spread
        lows = {"seed": 0, "batches": 2}
        for name in ("radial_nodes", "angular_nodes", "samples", "seed", "batches"):
            value, low = getattr(self, name), lows.get(name, 1)
            if not is_integer(value) or value < low:
                raise ConstraintError(
                    f"oracle.{name}: expected an integer >= {low}, got {value!r}")

    @property
    def samples_drawn(self) -> int:
        """The Monte Carlo samples drawn: ``batches`` equal batches of
        samples // batches each, at least one."""
        return self.batches * max(1, self.samples // self.batches)


@dataclass(frozen=True)
class OracleEstimate:
    value: complex
    stderr: float
    neff: float
    method: str


def _method(cfg: OracleConfig, n_ev: int) -> str:
    """The configured method, or by default tensor quadrature for
    N <= ``MAX_N`` of it and Monte Carlo above; refuses an N beyond the
    method's limit."""
    method = cfg.method or (TENSOR_QUADRATURE if n_ev <= MAX_N[TENSOR_QUADRATURE]
                            else MONTE_CARLO)
    if n_ev > MAX_N[method]:
        raise ConstraintError(
            f"{method} oracle supports N <= {MAX_N[method]}, got N = {n_ev}")
    return method


def _ratio_factor(z: np.ndarray, mus, epsbars) -> np.ndarray:
    """prod_j (mu_j - z) / prod_k (ebar_k - zbar), elementwise."""
    out = np.ones_like(z, dtype=complex)
    for mu in mus:
        out = out * (mu - z)
    zbar = np.conj(z)
    for eb in epsbars:
        out = out / (eb - zbar)
    return out


def _tensor_sums(q: RatioQuery, spec: WeightSpec, n_r: int, n_t: int):
    """The tensor-grid sums of f |Delta|^2 and |Delta|^2, f = prod_i F(z_i):
    their ratio is the expectation, the second is Z_N.  By Andreief's
    identity each is N! det[S_jk], j, k < N, of ``planar_moments`` with
    and without the factor F: one grid instead of its N-fold product."""
    mus, epsbars = q.expanded_mus(), q.expanded_epsbars()

    def grid_sum(factor) -> complex:
        moments = planar_moments(spec, truncation_radius(spec, 0), n_r, n_t,
                                 q.N, q.N, factor)
        return math.factorial(q.N) * np.linalg.det(moments)

    return grid_sum(lambda z: _ratio_factor(z, mus, epsbars)), grid_sum(None)


def _tensor_estimate(q: RatioQuery, spec: WeightSpec, cfg: OracleConfig,
                     value) -> OracleEstimate:
    """``value(num, den)`` on the configured grid and on the grid with twice
    the nodes each way; their difference is the error estimate."""
    coarse, fine = (complex(value(*_tensor_sums(q, spec, k * cfg.radial_nodes,
                                                 k * cfg.angular_nodes)))
                    for k in (1, 2))
    return OracleEstimate(fine, abs(fine - coarse), float("nan"), TENSOR_QUADRATURE)


def _check_mc_pole_policy(spec: WeightSpec, epsbars) -> None:
    floor = MC_MIN_SUPPORT_DISTANCE * spec.effective_support_radius
    for eb in epsbars:
        if abs(complex(eb) - spec.centre) - spec.effective_support_radius < floor:
            raise ConstraintError(
                f"Monte Carlo with an inverse factor requires "
                f"dist(eps, effective support) >= {floor:g}; eps = {eb} is too "
                "close (the estimator variance is divergent there). Use the "
                "tensor-quadrature oracle instead.")


def _sample_eigenvalues(spec: WeightSpec, rng: np.random.Generator,
                        shape) -> np.ndarray:
    """i.i.d. draws from w/||w|| by polar inverse-CDF sampling.

    With shape (samples, N) the result holds one sample per row; the
    ``_sample_eigenvalues`` hook of bench/tracer.py counts samples as
    ``z.shape[0]``, so name and layout are part of its contract.
    """
    u = rng.random(shape)
    v = rng.random(shape)
    return spec.sample(u, v)


def _char_product(points, rows: np.ndarray) -> np.ndarray:
    """prod over x in ``points`` of P(x) = prod_i (x - z_i), per sample,
    for eigenvalue rows ``rows[i]``: 1 with no points."""
    out = np.ones(rows.shape[1], dtype=complex)
    for x in points:
        for row in rows:
            out *= x - row
    return out


def _mc_batches(q: RatioQuery, spec: WeightSpec, cfg: OracleConfig):
    """Per-batch means of f |Delta|^2 and |Delta|^2 plus weight tallies.

    The empty query (no mus, no epsbars) has f = 1 and returns the float
    means of |Delta|^2 on both sides, so that its ratio is exactly 1.
    """
    per_batch = cfg.samples_drawn // cfg.batches
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)
    mus, epsbars = q.expanded_mus(), q.expanded_epsbars()
    num_means = np.empty(cfg.batches, dtype=complex)
    den_means = np.empty(cfg.batches, dtype=float)
    w_sum = 0.0
    w_sq_sum = 0.0
    for b, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        # eigenvalue-major: one contiguous row of per_batch draws per eigenvalue
        rows = np.ascontiguousarray(
            _sample_eigenvalues(spec, rng, (per_batch, q.N)).T)
        delta_sq = np.ones(per_batch)
        for i in range(q.N):
            for j in range(i):
                d = rows[i] - rows[j]
                delta_sq *= d.real * d.real + d.imag * d.imag
        w = float(np.sum(delta_sq))
        den_means[b] = w / per_batch
        w_sum += w
        w_sq_sum += float(np.dot(delta_sq, delta_sq))
        if mus or epsbars:
            # prod_i F(z_i) = prod_mu P(mu) / conj(prod_eb P(conj eb))
            f = _char_product(mus, rows)
            if epsbars:
                f /= np.conj(_char_product(np.conj(epsbars), rows))
            num_means[b] = np.mean(f * delta_sq)
    if not (mus or epsbars):
        num_means = den_means
    neff = w_sum ** 2 / w_sq_sum if w_sq_sum > 0 else 0.0
    return num_means, den_means, neff, cfg.samples_drawn


def _batch_ratio_stats(num_means, den_means) -> tuple[complex, float]:
    value = complex(np.sum(num_means) / np.sum(den_means))
    ratios = num_means / den_means   # OracleConfig holds at least two batches
    var = np.var(ratios.real, ddof=1) + np.var(ratios.imag, ddof=1)
    return value, float(math.sqrt(var / len(ratios)))


def oracle_expectation(q: RatioQuery, spec: WeightSpec,
                       cfg: OracleConfig) -> OracleEstimate:
    """Direct estimate of the normalized ratio expectation."""
    if _method(cfg, q.N) == TENSOR_QUADRATURE:
        return _tensor_estimate(q, spec, cfg, lambda num, den: num / den)
    if q.M_total > 0:
        _check_mc_pole_policy(spec, q.expanded_epsbars())
    num_means, den_means, neff, total = _mc_batches(q, spec, cfg)
    value, stderr = _batch_ratio_stats(num_means, den_means)
    if not math.isfinite(stderr) or neff < len(num_means):
        raise NumericalError(
            f"Monte Carlo variance blow-up: neff = {neff:.1f} of {total} samples")
    return OracleEstimate(value, stderr, neff, MONTE_CARLO)


def oracle_partition(spec: WeightSpec, n_ev: int, cfg: OracleConfig) -> OracleEstimate:
    """Direct estimate of the partition function Z_N; ``RatioQuery``
    refuses an N that is not an integer >= 1."""
    q = RatioQuery(N=n_ev)
    if _method(cfg, q.N) == TENSOR_QUADRATURE:
        return _tensor_estimate(q, spec, cfg, lambda num, den: den)
    num_means, den_means, neff, total = _mc_batches(q, spec, cfg)
    # the sampler refused custom weights, so M_00 has a closed form
    norm = closed_moments(spec, 0)[0, 0].real ** n_ev
    value = complex(norm * np.mean(den_means))
    stderr = float(norm * np.std(den_means, ddof=1) / math.sqrt(len(den_means)))
    return OracleEstimate(value, stderr, neff, MONTE_CARLO)


def deformed_integral(spec: WeightSpec, mus, epsbars, fn) -> complex:
    """integral fn(z) prod_j (mu_j - z) / prod_k (ebar_k - zbar) dw over
    the domain (a complex measure) on the 128x160 grid about the centre."""
    mus, _ = canonical_variables(mus, "mus")
    epsbars, _ = canonical_variables(epsbars, "epsbars")
    z, w = weighted_grid(spec, truncation_radius(spec, 0), 128, 160)
    measure = w * _ratio_factor(z, mus, epsbars)
    return complex(np.sum(measure * fn(z)))


def oracle_deformed_op(spec: WeightSpec, mus, epsbars, n: int) -> MonicPoly:
    """Monic degree-n polynomial solving the one-sided orthogonality
    conditions against zbar^k, k < n, for the measure
    prod_j (mu_j - z) / prod_k (ebar_k - zbar) times the weight.

    Works directly from quadrature moments of the deformed measure about
    the weight's centre, in whose powers its coefficients are, and is
    therefore independent of every determinant formula.  Moments that do
    not converge to ``DEFORMED_MOMENT_TOL``, as with an inverse factor
    whose pole sits where the weight is large, raise ConvergenceError.
    """
    mus, _ = canonical_variables(mus, "mus")
    epsbars, _ = canonical_variables(epsbars, "epsbars")
    if n < 0:
        raise ConstraintError("polynomial degree must be non-negative")
    if n > 4:
        raise ConstraintError("the deformed-measure solver is desk-scale: n <= 4")
    if n == 0:
        return MonicPoly((1.0 + 0j,), spec.centre)

    def moments_on(n_r: int, n_t: int) -> np.ndarray:  # [j, k]
        return planar_moments(
            spec, truncation_radius(spec, 0), n_r, n_t, n + 1, n,
            lambda z: _ratio_factor(z, mus, epsbars))

    moments, _ = adaptive_integral(
        moments_on, DEFORMED_MOMENT_TOL,
        what=f"deformed-measure moments of degree {n} for {spec.label()}")
    a = moments[:n, :n].T  # equations k, unknowns j
    b = -moments[n, :n]
    try:
        lower = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "deformed-moment system is singular: the bi-orthogonal polynomial "
            f"is not unique at degree {n} for this deformation") from None
    return MonicPoly(tuple(lower) + (1.0 + 0j,), spec.centre)
