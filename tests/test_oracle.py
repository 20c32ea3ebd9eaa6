import math

import numpy as np
import pytest

from detratio import (ConstraintError, ConvergenceError, OracleConfig,
                      RatioQuery, eval_poly, oracle_deformed_op,
                      oracle_expectation, oracle_partition, partition_function)
from detratio import oracle
from detratio.oracle import (_batch_ratio_stats, _ratio_factor,
                             _sample_eigenvalues, _tensor_sums)
from detratio.quadrature import adaptive_integral
from detratio.weight import weighted_grid

from conftest import (EPS_DISK, EPS_GAUSS, MUS_DISK, MUS_GAUSS,
                      family_weight)

PI = math.pi
CFG = OracleConfig(radial_nodes=48, angular_nodes=64)


def _pair_sum_direct(z: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """Literal chunked double sum of u_a v_b |z_a - z_b|^2."""
    total = 0j
    chunk = max(1, 2_000_000 // max(len(z), 1))
    for s in range(0, len(z), chunk):
        d2 = np.abs(z[s:s + chunk, None] - z[None, :]) ** 2
        total += u[s:s + chunk] @ (d2 @ v)
    return complex(total)


def _tensor_sums_direct(q: RatioQuery, spec, n_r: int, n_t: int):
    """The tensor-product sums of f |Delta|^2 and |Delta|^2 written out:
    a single sum for N = 1, the chunked double loop for N = 2."""
    z, w = weighted_grid(spec, spec.domain.quad_radius, n_r, n_t)
    u = w * _ratio_factor(z, q.expanded_mus(), q.expanded_epsbars())
    if q.N == 1:
        return complex(np.sum(u)), complex(np.sum(w))
    return _pair_sum_direct(z, u, u), _pair_sum_direct(z, w, w)


@pytest.mark.parametrize("n_ev, epsbars", [
    (1, (0.2 - 0.4j,)),               # pole inside the unit disk
    (1, (2.0 + 0.3j,)),               # pole outside
    (2, (0.2 - 0.4j, 2.0 + 0.3j)),
])
def test_tensor_sums_match_literal_grid_integral(disk, n_ev, epsbars):
    q = RatioQuery(N=n_ev, mus=(0.3 + 0.2j, 1.7 + 0.4j), epsbars=epsbars)
    num, den = _tensor_sums(q, disk, 12, 16)
    num_direct, den_direct = _tensor_sums_direct(q, disk, 12, 16)
    assert num == pytest.approx(num_direct, rel=1e-13)
    assert den == pytest.approx(den_direct, rel=1e-13)


def _mc_batches_direct(q: RatioQuery, spec, cfg: OracleConfig):
    """Sample-major batch means with M N divisions per sample, the
    cross-check for the eigenvalue-major _mc_batches: same draws, same
    batches, |Delta|^2 from np.abs and f as the product over eigenvalues
    of the one-particle ratio factor.  Returns (num_means, den_means, neff)."""
    per_batch = max(1, cfg.samples // cfg.batches)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)
    num_means = np.empty(cfg.batches, dtype=complex)
    den_means = np.empty(cfg.batches, dtype=float)
    w_sum = w_sq_sum = 0.0
    for b, stream in enumerate(streams):
        z = _sample_eigenvalues(spec, np.random.default_rng(stream), (per_batch, q.N))
        delta_sq = np.ones(per_batch)
        for i in range(q.N):
            for j in range(i):
                delta_sq *= np.abs(z[:, i] - z[:, j]) ** 2
        f = np.prod(_ratio_factor(z, q.expanded_mus(), q.expanded_epsbars()), axis=-1)
        num_means[b] = np.mean(f * delta_sq)
        den_means[b] = np.mean(delta_sq)
        w_sum += float(np.sum(delta_sq))
        w_sq_sum += float(np.sum(delta_sq ** 2))
    return num_means, den_means, w_sum ** 2 / w_sq_sum


# per family: two mus and two epsbars far enough out for the Monte Carlo
# pole policy (1.5 effective-support radii from the centre)
MC_POLES = {"gaussian": (MUS_GAUSS[:2], EPS_GAUSS),
            "disk-flat": (MUS_DISK[:2], EPS_DISK),
            "shifted-gaussian": (MUS_GAUSS[:2], (6.5 + 0.5j, -5.6 + 2.9j))}


def _mc_queries(n_ev: int, mus, epsbars) -> list:
    """Every L, M in 0..2 with distinct variables, and one mu and one eps
    of multiplicity 2."""
    out = [RatioQuery(N=n_ev, mus=mus[:n_l], epsbars=epsbars[:n_m])
           for n_l in range(3) for n_m in range(min(2, n_ev) + 1)]
    out.append(RatioQuery(N=n_ev, mus=mus[:1], mu_multiplicities=(2,)))
    if n_ev >= 2:
        out.append(RatioQuery(N=n_ev, epsbars=epsbars[:1], eps_multiplicities=(2,)))
    return out


@pytest.mark.parametrize("kind", sorted(MC_POLES))
@pytest.mark.parametrize("n_ev", [1, 2, 3, 4])
def test_mc_batches_match_sample_major_arithmetic(kind, n_ev):
    spec = family_weight(kind)
    for q in _mc_queries(n_ev, *MC_POLES[kind]):
        for seed in (5, 6):
            cfg = OracleConfig(method="monte-carlo", samples=4000, seed=seed, batches=8)
            est = oracle_expectation(q, spec, cfg)
            num, den, neff = _mc_batches_direct(q, spec, cfg)
            value, stderr = _batch_ratio_stats(num, den)
            assert est.value == pytest.approx(value, rel=1e-12)
            assert est.neff == pytest.approx(neff, rel=1e-12)
            if q.L_total or q.M_total:
                assert est.stderr == pytest.approx(stderr, rel=1e-12)
            else:  # f = 1: exact, while the complex reference means round
                assert est.stderr == 0.0 and stderr < 1e-15


@pytest.mark.parametrize("kind", ["gaussian", "disk-flat"])
@pytest.mark.parametrize("n_ev", [1, 2, 3, 4])
def test_mc_empty_query_is_exact(kind, n_ev):
    spec = family_weight(kind)
    for seed in (1, 2, 3, 4):
        cfg = OracleConfig(method="monte-carlo", samples=20_000, seed=seed)
        est = oracle_expectation(RatioQuery(N=n_ev), spec, cfg)
        assert est.value == 1.0 and est.stderr == 0.0


def test_sample_eigenvalues_keeps_one_sample_per_row(gauss):
    # bench/tracer.py's _hook_oracle__sample_eigenvalues counts the
    # samples of a Monte Carlo pass as z.shape[0]
    z = oracle._sample_eigenvalues(gauss, np.random.default_rng(0), (7, 3))
    assert z.shape == (7, 3)


def test_partition_examples(gauss, disk):
    assert oracle_partition(gauss, 1, CFG).value == pytest.approx(PI, rel=1e-10)
    assert oracle_partition(gauss, 2, CFG).value == pytest.approx(2 * PI ** 2, rel=1e-10)
    assert oracle_partition(disk, 2, CFG).value == pytest.approx(PI ** 2, rel=1e-12)


def test_partition_error_estimate_is_honest(gauss):
    est = oracle_partition(gauss, 2, CFG)
    assert abs(est.value - 2 * PI ** 2) <= max(est.stderr, 1e-9)


def test_expectation_examples(disk, gauss):
    est = oracle_expectation(RatioQuery(N=1, epsbars=(2.0,)), disk, CFG)
    assert est.value == pytest.approx(0.5, abs=1e-9)
    est = oracle_expectation(RatioQuery(N=2, mus=(1 + 1j,)), gauss, CFG)
    assert est.value == pytest.approx(2j, abs=1e-9)
    est = oracle_expectation(RatioQuery(N=2), disk, CFG)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_mc_normalized_identity(gauss):
    cfg = OracleConfig(method="monte-carlo", samples=20_000, seed=3)
    est = oracle_expectation(RatioQuery(N=2), gauss, cfg)
    assert est.value == pytest.approx(1.0, abs=1e-12)  # ratio of identical means


def test_mc_matches_formula_within_3_sigma(gauss, gauss_sys, gauss_ev):
    from detratio import expectation_ratio
    q = RatioQuery(N=3, mus=MUS_GAUSS[:1], epsbars=EPS_GAUSS[:1])
    cfg = OracleConfig(method="monte-carlo", samples=400_000, seed=21)
    est = oracle_expectation(q, gauss, cfg)
    ref = expectation_ratio(q, gauss_sys, gauss_ev).value
    assert abs(est.value - ref) <= 3 * est.stderr
    assert est.neff > 1000


def test_mc_seed_determinism(gauss):
    q = RatioQuery(N=2, mus=(1.0 + 0.5j,))
    cfg = OracleConfig(method="monte-carlo", samples=50_000, seed=123)
    a = oracle_expectation(q, gauss, cfg)
    b = oracle_expectation(q, gauss, cfg)
    assert a.value == b.value and a.stderr == b.stderr
    c = oracle_expectation(q, gauss, OracleConfig(method="monte-carlo",
                                                  samples=50_000, seed=124))
    assert c.value != a.value


def test_mc_stderr_scaling_exponent(gauss):
    # 16x sweep; batches must be large enough that the heavy-tailed
    # |Delta|^2 reweighting is represented in every batch, and each stderr
    # estimate carries ~13% batch noise, so average over seeds before the fit
    q = RatioQuery(N=3, mus=MUS_GAUSS[:1])
    sizes = [32_000, 128_000, 512_000]
    errs = []
    for s in sizes:
        vals = [oracle_expectation(
            q, gauss, OracleConfig(method="monte-carlo", samples=s, seed=seed)).stderr
            for seed in (11, 12, 13, 14, 15, 16)]
        errs.append(np.mean(vals))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_mc_permutation_symmetry(gauss):
    cfg = OracleConfig(method="monte-carlo", samples=30_000, seed=9)
    a = oracle_expectation(RatioQuery(N=2, mus=MUS_GAUSS[:2]), gauss, cfg)
    b = oracle_expectation(RatioQuery(N=2, mus=MUS_GAUSS[:2][::-1]), gauss, cfg)
    # the sample product over mus is permutation invariant sample by sample
    assert a.value == pytest.approx(b.value, rel=1e-14)


def test_quadrature_refinement_consistency(disk):
    q = RatioQuery(N=2, epsbars=(2.0 + 0.3j,))
    coarse = oracle_expectation(q, disk, OracleConfig(radial_nodes=24, angular_nodes=32))
    fine = oracle_expectation(q, disk, OracleConfig(radial_nodes=48, angular_nodes=64))
    assert abs(fine.value - coarse.value) <= coarse.stderr + fine.stderr + 1e-12


def test_method_limits(gauss):
    with pytest.raises(ConstraintError):
        oracle_expectation(RatioQuery(N=3), gauss,   # quadrature N <= 2
                           OracleConfig(method="tensor-quadrature"))
    cfg = OracleConfig(method="monte-carlo", samples=1000)
    with pytest.raises(ConstraintError):
        oracle_expectation(RatioQuery(N=5), gauss, cfg)
    with pytest.raises(ConstraintError):
        OracleConfig(method="importance")


def test_unset_method_takes_tensor_quadrature_up_to_its_limit(disk):
    cfg = OracleConfig(samples=1000, seed=1)
    assert cfg.method is None
    assert [oracle_partition(disk, n, cfg).method for n in (1, 2, 3, 4)] == \
        ["tensor-quadrature"] * 2 + ["monte-carlo"] * 2
    with pytest.raises(ConstraintError, match="monte-carlo oracle supports N <= 4"):
        oracle_partition(disk, 5, cfg)


@pytest.mark.parametrize("batches", [0, 1])
def test_fewer_than_two_batches_are_refused(batches):
    with pytest.raises(ConstraintError, match="oracle.batches: expected an integer >= 2"):
        OracleConfig(method="monte-carlo", batches=batches)


def test_mc_pole_distance_policy(gauss):
    cfg = OracleConfig(method="monte-carlo", samples=1000, seed=1)
    with pytest.raises(ConstraintError, match="quadrature"):
        oracle_expectation(RatioQuery(N=2, epsbars=(3.1,)), gauss, cfg)
    # far poles are accepted
    oracle_expectation(RatioQuery(N=2, epsbars=(4.6,)), gauss, cfg)


def test_deformed_op_reduces_to_base(disk, disk_sys):
    pol = oracle_deformed_op(disk, (), (), 2)
    assert np.allclose(pol.coeffs, disk_sys.poly(2).coeffs, atol=1e-10)


def test_deformed_op_disk_inverse_factor(disk):
    pol = oracle_deformed_op(disk, (), (2.0,), 1)
    assert pol.coeffs[0] == pytest.approx(-0.25, abs=1e-9)


def test_deformed_op_matches_combined(gauss, gauss_sys, gauss_ev):
    from detratio import combined_poly
    mus, epsbars = (1.2 + 0.4j,), (4.6 + 0.5j,)
    pol = oracle_deformed_op(gauss, mus, epsbars, 2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        ref = combined_poly(gauss_sys, gauss_ev, mus, epsbars, 2, z).value
        assert eval_poly(pol, z) == pytest.approx(ref, rel=1e-6, abs=1e-7)



def _deformed_op_direct(spec, mus, epsbars, n: int) -> np.ndarray:
    """Coefficients of ``oracle_deformed_op`` from moments summed node by
    node, each power of the nodes tabulated."""
    def moments_on(n_r, n_t):
        z, w = weighted_grid(spec, spec.domain.quad_radius, n_r, n_t)
        measure = w * _ratio_factor(z, mus, epsbars)
        powers = np.vander(z, n + 1, increasing=True).T
        return (powers * measure) @ powers[:n].conj().T

    moments, _ = adaptive_integral(moments_on, oracle.DEFORMED_MOMENT_TOL)
    return np.append(np.linalg.solve(moments[:n, :n].T, -moments[n, :n]), 1.0)


@pytest.mark.parametrize("which,mus,epsbars,n", [
    ("disk", (), (), 2), ("disk", (), (2.0,), 1), ("disk", (), (3.0,), 1),
    ("gauss", (1.0,), (), 1), ("gauss", (1.0,), (4.6,), 1),
    ("gauss", (1.2 + 0.4j,), (4.6 + 0.5j,), 2)])
def test_deformed_op_matches_node_by_node_moments(request, which, mus, epsbars, n):
    spec = request.getfixturevalue(which)
    got = oracle_deformed_op(spec, mus, epsbars, n)
    reference = _deformed_op_direct(spec, mus, epsbars, n)
    assert np.max(np.abs(np.array(got.coeffs) - reference)) <= 1e-12


def test_deformed_op_refuses_unconverged_moments(gauss):
    # the pole of 1/(1 - zbar) sits where the gaussian is large: the
    # moments change by order one at every doubling, so the solve is
    # refused (ConvergenceError is a NumericalError: CLI exit 3)
    with pytest.raises(ConvergenceError, match="deformed-measure moments"):
        oracle_deformed_op(gauss, (), (1.0,), 2)


def test_mc_partition_n3(gauss, gauss_sys):
    cfg = OracleConfig(method="monte-carlo", samples=400_000, seed=3)
    est = oracle_partition(gauss, 3, cfg)
    exact = partition_function(gauss_sys, 3)
    assert abs(est.value - exact) <= 3 * est.stderr
