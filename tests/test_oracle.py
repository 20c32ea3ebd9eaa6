import math

import numpy as np
import pytest

from detratio import (ConstraintError, Deformation, OracleConfig,
                      RatioQuery, eval_poly, oracle_deformed_op,
                      oracle_expectation, oracle_partition,
                      partition_function)
from detratio.oracle import _pair_sum, _weighted_grid

from conftest import EPS_GAUSS, MUS_GAUSS

PI = math.pi
CFG = OracleConfig(radial_nodes=48, angular_nodes=64)


def _pair_sum_direct(z: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """Literal chunked double sum, the cross-check for _pair_sum."""
    total = 0j
    chunk = max(1, 2_000_000 // max(len(z), 1))
    for s in range(0, len(z), chunk):
        d2 = np.abs(z[s:s + chunk, None] - z[None, :]) ** 2
        total += u[s:s + chunk] @ (d2 @ v)
    return complex(total)


def test_pair_sum_factorization_is_exact(disk):
    z, w = _weighted_grid(disk, 12, 16)
    u = w * (z + 0.3)
    v = w * np.conj(z) ** 2
    fast = _pair_sum(z, u, v)
    direct = _pair_sum_direct(z, u, v)
    assert fast == pytest.approx(direct, rel=1e-13)


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
        oracle_expectation(RatioQuery(N=3), gauss, CFG)  # quadrature N <= 2
    cfg = OracleConfig(method="monte-carlo", samples=1000)
    with pytest.raises(ConstraintError):
        oracle_expectation(RatioQuery(N=5), gauss, cfg)
    with pytest.raises(ConstraintError):
        OracleConfig(method="importance")


def test_mc_pole_distance_policy(gauss):
    cfg = OracleConfig(method="monte-carlo", samples=1000, seed=1)
    with pytest.raises(ConstraintError, match="quadrature"):
        oracle_expectation(RatioQuery(N=2, epsbars=(3.1,)), gauss, cfg)
    # far poles are accepted
    oracle_expectation(RatioQuery(N=2, epsbars=(4.6,)), gauss, cfg)


def test_deformed_op_reduces_to_base(disk, disk_sys):
    pol = oracle_deformed_op(disk, Deformation(), 2, CFG)
    assert np.allclose(pol.coeffs, disk_sys.polys[2].coeffs, atol=1e-10)


def test_deformed_op_disk_inverse_factor(disk):
    pol = oracle_deformed_op(disk, Deformation(epsbars=(2.0,)), 1, CFG)
    assert pol.coeffs[0] == pytest.approx(-0.25, abs=1e-9)


def test_deformed_op_matches_combined(gauss, gauss_sys, gauss_ev):
    from detratio import combined_poly
    defn = Deformation(mus=(1.2 + 0.4j,), epsbars=(4.6 + 0.5j,))
    pol = oracle_deformed_op(gauss, defn, 2, CFG)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        ref = combined_poly(gauss_sys, gauss_ev, defn.mus, defn.epsbars, 2, z).value
        assert eval_poly(pol, z) == pytest.approx(ref, rel=1e-6, abs=1e-7)


def test_mc_partition_n3(gauss, gauss_sys):
    cfg = OracleConfig(method="monte-carlo", samples=400_000, seed=3)
    est = oracle_partition(gauss, 3, cfg)
    exact = partition_function(gauss_sys, 3)
    assert abs(est.value - exact) <= 3 * est.stderr
