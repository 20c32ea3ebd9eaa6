"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
nowhere else.

Criterion 8 carries a known-defective expected value for the single-
inverse-factor polynomial on the unit disk (z - 1/2); the package's
determinant formula, its closed-form transforms, and the independent
bi-orthogonality solve all agree on z - 1/4, so that assertion fails and
is kept failing deliberately rather than repinned.
"""

import itertools
import math
import time

import numpy as np

from detratio import (OracleConfig, RatioQuery, cauchy_evaluator,
                      cauchy_row, christoffel_poly, combined_poly,
                      expectation_inverses, expectation_products,
                      expectation_ratio, eval_poly,
                      gaussian_weight, oracle_deformed_op, oracle_expectation,
                      oracle_partition, ortho_system, partition_function,
                      uvarov_poly)
from detratio.oracle import deformed_integral

from conftest import (EPS_DISK, EPS_GAUSS, MUS_DISK, MUS_GAUSS,
                      poly_values_on_circle)

PI = math.pi

QUAD_CFG = OracleConfig(radial_nodes=64, angular_nodes=96)
MC_SAMPLES = 2_000_000


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_orthogonal_systems(gauss, disk):
    t0 = time.time()
    ok = True
    detail = []
    for spec, norm_of in ((gauss, lambda k: PI * math.factorial(k)),
                          (disk, lambda k: PI / (k + 1))):
        sys_ = ortho_system(spec, 8)
        for k in range(9):
            coeffs = np.array(sys_.poly(k).coeffs)
            if k and np.max(np.abs(coeffs[:-1])) >= 1e-10:
                ok = False
                detail.append(f"{spec.kind} degree {k} non-monomial")
            if abs(sys_.norms[k] - norm_of(k)) > 1e-8 * norm_of(k):
                ok = False
                detail.append(f"{spec.kind} norm {k}")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        ok = False
        detail.append(f"runtime {elapsed:.2f}s")
    report("criterion 1 (orthogonal systems, n <= 8, < 1 s)", ok,
           "; ".join(detail) or f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_cauchy_closed_forms(gauss_sys, disk_sys):
    t0 = time.time()
    worst = 0.0
    for sys_ in (disk_sys, gauss_sys):
        quad = cauchy_evaluator(sys_, method="quadrature", tolerance=1e-9)
        series = cauchy_evaluator(sys_)
        for n in range(6):
            for e in (1.5, 2.0, 5.0, 20.0):
                a = cauchy_row(series, (n,), e)[0].value
                b = cauchy_row(quad, (n,), e)[0].value
                worst = max(worst, abs(a - b) / abs(a))
    elapsed = time.time() - t0
    ok = worst < 1e-7 and elapsed < 10.0
    report("criterion 2 (transform closed forms, < 10 s)", ok,
           f"worst rel {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_exact_anchors(disk, disk_sys, disk_ev, gauss_sys, gauss_ev):
    v_disk = expectation_ratio(RatioQuery(N=1, epsbars=(2.0,)),
                               disk_sys, disk_ev).value
    est = oracle_expectation(RatioQuery(N=1, epsbars=(2.0,)), disk, QUAD_CFG)
    v_gauss = expectation_ratio(RatioQuery(N=1, epsbars=(2.0,)),
                                gauss_sys, gauss_ev).value
    expect_gauss = (1 - math.exp(-4)) / 2
    ok = (abs(v_disk - 0.5) < 1e-10
          and abs(v_disk - est.value) < 1e-6
          and abs(v_gauss - expect_gauss) < 1e-8 * expect_gauss)
    report("criterion 3 (exact anchors)", ok,
           f"disk dev {abs(v_disk - 0.5):.1e}, oracle dev "
           f"{abs(v_disk - est.value):.1e}, gauss dev "
           f"{abs(v_gauss - expect_gauss):.1e}")


def test_criterion_4_oracle_grid(disk, gauss, disk_sys, disk_ev, gauss_sys,
                                 gauss_ev):
    t0 = time.time()
    worst = 0.0
    for spec, sys_, cev, mus, eps in ((disk, disk_sys, disk_ev, MUS_DISK, EPS_DISK),
                                      (gauss, gauss_sys, gauss_ev, MUS_GAUSS,
                                       EPS_GAUSS)):
        for n_ev in (1, 2):
            for big_l in (0, 1, 2):
                for big_m in range(0, min(n_ev, 2) + 1):
                    q = RatioQuery(N=n_ev, mus=mus[:big_l], epsbars=eps[:big_m])
                    f = expectation_ratio(q, sys_, cev).value
                    o = oracle_expectation(q, spec, QUAD_CFG).value
                    worst = max(worst, abs(f - o) / max(abs(o), 1e-300))
    quad_ok = worst < 1e-6

    # N = 3: Monte Carlo within 3 sigma at <= 2% relative error
    mc_ok = True
    mc_detail = []
    cfg = OracleConfig(method="monte-carlo", samples=MC_SAMPLES, seed=2024)
    for q in (RatioQuery(N=3, mus=MUS_GAUSS[:1], epsbars=EPS_GAUSS[:1]),
              RatioQuery(N=3, mus=MUS_GAUSS[:2])):
        f = expectation_ratio(q, gauss_sys, gauss_ev).value
        est = oracle_expectation(q, gauss, cfg)
        rel_err = est.stderr / abs(est.value)
        if abs(f - est.value) > 3 * est.stderr or rel_err > 0.02:
            mc_ok = False
        mc_detail.append(f"dev/sigma {abs(f - est.value) / est.stderr:.2f} "
                         f"relerr {rel_err:.2%}")
    elapsed = time.time() - t0
    ok = quad_ok and mc_ok and elapsed < 600.0
    report("criterion 4 (formula vs oracle grid, < 10 min)", ok,
           f"worst quad rel {worst:.2e}; MC {'; '.join(mc_detail)}; "
           f"{elapsed:.0f} s")


def test_criterion_5_heine_identities(disk, gauss, disk_sys, disk_ev,
                                      gauss_sys, gauss_ev):
    worst = 0.0
    for spec, sys_, cev, mu, eb in ((disk, disk_sys, disk_ev, 1.6 + 0.4j, 2.1),
                                    (gauss, gauss_sys, gauss_ev, 1.2 + 0.5j,
                                     4.6 + 0.5j)):
        for n_ev in (1, 2):
            # <D_N[mu]> = pi_N(mu)
            lhs = oracle_expectation(RatioQuery(N=n_ev, mus=(mu,)), spec,
                                     QUAD_CFG).value
            rhs = eval_poly(sys_.poly(n_ev), mu)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
            # <1/conj-D_N[eb]> = -2 pi i N (Z_{N-1}/Z_N) h_{N-1}(eb)
            lhs = oracle_expectation(RatioQuery(N=n_ev, epsbars=(eb,)), spec,
                                     QUAD_CFG).value
            z_ratio = (partition_function(sys_, n_ev - 1) if n_ev > 1 else 1.0) \
                / partition_function(sys_, n_ev)
            rhs = -2j * PI * n_ev * z_ratio * cauchy_row(cev, (n_ev - 1,), eb)[0].value
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst < 1e-6
    report("criterion 5 (Heine identities vs oracle)", ok, f"worst rel {worst:.2e}")


def test_criterion_6_path_consistency(disk_sys, disk_ev, gauss_sys, gauss_ev):
    worst = 0.0
    for sys_, cev, mus, eps in ((disk_sys, disk_ev, MUS_DISK, EPS_DISK),
                                (gauss_sys, gauss_ev, MUS_GAUSS, EPS_GAUSS)):
        for n_ev in (1, 2, 3):
            for big_l in (1, 2, 3):
                q = RatioQuery(N=n_ev, mus=mus[:big_l])
                a = expectation_ratio(q, sys_, cev).value
                b = expectation_products(q, sys_).value
                worst = max(worst, abs(a - b) / abs(a))
            for big_m in range(1, min(n_ev, 2) + 1):
                q = RatioQuery(N=n_ev, epsbars=eps[:big_m])
                a = expectation_ratio(q, sys_, cev).value
                b = expectation_inverses(q, sys_, cev).value
                worst = max(worst, abs(a - b) / abs(a))
    ok = worst < 1e-9
    report("criterion 6 (telescope path consistency)", ok, f"worst rel {worst:.2e}")


def test_criterion_7_structural_invariants(disk, disk_sys, disk_ev, gauss,
                                           gauss_sys, gauss_ev):
    detail = []
    ok = True

    q0 = RatioQuery(N=2, mus=MUS_DISK[:2], epsbars=EPS_DISK)
    base = expectation_ratio(q0, disk_sys, disk_ev).value
    worst_perm = 0.0
    for pm in itertools.permutations(q0.mus):
        for pe in itertools.permutations(q0.epsbars):
            v = expectation_ratio(RatioQuery(N=2, mus=pm, epsbars=pe),
                                  disk_sys, disk_ev).value
            worst_perm = max(worst_perm, abs(v - base) / abs(base))
    if worst_perm >= 1e-12:
        ok = False
    detail.append(f"permutation {worst_perm:.1e}")

    scaled_sys = ortho_system(gaussian_weight(amplitude=2.3), 8)
    scaled_ev = cauchy_evaluator(scaled_sys)
    q = RatioQuery(N=2, mus=MUS_GAUSS[:1], epsbars=EPS_GAUSS[:1])
    a = expectation_ratio(q, gauss_sys, gauss_ev).value
    b = expectation_ratio(q, scaled_sys, scaled_ev).value
    scale_dev = abs(a - b) / abs(a)
    if scale_dev >= 1e-12:
        ok = False
    detail.append(f"scaling {scale_dev:.1e}")

    unit = expectation_ratio(RatioQuery(N=2), disk_sys, disk_ev).value
    if unit != 1.0 + 0j:
        ok = False
    detail.append(f"empty query {unit}")

    worst_z = 0.0
    for spec, sys_ in ((gauss, gauss_sys), (disk, disk_sys)):
        for n_ev in (1, 2):
            est = oracle_partition(spec, n_ev, QUAD_CFG)
            exact = partition_function(sys_, n_ev)
            worst_z = max(worst_z, abs(est.value - exact) / exact)
    if worst_z >= 1e-6:
        ok = False
    cfg = OracleConfig(method="monte-carlo", samples=400_000, seed=5)
    est = oracle_partition(gauss, 3, cfg)
    exact = partition_function(gauss_sys, 3)
    if abs(est.value - exact) > 3 * est.stderr:
        ok = False
    detail.append(f"Z_N quad {worst_z:.1e}, MC {abs(est.value - exact) / est.stderr:.2f} sigma")

    report("criterion 7 (structural invariants)", ok, "; ".join(detail))


def test_criterion_8a_bi_orthogonality(disk, disk_sys, disk_ev):
    worst = 0.0
    for ell, m in itertools.product(range(3), range(3)):
        for n in range(max(m, 1), 5):
            mus, epsbars = MUS_DISK[:ell], EPS_DISK[:m]
            coeffs = poly_values_on_circle(
                lambda z: combined_poly(disk_sys, disk_ev, mus, epsbars, n, z).value, n)
            for k in range(n):
                val = deformed_integral(
                    disk, mus, epsbars, lambda z: eval_poly(coeffs, z) * np.conj(z) ** k)
                scale = deformed_integral(
                    disk, mus, epsbars,
                    lambda z: np.abs(eval_poly(coeffs, z) * np.conj(z) ** k) + 0j)
                worst = max(worst, abs(val) / abs(scale))
    ok = worst < 1e-6
    report("criterion 8a (bi-orthogonality residuals)", ok, f"worst {worst:.2e}")


def test_criterion_8b_uvarov_closed_form_as_specified(disk, disk_sys, disk_ev):
    # The stated expected polynomial is z - 1/2.  It contradicts the pinned
    # closed forms (h_0(2) = i/4 and h_1(2) = i/16 force z - 1/4), and the
    # independent bi-orthogonality solve on the deformed measure returns
    # z - 1/4 as well; see the failure detail.
    z = 0.9 + 0.3j
    got = uvarov_poly(disk_sys, disk_ev, (2.0,), 1, z).value
    stated = z - 0.5
    oracle = oracle_deformed_op(disk, (), (2.0,), 1)
    ok = abs(got - stated) <= 1e-9
    report("criterion 8b (single-inverse polynomial equals z - 1/2)", ok,
           f"formula gives z - {-uvarov_poly(disk_sys, disk_ev, (2.0,), 1, 0).value:.6g}, "
           f"independent solve gives z - {-oracle.coeffs[0]:.6g}")


def test_criterion_8c_block_reductions(disk_sys, disk_ev):
    z = 0.37 + 0.18j
    worst = 0.0
    a = combined_poly(disk_sys, disk_ev, (), EPS_DISK, 3, z).value
    b = uvarov_poly(disk_sys, disk_ev, EPS_DISK, 3, z).value
    worst = max(worst, abs(a - b) / abs(b))
    c = combined_poly(disk_sys, disk_ev, MUS_DISK[:2], (), 3, z).value
    d = christoffel_poly(disk_sys, MUS_DISK[:2], 3, z).value
    worst = max(worst, abs(c - d) / abs(d))
    ok = worst < 1e-12
    report("criterion 8c (block reductions)", ok, f"worst rel {worst:.2e}")


def test_criterion_9_confluence(gauss_sys, gauss_ev):
    mu = 0.9 + 0.6j
    conf = expectation_ratio(
        RatioQuery(N=2, mus=(mu,), mu_multiplicities=(2,)),
        gauss_sys, gauss_ev).value

    def at(delta):
        return expectation_ratio(RatioQuery(N=2, mus=(mu, mu + delta)),
                                 gauss_sys, gauss_ev).value

    deltas = (1e-2, 1e-3, 1e-4)
    errs = [abs(at(d) - conf) / abs(conf) for d in deltas]
    monotone = errs[0] > errs[1] > errs[2]
    d1, d2 = deltas[1], deltas[2]
    rich = (d1 * at(d2) - d2 * at(d1)) / (d1 - d2)
    final = abs(rich - conf) / abs(conf)
    ok = monotone and final <= 1e-5
    report("criterion 9 (confluence via extrapolation)", ok,
           f"errors {[f'{e:.1e}' for e in errs]}, extrapolated {final:.1e}")
