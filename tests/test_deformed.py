import itertools
import math

import numpy as np
import pytest

from detratio import (ConstraintError, DegenerateVariablesError, RatioQuery,
                      SingularMatrixError, christoffel_poly, christoffel_q,
                      combined_poly, custom_weight, deformed_cauchy, deformed_integral,
                      eval_poly, expectation_products, full_plane_domain,
                      oracle_deformed_op, ortho_system, poly_derivative, uvarov_poly,
                      uvarov_q)
from detratio.deformed import determinant_rows
from detratio.weight import CUTOFF_ORDER, gaussian_cutoff

from conftest import (EPS_DISK, EPS_GAUSS, MUS_DISK, MUS_GAUSS,
                      poly_values_on_circle)


def test_christoffel_empty_deformation_is_base_poly(gauss_sys):
    z = 0.7 - 0.3j
    res = christoffel_poly(gauss_sys, (), 3, z)
    assert res.value == eval_poly(gauss_sys.poly(3), z)


def test_christoffel_gaussian_single_mu(gauss_sys, gauss):
    # deformed measure (1 - z) exp(-|z|^2): the degree-1 polynomial is z,
    # confirmed by the independent bi-orthogonality solve
    oracle = oracle_deformed_op(gauss, (1.0,), (), 1)
    assert abs(oracle.coeffs[0]) < 1e-10
    for z in (0.7 + 0.2j, -1.1 + 0.9j):
        res = christoffel_poly(gauss_sys, (1.0,), 1, z)
        assert res.value == pytest.approx(z, rel=1e-13)
        assert res.conditioning < math.inf


def test_exactly_singular_minor_says_so(gauss_sys):
    # pi_2(0) = 0 on the gaussian: the 1x1 minor of the christoffel
    # formula is exactly 0, which no conditioning number describes
    with pytest.raises(SingularMatrixError, match="minor is singular: its "
                       "determinant is exactly 0$"):
        christoffel_poly(gauss_sys, (0j,), 2, 1.0)
    with pytest.raises(SingularMatrixError, match="determinant is exactly 0$"):
        expectation_products(RatioQuery(N=2, mus=(0j, 1.0)), gauss_sys)


def test_christoffel_q_vanishes_at_each_mu(disk_sys):
    mus = MUS_DISK[:2]
    scale = abs(christoffel_q(disk_sys, mus, 2, 0.4 + 0.1j))
    for mu in mus:
        assert abs(christoffel_q(disk_sys, mus, 2, mu)) < 1e-10 * scale


def test_christoffel_at_mu_rejected(disk_sys):
    with pytest.raises(ConstraintError, match="christoffel_q"):
        christoffel_poly(disk_sys, (1.5,), 2, 1.5)


def test_uvarov_empty_deformation(disk_sys, disk_ev):
    z = 0.2 + 0.1j
    res = uvarov_poly(disk_sys, disk_ev, (), 2, z)
    assert res.value == eval_poly(disk_sys.poly(2), z)


def test_uvarov_disk_closed_form(disk_sys, disk_ev, disk):
    # h_0(2) = i/4, h_1(2) = i/16 give pi_1^{[0,1]} = z - 1/4; the
    # bi-orthogonality solve against the deformed measure confirms it
    oracle = oracle_deformed_op(disk, (), (2.0,), 1)
    assert oracle.coeffs[0] == pytest.approx(-0.25, abs=1e-9)
    for z in (0.0, 0.5 + 0.2j):
        res = uvarov_poly(disk_sys, disk_ev, (2.0,), 1, z)
        assert res.value == pytest.approx(z - 0.25, rel=1e-12, abs=1e-12)


def test_uvarov_bi_orthogonality_by_quadrature(disk, disk_sys, disk_ev):
    val = deformed_integral(disk, (), (2.0,),
                            lambda z: eval_poly([-0.25, 1.0], z))
    assert abs(val) < 1e-12


def test_uvarov_q_orthogonality_identity(disk, disk_sys, disk_ev):
    # integral dw q_n^{[0,m]}(z)/(zbar - ebar_j) = 0 for each deformation point
    epsbars = EPS_DISK
    n = 3
    coeffs = poly_values_on_circle(
        lambda z: uvarov_q(disk_sys, disk_ev, epsbars, n, z), n)
    for eb in epsbars:
        val = deformed_integral(disk, (), (),
                                lambda z: eval_poly(coeffs, z) / (np.conj(z) - eb))
        scale = deformed_integral(disk, (), (),
                                  lambda z: np.abs(eval_poly(coeffs, z) / (np.conj(z) - eb)) + 0j)
        assert abs(val) < 1e-10 * abs(scale)


def test_combined_reduces_to_uvarov_and_christoffel(disk_sys, disk_ev):
    z = 0.3 + 0.4j
    a = combined_poly(disk_sys, disk_ev, (), EPS_DISK, 3, z)
    b = uvarov_poly(disk_sys, disk_ev, EPS_DISK, 3, z)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    c = combined_poly(disk_sys, disk_ev, MUS_DISK[:2], (), 3, z)
    d = christoffel_poly(disk_sys, MUS_DISK[:2], 3, z)
    assert c.value == pytest.approx(d.value, rel=1e-12)


def test_combined_matches_oracle_solve(gauss, gauss_sys, gauss_ev):
    mus, epsbars = (1.0,), (4.6,)
    oracle = oracle_deformed_op(gauss, mus, epsbars, 1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        res = combined_poly(gauss_sys, gauss_ev, mus, epsbars, 1, z)
        assert res.value == pytest.approx(eval_poly(oracle, z), rel=1e-6, abs=1e-8)


def test_deformed_cauchy_empty(disk_sys, disk_ev):
    from detratio import cauchy_row
    assert deformed_cauchy(disk_sys, disk_ev, (), 2, 3.0) == \
        cauchy_row(disk_ev, (2,), 3.0)[0].value


def test_deformed_cauchy_disk_closed_form(disk, disk_sys, disk_ev):
    # deformation ebar_1 = 2, degree 1, evaluated at ebar = 3: i/72,
    # checked against direct quadrature of the deformed transform
    got = deformed_cauchy(disk_sys, disk_ev, (2.0,), 1, 3.0)
    assert got == pytest.approx(1j / 72, rel=1e-12)
    direct = deformed_integral(
        disk, (), (2.0,),
        lambda z: eval_poly([-0.25, 1.0], z) / (np.conj(z) - 3.0)) / (2j * math.pi)
    assert got == pytest.approx(direct, rel=1e-10)


def test_deformed_cauchy_swap_vs_direct_definition(disk, disk_sys, disk_ev):
    # swapping the deformation point with the evaluation point changes the
    # measure; both orderings must match their direct definitions
    for (eb_def, eb_eval) in ((2.0, 3.0), (3.0, 2.0)):
        got = deformed_cauchy(disk_sys, disk_ev, (eb_def,), 1, eb_eval)
        pol = oracle_deformed_op(disk, (), (eb_def,), 1)
        direct = deformed_integral(
            disk, (), (eb_def,),
            lambda z: eval_poly(pol, z) / (np.conj(z) - eb_eval)) / (2j * math.pi)
        assert got == pytest.approx(direct, rel=1e-8)


def test_deformed_cauchy_coincident_point_rejected(disk_sys, disk_ev):
    with pytest.raises(ConstraintError):
        deformed_cauchy(disk_sys, disk_ev, (2.0,), 1, 2.0)


# the residual integrals multiply the pole by z-powers, so the gaussian
# deformation points sit farther out than the shared pool
BIORTH_EPS_GAUSS = (5.6 + 0.5j, -5.3 + 1.9j)


@pytest.mark.parametrize("which", ["disk", "gauss"])
def test_bi_orthogonality_residuals(which, request):
    spec = request.getfixturevalue("disk" if which == "disk" else "gauss")
    sys_ = request.getfixturevalue(f"{which}_sys")
    cev = request.getfixturevalue(f"{which}_ev")
    mus_pool = MUS_DISK if which == "disk" else MUS_GAUSS
    eps_pool = EPS_DISK if which == "disk" else BIORTH_EPS_GAUSS
    worst = 0.0
    for ell, m in itertools.product(range(3), range(3)):
        for n in range(max(m, 1), 5):
            mus, epsbars = mus_pool[:ell], eps_pool[:m]
            coeffs = poly_values_on_circle(
                lambda z: combined_poly(sys_, cev, mus, epsbars, n, z).value, n)
            for k in range(n):
                val = deformed_integral(
                    spec, mus, epsbars, lambda z: eval_poly(coeffs, z) * np.conj(z) ** k)
                scale = deformed_integral(
                    spec, mus, epsbars,
                    lambda z: np.abs(eval_poly(coeffs, z) * np.conj(z) ** k) + 0j)
                worst = max(worst, abs(val) / abs(scale))
    assert worst < 1e-6


def test_monic_normalization_by_interpolation(disk_sys, disk_ev):
    for (mus, epsbars, n) in [(MUS_DISK[:1], (), 2), ((), EPS_DISK, 3),
                              (MUS_DISK[:2], EPS_DISK[:1], 3)]:
        coeffs = poly_values_on_circle(
            lambda z: combined_poly(disk_sys, disk_ev, mus, epsbars, n, z).value, n)
        assert abs(coeffs[-1] - 1.0) < 1e-9


def test_permutation_invariance(disk_sys, disk_ev):
    z = 0.37 + 0.21j
    base = combined_poly(disk_sys, disk_ev, MUS_DISK[:2], EPS_DISK, 3, z).value
    for pm in itertools.permutations(MUS_DISK[:2]):
        for pe in itertools.permutations(EPS_DISK):
            v = combined_poly(disk_sys, disk_ev, pm, pe, 3, z).value
            assert v == pytest.approx(base, rel=1e-12)


def test_degenerate_limit_continuity(gauss_sys):
    # approaching mus stay on top of the derivative-row limit all the way
    # down to the rejection threshold (errors here are roundoff-dominated,
    # growing like 1e-16/delta as the determinants lose digits)
    mu = 1.1 + 0.7j
    z = 0.3 + 0.2j
    limit = christoffel_poly(gauss_sys, (mu,), 2, z, multiplicities=(2,)).value
    for delta in (1e-4, 1e-5, 1e-6, 1e-7, 2e-8):
        val = christoffel_poly(gauss_sys, (mu, mu + delta), 2, z).value
        assert abs(val - limit) / abs(limit) < 1e-6


def test_multiplicity_three_limit(gauss_sys):
    # a triple mu needs the second-derivative row, scaled by 1/2!; three
    # mus 1e-3 apart stay on top of that limit
    mu = 1.1 + 0.7j
    z = 0.3 + 0.2j
    for n in (1, 2, 3):
        limit = christoffel_poly(gauss_sys, (mu,), n, z, multiplicities=(3,)).value
        val = christoffel_poly(gauss_sys, (mu, mu + 1e-3, mu + 2e-3), n, z).value
        assert abs(val - limit) / abs(limit) < 1e-7


def test_near_degenerate_rejected(gauss_sys, disk_sys, disk_ev):
    mu = 1.1 + 0.7j
    with pytest.raises(DegenerateVariablesError):
        christoffel_poly(gauss_sys, (mu, mu + 1e-10), 2, 0.3)
    with pytest.raises(DegenerateVariablesError):
        uvarov_poly(disk_sys, disk_ev, (2.0, 2.0 + 1e-10), 2, 0.3)


def test_depth_and_order_validation(disk_sys, disk_ev):
    with pytest.raises(ConstraintError):
        christoffel_poly(disk_sys, MUS_DISK, 7, 0.1)  # 7 + 3 > 8
    with pytest.raises(ConstraintError):
        uvarov_poly(disk_sys, disk_ev, EPS_DISK, 1, 0.1)  # m=2 > n=1


# the shifted gaussian written as a custom weight about 0: every entry of
# its coefficient matrix below the diagonal is nonzero
DENSE = custom_weight(lambda z: np.exp(-np.abs(z - (0.4 + 0.3j)) ** 2),
                      full_plane_domain(gaussian_cutoff(1.0, CUTOFF_ORDER) + 0.5))


@pytest.mark.parametrize("which", ["gauss", "shifted", "disk", "dense"])
def test_pi_rows_equal_the_per_degree_evaluation(which, request):
    # one evaluation of a block of coefficient rows per (mu, t) gives, for
    # each degree, pi_d^(t)(mu) / t! as the polynomial pi_d alone gives it
    spec = DENSE if which == "dense" else request.getfixturevalue(which)
    sys_ = ortho_system(spec, 8)
    if which == "dense":
        assert np.all(np.tril(sys_.coeffs, -1)[np.tril_indices(9, -1)] != 0)
    for degrees in (range(0, 1), range(0, 4), range(3, 9), range(8, 9), range(0, 9)):
        for mu in (1.3 + 0.8j, -0.7 + 1.1j, 0.2 - 2.1j):
            matrix, warnings, h_error = determinant_rows(sys_, None, (), (), (mu,), (4,),
                                                         degrees)
            assert matrix.shape == (4, len(degrees)) and warnings == () and h_error == 0
            for t, row in enumerate(matrix):
                ref = np.array([eval_poly(poly_derivative(sys_.poly(d), t), mu)
                                / math.factorial(t) for d in degrees])
                assert np.max(np.abs(row - ref)) <= 1e-14 * max(np.sum(np.abs(ref)), 1e-300)


def test_pi_rows_refuse_a_window_past_the_system(gauss_sys, gauss_ev):
    # the block of rows is sliced from the coefficient matrix, which must
    # not truncate a window reaching past max_degree, nor wrap one below 0
    for degrees, bad in ((range(5, 10), 9), (range(-1, 3), -1)):
        with pytest.raises(ConstraintError, match=f"degree {bad} is outside 0..8$"):
            determinant_rows(gauss_sys, None, (), (), (1.3 + 0.8j,), (1,), degrees)
        with pytest.raises(ConstraintError, match=f"degree {bad} is outside 0..8$"):
            determinant_rows(gauss_sys, gauss_ev, EPS_GAUSS[:1], (1,), (), (), degrees)
        with pytest.raises(ConstraintError, match=f"degree {bad} is outside 0..8$"):
            gauss_sys.poly(bad)
