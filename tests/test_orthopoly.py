import math

import numpy as np
import pytest

from detratio import (ConstraintError, MomentMatrix, MonicPoly, NumericalError,
                      Poly, bordered_coefficients, build_ortho_system,
                      disk_flat_weight, eval_poly, gaussian_weight,
                      moment_matrix, ortho_system,
                      orthogonality_residual_matrix, partition_function,
                      poly_derivative)

PI = math.pi


def test_gaussian_monomials_and_norms(gauss_sys):
    for k in range(4):
        coeffs = np.array(gauss_sys.polys[k].coeffs)
        assert abs(coeffs[-1] - 1) == 0
        assert np.max(np.abs(coeffs[:-1])) < 1e-12 if k else True
        assert gauss_sys.norms[k] == pytest.approx(PI * math.factorial(k), rel=1e-12)


def test_disk_monomials_and_norms(disk_sys):
    for k in range(3):
        coeffs = np.array(disk_sys.polys[k].coeffs)
        assert np.max(np.abs(coeffs[:-1])) < 1e-12 if k else True
        assert disk_sys.norms[k] == pytest.approx(PI / (k + 1), rel=1e-12)


def test_rescaled_weight_same_polys_doubled_norms(gauss, gauss_sys):
    doubled = ortho_system(gaussian_weight(amplitude=2.0), 4)
    for k in range(5):
        assert np.allclose(doubled.polys[k].coeffs, gauss_sys.polys[k].coeffs)
        assert doubled.norms[k] == pytest.approx(2.0 * gauss_sys.norms[k], rel=1e-14)


def test_eval_poly_examples():
    sq = MonicPoly((0, 0, 1))
    assert eval_poly(sq, 1 + 1j) == pytest.approx(2j)
    cube = MonicPoly((0, 0, 0, 1))
    assert eval_poly(cube, 0.0) == 0
    # monic leading behavior dominates at large |z|
    p = MonicPoly((3.0, -2.0, 1))
    z = 1e6
    assert eval_poly(p, z) == pytest.approx(z ** 2, rel=1e-5)


def test_eval_poly_vectorized():
    p = Poly((1.0, 2.0))
    z = np.array([0.0, 1.0, 1j])
    assert np.allclose(eval_poly(p, z), 1 + 2 * z)


def test_eval_poly_matches_reference_horner_bit_for_bit():
    def reference(coeffs, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            out = out * z + c
        return out

    rng = np.random.default_rng(7)
    coeffs = tuple(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    p = Poly(coeffs)
    z = 3 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    z_before = z.copy()
    got = eval_poly(p, z)
    assert np.array_equal(got, reference(coeffs, z))
    assert np.array_equal(z, z_before)              # the caller's nodes are untouched
    assert np.array_equal(eval_poly(coeffs, z), got)
    # short, strided and broadcast arrays
    for view in (z[:2], z[:3], z[:17], z[::3], z.reshape(20, 25).T,
                 np.broadcast_to(z[0], (4,))):
        assert np.array_equal(eval_poly(p, view), reference(coeffs, view))
    assert np.array_equal(z, z_before)
    # one-element inputs, where numpy's in-place products round differently
    for zk in z[:100]:
        scalar = complex(zk)
        got = eval_poly(p, scalar)                  # Python scalar
        assert type(got) is complex
        assert got == reference(coeffs, scalar)[()]
        z0 = np.array(zk)                           # 0-d array
        assert eval_poly(p, z0) == got and z0 == zk
        assert np.array_equal(eval_poly(p, np.array([zk])), [got])
    assert type(eval_poly(p, 2.5)) is complex
    assert type(eval_poly(MonicPoly((1,)), 2.0)) is complex


def test_poly_derivative():
    sq = Poly((0, 0, 1))
    assert poly_derivative(sq).coeffs == (0, 2)
    assert poly_derivative(sq, 0) is not sq
    assert poly_derivative(sq, 0).coeffs == sq.coeffs
    assert poly_derivative(sq, 3).coeffs == (0j,)


def test_partition_function(gauss_sys, disk_sys):
    assert partition_function(gauss_sys, 1) == pytest.approx(PI, rel=1e-12)
    assert partition_function(gauss_sys, 2) == pytest.approx(2 * PI ** 2, rel=1e-12)
    assert partition_function(disk_sys, 1) == pytest.approx(disk_sys.norms[0], rel=1e-15)
    with pytest.raises(ConstraintError):
        partition_function(gauss_sys, 100)


def test_orthogonality_residuals_below_1e8(gauss_sys, disk_sys):
    for sys_ in (gauss_sys, disk_sys):
        res = orthogonality_residual_matrix(sys_)
        off = res - np.diag(res.diagonal())
        assert np.max(np.abs(off)) < 1e-8


def test_construction_uniqueness_cholesky_vs_bordered(gauss, disk, shifted):
    for spec, deg in [(gauss, 6), (disk, 6), (shifted, 5)]:
        m = moment_matrix(spec, deg)
        sys_ = build_ortho_system(m, spec)
        for k in range(deg + 1):
            alt = bordered_coefficients(m, k)
            ref = np.array(sys_.polys[k].coeffs)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(alt - ref)) / scale < 1e-8


def test_shifted_gaussian_polys_are_shifted_monomials(shifted):
    # independent closed form: pi_k(z) = (z - c)^k with norms pi * k!
    from numpy.polynomial import polynomial as npoly
    sys_ = ortho_system(shifted, 5)
    c = 0.4 + 0.3j
    for k in (1, 3, 5):
        expect = npoly.polyfromroots([c] * k)
        assert np.max(np.abs(np.array(sys_.polys[k].coeffs) - expect)) < 1e-10
        assert sys_.norms[k] == pytest.approx(PI * math.factorial(k), rel=1e-10)


def test_conditioning_guard_refuses():
    entries = np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]], dtype=complex)
    m = MomentMatrix(order=1, entries=entries)
    with pytest.raises(NumericalError, match="max_degree"):
        build_ortho_system(m, disk_flat_weight())


def test_large_degree_gaussian_builds():
    # diagonal moment matrices equilibrate to condition 1; factorial norms
    # must not trip the guard
    sys_ = ortho_system(gaussian_weight(max_order=80), 40)
    assert sys_.norms[40] == pytest.approx(PI * math.factorial(40), rel=1e-10)


def test_non_positive_definite_reports_minor():
    entries = np.diag([1.0, -1.0, 1.0]).astype(complex)
    m = MomentMatrix(order=2, entries=entries)
    with pytest.raises(Exception, match="minor"):
        m.cholesky()


def test_degenerate_max_degree_zero(disk):
    sys_ = ortho_system(disk, 0)
    assert sys_.polys[0].coeffs == (1.0,)
    assert sys_.norms[0] == pytest.approx(PI)


def test_monic_validation():
    with pytest.raises(ConstraintError):
        MonicPoly((1.0, 2.0))
