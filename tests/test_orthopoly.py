import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import detratio
from detratio import (ConstraintError, MomentMatrix, MonicPoly, NumericalError,
                      OrthoSystem, Poly, bordered_coefficients, build_ortho_system,
                      custom_weight, disk_flat_weight, eval_poly,
                      full_plane_domain, gaussian_weight, moment_matrix,
                      ortho_system, orthogonality_residual_matrix,
                      partition_function, poly_derivative,
                      shifted_gaussian_weight)
from detratio.orthopoly import lower_inverse
from detratio.weight import (CUTOFF_ORDER, gaussian_cutoff, truncation_radius,
                             weighted_grid)

PI = math.pi


def test_gaussian_monomials_and_norms(gauss_sys):
    for k in range(4):
        coeffs = np.array(gauss_sys.poly(k).coeffs)
        assert abs(coeffs[-1] - 1) == 0
        assert np.max(np.abs(coeffs[:-1])) < 1e-12 if k else True
        assert gauss_sys.norms[k] == pytest.approx(PI * math.factorial(k), rel=1e-12)


def test_disk_monomials_and_norms(disk_sys):
    for k in range(3):
        coeffs = np.array(disk_sys.poly(k).coeffs)
        assert np.max(np.abs(coeffs[:-1])) < 1e-12 if k else True
        assert disk_sys.norms[k] == pytest.approx(PI / (k + 1), rel=1e-12)


def test_rescaled_weight_same_polys_doubled_norms(gauss, gauss_sys):
    doubled = ortho_system(gaussian_weight(amplitude=2.0), 4)
    for k in range(5):
        assert np.allclose(doubled.poly(k).coeffs, gauss_sys.poly(k).coeffs)
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


def test_stacks_equal_row_by_row_calls(shifted):
    # a coefficient array holds one polynomial per row; the derivative of a
    # stack is each row's, and its values are each row's at the same point
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    z = 1.5 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    for order in range(8):
        deriv = poly_derivative(stack, order)
        assert deriv.shape == (5, max(6 - order, 1))
        for row, got in zip(stack, deriv):
            assert np.array_equal(got, poly_derivative(row, order))
            assert got.tolist() == list(poly_derivative(Poly(tuple(row)), order).coeffs)
        values = eval_poly(deriv[:, None, :], z)
        assert values.shape == (5, 40)
        for row, got in zip(deriv, values):
            assert np.array_equal(got, eval_poly(row, z))
        at_point = eval_poly(deriv, z[0])
        ref = np.array([eval_poly(row, complex(z[0])) for row in deriv])
        bound = 4e-16 * (np.abs(deriv) @ abs(z[0]) ** np.arange(deriv.shape[1]))
        assert np.all(np.abs(at_point - ref) <= bound)
    # the system's matrix: row k is pi_k, zero past its degree, in powers of z - c
    sys_ = ortho_system(shifted, 6)
    assert not sys_.coeffs.flags.writeable
    for k in range(7):
        assert np.array_equal(sys_.coeffs[k, :k + 1], sys_.poly(k).coeffs)
        assert np.all(sys_.coeffs[k, k + 1:] == 0)
    z = 1.3 - 0.2j
    assert np.allclose(eval_poly(sys_.coeffs, z - shifted.centre),
                       [eval_poly(sys_.poly(k), z) for k in range(7)], rtol=1e-15, atol=0)


def test_systems_keep_one_coefficient_matrix():
    # pi_0..pi_n live in the system's coefficient matrix alone: no field
    # holds them one polynomial at a time, and no module of the library
    # reads them through ``OrthoSystem.poly``, which serves callers outside
    # it, nor through a per-degree ``polys``
    assert "polys" not in {f.name for f in dataclasses.fields(OrthoSystem)}
    assert not hasattr(ortho_system(gaussian_weight(), 2), "polys")
    readers = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "polys":
                readers.append((path.name, node.lineno))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "poly":
                readers.append((path.name, node.lineno))
    assert not readers, readers


def _direct_residual(sys_):
    """The Gram residual evaluated node by node on the same grid."""
    radius = truncation_radius(sys_.weight, 2 * sys_.max_degree)
    nodes, wvals = weighted_grid(sys_.weight, radius, 192, 256)
    values = np.vstack([eval_poly(sys_.poly(k), nodes) for k in range(sys_.max_degree + 1)])
    gram = (values * wvals) @ values.conj().T
    root = np.sqrt(sys_.norms)
    return np.abs(gram - np.diag(sys_.norms)) / np.outer(root, root)


def test_residual_is_the_per_node_gram(shifted):
    # the matrix rows give the Gram of the per-degree polynomials: on systems
    # whose residual is rounding (gaussian at depth 31, a dense custom weight)
    # and on one whose polynomials belong to another weight, where it is of order 1
    dense = custom_weight(lambda z: np.exp(-np.abs(z - shifted.centre) ** 2),
                          full_plane_domain(gaussian_cutoff(1.0, CUTOFF_ORDER) + 0.5))
    for sys_ in (ortho_system(gaussian_weight(), 31), ortho_system(dense, 8)):
        got, ref = orthogonality_residual_matrix(sys_), _direct_residual(sys_)
        assert got.max() < 1e-12 and ref.max() < 1e-12
        assert np.max(np.abs(got - ref)) < 1e-13
    foreign = ortho_system(dense, 8)
    mixed = OrthoSystem(gaussian_weight(0.7), 8, foreign.coeffs, foreign.norms)
    got, ref = orthogonality_residual_matrix(mixed), _direct_residual(mixed)
    assert ref.max() > 0.1
    assert np.max(np.abs(got - ref)) <= 1e-13 * ref.max()


def test_residual_stays_finite_where_node_powers_overflow():
    # at depth 130 the residual disk of the gaussian has radius about 20,
    # so a moment sum's zeta^260 on it is past the double range, while
    # pi_130 there is about 1e169 and its Gram terms are finite
    sys_ = ortho_system(gaussian_weight(), 130)
    assert 260 * math.log10(truncation_radius(sys_.weight, 260)) > 309
    got, ref = orthogonality_residual_matrix(sys_), _direct_residual(sys_)
    assert np.all(np.isfinite(got)) and got.max() < 1e-12
    assert np.max(np.abs(got - ref)) < 1e-13


def test_system_takes_a_copy_of_a_unit_lower_triangular_matrix():
    # the system freezes its own copy, not the caller's array, and refuses
    # a matrix that is not unit lower triangular or not of its depth
    built = ortho_system(gaussian_weight(0.7), 3)
    coeffs = np.array(built.coeffs)
    sys_ = OrthoSystem(built.weight, 3, coeffs, built.norms)
    assert coeffs.flags.writeable and not sys_.coeffs.flags.writeable
    coeffs[2, 0] = 5.0
    assert sys_.coeffs[2, 0] == 0
    above, diagonal = np.array(coeffs), np.array(coeffs)
    above[1, 2], diagonal[3, 3] = 1e-300, 2.0
    for bad, depth in ((above, 3), (diagonal, 3), (coeffs, 4), (coeffs[:, :3], 3)):
        with pytest.raises(ConstraintError, match="unit lower triangular"):
            OrthoSystem(built.weight, depth, bad, built.norms)


def test_partition_function(gauss_sys, disk_sys):
    assert partition_function(gauss_sys, 1) == pytest.approx(PI, rel=1e-12)
    assert partition_function(gauss_sys, 2) == pytest.approx(2 * PI ** 2, rel=1e-12)
    assert partition_function(disk_sys, 1) == pytest.approx(disk_sys.norms[0], rel=1e-15)
    with pytest.raises(ConstraintError):
        partition_function(gauss_sys, 100)


def test_partition_function_past_the_double_range_is_refused():
    # N! prod r_j is formed as a mantissa and a power of two: N = 20 keeps
    # its value, while N = 60 (past 1e308) and N = 171 (171! alone is) are
    # refused as numerical failures, not returned as inf or raised bare
    sys_ = ortho_system(gaussian_weight(), 170)
    assert partition_function(sys_, 20) == pytest.approx(1.1176611079636922e+166, rel=1e-15)
    for n in (60, 171):
        with pytest.raises(NumericalError, match="partition function"):
            partition_function(sys_, n)


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
            ref = np.array(sys_.poly(k).coeffs)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(alt - ref)) / scale < 1e-8


def test_lower_inverse_matches_lapack(gauss, disk, shifted):
    solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
    for spec in (gauss, disk, shifted):
        lower = moment_matrix(spec, 8).cholesky()
        ref = solve_triangular(lower, np.eye(len(lower)), lower=True)
        inv = lower_inverse(lower)
        assert np.all(np.triu(inv, 1) == 0)
        assert np.max(np.abs(inv - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_shifted_gaussian_polys_are_shifted_monomials(shifted):
    # independent closed form: pi_k(z) = (z - c)^k with the centred
    # gaussian's norms, pi k! / scale^(k+1); in powers of zeta = z - c
    # both are exact at every accepted degree
    c = 0.4 + 0.3j
    for spec in (shifted, shifted_gaussian_weight(c, 0.6, 2.5)):
        sys_ = ortho_system(spec, 40)
        scale, amp = spec.parameters[-1], spec.amplitude
        assert sys_.norms == ortho_system(gaussian_weight(scale, amp), 40).norms
        for k in range(sys_.max_degree + 1):
            poly = sys_.poly(k)
            assert poly.coeffs == (0,) * k + (1,) and poly.centre == c
            assert sys_.norms[k] == pytest.approx(
                amp * PI * math.factorial(k) / scale ** (k + 1), rel=1e-15)
        z = 1.3 - 0.2j
        assert eval_poly(sys_.poly(5), z) == (z - c) ** 5


def test_dense_moments_give_the_shifted_monomials_in_z():
    # the shifted gaussian as a custom weight, centred at 0: its quadrature
    # moments about 0 are dense, and the Cholesky path must still recover
    # pi_k(z) = (z - c)^k with norms pi * k! in powers of z
    from numpy.polynomial import polynomial as npoly
    c = 0.4 + 0.3j
    spec = custom_weight(lambda z: np.exp(-np.abs(z - c) ** 2),
                         full_plane_domain(gaussian_cutoff(1.0, CUTOFF_ORDER) + abs(c)))
    m = moment_matrix(spec, 8)
    assert abs(m.entries[2, 1]) > 0.1   # genuinely non-diagonal
    sys_ = build_ortho_system(m, spec)
    for k in range(sys_.max_degree + 1):
        poly = sys_.poly(k)
        assert poly.centre == 0
        expect = npoly.polyfromroots([c] * k)
        assert np.max(np.abs(np.array(poly.coeffs) - expect)) <= 1e-12
        assert sys_.norms[k] == pytest.approx(PI * math.factorial(k), rel=1e-13)


def test_conditioning_guard_refuses():
    entries = np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]], dtype=complex)
    m = MomentMatrix(order=1, entries=entries)
    with pytest.raises(NumericalError, match="max_degree"):
        build_ortho_system(m, disk_flat_weight())


def test_large_degree_gaussian_builds():
    # diagonal moment matrices equilibrate to condition 1; factorial norms
    # must not trip the guard
    sys_ = ortho_system(gaussian_weight(), 40)
    assert sys_.norms[40] == pytest.approx(PI * math.factorial(40), rel=1e-10)


def test_non_positive_definite_reports_minor():
    entries = np.diag([1.0, -1.0, 1.0]).astype(complex)
    m = MomentMatrix(order=2, entries=entries)
    with pytest.raises(Exception, match="minor"):
        m.cholesky()


def test_degenerate_max_degree_zero(disk):
    sys_ = ortho_system(disk, 0)
    assert sys_.poly(0).coeffs == (1.0,)
    assert sys_.norms[0] == pytest.approx(PI)


def test_monic_validation():
    with pytest.raises(ConstraintError):
        MonicPoly((1.0, 2.0))
