import math

import numpy as np
import pytest
from scipy.special import gammainc

from detratio import (ConstraintError, NumericalError, cauchy_derivative,
                      cauchy_evaluator, cauchy_quadrature, cauchy_transform,
                      gaussian_weight, series_transform, write_table_csv)

EPS_GRID = (1.5, 2.0, 5.0, 20.0)


def lower_gamma(a, x):
    return gammainc(a, x) * math.gamma(a)


def test_disk_closed_form(disk_ev):
    # h_n = i / (2 (n+1) ebar^(n+1)) outside the disk
    assert cauchy_transform(disk_ev, 0, 2.0) == pytest.approx(0.25j, rel=1e-14)
    for n in range(4):
        for e in (1.5, 3.0 + 1.0j):
            expect = 1j / (2 * (n + 1) * complex(e) ** (n + 1))
            assert cauchy_transform(disk_ev, n, e) == pytest.approx(expect, rel=1e-13)


def test_gaussian_closed_form(gauss_ev):
    # h_n = (i/2) gamma(n+1, |e|^2) / ebar^(n+1)
    assert cauchy_transform(gauss_ev, 0, 2.0) == pytest.approx(
        0.25j * (1 - math.exp(-4)), rel=1e-14)
    expect = 0.5j * lower_gamma(2, 9.0) / 9.0
    assert cauchy_transform(gauss_ev, 1, 3.0) == pytest.approx(expect, rel=1e-13)


def test_gaussian_quadrature_example(gauss, gauss_sys):
    expect = 0.5j * lower_gamma(2, 9.0) / 9.0
    res = cauchy_quadrature(gauss, gauss_sys.polys[1], 3.0, tolerance=1e-9)
    assert res.value == pytest.approx(expect, rel=1e-8)


def test_quadrature_nonconvergence_raises(disk, disk_sys):
    from detratio import ConvergenceError
    with pytest.raises(ConvergenceError):
        cauchy_quadrature(disk, disk_sys.polys[0], 1.5, tolerance=1e-17)


def test_sub_floor_tolerance_refused_for_identical_levels():
    # a constant integrand gives bit-identical levels, a change of exactly
    # zero; a tolerance below double precision must still be refused
    from detratio import ConvergenceError
    from detratio.quadrature import adaptive_integral
    with pytest.raises(ConvergenceError, match="rounding floor"):
        adaptive_integral(lambda n_r, n_t: 1j / 3, 1e-17)


def test_series_backend_refuses_sub_floor_tolerance():
    # the series values carry rounding error of their own, so the series
    # backend refuses the tolerances the quadrature backend refuses
    from detratio import ConvergenceError, cauchy_transform_full, ortho_system
    with pytest.raises(ConvergenceError):
        cauchy_transform_full(
            cauchy_evaluator(ortho_system(gaussian_weight(), 4), tolerance=1e-17),
            0, 2.0)


def test_quadrature_error_estimate_is_never_zero(disk, disk_sys):
    res = cauchy_quadrature(disk, disk_sys.polys[0], 1.5, tolerance=1e-9)
    assert res.value == pytest.approx(1j / 3, rel=1e-12)
    assert 0.0 < res.error <= 1e-9 * abs(res.value)


def test_backends_agree_on_acceptance_grid(gauss_ev, gauss_ev_quad, disk_ev,
                                           disk_ev_quad):
    for series_ev, quad_ev in ((gauss_ev, gauss_ev_quad), (disk_ev, disk_ev_quad)):
        for n in range(6):
            for e in EPS_GRID:
                a = cauchy_transform(series_ev, n, e)
                b = cauchy_transform(quad_ev, n, e)
                assert abs(a - b) <= 1e-7 * abs(a)


def test_backends_agree_at_complex_eps(disk_ev, disk_ev_quad, gauss_ev,
                                       gauss_ev_quad):
    for series_ev, quad_ev in ((gauss_ev, gauss_ev_quad), (disk_ev, disk_ev_quad)):
        for e in (1.5 + 0.9j, -2.0 + 0.31j, 5.0 - 2.0j):
            a = cauchy_transform(series_ev, 3, e)
            b = cauchy_transform(quad_ev, 3, e)
            assert abs(a - b) <= 1e-8 * abs(a)


def test_eps_inside_disk_finite_and_flagged(disk, disk_sys, disk_ev_quad):
    res = cauchy_quadrature(disk, disk_sys.polys[0], 0.3, tolerance=1e-9)
    assert "singularity inside domain" in res.warnings
    # interior closed form: h_n(u) = i conj(u)^(n+1) / (2 (n+1))
    for n in (0, 1):
        for u in (0.3, 0.45 + 0.3j):
            expect = 1j * np.conj(u) ** (n + 1) / (2 * (n + 1))
            got = cauchy_transform(disk_ev_quad, n, u)
            assert got == pytest.approx(expect, rel=1e-9)


def test_eps_at_origin_is_zero(disk_ev, gauss_ev):
    assert cauchy_transform(disk_ev, 2, 0.0) == 0
    assert cauchy_transform(gauss_ev, 0, 0.0) == 0


def test_eps_on_disk_boundary_treated_as_inside(disk, disk_sys):
    res = cauchy_quadrature(disk, disk_sys.polys[0], 1.0, tolerance=1e-8)
    assert "singularity inside domain" in res.warnings
    assert res.value == pytest.approx(0.5j, rel=1e-10)


def test_large_eps_decay(disk_ev, gauss_ev, disk_sys, gauss_sys):
    # ebar^(n+1) h_n converges to i r_n / (2 pi)
    for ev, sys_ in ((disk_ev, disk_sys), (gauss_ev, gauss_sys)):
        for n in (0, 3):
            target = 1j * sys_.norms[n] / (2 * math.pi)
            v2 = cauchy_transform(ev, n, 1e2) * 1e2 ** (n + 1)
            v3 = cauchy_transform(ev, n, 1e3) * 1e3 ** (n + 1)
            assert abs(v3 - target) <= abs(v2 - target) + 1e-15
            assert v3 == pytest.approx(target, rel=1e-10)


def test_linearity_of_quadrature_backend(disk, disk_sys):
    rng = np.random.default_rng(42)
    c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    eps = 2.5 + 0.4j
    h0 = cauchy_quadrature(disk, disk_sys.polys[0], eps).value
    h1 = cauchy_quadrature(disk, disk_sys.polys[1], eps).value
    from detratio import Poly
    from detratio.cauchy import cauchy_quadrature as cq
    combo = Poly((c0, c1))
    got = cq(disk, combo, eps).value
    assert got == pytest.approx(c0 * h0 + c1 * h1, rel=1e-12)


def test_measure_scaling(gauss_sys):
    scaled = gaussian_weight(amplitude=2.5)
    from detratio import ortho_system
    ssys = ortho_system(scaled, 4)
    sev = cauchy_evaluator(ssys)
    base = cauchy_evaluator(ortho_system(gaussian_weight(), 4))
    for n in (0, 2):
        for e in (2.0, 3.0 + 1.0j):
            assert cauchy_transform(sev, n, e) == pytest.approx(
                2.5 * cauchy_transform(base, n, e), rel=1e-14)


def test_conjugate_consistency(disk_ev, disk_ev_quad, gauss_ev):
    # real-coefficient weights: h(conj u) = -conj(h(u))
    u = 1.7 + 0.8j
    for ev in (disk_ev, disk_ev_quad, gauss_ev):
        lhs = cauchy_transform(ev, 2, np.conj(u))
        rhs = -np.conj(cauchy_transform(ev, 2, u))
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_depth_validation(disk_ev):
    with pytest.raises(ConstraintError):
        cauchy_transform(disk_ev, 9, 2.0)


def test_derivative_transforms_match_outside_support(gauss_ev, gauss_ev_quad,
                                                     disk_ev, disk_ev_quad):
    # far from the support every derivative convention coincides
    for series_ev, quad_ev, u in ((gauss_ev, gauss_ev_quad, 5.5 + 1.0j),
                                  (disk_ev, disk_ev_quad, 2.0 + 0.5j)):
        for order in (1, 2):
            a = cauchy_derivative(series_ev, 1, u, order)
            b = cauchy_derivative(quad_ev, 1, u, order)
            assert a == pytest.approx(b, rel=1e-7)


def test_derivative_series_is_termwise():
    # d/du of i I_n / u^(n+1) with I_n frozen: -(n+1) i I_n / u^(n+2)
    gw = gaussian_weight()
    for n in (0, 2):
        u = 4.0 + 1.0j
        h0 = series_transform(gw, n, u, 0)
        h1 = series_transform(gw, n, u, 1)
        assert h1 == pytest.approx(-(n + 1) * h0 / u, rel=1e-9)


def test_interior_derivative_quadrature_refused(gauss, gauss_sys):
    with pytest.raises(NumericalError):
        cauchy_quadrature(gauss, gauss_sys.polys[1], 2.0 + 0.5j, order=1)


def test_csv_export(tmp_path, disk_ev):
    path = tmp_path / "table.csv"
    write_table_csv(path, disk_ev, [0, 1], [2.0, 3.0 + 1.0j])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,eps_re,eps_im,h_re,h_im,err_estimate"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[4]) == pytest.approx(0.25)  # h_0(2) = i/4
