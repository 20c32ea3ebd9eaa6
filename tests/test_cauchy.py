import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

import detratio.cauchy as cauchy_module
from detratio import (ConstraintError, ConvergenceError, NumericalError, Poly,
                      RatioQuery, cauchy_derivative, cauchy_evaluator,
                      cauchy_quadrature, cauchy_row, cauchy_transform,
                      cauchy_transform_full, custom_weight, expectation_ratio,
                      full_plane_domain, gaussian_weight, series_transform,
                      write_table_csv)
from detratio.cauchy import cauchy_quadrature_row
from detratio.quadrature import adaptive_integral

EPS_GRID = (1.5, 2.0, 5.0, 20.0)

# a weight with a cusp at z = 1; (z - 1)^d vanishes there to order d, so
# the transforms of higher d converge in fewer refinement levels
CUSP = custom_weight(lambda z: np.exp(-np.abs(z - 1.0)), full_plane_domain(40.0))
CUSP_POLYS = tuple(Poly(tuple(math.comb(d, k) * (-1.0) ** (d - k)
                              for k in range(d + 1))) for d in range(5))


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


def test_csv_export(tmp_path, disk_ev, disk_sys):
    path = tmp_path / "table.csv"
    write_table_csv(path, disk_ev, [0, 1], [2.0, 3.0 + 1.0j])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,eps_re,eps_im,h_re,h_im,err_estimate"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[4]) == pytest.approx(0.25)  # h_0(2) = i/4
    # the rows are n-major and hold the single-entry transforms, on both
    # backends; the table is computed as one row per eps
    degrees, eps_values = [0, 1, 2], [2.0, 3.0 + 1.0j, 0.4j]
    for method in ("rotinv-series", "quadrature"):
        write_table_csv(path, cauchy_evaluator(disk_sys, method=method), degrees,
                        eps_values)
        single = cauchy_evaluator(disk_sys, method=method)
        expect = ["n,eps_re,eps_im,h_re,h_im,err_estimate"]
        for n in degrees:
            for eps in eps_values:
                res = cauchy_transform_full(single, n, eps)
                expect.append(",".join([str(n), repr(complex(eps).real),
                                        repr(complex(eps).imag),
                                        repr(res.value.real), repr(res.value.imag),
                                        repr(res.error)]))
        assert path.read_bytes() == ("\r\n".join(expect) + "\r\n").encode()


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_interior_derivative_pole_refused_by_both_backends(gauss_sys, method):
    ev = cauchy_evaluator(gauss_sys, method=method)
    with pytest.raises(NumericalError, match="inside the effective support"):
        cauchy_derivative(ev, 1, 1.0, 1)
    # a confluent inverse factor inside the support asks for such a row
    with pytest.raises(NumericalError, match="inside the effective support"):
        expectation_ratio(RatioQuery(N=2, epsbars=(1.0,), eps_multiplicities=(2,)),
                          gauss_sys, ev)


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_derivative_pole_on_disk_boundary_refused_by_both_backends(disk_sys, method):
    # on the boundary the chord grid has zero-length rays; the refusal
    # must come before any grid is built, so nothing warns
    ev = cauchy_evaluator(disk_sys, method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (1.0, 1j):
            with pytest.raises(NumericalError, match="on or inside the effective"):
                cauchy_derivative(ev, 1, eps, 1)
        with pytest.raises(NumericalError, match="on or inside the effective"):
            expectation_ratio(RatioQuery(N=2, epsbars=(1.0,), eps_multiplicities=(2,)),
                              disk_sys, ev)


def _grid_counter(monkeypatch) -> list:
    """Record every grid the quadrature backend builds."""
    built = []
    for name in ("star_grid", "cauchy_kernel_grid"):
        def counted(*args, _build=getattr(cauchy_module, name), **kwargs):
            grid = _build(*args, **kwargs)
            built.append(grid.size)
            return grid
        monkeypatch.setattr(cauchy_module, name, counted)
    return built


@pytest.mark.parametrize("which, eps, order", [
    ("disk", 0.3 + 0.2j, 0),      # chord grid centred on an interior pole
    ("disk", 1j, 0),              # chord grid, pole on the boundary
    ("disk", 2.0 + 0.5j, 0),      # far-pole grid
    ("disk", 2.0 + 0.5j, 1),
    ("disk", 20.0, 0),            # far; high degrees fall below the probe scale
    ("gauss", 0.3 + 0.2j, 0),     # centred full-plane grid
    ("gauss", 5.5 + 1.0j, 0),     # centred, pole outside the support
    ("gauss", 5.5 + 1.0j, 1),
    ("gauss", 12.0, 0),           # far-pole grid beyond the cutoff
    ("gauss", 12.0, 1),
])
def test_row_entries_equal_single_entries(request, which, eps, order):
    spec = request.getfixturevalue(which)
    polys = request.getfixturevalue(which + "_sys").polys[:6]
    row = cauchy_quadrature_row(spec, polys, eps, 1e-9, order)
    assert len(row) == len(polys)
    for poly, res in zip(polys, row):
        single = cauchy_quadrature(spec, poly, eps, 1e-9, order)
        assert (res.value, res.error, res.warnings) == \
            (single.value, single.error, single.warnings)


def test_row_entries_stop_at_their_own_levels(monkeypatch):
    built = _grid_counter(monkeypatch)
    eps, tol = 0.5 + 0.5j, 1e-5
    # highest degree first, and a last entry a billion times smaller than
    # the others: each entry must keep its own probe scale
    polys = CUSP_POLYS[::-1] + (Poly((1e-9,)),)
    singles, grids = [], []
    for poly in polys:
        before = len(built)
        singles.append(cauchy_quadrature(CUSP, poly, eps, tol))
        grids.append(len(built) - before)
    assert len(set(grids)) == 3   # the entries stop at three different levels
    before = len(built)
    row = cauchy_quadrature_row(CUSP, polys, eps, tol)
    assert len(built) - before == max(grids)
    assert row == tuple(singles)


def test_row_builds_the_grids_of_its_deepest_entry(monkeypatch, shifted):
    from detratio import ortho_system
    sys_ = ortho_system(shifted, 6)
    built = _grid_counter(monkeypatch)
    alone = []
    for d in range(4):
        before = len(built)
        cauchy_quadrature(shifted, sys_.poly(d), 4.6 + 0.5j)
        alone.append(len(built) - before)
    ev = cauchy_evaluator(sys_, method="quadrature")
    before = len(built)
    cauchy_row(ev, range(4), 4.6 + 0.5j)
    assert len(built) - before == max(alone) < sum(alone)
    # a row already in the memo builds nothing
    before = len(built)
    cauchy_row(ev, range(4), 4.6 + 0.5j)
    assert len(built) == before


def test_row_fills_memo_with_single_entry_bits(gauss_sys):
    degrees, eps = range(6), 4.6 + 0.5j
    for order in (0, 1):
        row_ev = cauchy_evaluator(gauss_sys, method="quadrature")
        cauchy_transform_full(row_ev, 2, eps, order)   # one hit inside the row
        row = cauchy_row(row_ev, degrees, eps, order)
        for d in degrees:
            fresh = cauchy_evaluator(gauss_sys, method="quadrature")
            single = cauchy_transform_full(fresh, d, eps, order)
            assert row[d] == single
            assert cauchy_transform_full(row_ev, d, eps, order) == single


def test_convergence_error_lists_refinement_history():
    with pytest.raises(ConvergenceError) as info:
        adaptive_integral(lambda n_r, n_t: complex(n_r), 1e-9, start=(4, 4),
                          max_doublings=3)
    assert "8x8: 4.000e+00, 16x16: 8.000e+00, 32x32: 1.600e+01" in str(info.value)


def test_failing_row_entry_names_its_degree():
    # at this tolerance (z - 1)^3 converges and (z - 1)^1 does not
    polys = (CUSP_POLYS[3], CUSP_POLYS[1])
    cauchy_quadrature(CUSP, polys[0], 0.5 + 0.5j, 1e-7)
    with pytest.raises(ConvergenceError, match="degree 1 at") as info:
        cauchy_quadrature_row(CUSP, polys, 0.5 + 0.5j, 1e-7)
    for level in ("192x256", "384x512", "768x1024"):
        assert level in str(info.value)
