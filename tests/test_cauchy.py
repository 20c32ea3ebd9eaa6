import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

import detratio.cauchy as cauchy_module
from detratio import (ConstraintError, ConvergenceError, NumericalError, Poly,
                      RatioQuery, cauchy_evaluator, cauchy_quadrature,
                      cauchy_row, cauchy_transform, cauchy_transform_full,
                      custom_weight, expectation_ratio, full_plane_domain,
                      gaussian_weight, ortho_system, series_transform)
from detratio.cauchy import cauchy_quadrature_row
from detratio.orthopoly import eval_poly
from detratio.quadrature import (adaptive_integral, angular_rule,
                                 cauchy_kernel_grid, disk_chord_lengths,
                                 star_grid, unit_radial_rule)

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


def test_shifted_gaussian_rows_are_translated_gaussian_series(shifted, gauss):
    # the shifted gaussian is the gaussian moved by c, so pi_n = (z - c)^n
    # and h_n(ebar) = h_n^gauss(ebar - conj c) exactly: a reference for
    # the dense-moment quadrature path, which no series backend covers
    from numpy.polynomial import polynomial as npoly
    from detratio import ortho_system
    c = shifted.centre
    sys_ = ortho_system(shifted, 8)
    for n in range(9):
        expect = npoly.polyfromroots([c] * n)
        got = np.array(sys_.polys[n].coeffs)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
    ev = cauchy_evaluator(sys_, method="quadrature")
    for u in (0.6 + 0.2j, -1.5 + 1j, 2.5 - 2j, 5 + 1j, -7 - 3j):
        row = cauchy_row(ev, range(9), u + np.conj(c))
        for n, res in enumerate(row):
            ref = series_transform(gauss, n, u)
            assert abs(res.value - ref) <= 1e-10 * abs(ref)


def test_shifted_gaussian_far_and_derivative_rows_are_translated_series(shifted,
                                                                        gauss):
    # the translation identity of the test above, on the far-pole grid and
    # for order-1 kernels; at |u| >= 7 the gaussian weight at the pole is
    # below 1e-21, so the two derivative conventions agree far below 1e-10
    c = shifted.centre
    ev = cauchy_evaluator(ortho_system(shifted, 8), method="quadrature")
    far = 10 + 1j
    assert abs(far + np.conj(c)) > shifted.domain.quad_radius
    cases = [(far, 0), (far, 1)]
    for u in (7.0, -5 + 5.5j, 3 - 6.5j, -7 - 2j):
        assert abs(u) >= 7 and abs(u + np.conj(c)) <= shifted.domain.quad_radius
        cases.append((u, 1))
    for u, order in cases:
        row = cauchy_row(ev, range(9), u + np.conj(c), order)
        for n, res in enumerate(row):
            ref = series_transform(gauss, n, u, order)
            assert abs(res.value - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_kernel_grid_matches_direct_formula(order):
    # the kernel grid as order! e^{i(order+1)phi} rho^(-order) times the
    # area element, written out node by node
    n_r, n_t = 24, 32
    for center, rho_max in ((0.3 - 0.2j, 2.5),
                            (0.3 - 0.2j, disk_chord_lengths(0.3 - 0.2j, 1.0))):
        phis, w_phi = angular_rule(n_t)
        lengths = rho_max(phis) if callable(rho_max) else np.full(n_t, rho_max)
        x, w_x = unit_radial_rule(n_r)
        rho = lengths[:, None] * x[None, :]
        nodes = center + rho * np.exp(1j * phis)[:, None]
        weights = (lengths[:, None] * w_x[None, :]) * w_phi \
            * np.exp(1j * (order + 1) * phis)[:, None] * math.factorial(order)
        weights = weights / rho ** order
        grid = cauchy_kernel_grid(center, rho_max, n_r, n_t, order=order)
        for got, expect in ((grid.nodes, nodes.ravel()),
                            (grid.weights, weights.ravel())):
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))


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
    # far outside the support the conventions differ by O(w at the pole)
    for series_ev, quad_ev, u in ((gauss_ev, gauss_ev_quad, 5.5 + 1.0j),
                                  (disk_ev, disk_ev_quad, 2.0 + 0.5j)):
        for order in (1, 2):
            a = cauchy_transform_full(series_ev, 1, u, order=order).value
            b = cauchy_transform_full(quad_ev, 1, u, order=order).value
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


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_interior_derivative_pole_refused_by_both_backends(gauss_sys, method):
    ev = cauchy_evaluator(gauss_sys, method=method)
    with pytest.raises(NumericalError, match="inside the effective support"):
        cauchy_transform_full(ev, 1, 1.0, order=1).value
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
                cauchy_transform_full(ev, 1, eps, order=1).value
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
    for method in ("rotinv-series", "quadrature"):
        for order in (0, 1):
            row_ev = cauchy_evaluator(gauss_sys, method=method)
            cauchy_transform_full(row_ev, 2, eps, order)   # one hit inside the row
            row = cauchy_row(row_ev, degrees, eps, order)
            for d in degrees:
                fresh = cauchy_evaluator(gauss_sys, method=method)
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


# anisotropic, so its transforms take the quadrature backend
ANISO = custom_weight(lambda z: np.exp(-(np.real(z) ** 2 + 2.0 * np.imag(z) ** 2)),
                      full_plane_domain(7.0))

# (degrees, eps, order) rows for one evaluator, interleaving far poles at
# orders 0 and 1, two rows at one centred pole, a new centred pole, and a
# return to earlier poles with other degrees; only the shifted gaussian
# has centred poles outside its effective support, where order 1 is defined
INTERLEAVED_ROWS = {
    "shifted": [((0, 1, 2), 14.0 + 2.0j, 0), ((0, 1, 2), -13.0 + 5.0j, 1),
                ((0, 1, 2, 3), 5.0 + 1.0j, 0), ((0, 1, 2, 3), 5.0 + 1.0j, 1),
                ((1, 2), -0.6 + 0.8j, 0), ((2, 3, 4, 5), 14.0 + 2.0j, 0),
                ((3, 4), -13.0 + 5.0j, 1), ((4, 5), 5.0 + 1.0j, 1)],
    "aniso": [((0, 1, 2), 9.0 + 1.0j, 0), ((0, 1, 2), -8.0 + 4.0j, 1),
              ((0, 1, 2, 3), 2.0 + 1.0j, 0), ((3, 4, 5), 2.0 + 1.0j, 0),
              ((1, 2), -1.0 - 0.5j, 0), ((2, 3, 4, 5), 9.0 + 1.0j, 0),
              ((4, 5), 2.0 + 1.0j, 0)],
    "disk": [((0, 1, 2), 2.0 + 0.5j, 0), ((0, 1, 2), -1.5 + 1.5j, 1),
             ((0, 1, 2), 0.3 + 0.2j, 0), ((2, 3, 4), 0.3 + 0.2j, 0),
             ((1, 2), -0.5 + 0.1j, 0), ((2, 3, 4, 5), 2.0 + 0.5j, 0),
             ((4, 5), 0.3 + 0.2j, 0)],
}


def _untabled_transform(spec, poly, eps, tol, order) -> tuple[complex, float]:
    """Value and error of one quadrature transform, each level built
    from scratch: the algorithm of ``cauchy_quadrature_row`` written out
    with the same operation order, and nothing kept between levels."""
    u = complex(eps)
    pole, boundary = np.conj(u), spec.domain.quad_radius

    def level(n_r, n_t):
        if abs(u) <= boundary:
            rho_max = (disk_chord_lengths(pole, spec.domain.radius)
                       if spec.domain.kind == "disk" else boundary + abs(u))
            grid = cauchy_kernel_grid(pole, rho_max, n_r, n_t, order=order)
            return grid.nodes, spec.evaluate(grid.nodes) * grid.weights
        grid = star_grid(0j, boundary, n_r, n_t)
        g = spec.evaluate(grid.nodes) * grid.weights
        shift = np.conj(grid.nodes)
        shift -= u
        if order:
            g *= math.factorial(order)
            shift **= order + 1
        return grid.nodes, g / shift

    def integrate(n_r, n_t):
        nodes, g = level(n_r, n_t)
        return complex(np.dot(eval_poly(poly, nodes), g)) / (2j * math.pi)

    nodes, g = level(48, 64)
    l1 = float(np.dot(np.abs(eval_poly(poly, nodes)), np.abs(g))) / (2 * math.pi)
    return adaptive_integral(integrate, tol, start=(96, 128), max_doublings=3,
                             scale=1e-6 * max(l1, 1e-300))


@pytest.mark.parametrize("which", sorted(INTERLEAVED_ROWS))
def test_evaluator_rows_equal_fresh_rows_whatever_came_before(request, which):
    spec = ANISO if which == "aniso" else request.getfixturevalue(which)
    sys_ = ortho_system(spec, 6)
    ev = cauchy_evaluator(sys_, method="quadrature")
    for degrees, eps, order in INTERLEAVED_ROWS[which]:
        row = cauchy_row(ev, degrees, eps, order)
        polys = [sys_.poly(d) for d in degrees]
        fresh = cauchy_quadrature_row(spec, polys, eps, ev.tolerance, order)
        assert repr(row) == repr(fresh), (degrees, eps, order)
        for poly, res in zip(polys, row):
            assert repr((res.value, res.error)) == repr(_untabled_transform(
                spec, poly, eps, ev.tolerance, order)), (poly.degree, eps, order)


def test_far_levels_are_built_once_per_evaluator(monkeypatch, shifted):
    sys_ = ortho_system(shifted, 4)
    ev = cauchy_evaluator(sys_, method="quadrature")
    built = _grid_counter(monkeypatch)
    cauchy_row(ev, range(3), 14.0 + 2.0j)
    first = len(built)
    cauchy_row(ev, range(3), -13.0 + 5.0j, 1)
    cauchy_row(ev, range(3), 11.0 - 6.0j)
    assert first == len(ev._levels.far) and len(built) == first


def test_level_table_stays_bounded_over_long_scans(shifted):
    ev = cauchy_evaluator(ortho_system(shifted, 4), method="quadrature")
    boundary = shifted.domain.quad_radius
    for k in range(60):
        phase = np.exp(2j * np.pi * k / 60)
        cauchy_row(ev, range(3), (boundary + 1.0 + k / 10) * phase)
        cauchy_row(ev, range(3), (0.5 + k / 20) * phase)
    table = ev._levels
    # the probe level and every level adaptive_integral can visit
    visitable = 2 + cauchy_module._MAX_DOUBLINGS
    assert 0 < len(table.far) <= visitable
    assert 0 < len(table.centred) <= visitable
    assert table.centred_pole == (0.5 + 59 / 20) * np.exp(2j * np.pi * 59 / 60)
    levels = [*table.far.values(), *table.centred.values()]
    assert all(len(lv.poly_values) <= 3 for lv in levels)
