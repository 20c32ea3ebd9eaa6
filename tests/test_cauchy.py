import ast
import cmath
import functools
import itertools
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad
from scipy.special import gammainc

import detratio
import detratio.cauchy as cauchy_module
import detratio.weight as weight_module
from detratio import (ConstraintError, ConvergenceError, NumericalError,
                      RatioQuery, WeightSpec, cauchy_evaluator, cauchy_row,
                      custom_weight, disk_flat_weight, expectation_ratio,
                      full_plane_domain, gaussian_weight, ortho_system,
                      series_transform, shifted_gaussian_weight)
from detratio.cauchy import SERIES_ROUNDING, cauchy_quadrature
from detratio.orthopoly import eval_poly
from detratio.quadrature import (PROBE, adaptive_integral, angular_rule,
                                 cauchy_kernel_grid, star_grid, unit_radial_rule)
from detratio.weight import radial_mass, row_radius, truncation_radius

EPS_GRID = (1.5, 2.0, 5.0, 20.0)

# a weight with a cusp at z = 1, whose angular harmonics decay slowly
CUSP = custom_weight(lambda z: np.exp(-np.abs(z - 1.0)), full_plane_domain(40.0))


def disk_chord_lengths(center: complex, radius: float):
    """Ray lengths from an interior point ``center`` to the circle |z| = radius,
    a callable of the angles for ``cauchy_kernel_grid``."""
    c = complex(center)
    assert abs(c) <= radius

    def rho_max(phis: np.ndarray) -> np.ndarray:
        t = np.real(np.conj(c) * np.exp(1j * phis))
        return -t + np.sqrt(np.maximum(t * t + radius * radius - abs(c) ** 2, 0.0))

    return rho_max


def lower_gamma(a, x):
    return gammainc(a, x) * math.gamma(a)


def fresh_row(system, degrees, eps, tol=1e-9, order=0):
    """A quadrature row of a system's polynomials on a fresh evaluator."""
    return cauchy_row(cauchy_evaluator(system, "quadrature", tol), degrees, eps, order)


def table_radius(spec, max_degree):
    """The disk of a system's harmonic table: degree 2 max_degree on a
    gaussian, whose derivative rows integrate zeta^t pi_n, max_degree
    otherwise."""
    gaussian = spec.kind in ("gaussian", "shifted-gaussian")
    return row_radius(spec, 2 * max_degree if gaussian else max_degree)


def test_disk_closed_form(disk_ev):
    # h_n = i / (2 (n+1) ebar^(n+1)) outside the disk
    assert cauchy_row(disk_ev, (0,), 2.0)[0].value == pytest.approx(0.25j, rel=1e-14)
    for n in range(4):
        for e in (1.5, 3.0 + 1.0j):
            expect = 1j / (2 * (n + 1) * complex(e) ** (n + 1))
            assert cauchy_row(disk_ev, (n,), e)[0].value == pytest.approx(expect, rel=1e-13)


def test_gaussian_closed_form(gauss_ev):
    # h_n = (i/2) gamma(n+1, |e|^2) / ebar^(n+1)
    assert cauchy_row(gauss_ev, (0,), 2.0)[0].value == pytest.approx(
        0.25j * (1 - math.exp(-4)), rel=1e-14)
    expect = 0.5j * lower_gamma(2, 9.0) / 9.0
    assert cauchy_row(gauss_ev, (1,), 3.0)[0].value == pytest.approx(expect, rel=1e-13)


def test_gaussian_quadrature_example(gauss, gauss_sys):
    expect = 0.5j * lower_gamma(2, 9.0) / 9.0
    res = cauchy_quadrature(gauss, gauss_sys.poly(1).coeffs, 3.0, tolerance=1e-9)
    assert res.value == pytest.approx(expect, rel=1e-8)


def test_quadrature_nonconvergence_raises(disk, disk_sys):
    from detratio import ConvergenceError
    with pytest.raises(ConvergenceError):
        cauchy_quadrature(disk, disk_sys.poly(0).coeffs, 1.5, tolerance=1e-17)


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
    from detratio import ConvergenceError, ortho_system
    with pytest.raises(ConvergenceError):
        cauchy_row(
            cauchy_evaluator(ortho_system(gaussian_weight(), 4), tolerance=1e-17),
            (0,), 2.0)


def test_quadrature_error_estimate_is_never_zero(disk, disk_sys):
    res = cauchy_quadrature(disk, disk_sys.poly(0).coeffs, 1.5, tolerance=1e-9)
    assert res.value == pytest.approx(1j / 3, rel=1e-12)
    assert 0.0 < res.error <= 1e-9 * abs(res.value)


def test_backends_agree_on_acceptance_grid(gauss_ev, gauss_ev_quad, disk_ev,
                                           disk_ev_quad):
    for series_ev, quad_ev in ((gauss_ev, gauss_ev_quad), (disk_ev, disk_ev_quad)):
        for n in range(6):
            for e in EPS_GRID:
                a = cauchy_row(series_ev, (n,), e)[0].value
                b = cauchy_row(quad_ev, (n,), e)[0].value
                assert abs(a - b) <= 1e-7 * abs(a)


def test_backends_agree_at_complex_eps(disk_ev, disk_ev_quad, gauss_ev,
                                       gauss_ev_quad):
    for series_ev, quad_ev in ((gauss_ev, gauss_ev_quad), (disk_ev, disk_ev_quad)):
        for e in (1.5 + 0.9j, -2.0 + 0.31j, 5.0 - 2.0j):
            a = cauchy_row(series_ev, (3,), e)[0].value
            b = cauchy_row(quad_ev, (3,), e)[0].value
            assert abs(a - b) <= 1e-8 * abs(a)


def test_shifted_gaussian_rows_are_translated_gaussian_series(shifted, gauss):
    # the shifted gaussian is the gaussian moved by c, so pi_n = (z - c)^n,
    # held exactly as the power n of zeta = z - c, and h_n(ebar) =
    # h_n^gauss(ebar - conj c) exactly: a reference for the quadrature
    # path off the origin, which no series backend covers
    c = shifted.centre
    sys_ = ortho_system(shifted, 8)
    for n in range(9):
        assert sys_.poly(n).coeffs == (0,) * n + (1,)
        assert sys_.poly(n).centre == c
    ev = cauchy_evaluator(sys_, method="quadrature")
    for u in (0.6 + 0.2j, -1.5 + 1j, 2.5 - 2j, 5 + 1j, -7 - 3j):
        row = cauchy_row(ev, range(9), u + np.conj(c))
        for n, res in enumerate(row):
            ref = series_transform(gauss, n, u)
            assert abs(res.value - ref) <= 1e-10 * abs(ref)


def test_shifted_gaussian_far_and_derivative_rows_are_translated_series(shifted,
                                                                        gauss):
    # the translation identity of the test above, past the table's disk
    # and for order-1 rows; at |u| >= 7 the gaussian weight at the pole is
    # below 1e-21, so the two derivative conventions agree far below 1e-10
    c = shifted.centre
    ev = cauchy_evaluator(ortho_system(shifted, 8), method="quadrature")
    # the pole conj(u) + c lies |u| from the centre, so the row splits the
    # table at |u| when |u| is within its disk, and is the far expansion
    # otherwise
    radius = table_radius(shifted, 8)
    far = 10 + 1j
    assert abs(far) > radius
    cases = [(far, 0), (far, 1)]
    for u in (7.0, -5 + 5.5j, 3 - 6.5j, -7 - 2j):
        assert 7 <= abs(u) <= radius
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
    res = cauchy_quadrature(disk, disk_sys.poly(0).coeffs, 0.3, tolerance=1e-9)
    assert "singularity inside domain" in res.warnings
    # interior closed form: h_n(u) = i conj(u)^(n+1) / (2 (n+1))
    for n in (0, 1):
        for u in (0.3, 0.45 + 0.3j):
            expect = 1j * np.conj(u) ** (n + 1) / (2 * (n + 1))
            got = cauchy_row(disk_ev_quad, (n,), u)[0].value
            assert got == pytest.approx(expect, rel=1e-9)


def test_eps_at_origin_is_zero(disk_ev, gauss_ev):
    assert cauchy_row(disk_ev, (2,), 0.0)[0].value == 0
    assert cauchy_row(gauss_ev, (0,), 0.0)[0].value == 0


@pytest.mark.parametrize("which", ["gauss_sys", "disk_sys"])
def test_near_origin_series_rows_are_finite(request, which):
    # near the origin the mass is |u|^(2n+2) J_n and an entry is formed
    # from conj(u)^(n+1) J_n, which underflows only with the value: h_0 is
    # i conj(u) / 2 at every u, |u|^2 far below the doubles included
    sys_ = request.getfixturevalue(which)
    for u in (1e-60, 1e-100j, -1e-150, 1e-160j, 1e-200 * cmath.exp(0.7j)):
        row = cauchy_row(cauchy_evaluator(sys_, "rotinv-series"), range(sys_.max_degree + 1), u)
        assert all(cmath.isfinite(res.value) and math.isfinite(res.error) for res in row)
        assert row[-1].value == 0
        assert row[0].value == pytest.approx(0.5j * u.conjugate(), rel=1e-12, abs=0)


def test_eps_on_disk_boundary_treated_as_inside(disk, disk_sys):
    res = cauchy_quadrature(disk, disk_sys.poly(0).coeffs, 1.0, tolerance=1e-8)
    assert "singularity inside domain" in res.warnings
    assert res.value == pytest.approx(0.5j, rel=1e-10)


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_eps_on_effective_support_radius_flagged_at_order_0(gauss, gauss_sys, method):
    # the derivative refusal treats this pole as on or inside the support,
    # so order 0 flags it too, on either backend
    assert gauss.effective_support_radius == 3.0
    res = cauchy_row(cauchy_evaluator(gauss_sys, method=method), (0,), 3.0)[0]
    assert res.warnings == ("singularity inside effective support",)
    with pytest.raises(NumericalError, match="on or inside"):
        series_transform(gauss, 0, 3.0, order=1)


def test_large_eps_decay(disk_ev, gauss_ev, disk_sys, gauss_sys):
    # ebar^(n+1) h_n converges to i r_n / (2 pi)
    for ev, sys_ in ((disk_ev, disk_sys), (gauss_ev, gauss_sys)):
        for n in (0, 3):
            target = 1j * sys_.norms[n] / (2 * math.pi)
            v2 = cauchy_row(ev, (n,), 1e2)[0].value * 1e2 ** (n + 1)
            v3 = cauchy_row(ev, (n,), 1e3)[0].value * 1e3 ** (n + 1)
            assert abs(v3 - target) <= abs(v2 - target) + 1e-15
            assert v3 == pytest.approx(target, rel=1e-10)


def test_linearity_of_quadrature_backend(disk, disk_sys):
    rng = np.random.default_rng(42)
    c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    eps = 2.5 + 0.4j
    h0 = cauchy_quadrature(disk, disk_sys.poly(0).coeffs, eps).value
    h1 = cauchy_quadrature(disk, disk_sys.poly(1).coeffs, eps).value
    got = cauchy_quadrature(disk, (c0, c1), eps).value
    assert got == pytest.approx(c0 * h0 + c1 * h1, rel=1e-12)


def test_measure_scaling(gauss_sys):
    scaled = gaussian_weight(amplitude=2.5)
    from detratio import ortho_system
    ssys = ortho_system(scaled, 4)
    sev = cauchy_evaluator(ssys)
    base = cauchy_evaluator(ortho_system(gaussian_weight(), 4))
    for n in (0, 2):
        for e in (2.0, 3.0 + 1.0j):
            assert cauchy_row(sev, (n,), e)[0].value == pytest.approx(
                2.5 * cauchy_row(base, (n,), e)[0].value, rel=1e-14)


# weights with real pi coefficients (the shifted gaussian on a real centre),
# and the rotation-invariant ones, whose transforms have the series too
REAL_WEIGHTS = {"gauss": gaussian_weight(), "gauss-0.5": gaussian_weight(0.5),
                "disk": disk_flat_weight(1.0), "disk-1.5": disk_flat_weight(1.5),
                "shifted-0.8": shifted_gaussian_weight(0.8)}


@functools.lru_cache(maxsize=None)
def real_system(name):
    return ortho_system(REAL_WEIGHTS[name], 6)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["gauss", "gauss-0.5", "disk", "shifted-0.8"]),
       order=st.sampled_from([0, 1]), radius=st.floats(0.05, 3.0),
       angle=st.floats(-math.pi, math.pi))
@example(name="disk", order=0, radius=abs(1.7 + 0.8j), angle=cmath.phase(1.7 + 0.8j))
@example(name="gauss", order=0, radius=abs(1.7 + 0.8j) / 3.0,  # S = 3
         angle=cmath.phase(1.7 + 0.8j))
def test_conjugate_consistency(name, order, radius, angle):
    # real-coefficient weights: h^(k)(conj u) = -conj(h^(k)(u)) for degrees
    # 0-6; order 0 up to 0.9 S or beyond S + 0.2 (a disk's far grid does
    # not converge just outside it), order 1 beyond S + 0.2 only.  A sweep
    # of 175 poles saw at most 6.5e-14 of the row maximum on quadrature
    # and exactly 0 on the series
    system = real_system(name)
    support = system.weight.effective_support_radius
    # radius in units of S, the effective-support radius
    assume(radius * support >= support + 0.2 or (order == 0 and radius <= 0.9))
    u = cmath.rect(radius * support, angle)
    methods = {"quadrature": 1e-10}
    if system.weight.rotation_invariant:
        methods["rotinv-series"] = 1e-14
    for method, bound in methods.items():
        ev = cauchy_evaluator(system, method)
        row = np.array([res.value for res in cauchy_row(ev, range(7), u, order)])
        mirror = np.array([res.value for res in cauchy_row(ev, range(7), np.conj(u), order)])
        assert np.max(np.abs(mirror + np.conj(row))) <= bound * np.max(np.abs(row)), method


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([("gauss", 0), ("gauss-0.5", 0), ("disk", 0),
                             ("disk-1.5", 0), ("disk", 1), ("disk-1.5", 1)]),
       radius=st.floats(0.0, 1.0), angle=st.floats(-math.pi, math.pi))
def test_series_matches_quadrature_beyond_the_support(case, radius, angle):
    # |u| from S + 0.2 to 3S, S the effective-support radius.  Order 1 only
    # on disks: on the full plane the two derivative conventions differ
    # by O(w at the pole) (module docstring of detratio.cauchy).  A sweep
    # of 150 poles saw at most 4.2e-12 on the gaussians and 8.3e-14 on
    # the disks
    name, order = case
    system = real_system(name)
    support = system.weight.effective_support_radius
    u = cmath.rect(support + 0.2 + radius * (2 * support - 0.2), angle)
    series = cauchy_row(cauchy_evaluator(system, "rotinv-series"), range(7), u, order)
    quad = fresh_row(system, range(7), u, 1e-9, order)
    for d, (exact, res) in enumerate(zip(series, quad)):
        assert abs(res.value - exact.value) <= 1e-9 * abs(exact.value), d


def test_depth_validation(disk_ev):
    with pytest.raises(ConstraintError):
        cauchy_row(disk_ev, (9,), 2.0)[0].value


def test_derivative_transforms_match_outside_support(gauss_ev, gauss_ev_quad,
                                                     disk_ev, disk_ev_quad):
    # far outside the support the conventions differ by O(w at the pole)
    for series_ev, quad_ev, u in ((gauss_ev, gauss_ev_quad, 5.5 + 1.0j),
                                  (disk_ev, disk_ev_quad, 2.0 + 0.5j)):
        for order in (1, 2):
            a = cauchy_row(series_ev, (1,), u, order=order)[0].value
            b = cauchy_row(quad_ev, (1,), u, order=order)[0].value
            assert a == pytest.approx(b, rel=1e-7)


def test_derivative_series_is_termwise():
    # d/du of i I_n / u^(n+1) with I_n frozen: -(n+1) i I_n / u^(n+2)
    gw = gaussian_weight()
    for n in (0, 2):
        u = 4.0 + 1.0j
        h0 = series_transform(gw, n, u, 0)
        h1 = series_transform(gw, n, u, 1)
        assert h1 == pytest.approx(-(n + 1) * h0 / u, rel=1e-9)


def _series_error(weight, n, u, order, value) -> tuple[float, float]:
    """|value - h_n^(order)(u)| and |h_n^(order)(u)|, the closed form at 40
    digits on the centred gaussian or the disk."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t, par = abs(mpmath.mpc(u)), weight.parameters[0]
        if weight.kind == "gaussian":
            mass = mpmath.gammainc(n + 1, 0, par * t * t) / (2 * mpmath.mpf(par) ** (n + 1))
        else:
            mass = min(t, par) ** (2 * n + 2) / (2 * n + 2)
        exact = 1j * (-1) ** order * math.factorial(order) * math.comb(n + order, order) \
            * weight.amplitude * mass / mpmath.mpc(u) ** (n + order + 1)
        return float(abs(mpmath.mpc(value) - exact)), float(abs(exact))


def _normal(size: float) -> bool:
    return sys.float_info.min <= size < math.inf


@pytest.mark.parametrize("weight, scale, depth", [
    (gaussian_weight(0.5), 0.5, 140), (gaussian_weight(1.0), 1.0, 170),
    (gaussian_weight(3.0), 3.0, 170), (disk_flat_weight(), 1.0, 170)],
    ids=["gauss-0.5", "gauss-1", "gauss-3", "disk"])
def test_series_entry_error_covers_its_rounding(weight, scale, depth):
    # the closed form errs up to about 2.8 (n + order + 1) eps against
    # 40-digit mpmath: an entry's error grows with its degree.  Cases whose
    # exact value is not a normal double are left out
    cev = cauchy_evaluator(ortho_system(weight, depth), "rotinv-series")
    checked = 0
    for n in sorted({*range(0, depth + 1, 9), depth - 1}):
        for order, f, angle in itertools.product(range(3), (0.2, 0.5, 0.9, 1.3, 2.0),
                                                 (0.3, -2.0)):
            u = f * math.sqrt((n + 1) / scale) * cmath.exp(1j * angle)
            try:
                res = cauchy_row(cev, (n,), u, order)[0]
            except NumericalError:      # a derivative pole inside the support
                continue
            observed, size = _series_error(weight, n, u, order, res.value)
            if _normal(size):
                assert observed <= res.error, (n, order, u, observed, res.error)
                checked += 1
    assert checked > 200


RULE_WEIGHTS = ((gaussian_weight(0.5), 0.5), (gaussian_weight(1.0), 1.0),
                (gaussian_weight(3.0), 3.0), (disk_flat_weight(), None))


def test_series_entries_keep_the_rounding_rule():
    # SERIES_ROUNDING (n + k + 1) |h| bounds every entry whose exact value
    # is a normal double, on either side of the gaussian's switch at
    # scale |u|^2 = n + 1 and of the disk's edge, and at degrees past the
    # closed moments of gaussian(0.5) (149).  Left out, and bounded below:
    # gaussian(0.5) at degree 160 past the switch, whose double mass
    # gamma(n + 1) / (2 scale^(n + 1)) overflows, so the entry reads nan
    checked, overflowed = 0, set()
    for (weight, scale), n, order, f, angle in itertools.product(
            RULE_WEIGHTS, (0, 1, 5, 10, 40, 100, 147, 160), range(3),
            (0.05, 0.3, 0.6, 0.9, 1.2, 2.0), (0.3, 2.0, -1.2)):
        u = f * (math.sqrt((n + 1) / scale) if scale else 1.0) * cmath.exp(1j * angle)
        if not math.isfinite(radial_mass(weight, n, abs(u))):
            overflowed.add((scale, n))
            continue
        try:
            value = series_transform(weight, n, u, order)
        except NumericalError:      # a derivative pole inside the support
            continue
        observed, size = _series_error(weight, n, u, order, value)
        if _normal(size):
            assert observed <= SERIES_ROUNDING * (n + order + 1) * size, \
                (weight.kind, scale, n, order, u, value)
            checked += 1
    assert overflowed <= {(0.5, 160)}
    assert checked > 900


@pytest.mark.parametrize("weight, n, u, order", [
    (disk_flat_weight(), 135, 0.05, 0), (gaussian_weight(), 147, 0.6, 0),
    (gaussian_weight(), 169, 21.0, 2), (gaussian_weight(), 0, 1e-200, 0)],
    ids=["disk-135", "gauss-147", "gauss-169-order-2", "h0-1e-200"])
def test_series_entries_past_the_double_range_of_their_mass(weight, n, u, order):
    # the mass underflows (4.8e-357 on the disk, |u|^2 / 2 at 1e-200), is
    # formed through a subnormal (degree 147, 5.1e-69 from a P(148, 0.36)
    # near 1e-324), or times the coefficient overflows (2.1e304 times
    # 2 binom(171, 2)); each entry is a normal double
    value = series_transform(weight, n, u, order)
    observed, size = _series_error(weight, n, u, order, value)
    assert _normal(size)
    assert observed <= SERIES_ROUNDING * (n + order + 1) * size, (value, observed / size)


def test_interior_derivative_quadrature_refused(gauss, gauss_sys):
    with pytest.raises(NumericalError):
        cauchy_quadrature(gauss, gauss_sys.poly(1).coeffs, 2.0 + 0.5j, order=1)


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_interior_derivative_pole_refused_by_both_backends(gauss_sys, method):
    ev = cauchy_evaluator(gauss_sys, method=method)
    with pytest.raises(NumericalError, match="inside the effective support"):
        cauchy_row(ev, (1,), 1.0, order=1)[0].value
    # a confluent inverse factor inside the support asks for such a row
    with pytest.raises(NumericalError, match="inside the effective support"):
        expectation_ratio(RatioQuery(N=2, epsbars=(1.0,), eps_multiplicities=(2,)),
                          gauss_sys, ev)


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_derivative_pole_on_disk_boundary_refused_by_both_backends(disk_sys, method):
    # the pole rule takes the boundary as inside; the refusal comes
    # before the row is computed, so nothing warns
    ev = cauchy_evaluator(disk_sys, method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (1.0, 1j):
            with pytest.raises(NumericalError, match="on or inside the effective"):
                cauchy_row(ev, (1,), eps, order=1)[0].value
        with pytest.raises(NumericalError, match="on or inside the effective"):
            expectation_ratio(RatioQuery(N=2, epsbars=(1.0,), eps_multiplicities=(2,)),
                              disk_sys, ev)


def _table_sizes(monkeypatch) -> list:
    """Record the (panels, angles) of every harmonic table built."""
    built = []

    def counted(spec, radius, depth, panels, n_t, _build=cauchy_module.harmonic_moments):
        built.append((panels, n_t))
        return _build(spec, radius, depth, panels, n_t)

    monkeypatch.setattr(cauchy_module, "harmonic_moments", counted)
    return built


@pytest.mark.parametrize("which, eps, order", [
    ("disk", 0.3 + 0.2j, 0),      # split inside the disk
    ("disk", 1j, 0),              # pole on the boundary
    ("disk", 2.0 + 0.5j, 0),      # far expansion
    ("disk", 2.0 + 0.5j, 1),
    ("disk", 20.0, 0),
    ("gauss", 0.3 + 0.2j, 0),     # split inside the table's disk
    ("gauss", 5.5 + 1.0j, 0),     # split, pole outside the support
    ("gauss", 5.5 + 1.0j, 1),     # by parts
    ("gauss", 12.0, 0),           # far expansion beyond the table's disk
    ("gauss", 12.0, 1),
])
def test_row_entries_equal_single_entries(request, which, eps, order):
    # an entry's bits do not depend on the other degrees of its row
    sys_ = request.getfixturevalue(which + "_sys")
    row = fresh_row(sys_, range(6), eps, 1e-9, order)
    assert len(row) == 6
    for d, res in enumerate(row):
        (single,) = fresh_row(sys_, (d,), eps, 1e-9, order)
        assert (res.value, res.error, res.warnings) == \
            (single.value, single.error, single.warnings)


def test_resolved_table_stops_after_one_doubling(monkeypatch, shifted):
    # the probe's table of 8 panels and 64 angles and its doubling agree on
    # a shifted gaussian, whose one harmonic is w_0: two tables, no third
    built = _table_sizes(monkeypatch)
    fresh_row(ortho_system(shifted, 4), range(5), 4.6 + 0.5j)
    assert built == [(8, 64), (16, 128)]


def test_table_is_built_once_per_system_and_tolerance(monkeypatch, shifted):
    # every row of every evaluator of a system reads one table: rows at
    # other poles, orders and degrees, far or split, build nothing more
    sys_ = ortho_system(shifted, 4)
    built = _table_sizes(monkeypatch)
    cauchy_row(cauchy_evaluator(sys_, "quadrature"), range(3), 14.0 + 2.0j)
    first = len(built)
    for eps, order in ((-13.0 + 5.0j, 1), (5.5 + 0.5j, 0), (5.5 + 0.5j, 1), (0.6 + 0.2j, 0)):
        cauchy_row(cauchy_evaluator(sys_, "quadrature"), range(5), eps, order)
    assert len(built) == first and list(sys_._cauchy_tables) == [1e-9]
    # another tolerance is another table, another system another again
    fresh_row(sys_, range(3), 14.0 + 2.0j, 1e-7)
    fresh_row(ortho_system(shifted, 4), range(3), 14.0 + 2.0j)
    assert len(built) == 3 * first and list(sys_._cauchy_tables) == [1e-9, 1e-7]


@pytest.mark.parametrize("which", ["gauss", "shifted", "disk"])
def test_table_disk_holds_the_derivative_rows(which, request):
    # a gaussian's order-t row integrates zeta^t pi_n, of degree up to
    # 2 max_degree, so its table takes that degree's disk, which the
    # moments' disk holds below depth 16; a disk's table takes the disk
    spec = request.getfixturevalue(which)
    sys_ = ortho_system(spec, 4)
    fresh_row(sys_, range(5), 30.0)
    table = sys_._cauchy_tables[1e-9]
    assert table.radius == table_radius(spec, 4)
    assert table.moments.shape[1] == (5 if which == "disk" else 9)
    if which != "disk":
        assert table.radius < truncation_radius(spec, 0)
        assert spec.evaluate(spec.centre + table.radius) < 1e-16 * spec.evaluate(spec.centre)


def test_pole_on_the_domain_circle_takes_the_far_expansion_at_order_two(gauss, gauss_sys):
    # the domain's circle lies outside a depth-8 system's table, so an
    # order-2 row there is the far expansion, differentiated term by term
    boundary = gauss.domain.quad_radius
    assert boundary > table_radius(gauss, gauss_sys.max_degree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (boundary, 1j * boundary):
            row = fresh_row(gauss_sys, range(3), eps, 1e-9, 2)
            for n, res in enumerate(row):
                exact = series_transform(gauss, n, eps, 2)
                assert abs(res.value - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
def test_pole_on_the_tables_circle(gauss, gauss_sys, order):
    # poles on and next to the table's circle, where a row turns from the
    # split to the far expansion.  Worst error seen 4.4e-15
    edge = table_radius(gauss, gauss_sys.max_degree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (-1e-2, -1e-4, -1e-6, -1e-12, 0.0, 1e-6, 1e-4, 1e-2, 2e-2):
            for angle in (0.0, 0.7, np.pi / 2):
                eps = edge * (1 + delta) * np.exp(-1j * angle)
                row = fresh_row(gauss_sys, range(9), eps, 1e-9, order)
                for n, res in enumerate(row):
                    exact = series_transform(gauss, n, eps, order)
                    assert abs(res.value - exact) <= 1e-13 * abs(exact), (delta, angle, n)


@pytest.mark.parametrize("which", ["gauss", "shifted"])
def test_derivative_rows_by_parts_are_series_of_higher_degree(which):
    # dw/dzbar = -scale zeta w on a gaussian, so the order-t row of pi_n is
    # (-scale)^t times the row of zeta^t pi_n = pi_(n+t): the series
    # h_(n+t) at ebar - conj(c).  Orders 1-5, poles from the effective
    # support to 1.2 times the table's radius.  Worst error seen 0.66 of
    # the estimate
    spec = gaussian_weight() if which == "gauss" \
        else shifted_gaussian_weight(0.47 + 1.257j, 0.82)
    scale = spec.parameters[-1]
    reference, shift = gaussian_weight(scale), np.conj(spec.centre)
    sys_ = ortho_system(spec, 8)
    support, edge = spec.effective_support_radius, table_radius(spec, 8)
    ev = cauchy_evaluator(sys_, "quadrature")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in range(1, 6):
            for r in np.linspace(support, 1.2 * edge, 12):
                for angle in (0.3, 2.0, 4.0):
                    eps = shift + r * np.exp(1j * angle)
                    if abs(eps) <= support:
                        continue
                    for n, res in enumerate(cauchy_row(ev, range(9), eps, order)):
                        exact = (-scale) ** order * series_transform(reference, n + order,
                                                                     eps - shift)
                        assert abs(res.value - exact) <= res.error, (order, eps, n)


def test_derivative_row_past_the_table_depth_is_refused(gauss_sys):
    # inside the disk an order-t row needs degree max_degree + t, which a
    # depth-8 table holds up to t = 8; past the disk any order is defined
    ev = cauchy_evaluator(gauss_sys, "quadrature")
    with pytest.raises(ConstraintError, match="harmonic table holds 16"):
        cauchy_row(ev, range(3), 5.0 + 1.0j, 9)
    far = cauchy_row(ev, range(3), 30.0, 9)
    for n, res in enumerate(far):
        assert res.value == pytest.approx(series_transform(gaussian_weight(), n, 30.0, 9),
                                          rel=1e-12)


def test_row_fills_memo_with_single_entry_bits(gauss_sys):
    degrees, eps = range(6), 4.6 + 0.5j
    for method in ("rotinv-series", "quadrature"):
        for order in (0, 1):
            row_ev = cauchy_evaluator(gauss_sys, method=method)
            cauchy_row(row_ev, (2,), eps, order)   # one hit inside the row
            row = cauchy_row(row_ev, degrees, eps, order)
            for d in degrees:
                fresh = cauchy_evaluator(gauss_sys, method=method)
                single = cauchy_row(fresh, (d,), eps, order)[0]
                assert row[d] == single
                assert cauchy_row(row_ev, (d,), eps, order)[0] == single


@pytest.mark.parametrize("method, computes", [("rotinv-series", "series_transform"),
                                               ("quadrature", "_quadrature_row")])
def test_each_pole_and_order_is_computed_once_per_evaluator(gauss_sys, monkeypatch,
                                                            method, computes):
    # a quadrature key's first request computes its whole row in one pass;
    # a series key computes each requested degree once, since its closed
    # forms share no work.  Other degrees at a quadrature key, and a return
    # to any key, are read from the memo
    calls = []
    compute = getattr(cauchy_module, computes)
    monkeypatch.setattr(cauchy_module, computes,
                        lambda *args: calls.append(args) or compute(*args))
    counts = iter([1, 1, 2, 2] if method == "quadrature" else [2, 4, 6, 6])
    ev, eps = cauchy_evaluator(gauss_sys, method), 4.6 + 0.5j
    first = cauchy_row(ev, (0, 1), eps)
    assert len(calls) == next(counts)
    cauchy_row(ev, (2, 3), eps)
    assert len(calls) == next(counts)
    cauchy_row(ev, (0, 1), eps, 1)
    assert len(calls) == next(counts)
    again = cauchy_row(ev, (0, 1), eps)
    cauchy_row(ev, (1, 2), eps)
    assert len(calls) == next(counts) and all(a is b for a, b in zip(first, again))
    assert list(ev._memo) == [(eps, 1), (eps, 0)]
    assert all(len(row) == gauss_sys.max_degree + 1 for row in ev._memo.values())


def test_convergence_error_lists_refinement_history():
    with pytest.raises(ConvergenceError) as info:
        adaptive_integral(lambda n_r, n_t: complex(n_r), 1e-9)
    assert "96x128: 4.800e+01, 192x256: 9.600e+01, 384x512: 1.920e+02, " \
        "768x1024: 3.840e+02" in str(info.value)


def test_table_that_does_not_converge_names_its_weight():
    # the cusp's harmonics decay too slowly for a table at 1e-7; its error
    # names the table and lists the change at every doubling.  Up to the
    # last, 128 panels of 16 rings and 1,024 angles, no array of every
    # ring's 1,023 harmonics is held
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="harmonic table of custom") as info:
            cauchy_quadrature(CUSP, (-1.0, 1.0), 0.5 + 0.5j, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for level in ("96x128", "192x256", "384x512", "768x1024"):
        assert level in str(info.value)
    assert peak <= 50e6


# anisotropic, so its transforms take the quadrature backend
ANISO = custom_weight(lambda z: np.exp(-(np.real(z) ** 2 + 2.0 * np.imag(z) ** 2)),
                      full_plane_domain(7.0))

# (degrees, eps, order) rows for one evaluator, interleaving far poles at
# orders 0 and 1, two rows at one pole inside the table's disk, a new
# such pole, and a return to earlier poles with other degrees; only the
# shifted gaussian has poles inside its table's disk outside its
# effective support, where order 1 is defined
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


def _chord_grid_transform(spec, poly, eps, order, radius) -> tuple[complex, float]:
    """An independent reference on the disk of ``radius`` about the
    weight's centre: a pole inside it takes a grid centred on the pole
    whose rays end on the circle (``cauchy_kernel_grid``), with the kernel
    in its weights; a pole outside it the polar grid about the centre,
    with the kernel in the integrand.  Returns the value and the L1 norm
    of the integrand on the probe grid."""
    u = complex(eps)
    pole, c = np.conj(u), spec.centre

    def level(n_r, n_t):
        if abs(pole - c) < radius:
            grid = cauchy_kernel_grid(pole, disk_chord_lengths(pole - c, radius),
                                      n_r, n_t, order=order)
            return grid.nodes, spec.evaluate(grid.nodes) * grid.weights
        grid = star_grid(c, radius, n_r, n_t)
        kernel = math.factorial(order) / (np.conj(grid.nodes) - u) ** (order + 1)
        return grid.nodes, spec.evaluate(grid.nodes) * grid.weights * kernel

    def integrate(n_r, n_t):
        nodes, g = level(n_r, n_t)
        return complex(np.dot(eval_poly(poly, nodes), g)) / (2j * math.pi)

    nodes, g = level(*PROBE)
    l1 = float(np.dot(np.abs(eval_poly(poly, nodes)), np.abs(g))) / (2 * math.pi)
    value, _ = adaptive_integral(integrate, 1e-11, scale=1e-3 * l1)
    return value, l1


@pytest.mark.parametrize("which", sorted(INTERLEAVED_ROWS))
def test_evaluator_rows_equal_fresh_rows_whatever_came_before(request, which):
    # a row's bits are those of the same row on a fresh system, whatever
    # rows its evaluator computed before; its values are those of the
    # chord-grid reference to 1e-10 of their L1 norm
    spec = ANISO if which == "aniso" else request.getfixturevalue(which)
    sys_ = ortho_system(spec, 6)
    ev = cauchy_evaluator(sys_, method="quadrature")
    radius = table_radius(spec, sys_.max_degree)
    for degrees, eps, order in INTERLEAVED_ROWS[which]:
        row = cauchy_row(ev, degrees, eps, order)
        fresh = fresh_row(ortho_system(spec, 6), degrees, eps, ev.tolerance, order)
        assert repr(row) == repr(fresh), (degrees, eps, order)
        for d, res in zip(degrees, row):
            value, l1 = _chord_grid_transform(spec, sys_.poly(d), eps, order, radius)
            assert abs(res.value - value) <= 1e-10 * l1, (d, eps, order)


# the benchmark's custom weight: exp(-(x'^2 + 2.2 y'^2)) in axes turned by 0.5
TURNED = custom_weight(lambda z: np.exp(-(np.real(z * np.exp(-0.5j)) ** 2
                                          + 2.2 * np.imag(z * np.exp(-0.5j)) ** 2)),
                       full_plane_domain(8.0))


def test_table_resolves_the_harmonics_its_rows_see(monkeypatch):
    # the turned weight's harmonics up to |m| = 36 carry 1e-8 to 3e-10 of
    # the degree-8 L1 moment, beyond the probe's 64 angles.  The moments
    # at the panel edges damp them, the plain panel moments do not, so the
    # table refines to 256 angles, and rows split mid-panel match the
    # chord-grid reference
    sys_ = ortho_system(TURNED, 8)
    built = _table_sizes(monkeypatch)
    ev = cauchy_evaluator(sys_, "quadrature")
    for eps in (4.2 * np.exp(0.3j), 3.9 * np.exp(2.1j), 1.7 - 0.4j):
        row = cauchy_row(ev, range(9), eps)
        for d, res in enumerate(row):
            value, l1 = _chord_grid_transform(TURNED, sys_.poly(d), eps, 0, 8.0)
            assert abs(res.value - value) <= 1e-10 * l1, (eps, d)
    assert built == [(8, 64), (16, 128), (32, 256)]


def test_table_does_not_grow_with_the_number_of_poles(shifted):
    sys_ = ortho_system(shifted, 4)
    ev = cauchy_evaluator(sys_, method="quadrature")
    boundary = shifted.domain.quad_radius
    fresh_row(sys_, range(3), 1.0)
    (table,) = sys_._cauchy_tables.values()
    memo_sizes = []
    for k in range(60):
        phase = np.exp(2j * np.pi * k / 60)
        cauchy_row(ev, range(3), (boundary + 1.0 + k / 10) * phase)
        cauchy_row(ev, range(3), (0.5 + k / 20) * phase)
        memo_sizes.append(len(ev._memo))
    for k in range(3000):
        cauchy_row(ev, range(3), (boundary + 1.0 + k / 1000) * np.exp(2j * np.pi * k / 3000))
        memo_sizes.append(len(ev._memo))
    # the memo keeps the whole rows of max_degree + 1 = 5 (pole, order)
    # keys, and the system the one table its first row built
    assert max(memo_sizes) == 5
    assert all(len(row) == sys_.max_degree + 1 for row in ev._memo.values())
    assert list(sys_._cauchy_tables.values()) == [table]
    assert table.moments.shape == (17, 9, 1)


def test_memo_evicts_the_least_recently_requested_pole(gauss_sys):
    ev = cauchy_evaluator(gauss_sys)
    # keys are (pole, order): the two orders at one pole are two keys
    keys = [(4.0 + 0.5j * (k // 2), k % 2) for k in range(gauss_sys.max_degree + 2)]
    for eps, order in keys[:-1]:
        cauchy_row(ev, (0, 1), eps, order)
    first = cauchy_row(ev, (0, 1), *keys[0])   # a hit, now the most recent
    cauchy_row(ev, (0, 1), *keys[-1])          # evicts keys[1]
    assert list(ev._memo) == keys[2:-1] + [keys[0], keys[-1]]
    assert all(a is b for a, b in zip(first, cauchy_row(ev, (0, 1), *keys[0])))


def test_no_other_module_reads_the_evaluators_memo():
    # the memo's layout ((pole, order), then its row) and the system's
    # harmonic tables are known to cauchy.py alone: deformed.determinant_rows
    # takes each h row, and its error, through cauchy_row, so a second
    # reading of the rows from the memo would be a second copy of that layout
    found = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        if path.name == "cauchy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_memo", "_cauchy_tables"):
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert not found


# the package's public names, each used outside __init__ by the CLI,
# another module, the tests or the README
EXPORTS = (
    "CauchyEvaluator", "CauchyResult", "ConfigError", "ConstraintError", "ConvergenceError",
    "DegenerateVariablesError", "DetratioError", "Diagnostics", "DomainSpec", "EvalResult",
    "MONTE_CARLO", "MomentMatrix", "MonicPoly", "NumericalError", "OracleConfig",
    "OracleEstimate", "OrthoSystem", "Poly", "RatioQuery", "SingularMatrixError",
    "TENSOR_QUADRATURE", "WeightSpec", "bordered_coefficients", "build_ortho_system",
    "cauchy_evaluator", "cauchy_row", "christoffel_poly", "christoffel_q", "combined_poly",
    "custom_weight", "deformed_cauchy", "deformed_integral", "disk_domain",
    "disk_flat_weight", "eval_poly", "expectation_inverses", "expectation_products",
    "expectation_ratio", "full_plane_domain", "gaussian_weight", "moment_matrix",
    "oracle_deformed_op", "oracle_expectation", "oracle_partition", "ortho_system",
    "orthogonality_residual_matrix", "partial_fractions", "partition_function",
    "poly_derivative", "series_transform", "shifted_gaussian_weight", "uvarov_poly",
    "uvarov_q")


def test_exports_are_pinned_and_each_has_a_caller():
    init = Path(detratio.__file__)
    exported = [alias.asname or alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(exported) == sorted(EXPORTS) and len(EXPORTS) == 53
    used = set()
    for path in [*init.parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        if path != init:
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.Name, ast.Attribute))}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [name for name in EXPORTS
            if name not in used and not re.search(rf"\b{name}\b", readme)] == []


def test_no_module_takes_up_the_tests_references():
    # cauchy_quadrature, cauchy_transform_full and cauchy_kernel_grid stay
    # for the tests and bench/tracer.py alone until ROADMAP item 5 deletes
    # them, so no module calls them; and cauchy.py re-expands no
    # polynomial: it imports nothing from numpy.polynomial
    references = {"cauchy_quadrature", "cauchy_transform_full", "cauchy_kernel_grid"}
    calls, imported = [], []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and references & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                calls.append(f"{path.name}:{node.lineno}")
            if path.name == "cauchy.py" and isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
            if path.name == "cauchy.py" and isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
    assert not calls
    assert imported and not [name for name in imported if name.startswith("numpy.polynomial")]


def _pole_classes(system) -> dict:
    """Per class, the origin its pole radii are measured from, the radii
    and the orders: inside the effective support, between it and the
    truncation radius, and beyond that radius, from the origin; on either
    side of the table's circle, from the weight's centre; and on a disk,
    just outside its edge.  A disk has no middle class, and no edge
    class: its table's disk is the disk itself.  A pole within the
    table's radius of the weight's centre splits the table, and every
    other pole takes the far expansion."""
    spec = system.weight
    support, boundary = spec.effective_support_radius, spec.domain.quad_radius
    edge = table_radius(spec, system.max_degree)
    full_plane = boundary > support
    return {"inner": (0j, (0.1 * support, 0.5 * support, 0.95 * support), (0,)),
            "mid": (0j, (1.05 * support, (support + boundary) / 2, 0.98 * boundary)
                    if full_plane else (), (0,)),
            "edge": (np.conj(spec.centre), tuple(f * edge for f in (0.99, 1.001, 1.01, 1.1))
                     if full_plane else (), (0,)),
            "near": (0j, () if full_plane else
                     tuple(f * boundary for f in (1.0005, 1.005, 1.02, 1.05)), (0, 1, 3)),
            "far": (0j, (1.02 * boundary, 1.5 * boundary, 4 * boundary), (0, 1))}


@pytest.mark.parametrize("which", ["gauss", "disk", "shifted"])
def test_quadrature_rows_match_exact_series_over_pole_classes(request, gauss,
                                                              which):
    # exact references: the series on the rotation-invariant weights, the
    # translated gaussian series on the shifted gaussian.  Order 1 is
    # defined outside the effective support and compared beyond the
    # truncation radius: on a full-plane weight the conventions differ
    # in between by about the weight at the pole (see the module
    # docstring of detratio.cauchy), and a disk has no such poles.
    # Orders 1 and 3 also just outside a disk, where the weight drops to 0
    spec = request.getfixturevalue(which)
    sys_ = ortho_system(spec, 8)
    reference = gauss if which == "shifted" else spec
    shift = np.conj(spec.centre)
    tol = 1e-9
    for cls, (origin, radii, orders) in _pole_classes(sys_).items():
        for r in radii:
            for angle in (0.3, 2.0, 4.0):
                eps = origin + r * np.exp(1j * angle)
                for order in orders:
                    row = fresh_row(sys_, range(sys_.max_degree + 1), eps, tol, order)
                    for n, res in enumerate(row):
                        exact = series_transform(reference, n, eps - shift, order)
                        # tol |exact| up to degree 5, 2e3 tol |exact| at
                        # degrees 6-8, whose values fall up to nine orders
                        # below their L1 scale
                        bound = 1.0 if n <= 5 else 2e3
                        assert abs(res.value - exact) <= bound * tol * abs(exact), \
                            (cls, eps, order, n)


def _fresh_ring_split_sums(spec, table, b):
    """``cauchy._split_sums`` as first written, the reference of the
    interpolated split: the panel holding s = |b| split at s on rings of
    its own, the weight evaluated on each and one FFT per ring
    (``weight.ring_harmonics``), and the (j, m) windows as strided views."""
    radius, (panels, depth, width), s = table.radius, table.moments.shape, abs(b)
    panels, depth, band = panels - 1, depth - 1, width // 2
    a = min(int(s / radius * panels), panels - 1)
    low, high = radius * a / panels, radius * (a + 1) / panels
    p = np.arange(-band + 1, band + depth + 2)
    inner = p >= 1
    phase = np.exp(-1j * math.atan2(b.imag, b.real) * p) * np.where(inner, 1.0, -1.0)
    factor = np.where(inner, low / s if s else 0.0, s / high) ** np.abs(p) * phase
    terms = sliding_window_view(factor, 2 * band + 1) * np.where(
        sliding_window_view(inner, 2 * band + 1), table.moments[a], table.moments[a + 1])
    rho, weights = weight_module.panel_nodes(np.array([low, s, high]))
    below = np.arange(rho.size) < rho.size // 2
    ratio = np.divide(np.minimum(rho, s), np.maximum(rho, s), out=np.zeros_like(rho),
                      where=rho + s > 0)
    ring = np.where(below[:, None] == inner, ratio[:, None] ** np.abs(p), 0.0) * phase
    terms += np.einsum("jr,rm,rjm->jm", rho ** np.arange(depth + 1)[:, None],
                       weight_module.both_signs(
                           weight_module.ring_harmonics(spec, rho, table.n_t, band)),
                       sliding_window_view(weights[:, None] * ring, 2 * band + 1, axis=1))
    return 1j * terms.sum(axis=1), np.abs(terms).sum(axis=1)


def _split_radii(table) -> dict:
    """s = |b| at the centre, on a panel edge, on a node of the panel
    above it, and just inside the table's radius."""
    panels = table.moments.shape[0] - 1
    edges = table.radius * np.arange(panels + 1) / panels
    return {"centre": 0.0, "edge": edges[panels // 2],
            "node": weight_module.panel_nodes(edges[panels // 2:panels // 2 + 2])[0][5],
            "inside": np.nextafter(table.radius, 0.0)}


@pytest.mark.parametrize("which", ["shifted", "turned", "disk"])
def test_split_rows_match_the_fresh_ring_split(request, monkeypatch, which):
    # every entry within 1e-14 of its L1 norm: the sums u_j at radii that
    # meet the panel's edges and nodes exactly, and the rows built on them
    # at orders 0-3 where the pole admits them (a gaussian's by parts)
    spec = TURNED if which == "turned" else request.getfixturevalue(which)
    sys_ = ortho_system(spec, 4)
    fresh_row(sys_, range(5), 30.0)
    table = sys_._cauchy_tables[1e-9]
    for name, s in _split_radii(table).items():
        for b in (complex(s), complex(0.0, s), -complex(s), s * cmath.exp(2.4j)):
            sums, l1 = cauchy_module._split_sums(table, b)
            reference, reference_l1 = _fresh_ring_split_sums(spec, table, b)
            assert np.all(np.abs(sums - reference) <= 1e-14 * reference_l1), (name, b)
            assert np.all(np.abs(l1 - reference_l1) <= 1e-14 * reference_l1), (name, b)
    for s in _split_radii(table).values():
        for angle in (0.3, 2.4):
            u = np.conj(spec.centre) + s * cmath.exp(1j * angle)
            by_parts = weight_module.conj_derivative_factor(spec) is not None
            orders = (0, 1, 2, 3) if by_parts and abs(u) > spec.effective_support_radius \
                else (0,)
            for order in orders:
                new = cauchy_module._quadrature_row(spec, table, u, order)
                with monkeypatch.context() as patch:
                    patch.setattr(cauchy_module, "_split_sums",
                                  lambda table, b: _fresh_ring_split_sums(spec, table, b))
                    old = cauchy_module._quadrature_row(spec, table, u, order)
                for n, (res, ref) in enumerate(zip(new, old)):
                    assert abs(res.value - ref.value) <= 1e-14 * ref.error / table.change, \
                        (u, order, n)
                    assert res.error == pytest.approx(ref.error, rel=1e-13)


def test_kinked_weight_costs_the_split_no_accuracy():
    # exp(-|z|^2 - 0.05 ||z| - 1.3|^3) has a jump in its third derivative
    # at |z| = 1.3, inside one panel: the split interpolates its harmonics
    # from the table's nodes there, and the rows err no more than the
    # table does (1.9e-11), against the radial integral on each side of
    # the kink
    def radial(r):
        return math.exp(-r * r - 0.05 * abs(r - 1.3) ** 3)

    spec = custom_weight(lambda z: np.exp(-np.abs(z) ** 2 - 0.05 * np.abs(np.abs(z) - 1.3) ** 3),
                         full_plane_domain(7.0))
    ev = cauchy_evaluator(ortho_system(spec, 4), "quadrature")
    worst = 0.0
    for t in (0.3, 0.8, 1.0, 1.25, 1.3, 1.35, 1.7, 2.5):
        for angle in (0.4, 2.2, 4.1):
            u = t * cmath.exp(1j * angle)
            for n, res in enumerate(cauchy_row(ev, range(5), u)):
                mass = quad(lambda r: r ** (2 * n + 1) * radial(r), 0.0, t,
                            points=[1.3] if t > 1.3 else None, epsabs=0.0, epsrel=1.2e-14,
                            limit=200)[0]
                exact = 1j * mass / u ** (n + 1)
                worst = max(worst, abs(res.value - exact) / abs(exact))
    assert worst <= 1.9e-11


@pytest.mark.parametrize("which", ["shifted", "turned"])
def test_split_rows_read_the_table_alone(request, monkeypatch, which):
    # once the system's table exists, rows at poles inside its disk
    # evaluate no weight and take no FFT
    spec = TURNED if which == "turned" else request.getfixturevalue(which)
    sys_ = ortho_system(spec, 6)
    ev = cauchy_evaluator(sys_, "quadrature")
    cauchy_row(ev, range(7), 30.0)
    radius = sys_._cauchy_tables[ev.tolerance].radius
    calls = []

    def counted(name, function):
        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(WeightSpec, "evaluate", counted("evaluate", WeightSpec.evaluate))
    monkeypatch.setattr(weight_module, "ring_harmonics",
                        counted("ring_harmonics", weight_module.ring_harmonics))
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    for k in range(40):
        u = np.conj(spec.centre) + 0.98 * radius * (k + 0.5) / 40 * cmath.exp(0.7j * k)
        cauchy_row(ev, range(7), u)
    assert len(ev._memo) == sys_.max_degree + 1 and calls == []
