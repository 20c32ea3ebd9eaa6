import cmath
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detratio import (ConstraintError, DegenerateVariablesError,
                      NumericalError, OracleConfig, RatioQuery,
                      cauchy_evaluator, deformed_cauchy, disk_flat_weight,
                      eval_poly, expectation_inverses, expectation_products,
                      expectation_ratio, gaussian_weight, oracle_expectation,
                      ortho_system, partial_fractions, shifted_gaussian_weight)
from detratio.cauchy import ROTINV_SERIES, SERIES_ROUNDING, cauchy_row
from detratio.deformed import determinant_rows
from detratio.weight import FAMILIES

from conftest import EPS_DISK, EPS_GAUSS, MUS_DISK, MUS_GAUSS, family_weight


def test_empty_query_is_exactly_one(disk_sys, disk_ev):
    res = expectation_ratio(RatioQuery(N=3), disk_sys, disk_ev)
    assert res.value == 1.0 + 0j
    assert res.abs_error_estimate == 0.0


def test_disk_anchor(disk_sys, disk_ev):
    res = expectation_ratio(RatioQuery(N=1, epsbars=(2.0,)), disk_sys, disk_ev)
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_gaussian_anchor(gauss_sys, gauss_ev):
    res = expectation_ratio(RatioQuery(N=1, epsbars=(2.0,)), gauss_sys, gauss_ev)
    assert res.value == pytest.approx((1 - math.exp(-4)) / 2, rel=1e-12)


def test_heine_monomials(gauss_sys, gauss_ev):
    # gaussian polynomials are monomials, so <D_N[mu]> = mu^N
    for n_ev in (1, 2, 5):
        mu = 0.8 + 0.6j
        res = expectation_ratio(RatioQuery(N=n_ev, mus=(mu,)), gauss_sys, gauss_ev)
        assert res.value == pytest.approx(mu ** n_ev, rel=1e-13)


def test_path_consistency_products(disk_sys, disk_ev, gauss_sys, gauss_ev):
    for sys_, cev, pool in ((disk_sys, disk_ev, MUS_DISK),
                            (gauss_sys, gauss_ev, MUS_GAUSS)):
        for n_ev in (1, 2, 3):
            for big_l in (1, 2, 3):
                q = RatioQuery(N=n_ev, mus=pool[:big_l])
                a = expectation_ratio(q, sys_, cev).value
                b = expectation_products(q, sys_).value
                assert abs(a - b) <= 1e-9 * abs(a)


def test_path_consistency_inverses(disk_sys, disk_ev, gauss_sys, gauss_ev):
    for sys_, cev, pool in ((disk_sys, disk_ev, EPS_DISK),
                            (gauss_sys, gauss_ev, EPS_GAUSS)):
        for n_ev in (1, 2, 3):
            for big_m in range(1, min(n_ev, 2) + 1):
                q = RatioQuery(N=n_ev, epsbars=pool[:big_m])
                a = expectation_ratio(q, sys_, cev).value
                b = expectation_inverses(q, sys_, cev).value
                assert abs(a - b) <= 1e-9 * abs(a)


@pytest.fixture(scope="module")
def series_systems():
    """Depth-7 systems with series-backend evaluators, enough for N, L <= 4."""
    out = []
    for spec in (gaussian_weight(), gaussian_weight(0.5), disk_flat_weight(1.0)):
        system = ortho_system(spec, 7)
        out.append((system, cauchy_evaluator(system, ROTINV_SERIES)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_telescopes_agree_with_the_determinant(series_systems, data):
    # products only: float mus in the box |re|, |im| <= 3, zero,
    # subnormal and underflowed pi rows included; inverses only: epsbars
    # 0.5 to 4 outside the effective support.  Sweeps of 6000 and 20000
    # product draws saw at most 1.3e-13 relative, and 1.7e-321 absolute
    # below the smallest normal double; earlier sweeps of the inverses,
    # at most 2.7e-12
    system, cev = data.draw(st.sampled_from(series_systems), "system")
    n_ev = data.draw(st.integers(1, 4), "N")
    count = data.draw(st.integers(1, n_ev), "count")
    products = data.draw(st.booleans(), "products")
    if products:
        part = st.floats(-3.0, 3.0)
        point = st.builds(complex, part, part)
    else:
        support = system.weight.effective_support_radius
        point = st.builds(cmath.rect, st.floats(support + 0.5, support + 4.0),
                          st.floats(-math.pi, math.pi))
    values = data.draw(st.lists(point, min_size=count, max_size=count), "values")
    assume(all(abs(a - b) >= 0.1 for a, b in itertools.combinations(values, 2)))
    if products:
        q = RatioQuery(N=n_ev, mus=values)
        degrees = range(n_ev, n_ev + count)
        if any(all(eval_poly(system.poly(d), mu) == 0 for d in degrees)
               for mu in values):
            # pi_n(z) = z^n on these weights, so the pi row is exactly zero
            # at mu = 0 or where |mu|^N underflows; both paths refuse the
            # zero, which they cannot tell from an underflow
            with pytest.raises(NumericalError):
                expectation_ratio(q, system, None)
            with pytest.raises(NumericalError):
                expectation_products(q, system)
            return
        telescope = expectation_products(q, system).value
    else:
        q = RatioQuery(N=n_ev, epsbars=values)
        telescope = expectation_inverses(q, system, cev).value
    determinant = expectation_ratio(q, system, cev).value
    # near and below the smallest normal double the bound is absolute:
    # the telescope rounds a subnormal partial product to the spacing
    # 2^-1074, and its later factors, mu^N with |mu^N| <= (3 sqrt 2)^4 =
    # 324, multiply that rounding by at most 324^3
    floor = 2.0 ** -1074 * 324.0 ** 3
    assert abs(telescope - determinant) <= 1e-10 * abs(determinant) + floor


def test_permutation_symmetry(disk_sys, disk_ev):
    q0 = RatioQuery(N=2, mus=MUS_DISK[:2], epsbars=EPS_DISK)
    base = expectation_ratio(q0, disk_sys, disk_ev).value
    for pm in itertools.permutations(q0.mus):
        for pe in itertools.permutations(q0.epsbars):
            v = expectation_ratio(RatioQuery(N=2, mus=pm, epsbars=pe),
                                  disk_sys, disk_ev).value
            assert abs(v - base) <= 1e-12 * abs(base)


def test_measure_scaling_invariance(gauss_sys, gauss_ev):
    scaled = gaussian_weight(amplitude=3.7)
    ssys = ortho_system(scaled, 8)
    sev = cauchy_evaluator(ssys)
    for q in (RatioQuery(N=2, mus=MUS_GAUSS[:1], epsbars=EPS_GAUSS[:1]),
              RatioQuery(N=2, epsbars=EPS_GAUSS),
              RatioQuery(N=1, mus=MUS_GAUSS[:2])):
        a = expectation_ratio(q, gauss_sys, gauss_ev).value
        b = expectation_ratio(q, ssys, sev).value
        assert abs(a - b) <= 1e-12 * abs(a)


def test_conjugation_covariance(disk_sys, disk_ev):
    q = RatioQuery(N=2, mus=MUS_DISK[:1], epsbars=EPS_DISK[:1])
    qc = RatioQuery(N=2, mus=tuple(np.conj(v) for v in q.mus),
                    epsbars=tuple(np.conj(v) for v in q.epsbars))
    a = expectation_ratio(q, disk_sys, disk_ev).value
    b = expectation_ratio(qc, disk_sys, disk_ev).value
    assert b == pytest.approx(np.conj(a), rel=1e-13)


def test_confluent_equals_plain_when_trivial(gauss_sys, gauss_ev):
    q = RatioQuery(N=2, mus=MUS_GAUSS[:2], epsbars=EPS_GAUSS[:1],
                   mu_multiplicities=(1, 1), eps_multiplicities=(1,))
    plain = RatioQuery(N=2, mus=MUS_GAUSS[:2], epsbars=EPS_GAUSS[:1])
    a = expectation_ratio(plain, gauss_sys, gauss_ev).value
    b = expectation_ratio(q, gauss_sys, gauss_ev).value
    assert a == b


def test_confluence_richardson(gauss_sys, gauss_ev):
    mu = 0.9 + 0.6j
    conf = expectation_ratio(RatioQuery(N=2, mus=(mu,), mu_multiplicities=(2,)),
                             gauss_sys, gauss_ev).value

    def at(delta):
        return expectation_ratio(RatioQuery(N=2, mus=(mu, mu + delta)),
                                 gauss_sys, gauss_ev).value

    deltas = (1e-2, 1e-3, 1e-4)
    errs = [abs(at(d) - conf) / abs(conf) for d in deltas]
    assert errs[0] > errs[1] > errs[2]
    # first-order Richardson extrapolation of the last pair
    d1, d2 = deltas[1], deltas[2]
    rich = (d1 * at(d2) - d2 * at(d1)) / (d1 - d2)
    assert abs(rich - conf) / abs(conf) <= 1e-5


def test_confluent_vs_oracle(gauss, gauss_sys, gauss_ev):
    mu = 0.9 + 0.6j
    q = RatioQuery(N=2, mus=(mu,), mu_multiplicities=(2,))
    conf = expectation_ratio(q, gauss_sys, gauss_ev).value
    est = oracle_expectation(q, gauss, OracleConfig(radial_nodes=64, angular_nodes=96))
    assert conf == pytest.approx(est.value, rel=1e-8)


def test_confluent_epsbars_outside_support(gauss_sys, gauss_ev):
    eb = 5.0 + 1.0j
    conf = expectation_ratio(
        RatioQuery(N=2, epsbars=(eb,), eps_multiplicities=(2,)),
        gauss_sys, gauss_ev).value
    for delta in (1e-2, 1e-3):
        v = expectation_ratio(RatioQuery(N=2, epsbars=(eb, eb + delta)),
                              gauss_sys, gauss_ev).value
        assert abs(v - conf) / abs(conf) < delta * 10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_permutation_invariance_with_multiplicities(gauss_sys, gauss_ev, data):
    # permuting (variable, multiplicity) pairs permutes row blocks of the
    # determinant and factors of the Vandermonde products alike
    mus = list(zip(MUS_GAUSS, data.draw(
        st.lists(st.integers(1, 3), max_size=len(MUS_GAUSS)), "mu_mults")))
    eps = list(zip(EPS_GAUSS, data.draw(
        st.lists(st.integers(1, 3), max_size=len(EPS_GAUSS)), "eps_mults")))
    big_l, big_m = sum(k for _, k in mus), sum(k for _, k in eps)
    assume(max(big_m, 1) <= gauss_sys.max_degree + 1 - big_l)
    n_ev = data.draw(st.integers(max(big_m, 1), gauss_sys.max_degree + 1 - big_l), "N")

    def value(mus, eps):
        q = RatioQuery(N=n_ev, mus=[v for v, _ in mus], epsbars=[v for v, _ in eps],
                       mu_multiplicities=[k for _, k in mus],
                       eps_multiplicities=[k for _, k in eps])
        return expectation_ratio(q, gauss_sys, gauss_ev).value

    base = value(mus, eps)
    permuted = value(data.draw(st.permutations(mus), "mus"),
                     data.draw(st.permutations(eps), "eps"))
    assert abs(permuted - base) <= 1e-10 * abs(base)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_amplitude_invariance_over_families(data):
    # moments, norms and transforms all scale linearly in the amplitude,
    # so the normalized expectation does not depend on it; the bound
    # leaves room for a quadrature entry to stop one level apart
    # (tolerance 1e-9), and a sweep of amplitudes saw at most 4.4e-15
    kind = data.draw(st.sampled_from(list(FAMILIES)), "kind")
    amplitude = data.draw(st.floats(1e-2, 1e2), "amplitude")
    n_ev = data.draw(st.integers(1, 3), "N")
    n_mu = data.draw(st.integers(0, 2), "L")
    n_eps = data.draw(st.integers(0, min(n_ev, 2)), "M")

    def value(amp):
        spec = family_weight(kind, amp)
        radius = spec.effective_support_radius
        mus = [spec.centre + radius * m for m in (0.5 + 0.3j, -0.4 + 0.6j)]
        epsbars = [radius * e for e in (1.6 + 0.4j, -1.5 + 0.9j)]  # outside
        q = RatioQuery(N=n_ev, mus=mus[:n_mu], epsbars=epsbars[:n_eps])
        system = ortho_system(spec, 4)
        return expectation_ratio(q, system, cauchy_evaluator(system)).value

    base = value(1.0)
    assert abs(value(amplitude) - base) <= 1e-9 * abs(base)


def test_depth_checked_for_the_empty_query():
    shallow = ortho_system(gaussian_weight(), 4)
    with pytest.raises(ConstraintError, match="requires system depth 19"):
        expectation_ratio(RatioQuery(N=20), shallow, cauchy_evaluator(shallow))


@pytest.mark.parametrize("evaluate", [
    lambda q, sys_, ev: expectation_ratio(q, sys_, ev),
    lambda q, sys_, ev: expectation_inverses(q, sys_, ev),
    lambda q, sys_, ev: deformed_cauchy(sys_, ev, q.epsbars, 2, 3.0 + 1j),
], ids=["ratio", "inverses", "deformed-cauchy"])
def test_evaluator_of_another_system_is_refused(disk_sys, gauss_ev, evaluate):
    # h rows of the gaussian next to pi rows of the disk would give a
    # finite, wrong value; a separately built system of the same weight
    # is another system too
    q = RatioQuery(N=2, epsbars=EPS_DISK)
    for ev in (gauss_ev, cauchy_evaluator(ortho_system(disk_sys.weight, 8))):
        with pytest.raises(ConstraintError, match="another orthogonal system"):
            evaluate(q, disk_sys, ev)
    assert cauchy_evaluator(disk_sys).weight is disk_sys.weight


def test_products_only_query_needs_no_evaluator(gauss_sys, gauss_ev):
    for q in (RatioQuery(N=2, mus=MUS_GAUSS),
              RatioQuery(N=2, mus=MUS_GAUSS[:2], mu_multiplicities=(2, 1))):
        assert expectation_ratio(q, gauss_sys, None) == \
            expectation_ratio(q, gauss_sys, gauss_ev)


def test_ebar_without_evaluator_is_refused(gauss_sys):
    q = RatioQuery(N=2, mus=MUS_GAUSS[:1], epsbars=EPS_GAUSS[:1])
    with pytest.raises(ConstraintError, match="Cauchy evaluator"):
        expectation_ratio(q, gauss_sys, None)


def test_constraint_errors(disk_sys, disk_ev):
    with pytest.raises(ConstraintError):
        RatioQuery(N=1, epsbars=EPS_DISK)  # M > N
    with pytest.raises(ConstraintError):
        RatioQuery(N=0)
    with pytest.raises(DegenerateVariablesError):
        RatioQuery(N=2, epsbars=(2.0, 2.0))
    with pytest.raises(ConstraintError):
        expectation_ratio(RatioQuery(N=2, mus=MUS_DISK * 3), disk_sys, disk_ev)
    with pytest.raises(ConstraintError):
        expectation_products(RatioQuery(N=1, epsbars=(2.0,)), disk_sys)
    with pytest.raises(ConstraintError):
        expectation_inverses(RatioQuery(N=1, mus=(1.5,)), disk_sys, disk_ev)


def test_multiplicity_counts_against_n():
    with pytest.raises(ConstraintError):
        RatioQuery(N=2, epsbars=(3.0,), eps_multiplicities=(3,))


def test_diagnostics_fields(disk_sys, disk_ev):
    res = expectation_ratio(RatioQuery(N=2, epsbars=EPS_DISK), disk_sys, disk_ev)
    assert res.diagnostics.backend == "rotinv-series"
    assert res.diagnostics.det_conditioning >= 1.0
    assert math.isfinite(res.abs_error_estimate)


def test_non_finite_results_rejected():
    from detratio import Diagnostics, EvalResult, NumericalError
    with pytest.raises(NumericalError):
        EvalResult(complex("nan"), 0.0, Diagnostics(1.0, "test", ()))
    with pytest.raises(NumericalError):
        EvalResult(1.0 + 0j, float("inf"), Diagnostics(1.0, "test", ()))


def test_overflow_control_large_system():
    # factorial norms at depth 40 only pass through logs
    sys_ = ortho_system(gaussian_weight(), 40)
    cev = cauchy_evaluator(sys_)
    mu = 1.1 + 0.2j
    res = expectation_ratio(RatioQuery(N=40, mus=(mu,)), sys_, cev)
    assert res.value == pytest.approx(mu ** 40, rel=1e-11)
    res = expectation_ratio(RatioQuery(N=40, epsbars=(5.5,)), sys_, cev)
    assert math.isfinite(abs(res.value)) and abs(res.value) > 0


def test_partial_fractions_examples():
    a, p = partial_fractions(0, (1.5,))
    assert a[0] == pytest.approx(1.0)
    assert np.allclose(p.coeffs, [0.0])

    a, p = partial_fractions(2, (1.0, 2.0))
    assert np.allclose(p.coeffs, [1.0])  # (-1)^m with m = 2


def test_partial_fractions_two_pole_reconstruction():
    # z/((1 - z)(2 - z)) rebuilt at 20 points away from the poles
    poles = (1.0, 2.0)
    a, p = partial_fractions(1, poles)
    rng = np.random.default_rng(2)
    count = 0
    while count < 20:
        z = 3 * (rng.standard_normal() + 1j * rng.standard_normal())
        if min(abs(z - e) for e in poles) < 0.3:
            continue
        count += 1
        lhs = z / ((1 - z) * (2 - z))
        rhs = a[0] / (1 - z) + a[1] / (2 - z) + eval_poly(p, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5),
       st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4))
def test_partial_fractions_reconstruction(j, poles):
    # identity z^j / prod (e_k - z) = sum a_k/(e_k - z) + p(z)
    if len(poles) > 1:
        gaps = [abs(a - b) for i, a in enumerate(poles) for b in poles[:i]]
        if min(gaps) < 1e-3:
            return
    try:
        a, p = partial_fractions(j, poles)
    except DegenerateVariablesError:
        return
    rng = np.random.default_rng(17)
    for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        if min(abs(z - e) for e in poles) < 1e-2:
            continue
        lhs = z ** j / np.prod([e - z for e in poles])
        rhs = sum(a[k] / (poles[k] - z) for k in range(len(poles))) + eval_poly(p, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_partial_fractions_rejects_repeated_poles():
    with pytest.raises(DegenerateVariablesError):
        partial_fractions(1, (2.0, 2.0))


def test_subnormal_pi_row_is_scaled_without_overflow():
    # pi_3(mu) = mu^3 = -3.594e-320j is subnormal: 1 / its modulus
    # overflows, a power of two that scales its row does not
    sys_ = ortho_system(gaussian_weight(), 7)
    mu = 3.3e-107j
    q = RatioQuery(N=3, mus=(mu,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expectation_ratio(q, sys_, None).value
        products = expectation_products(q, sys_).value
    assert abs(got - mu ** 3) <= 1e-3 * abs(mu ** 3)
    assert abs(got - products) <= 1e-3 * abs(products)


def test_telescope_over_a_subnormal_minor():
    # the christoffel minor pi_3(3.3e-107j) is subnormal: dividing by its
    # product with (z - mu) overflows, the ratio of mantissas stays
    # finite.  Exact: (mu_1 mu_2)^3
    sys_ = ortho_system(gaussian_weight(), 7)
    mus = (3.3e-107j, 0.5 + 0.2j)
    q = RatioQuery(N=3, mus=mus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        telescope = expectation_products(q, sys_)
        determinant = expectation_ratio(q, sys_, None).value
    exact = mus[0] ** 3 * mus[1] ** 3
    assert math.isfinite(telescope.abs_error_estimate)
    for value in (telescope.value, determinant):
        assert value != 0 and abs(value - exact) <= 1e-3 * abs(exact)


def test_subnormal_values_carry_a_nonzero_error_estimate():
    # the value 5.1e-321 - 2.33e-321i has about ten significant bits: its
    # relative estimate rounds to 0, and the floor of one ulp keeps it
    sys_ = ortho_system(gaussian_weight(), 7)
    q = RatioQuery(N=3, mus=(3.3e-107j, 0.5 + 0.2j))
    for result in (expectation_ratio(q, sys_, None), expectation_products(q, sys_)):
        assert abs(result.value) < sys.float_info.min
        assert result.abs_error_estimate >= math.ulp(abs(result.value)) > 0


@pytest.mark.parametrize("n_ev", [9, 13, 17, 21])
def test_shifted_gaussian_characteristic_polynomial_is_exact(n_ev):
    # E_N[det(mu - J)] = pi_N(mu) = (mu - c)^N on the shifted gaussian:
    # exact to rounding at any depth, within the reported estimate
    c, mu = 0.7 + 0.4j, 1 + 1j
    sys_ = ortho_system(shifted_gaussian_weight(c), n_ev)
    result = expectation_ratio(RatioQuery(N=n_ev, mus=(mu,)), sys_, None)
    exact = (mu - c) ** n_ev
    err = abs(result.value - exact)
    assert err <= 1e-14 * abs(exact)
    assert err <= result.abs_error_estimate


def test_zero_pi_row_is_refused_by_both_paths():
    # pi_1(0) = 0 on the gaussian: the determinant and the telescope both
    # refuse the zero, which they cannot tell from an underflow
    sys_ = ortho_system(gaussian_weight(), 7)
    q = RatioQuery(N=1, mus=(0j,))
    with pytest.raises(NumericalError):
        expectation_ratio(q, sys_, None)
    with pytest.raises(NumericalError):
        expectation_products(q, sys_)


@pytest.mark.parametrize("n_ev, epsbar", [(8, 25 + 1j), (12, 14 + 3j), (15, 14 + 3j),
                                          (21, 14 + 3j), (21, 25 + 1j)])
def test_error_estimates_read_the_transforms_own_errors(n_ev, epsbar):
    # the shifted gaussian's ratio at ebar is the gaussian's at
    # ebar - conj(c), exactly.  Past the table's disk a row is the far
    # expansion with the orthogonality zeros, which does not cancel, so
    # even the depth-21 cases come within 1e-12
    c = 0.7 + 0.4j
    shifted_sys = ortho_system(shifted_gaussian_weight(c), n_ev)
    gauss_sys = ortho_system(gaussian_weight(), n_ev)
    q = RatioQuery(N=n_ev, epsbars=(epsbar,))
    exact = expectation_ratio(RatioQuery(N=n_ev, epsbars=(epsbar - np.conj(c),)),
                              gauss_sys, cauchy_evaluator(gauss_sys)).value
    cev = cauchy_evaluator(shifted_sys)
    assert cev.method == "quadrature"
    for result in (expectation_ratio(q, shifted_sys, cev),
                   expectation_inverses(q, shifted_sys, cev)):
        observed = abs(result.value - exact)
        assert result.abs_error_estimate >= observed / 20, (observed, result)
        if n_ev == 21:
            assert observed <= 1e-12 * abs(exact), (observed, result)


@pytest.mark.parametrize("which", ["shifted", "gauss"])
def test_determinant_rows_return_the_h_rows_error(which):
    # per h row, its largest transform error over its largest |h|; the
    # worst row, floored at the evaluator's relative error.  The floor
    # binds on the quadrature backend, since the far rows do not cancel;
    # on the series backend the entry of degree 11 in the row at -9 + 2j,
    # the row's largest, carries 4 (11 + 1) eps, above the 1e-14 floor
    weight = shifted_gaussian_weight(0.7 + 0.4j) if which == "shifted" else gaussian_weight()
    sys_ = ortho_system(weight, 12)
    cev = cauchy_evaluator(sys_)
    epsbars, degrees = (15 + 3j, -9 + 2j), range(10, 12)
    matrix, _, h_error = determinant_rows(sys_, cev, epsbars, (1, 1), (), (), degrees)
    rows = [cauchy_row(cev, degrees, eps) for eps in epsbars]
    assert matrix.tolist() == [[res.value for res in row] for row in rows]
    worst = max(max(res.error for res in row) / max(abs(res.value) for res in row)
                for row in rows)
    assert h_error == max(worst, cev.relative_error)
    assert h_error == (cev.relative_error if which == "shifted" else SERIES_ROUNDING * 12)
    assert determinant_rows(sys_, None, (), (), (1.5,), (1,), degrees)[2] == 0.0


def test_inverse_path_without_ebars_needs_no_evaluator(gauss_sys):
    # as on the determinant path, a query with no ebars reads no transform
    res = expectation_inverses(RatioQuery(N=2), gauss_sys, None)
    assert res.value == 1.0 and res.abs_error_estimate == math.ulp(1.0)


@pytest.mark.parametrize("n_ev", [150, 160, 170])
def test_large_n_ratio_keeps_its_digits(n_ev):
    # M = 1 on the gaussian is P(N, |ebar|^2) / ebar^N.  The norm
    # r_(N-1) = pi (N-1)! is e^600 to e^700 here; taken as a mantissa and
    # a power of two it costs one rounding, not that of a logarithm of
    # size 700
    mpmath = pytest.importorskip("mpmath")
    sys_ = ortho_system(gaussian_weight(), n_ev)
    ebar = 0.8 * math.sqrt(n_ev) + 0.3j
    res = expectation_ratio(RatioQuery(N=n_ev, epsbars=(ebar,)), sys_, cauchy_evaluator(sys_))
    with mpmath.workdps(40):
        e = mpmath.mpc(ebar)
        exact = mpmath.gammainc(n_ev, 0, abs(e) ** 2, regularized=True) / e ** n_ev
        observed = float(abs(mpmath.mpc(res.value) - exact))
    assert observed <= 2e-14 * abs(res.value)
    assert observed <= res.abs_error_estimate, (observed, res.abs_error_estimate)
