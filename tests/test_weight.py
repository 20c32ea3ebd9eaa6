import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detratio
from detratio import (MONTE_CARLO, ConstraintError, NumericalError,
                      OracleConfig, RatioQuery, WeightSpec,
                      cauchy_evaluator, custom_weight, disk_domain,
                      disk_flat_weight, expectation_ratio, full_plane_domain,
                      gaussian_weight, moment_matrix, oracle_partition,
                      ortho_system, shifted_gaussian_weight)
from detratio.oracle import _ratio_factor
from detratio.quadrature import adaptive_integral, star_grid
from detratio.weight import (CUSTOM, CUTOFF_ORDER, FAMILIES, MOMENT_TOL, PANEL_NODES,
                             _polar_point, closed_moments, gaussian_cutoff,
                             panel_interpolation, panel_nodes, planar_moments,
                             regularized_gamma_p, row_radius, split_panel,
                             truncation_radius, weighted_grid)

from conftest import family_weight

PI = math.pi


def test_eval_weight_examples(gauss, disk):
    assert gauss.evaluate(0.0) == pytest.approx(1.0)
    assert disk.evaluate(0.5) == pytest.approx(1.0)
    assert disk.evaluate(2.0) == 0


def test_eval_weight_gaussian_profile(gauss):
    assert gauss.evaluate(1 + 1j) == pytest.approx(math.exp(-2.0))


def test_gaussian_moment_22(gauss):
    assert moment_matrix(gauss, 2).entries[2, 2] == pytest.approx(2 * PI, rel=1e-12)
    assert moment_matrix(gauss, 2, method="quadrature").entries[2, 2] \
        == pytest.approx(2 * PI, rel=1e-10)


def test_gaussian_moment_offdiag_vanishes(gauss):
    assert abs(moment_matrix(gauss, 2, method="quadrature").entries[1, 2]) < 1e-12


def test_disk_moments(disk):
    closed = moment_matrix(disk, 4).entries
    quad = moment_matrix(disk, 4, method="quadrature").entries
    assert closed[0, 0] == pytest.approx(PI, rel=1e-14)
    for k in range(5):
        expect = PI / (k + 1)
        assert closed[k, k] == pytest.approx(expect, rel=1e-13)
        assert quad[k, k] == pytest.approx(expect, rel=1e-10)


def test_moment_matrix_examples(gauss, disk):
    m = moment_matrix(gauss, 2)
    assert np.allclose(m.entries, np.diag([PI, PI, 2 * PI]))
    m = moment_matrix(disk, 1)
    assert np.allclose(m.entries, np.diag([PI, PI / 2]))


def test_custom_weight_matches_gaussian(gauss):
    dom = full_plane_domain(gauss.domain.quad_radius)
    spec = custom_weight(lambda z: np.exp(-np.abs(z) ** 2), dom)
    a = moment_matrix(spec, 3).entries
    b = moment_matrix(gauss, 3).entries
    assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b))


@pytest.mark.parametrize("name", ["gauss", "disk", "shifted"])
def test_hermitian_and_cholesky_to_degree_8(name, request):
    spec = request.getfixturevalue(name)
    m = moment_matrix(spec, 8)
    assert np.allclose(m.entries, m.entries.conj().T, rtol=0, atol=1e-13 * np.max(np.abs(m.entries)))
    m.cholesky()  # must succeed


def test_rotation_invariant_offdiagonals(gauss, disk):
    for spec in (gauss, disk):
        m = moment_matrix(spec, 4, method="quadrature").entries
        off = m - np.diag(m.diagonal())
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(m))


def test_moment_scaling_in_amplitude():
    base = gaussian_weight()
    scaled = gaussian_weight(amplitude=3.0)
    closed_base = moment_matrix(base, 3).entries
    closed_scaled = moment_matrix(scaled, 3).entries
    for (j, k) in [(0, 0), (2, 2), (3, 3)]:
        assert closed_scaled[j, k] == pytest.approx(3.0 * closed_base[j, k], rel=1e-14)
    # also through the generic quadrature path
    assert moment_matrix(scaled, 1, method="quadrature").entries[1, 1] == pytest.approx(
        3.0 * moment_matrix(base, 1, method="quadrature").entries[1, 1], rel=1e-12)


def test_quadrature_moments_converge_under_doubling(disk):
    # the adaptive driver only accepts after a doubling changes the entry
    # by less than the tolerance; cross-check one entry by hand
    def entry(n_r, n_t):
        grid = star_grid(0j, 1.0, n_r, n_t)
        f = grid.nodes ** 2 * np.conj(grid.nodes) ** 2
        return complex(np.sum(f * grid.weights))

    coarse, fine = entry(48, 64), entry(96, 128)
    assert abs(fine - coarse) < 1e-10 * abs(fine)
    assert fine == pytest.approx(PI / 3, rel=1e-12)


def test_shifted_gaussian_closed_moments(shifted):
    # about its centre the shifted gaussian is the centred gaussian: the
    # same diagonal, which quadrature on the grid about c reproduces
    closed = moment_matrix(shifted, 4).entries
    quad = moment_matrix(shifted, 4, method="quadrature").entries
    assert np.max(np.abs(closed - quad)) <= 1e-9 * np.max(np.abs(closed))
    for spec in (shifted, shifted_gaussian_weight(0.47 + 1.257j, 1.3, 2.0),
                 shifted_gaussian_weight(0.0, 0.6)):
        for n in (8, 16):
            centred = gaussian_weight(spec.parameters[-1], spec.amplitude)
            assert np.array_equal(closed_moments(spec, n), closed_moments(centred, n))


def test_rotation_invariant_closed_moments_are_the_diagonal_formulas():
    gauss, disk = gaussian_weight(1.7, 1.2), disk_flat_weight(1.3, 0.7)
    diag = {gauss: [1.2 * PI * math.gamma(k + 1) / 1.7 ** (k + 1) for k in range(9)],
            disk: [0.7 * PI * 1.3 ** (2 * k + 2) / (k + 1) for k in range(9)]}
    for spec, values in diag.items():
        assert np.array_equal(closed_moments(spec, 8), np.diag(values))
    custom = custom_weight(lambda z: np.exp(-np.abs(z) ** 2), full_plane_domain(9.0))
    assert closed_moments(custom, 8) is None


class AnisoGaussian:
    """exp(-(a x'^2 + b y'^2)) in coordinates rotated by ``angle``: a
    weight with a dense moment matrix and no closed form."""

    def __init__(self, a: float, b: float, angle: float):
        self.a, self.b = a, b
        self.rot = complex(math.cos(angle), -math.sin(angle))

    def __call__(self, z):
        zr = np.asarray(z, dtype=complex) * self.rot
        return np.exp(-(self.a * zr.real ** 2 + self.b * zr.imag ** 2))


ANISO = custom_weight(AnisoGaussian(0.8, 1.4, 0.6), full_plane_domain(9.0))


def _direct_moments(spec, radius, n_r, n_t, rows, cols, factor=None):
    """sum of zeta^j conj(zeta)^k v over the weighted grid, node by node,
    zeta = z - c about the weight's centre: the reference of
    ``planar_moments``."""
    nodes, v = weighted_grid(spec, radius, n_r, n_t)
    if factor is not None:
        v = v * factor(nodes)
    powers = np.vander(nodes - spec.centre, max(rows, cols), increasing=True).T
    return (powers[:rows] * v) @ powers[:cols].conj().T


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("which", ["aniso", "shifted"])
def test_planar_moments_match_the_direct_sum(request, which, degree):
    spec = ANISO if which == "aniso" else request.getfixturevalue("shifted")
    size, radius = degree + 1, truncation_radius(spec, 2 * degree)
    factor = lambda z: _ratio_factor(z, (1.2 + 0.4j,), (4.6 + 0.5j,))  # noqa: E731
    # the refinement levels, and grids too coarse for the harmonics, where
    # the angular sums alias on both sides alike (odd n_t included); both
    # sides round, by up to 2.4e-15 of the largest entry on these grids
    for n_r, n_t in ((48, 64), (96, 128), (192, 256), (5, 7), (6, 8)):
        for rows, cols, f in ((size, size, None), (size, degree, factor)):
            fast = planar_moments(spec, radius, n_r, n_t, rows, cols, f)
            direct = _direct_moments(spec, radius, n_r, n_t, rows, cols, f)
            assert np.max(np.abs(fast - direct)) <= 5e-15 * np.max(np.abs(direct)), \
                (n_r, n_t, f)
    # moment_matrix refines the same sums on the same grids
    reference, _ = adaptive_integral(
        lambda n_r, n_t: _direct_moments(spec, radius, n_r, n_t, size, size), MOMENT_TOL)
    got = moment_matrix(spec, degree, method="quadrature").entries
    assert np.max(np.abs(got - reference)) <= 5e-15 * np.max(np.abs(reference))


@pytest.mark.parametrize("spec, degree, order", [
    (gaussian_weight(1.0), 171, 171),      # math.gamma(172) overflows
    (gaussian_weight(0.5), 160, 150),      # pi 150! 2^151 overflows
    (disk_flat_weight(2.0), 520, 511),     # 2.0 ** 1024 overflows
    (disk_flat_weight(0.1), 200, 160),     # pi 0.1^322 / 161 underflows to 0
    (shifted_gaussian_weight(3 + 4j, 1.0), 171, 171),   # as the gaussian
], ids=["gamma", "scale", "power", "underflow", "shifted"])
def test_closed_moments_past_the_double_range_name_the_order(spec, degree, order):
    with pytest.raises(NumericalError, match=f"closed-form moment of order {order} "):
        ortho_system(spec, degree)
    assert closed_moments(spec, order - 1) is not None


@pytest.mark.parametrize("centre", [5 + 5j, 10, 20, 30j])
def test_far_off_centre_shifted_gaussians_are_exact(centre):
    # positivity is sampled about the centre, where the weight lives; at
    # the origin exp(-|z - c|^2) underflows to 0 for these centres
    spec = shifted_gaussian_weight(centre)
    sys_ = ortho_system(spec, 8)
    mu = centre + 0.9 - 0.3j
    exact = (mu - centre) ** 8
    value = expectation_ratio(RatioQuery(N=8, mus=(mu,)), sys_, None).value
    assert abs(value - exact) <= 2e-15 * abs(exact)
    # translation invariance: an M = 1 ratio with every variable moved by
    # the centre (ebar by its conjugate) does not depend on the centre
    values = []
    for c, system in ((centre, sys_), (0j, ortho_system(shifted_gaussian_weight(0j), 8))):
        q = RatioQuery(N=3, mus=(c + 0.5 + 0.2j,), epsbars=(np.conj(c) + 4.0 + 6.5j,))
        values.append(expectation_ratio(q, system, cauchy_evaluator(system)).value)
    assert abs(values[0] - values[1]) <= 1e-12 * abs(values[1])


def test_positivity_is_checked():
    dom = full_plane_domain(5.0)
    with pytest.raises(ConstraintError):
        custom_weight(lambda z: np.real(z), dom)


def test_complex_valued_custom_weight_is_refused():
    with pytest.raises(ConstraintError, match="not real-valued"):
        custom_weight(lambda z: np.exp(-np.abs(z) ** 2) * (1 + 1j),
                      full_plane_domain(6.0))


def test_real_custom_weight_in_complex_dtype_is_accepted(gauss):
    # z * conj(z) carries imaginary parts of rounding size only; the suite
    # turns a ComplexWarning into an error, so none may be raised either
    spec = custom_weight(lambda z: np.exp(-z * np.conj(z)), full_plane_domain(9.0))
    z = np.array([0.3 + 0.4j, 1.5 - 0.2j])
    assert spec.evaluate(z) == pytest.approx(gauss.evaluate(z), rel=1e-15)
    assert moment_matrix(spec, 1, method="quadrature").entries[1, 1] == \
        pytest.approx(PI, rel=1e-9)


def test_domain_validation():
    with pytest.raises(ConstraintError):
        disk_flat_weight(radius=-1.0)
    with pytest.raises(ConstraintError):
        full_plane_domain(0.0)
    with pytest.raises(ConstraintError):
        gaussian_weight(scale=-2.0)


def test_moment_index_validation(disk):
    with pytest.raises(ConstraintError):
        moment_matrix(disk, -2)


def test_unknown_moment_method_is_refused(disk):
    # a misspelt method must not fall back to the closed form
    with pytest.raises(ConstraintError, match="quadratur"):
        moment_matrix(disk, 1, method="quadratur")


@pytest.mark.parametrize("spec", [gaussian_weight(), gaussian_weight(scale=0.5),
                                  shifted_gaussian_weight(0.4 + 0.3j)],
                         ids=["gauss", "gauss05", "shifted"])
@pytest.mark.parametrize("n", [10, 12])
def test_quadrature_moments_beyond_max_order_match_closed_form(spec, n):
    # 2n exceeds the cutoff order of 16, so the grid radius is
    # recomputed for order 2n instead of the domain's cutoff
    assert 2 * n > CUTOFF_ORDER
    closed = moment_matrix(spec, n).entries
    quad = moment_matrix(spec, n, method="quadrature").entries
    diag = closed.diagonal().real
    assert np.max(np.abs(quad - closed) / np.sqrt(np.outer(diag, diag))) < 1e-12


@pytest.mark.parametrize("scale", [0.1, 0.5, 0.82, 1.0, 1.4, 2.0, 5.0])
def test_gaussian_cutoff_grows_with_the_order(scale):
    # past the peak of r^(2n+1) exp(-scale r^2) the tail stays below
    # 1e-16 of the radial integral; a bisection bracket that misses the
    # peak returns 1.5 (from order 62 at scale 1)
    previous = 0.0
    for n in range(201):
        radius = gaussian_cutoff(scale, n)
        assert radius > previous, (n, radius, previous)
        previous = radius
        r = radius - 0.5
        assert r >= math.sqrt((2 * n + 1) / (2 * scale)) or r == 1.0
        log_tail = -scale * r * r + (2 * n + 1) * math.log(r)
        log_full = math.lgamma(n + 1) - math.log(2.0) - (n + 1) * math.log(scale)
        assert log_tail - log_full <= math.log(1e-16) + 1e-12, (n, radius)


@pytest.mark.parametrize("spec", [gaussian_weight(), gaussian_weight(scale=0.5),
                                  shifted_gaussian_weight(0.4 + 0.3j, 0.82)],
                         ids=["gauss", "gauss05", "shifted"])
def test_row_radius_grows_with_the_depth_and_meets_the_domain_at_32(spec):
    # degrees 2k - 1 and 2k share the cutoff of order k; depth 32 takes
    # the domain's order, CUTOFF_ORDER, and a deeper system a wider disk
    scale, domain = spec.parameters[-1], truncation_radius(spec, 0)
    radii = [row_radius(spec, d) for d in range(41)]
    assert radii[0] == gaussian_cutoff(scale, 0)
    for d in range(1, 41):
        assert radii[d] == gaussian_cutoff(scale, (d + 1) // 2)
        assert (radii[d] > radii[d - 1]) == (d % 2 == 1), d
    assert 2 * CUTOFF_ORDER == 32
    assert radii[32] == gaussian_cutoff(scale, CUTOFF_ORDER)
    # the domain adds |c| to the cutoff and takes it off again
    assert radii[32] == pytest.approx(domain, rel=4 * np.finfo(float).eps)
    assert max(radii[:31]) < domain < min(radii[33:])
    # on the rows' circle the weight is below 1e-16 of its peak
    for radius in radii:
        assert spec.evaluate(spec.centre + radius) < 1e-16 * spec.evaluate(spec.centre)


def test_row_radius_of_a_disk_or_custom_weight_is_its_domain():
    custom = custom_weight(lambda z: np.exp(-np.abs(z - 1.0)), full_plane_domain(40.0))
    for spec in (disk_flat_weight(1.5), custom):
        assert {row_radius(spec, d) for d in range(41)} == {truncation_radius(spec, 0)}


def test_rotation_invariance_comes_from_the_family():
    radial = custom_weight(lambda z: np.exp(-np.abs(z) ** 2), full_plane_domain(6.0))
    assert gaussian_weight().rotation_invariant
    assert disk_flat_weight(1.5).rotation_invariant
    assert not shifted_gaussian_weight(0.0).rotation_invariant
    # a custom weight takes the quadrature backend even when it is radial
    assert not radial.rotation_invariant
    assert cauchy_evaluator(ortho_system(radial, 2)).method == "quadrature"


@pytest.mark.parametrize("kind", FAMILIES)
def test_family_centre_sampler_and_norm_agree(kind):
    spec = family_weight(kind, amplitude=1.3)
    # the centre is the weight's mean: its first moment about it vanishes,
    # and the mean of w over the grid about the origin finds it
    moments = closed_moments(spec, 1)
    m00 = moments[0, 0]
    assert moments[1, 0] == 0
    grid = star_grid(0j, spec.domain.quad_radius, 96, 128)
    v = spec.evaluate(grid.nodes) * grid.weights
    assert np.sum(grid.nodes * v) / np.sum(v) == pytest.approx(spec.centre, abs=1e-14)
    u, v = np.random.default_rng(7).random((2, 20_000))
    z = spec.sample(u, v)
    stderr = math.sqrt((np.var(z.real) + np.var(z.imag)) / z.size)
    assert abs(np.mean(z) - spec.centre) <= 5 * stderr
    # one eigenvalue has |Delta|^2 = 1, so the estimate is the norm itself
    cfg = OracleConfig(method=MONTE_CARLO, samples=1000, seed=1)
    assert oracle_partition(spec, 1, cfg).value == m00.real


# angles at the ends of [0, 1) and at the quarter turns; at 0, 1/2 and
# the ends the half angle's tangent is 0 or beyond 1e15 in magnitude
EDGE_ANGLES = [0.0, 2.0 ** -53, 0.25, 0.5 - 2.0 ** -53, 0.5, 0.75, 1 - 2.0 ** -53]


def test_half_angle_unit_vector_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    v = np.concatenate([np.random.default_rng(17).random(2000), EDGE_ANGLES])
    got = _polar_point(1.0, v)
    with mpmath.workprec(113):
        err = max(float(abs(mpmath.expjpi(2 * mpmath.mpf(x)) - mpmath.mpc(g)))
                  for x, g in zip(v, got))
    assert err <= 1e-15


def test_incomplete_gamma_matches_mpmath():
    # both branches, the switch at x = a + 1, e^-x near and past underflow
    mpmath = pytest.importorskip("mpmath")
    errors = []
    with mpmath.workprec(113):
        for a in range(1, 21):
            edge = [math.nextafter(a + 1, 0), a + 1, math.nextafter(a + 1, math.inf)]
            for x in [*np.logspace(-8, 3, 111), *edge, 745.0, 1e200, math.inf]:
                ref = mpmath.gammainc(a, 0, mpmath.mpf(x), regularized=True)
                got = regularized_gamma_p(a, float(x))
                errors.append(float(abs(got - ref) / ref))
    assert np.max(errors) <= 2e-15  # a NaN fails too


def test_incomplete_gamma_for_large_a_past_the_underflow_of_e_to_the_minus_x():
    # once e^-x is subnormal (x > 708) Q(a, x) has not underflowed for
    # large a: P(700, 770) and P(1000, 1001.01) used to read exactly 1.0.
    # The reference is mpmath at 40 digits: scipy's gammainc is itself off
    # by up to 1.35e-12 relative at a = 1000 (x near 300)
    mpmath = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    for a, x in [(700, 770.0), (1000, 1001.01)]:
        assert regularized_gamma_p(a, x) == pytest.approx(special.gammainc(a, x),
                                                          rel=1e-12, abs=0)
    errors = []
    with mpmath.workdps(40):
        for a in (1, 50, 171, 400, 700, 1000):
            for x in np.geomspace(1e-3, 5 * a + 50, 120):
                ref = mpmath.gammainc(a, 0, mpmath.mpf(float(x)), regularized=True)
                if ref > 2.3e-308:   # a subnormal P has too few bits to compare
                    errors.append(float(abs(regularized_gamma_p(a, float(x)) - ref)
                                        / ref))
    assert np.max(errors) <= 1e-12


# inverse CDF of each family's radial distribution
SAMPLE_RADIUS = {
    "gaussian": lambda p, u: np.sqrt(-np.log1p(-u) / p[0]),
    "disk-flat": lambda p, u: p[0] * np.sqrt(u),
    "shifted-gaussian": lambda p, u: np.sqrt(-np.log1p(-u) / p[2]),
}


@pytest.mark.parametrize("kind", FAMILIES)
def test_sampler_matches_complex_exponential(kind):
    spec = family_weight(kind)
    rng = np.random.default_rng(19)
    u = rng.random(2000 + len(EDGE_ANGLES))
    v = np.concatenate([rng.random(2000), EDGE_ANGLES])
    r = SAMPLE_RADIUS[kind](spec.parameters, u)
    c = spec.centre
    expected = c + r * np.exp(2j * np.pi * v)
    assert np.all(np.abs(spec.sample(u, v) - expected) <= 4e-15 * (abs(c) + r))


def test_unknown_weight_kind_is_refused():
    with pytest.raises(ConstraintError, match="unknown weight kind"):
        WeightSpec(kind="parabolic", parameters=(), domain=disk_domain(1.0))


def test_no_other_module_names_a_weight_kind():
    # the families are defined in weight.py alone: a kind named anywhere
    # else is knowledge of a family kept outside its table
    kinds = set(FAMILIES) | {CUSTOM}
    found = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        if path.name == "weight.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value in kinds:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found


def test_origin_grids_are_built_in_one_place():
    # every planar integral over a weight's own disk takes its nodes and
    # weighted values from weight.weighted_grid; a star_grid call anywhere
    # else is a second copy of that builder.  Cauchy rows read the
    # harmonic table that weight.py builds, so cauchy.py builds no grid,
    # and a split row interpolates the table's harmonics: cauchy.py takes
    # no rings of its own, nor the windows of the fresh-ring split
    path = Path(detratio.__file__).parent / "cauchy.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"ring_harmonics", "panel_nodes", "sliding_window_view"}
    callers, cauchy_grids = [], []
    builders = ("star_grid", "weighted_grid", "cauchy_kernel_grid")
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                called = (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                if "star_grid" in called:
                    callers.append((path.name, getattr(top, "name", None), node.lineno))
                if path.name == "cauchy.py" and set(called) & set(builders):
                    cauchy_grids.append((getattr(top, "name", None), node.lineno))
    assert [caller[:2] for caller in callers] == [("weight.py", "weighted_grid")], callers
    assert not cauchy_grids


def test_one_disk_per_weight():
    # moments, oracles and residuals integrate a weight on the disk of
    # truncation_radius about its centre, Cauchy rows on that of
    # row_radius: a module outside weight.py that reads the domain's
    # radius about the origin or calls gaussian_cutoff, or a
    # weighted_grid that takes another centre, is a second disk
    assert list(inspect.signature(weighted_grid).parameters) == \
        ["spec", "radius", "n_r", "n_t"]
    found = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        if path.name == "weight.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "quad_radius":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and "gaussian_cutoff" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno}: gaussian_cutoff")
    assert not found


def test_planar_power_tables_are_summed_in_one_place():
    # sums of z^j zbar^k over the nodes go through weight.planar_moments,
    # which takes no power of the nodes; a table of node powers, one row
    # per exponent (``nodes ** j`` or ``z ** j`` in a loop or
    # comprehension over j, or np.vander), is a second, slower copy of it
    node_names = {"nodes", "z", "zbar"}

    def is_node_array(node) -> bool:
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "conj":
            node = node.args[0] if node.args else node
        return getattr(node, "id", None) in node_names \
            or getattr(node, "attr", None) in node_names

    sites = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for loop in ast.walk(top):
                if isinstance(loop, ast.comprehension):
                    targets, scope = loop.target, top
                elif isinstance(loop, ast.For):
                    targets, scope = loop.target, loop
                else:
                    continue
                names = {n.id for n in ast.walk(targets) if isinstance(n, ast.Name)}
                sites += [(path.name, getattr(top, "name", None)) for node in ast.walk(scope)
                          if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                          and is_node_array(node.left)
                          and {n.id for n in ast.walk(node.right)
                               if isinstance(n, ast.Name)} & names]
            sites += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and "vander" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))]
    assert set(sites) <= {("weight.py", "planar_moments")}, sites


def test_panel_interpolation_reproduces_polynomials_of_the_panel_degree():
    # 16 nodes interpolate degree 15 exactly, up to rounding, anywhere in
    # the panel: here on [1.3, 1.7], in the panel's coordinate
    rng = np.random.default_rng(5)
    poly = np.polynomial.Polynomial(rng.standard_normal(PANEL_NODES)
                                    + 1j * rng.standard_normal(PANEL_NODES), domain=[1.3, 1.7])
    assert poly.degree() == 15
    nodes, _ = panel_nodes(np.array([1.3, 1.7]))
    unit = np.concatenate([rng.random(200), [0.0, 1.0]])
    exact = poly(1.3 + 0.4 * unit)
    assert np.max(np.abs(panel_interpolation(unit) @ poly(nodes) - exact)) \
        <= 1e-14 * np.max(np.abs(exact))


def test_panel_interpolation_returns_a_nodes_value_on_the_node():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((PANEL_NODES, 3)) + 1j * rng.standard_normal((PANEL_NODES, 3))
    x = split_panel(0.0)[0][PANEL_NODES:]      # cut at 0: the nodes themselves
    picks = [3, 0, 15, 7]
    interpolated = panel_interpolation(np.concatenate([x[picks], [0.5, 0.123]])) @ values
    assert interpolated[:4].tolist() == values[picks].tolist()
    assert np.all(np.isfinite(interpolated))


@pytest.mark.parametrize("cut", [0.0, 0.3, 1.0])
def test_split_panel_holds_a_rule_on_each_side_of_the_cut(cut):
    unit, weights = split_panel(cut)
    assert np.all(unit[:PANEL_NODES] <= cut) and np.all(unit[PANEL_NODES:] >= cut)
    for k in range(2 * PANEL_NODES):     # each side exact to degree 31
        assert weights[:PANEL_NODES] @ unit[:PANEL_NODES] ** k \
            == pytest.approx(cut ** (k + 1) / (k + 1), rel=1e-14, abs=1e-300)
        assert weights @ unit ** k == pytest.approx(1 / (k + 1), rel=1e-14)


def test_importing_the_package_builds_no_gauss_legendre_rule():
    # the panel rule and its barycentric weights are built by the first
    # harmonic table, not on import
    code = ("import numpy.polynomial.legendre as legendre\n"
            "built, rule = [], legendre.leggauss\n"
            "legendre.leggauss = lambda n: built.append(n) or rule(n)\n"
            "import detratio, detratio.cli\n"
            "from detratio.weight import _barycentric_weights\n"
            "print(built, _barycentric_weights.cache_info().currsize)")
    src = str(Path(__file__).parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["[]", "0"]
