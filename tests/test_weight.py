import ast
import math
from pathlib import Path

import numpy as np
import pytest

import detratio
from detratio import (MONTE_CARLO, ConstraintError, OracleConfig, WeightSpec,
                      custom_weight, disk_domain, disk_flat_weight,
                      full_plane_domain, gaussian_weight, moment_matrix,
                      oracle_partition)
from detratio.weight import CUSTOM, FAMILIES, closed_moment

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
    dom = full_plane_domain(gauss.domain.cutoff_radius)
    spec = custom_weight(lambda z: np.exp(-np.abs(z) ** 2), dom,
                         rotation_invariant=True)
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
    from detratio.quadrature import star_grid

    def entry(n_r, n_t):
        grid = star_grid(0j, 1.0, n_r, n_t)
        f = grid.nodes ** 2 * np.conj(grid.nodes) ** 2
        return complex(np.sum(f * grid.weights))

    coarse, fine = entry(48, 64), entry(96, 128)
    assert abs(fine - coarse) < 1e-10 * abs(fine)
    assert fine == pytest.approx(PI / 3, rel=1e-12)


def test_moment_matrix_sub_floor_tolerance_raises_convergence_error():
    # refused whatever the two levels happen to round to
    from detratio import ConvergenceError, shifted_gaussian_weight
    with pytest.raises(ConvergenceError):
        moment_matrix(shifted_gaussian_weight(0.4 + 0.3j), 3,
                      method="quadrature", tol=1e-17)


def test_shifted_gaussian_closed_moments(shifted):
    # dense matrix; spot-check one entry against direct quadrature
    closed = moment_matrix(shifted, 2).entries[2, 1]
    quad = moment_matrix(shifted, 2, method="quadrature").entries[2, 1]
    assert closed == pytest.approx(quad, rel=1e-9)
    assert abs(closed) > 0.1  # genuinely non-diagonal


def test_positivity_is_checked():
    dom = full_plane_domain(5.0)
    with pytest.raises(ConstraintError):
        custom_weight(lambda z: np.real(z), dom)


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


def test_shifted_gaussian_has_no_closed_form_error():
    dom = full_plane_domain(6.0)
    spec = custom_weight(lambda z: np.exp(-np.abs(z) ** 2), dom)
    with pytest.raises(ConstraintError):
        moment_matrix(spec, 0, method="closed-form")


@pytest.mark.parametrize("kind", FAMILIES)
def test_family_centre_sampler_and_norm_agree(kind):
    spec = family_weight(kind, amplitude=1.3)
    m00 = closed_moment(spec, 0, 0)
    assert spec.centre == pytest.approx(closed_moment(spec, 1, 0) / m00,
                                        rel=1e-14, abs=1e-15)
    u, v = np.random.default_rng(7).random((2, 20_000))
    z = spec.sample(u, v)
    stderr = math.sqrt((np.var(z.real) + np.var(z.imag)) / z.size)
    assert abs(np.mean(z) - spec.centre) <= 5 * stderr
    # one eigenvalue has |Delta|^2 = 1, so the estimate is the norm itself
    cfg = OracleConfig(method=MONTE_CARLO, samples=1000, seed=1)
    assert oracle_partition(spec, 1, cfg).value == m00.real


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
