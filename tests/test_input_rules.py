"""Each input rule of the library is checked by one function.

The variable list by ``deformed.canonical_variables``, the degree range
of a deformed formula by ``deformed._bordered_matrix``, a polynomial
degree by ``OrthoSystem.poly``, a pole by ``cauchy._check_pole``, a
tolerance by ``quadrature.require_certifiable`` and the eigenvalue count
by ``orthopoly.require_eigenvalue_count``; every integer input takes the
test ``errors.is_integer``.  The behavioural tests
send the same malformed inputs down every path; the AST guards keep the
copies of a check from coming back.  ``REFUSALS`` reaches each remaining
refusal of the public API once.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import detratio
from detratio import (ConstraintError, DegenerateVariablesError, MomentMatrix,
                      NumericalError, OracleConfig, RatioQuery, bordered_coefficients,
                      cauchy_evaluator, cauchy_row, christoffel_poly, christoffel_q,
                      combined_poly, custom_weight, deformed_cauchy, disk_domain,
                      gaussian_weight, moment_matrix, oracle_deformed_op,
                      oracle_partition, ortho_system, partial_fractions,
                      partition_function, poly_derivative, shifted_gaussian_weight,
                      uvarov_poly, uvarov_q)
from detratio.weight import radial_mass

# each formula as f(sys, cev, mus, epsbars, n); the christoffel formulas
# take no inverse factors and no evaluator
FORMULAS = {
    "christoffel_q": lambda s, ev, mus, eps, n: christoffel_q(s, mus, n, 0.3),
    "christoffel_poly": lambda s, ev, mus, eps, n: christoffel_poly(s, mus, n, 0.3),
    "christoffel_poly-multiplicities": lambda s, ev, mus, eps, n:
        christoffel_poly(s, mus, n, 0.3, multiplicities=(1,) * len(mus)),
    "uvarov_q": lambda s, ev, mus, eps, n: uvarov_q(s, ev, eps, n, 0.3),
    "uvarov_poly": lambda s, ev, mus, eps, n: uvarov_poly(s, ev, eps, n, 0.3),
    "combined_poly": lambda s, ev, mus, eps, n:
        combined_poly(s, ev, mus, eps, n, 0.3),
    "deformed_cauchy": lambda s, ev, mus, eps, n:
        deformed_cauchy(s, ev, eps, n, 3.0 + 1j),
}
INVERSE = ("uvarov_q", "uvarov_poly", "combined_poly", "deformed_cauchy")
MULTIPLIED = ("christoffel_q", "christoffel_poly", "christoffel_poly-multiplicities",
              "combined_poly")

# (case, formulas, mus, epsbars, n, foreign evaluator, exception, message)
CASES = [
    ("near-coincident mus", MULTIPLIED, (1.5, 1.5 + 1e-10), (), 2, False,
     DegenerateVariablesError, "mus contains variables closer than"),
    ("equal mus", MULTIPLIED, (1.5, 1.5), (), 2, False,
     DegenerateVariablesError, "mus contains variables closer than"),
    ("near-coincident epsbars", INVERSE, (), (2.0, 2.0 + 1e-10), 2, False,
     DegenerateVariablesError, "epsbars contains variables closer than"),
    ("more inverse factors than the degree", INVERSE, (), (2.0, 3.0), 1, False,
     ConstraintError, r"of degree 1 needs 0 <= M <= n .* M = 2 inverse"),
    ("negative degree", tuple(FORMULAS), (), (), -1, False,
     ConstraintError, r"of degree -1 needs 0 <= M <= n"),
    ("too deep a system", tuple(FORMULAS), (), (), 9, False,
     ConstraintError, r"of degree 9 needs .* n \+ L <= 8"),
    ("too deep with factors", MULTIPLIED, (1.5, 2.5), (), 7, False,
     ConstraintError, r"of degree 7 needs .* L = 2 multiplied"),
    ("evaluator of another system", INVERSE, (), (2.0,), 2, True,
     ConstraintError, "another orthogonal system"),
]


@pytest.mark.parametrize("formula,mus,epsbars,n,foreign,exc,message", [
    pytest.param(name, mus, epsbars, n, foreign, exc, message, id=f"{case}-{name}")
    for case, names, mus, epsbars, n, foreign, exc, message in CASES
    for name in names])
def test_deformed_formulas_refuse_malformed_inputs_alike(
        disk_sys, disk_ev, gauss_ev, formula, mus, epsbars, n, foreign, exc, message):
    ev = gauss_ev if foreign else disk_ev
    with pytest.raises(ConstraintError, match=message) as info:
        FORMULAS[formula](disk_sys, ev, mus, epsbars, n)
    assert type(info.value) is exc


@pytest.mark.parametrize("mults", [(1.5,), (True,), (0,), (1, 1), ("2",)],
                         ids=["fraction", "bool", "zero", "two-for-one", "string"])
def test_multiplicities_are_integers_one_per_variable(disk_sys, mults):
    # a fractional or bool multiplicity used to be truncated by int()
    with pytest.raises(ConstraintError, match="integer multiplicity >= 1"):
        RatioQuery(N=3, mus=(1.0,), mu_multiplicities=mults)
    with pytest.raises(ConstraintError, match="integer multiplicity >= 1"):
        RatioQuery(N=3, epsbars=(2.0,), eps_multiplicities=mults)
    with pytest.raises(ConstraintError, match="integer multiplicity >= 1"):
        christoffel_poly(disk_sys, (1.5,), 2, 0.3, multiplicities=mults)


def test_numpy_integer_multiplicities_accepted():
    q = RatioQuery(N=3, mus=(1.7,), mu_multiplicities=(np.int64(2),))
    assert q.mu_multiplicities == (2,) and type(q.mu_multiplicities[0]) is int


@pytest.mark.parametrize("n", [2.5, True, 0, -1, "3", 3.0],
                         ids=["fraction", "bool", "zero", "negative", "string", "float"])
def test_eigenvalue_count_is_an_integer(disk, disk_sys, n):
    # N = 2.5 used to raise a bare TypeError and N = True to evaluate as N = 1
    message = "the eigenvalue count N must be an integer >= 1"
    with pytest.raises(ConstraintError, match=message):
        RatioQuery(N=n, epsbars=(2.0,))
    with pytest.raises(ConstraintError, match=message):
        partition_function(disk_sys, n)
    with pytest.raises(ConstraintError, match=message):
        oracle_partition(disk, n, OracleConfig())


def test_numpy_integer_eigenvalue_count_accepted(disk_sys):
    q = RatioQuery(N=np.int64(2), epsbars=(2.0,))
    assert q.N == 2 and type(q.N) is int
    assert partition_function(disk_sys, np.int64(2)) == partition_function(disk_sys, 2)


@pytest.mark.parametrize("method", ["rotinv-series", "quadrature"])
def test_transform_degree_outside_the_system_refused(disk_sys, method):
    ev = cauchy_evaluator(disk_sys, method=method)
    for n in (-1, 9):
        with pytest.raises(ConstraintError, match=f"degree {n} is outside 0..8"):
            cauchy_row(ev, (0, n), 5.0)
        with pytest.raises(ConstraintError, match=f"degree {n} is outside 0..8"):
            disk_sys.poly(n)
    assert not ev._memo


def _name(node) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _sites(matches) -> list:
    """(module, function) of every AST node of src for which ``matches``
    holds; a method counts under its own name."""
    sites = []
    for path in sorted(Path(detratio.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                sites += [(path.name, getattr(fn, "name", None))
                          for node in ast.walk(fn) if matches(node)]
    return sites


def test_each_input_rule_is_checked_in_one_place():
    # the variable-list rule, and deformed_cauchy's evaluation point
    assert _sites(lambda node: isinstance(node, ast.Call)
                  and _name(node.func) == "check_nondegenerate") == [
        ("deformed.py", "canonical_variables"), ("deformed.py", "deformed_cauchy")]
    # the rounding floor
    assert _sites(lambda node: isinstance(node, ast.Compare) and "ROUNDING_FLOOR"
                  in {_name(n) for n in ast.walk(node)}) == [
        ("quadrature.py", "require_certifiable")]
    # the pole rule, the one reader of the effective support in cauchy.py
    assert [site for site in _sites(lambda node: _name(node) == "effective_support_radius")
            if site[0] == "cauchy.py"] == [("cauchy.py", "_check_pole")]
    # the eigenvalue count, and the integer test of every integer input
    assert _sites(lambda node: isinstance(node, ast.Call)
                  and _name(node.func) == "require_eigenvalue_count") == [
        ("orthopoly.py", "partition_function"), ("ratios.py", "__post_init__")]
    assert _sites(lambda node: _name(node) == "Integral") == [("errors.py", "is_integer")]


def test_determinants_are_taken_in_one_place():
    # every determinant of the formulas goes through scaled_lu_det, the one
    # caller of the elimination kernel; numpy's determinant serves only
    # the two independent constructions, the Andreief tensor oracle and
    # the bordered moment minors
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and _name(node.func) == name

    assert _sites(calls("lu_det")) == [("determinants.py", "scaled_lu_det")]
    assert set(_sites(calls("det"))) == {("oracle.py", "_tensor_sums"),
                                         ("orthopoly.py", "bordered_coefficients")}



def _lopsided_moments():
    entries = moment_matrix(gaussian_weight(), 2).entries.copy()
    entries[0, 1] = 0.5
    return MomentMatrix(2, entries)


SHIFTED = shifted_gaussian_weight(0.4 + 0.3j)
FLAT_CUSTOM = custom_weight(lambda z: np.ones_like(z, dtype=float), disk_domain(1.0))

# each refusal a library caller can reach outside the formulas above
REFUSALS = [
    pytest.param(lambda: cauchy_row(cauchy_evaluator(ortho_system(SHIFTED, 3)), (0, 1),
                                    5.0, order=-1),
                 ConstraintError, "derivative order must be non-negative",
                 id="cauchy_row-order"),
    pytest.param(lambda: cauchy_evaluator(ortho_system(SHIFTED, 3), method="spline"),
                 ConstraintError, "unknown Cauchy method 'spline'", id="cauchy-method"),
    pytest.param(lambda: cauchy_evaluator(ortho_system(SHIFTED, 3), method="rotinv-series"),
                 ConstraintError, "the series backend requires a rotation-invariant weight",
                 id="series-off-centre"),
    pytest.param(lambda: poly_derivative(ortho_system(SHIFTED, 3).poly(2), -1),
                 ConstraintError, "derivative order must be non-negative",
                 id="poly_derivative-order"),
    pytest.param(lambda: bordered_coefficients(moment_matrix(gaussian_weight(), 2), 3),
                 ConstraintError, "degree exceeds moment matrix order",
                 id="bordered_coefficients-degree"),
    pytest.param(lambda: partial_fractions(-1, (2.0,)),
                 ConstraintError, "the monomial power must be non-negative",
                 id="partial_fractions-power"),
    pytest.param(lambda: oracle_deformed_op(SHIFTED, (), (), -1),
                 ConstraintError, "polynomial degree must be non-negative",
                 id="oracle_deformed_op-negative"),
    pytest.param(lambda: oracle_deformed_op(SHIFTED, (), (), 5),
                 ConstraintError, "the deformed-measure solver is desk-scale: n <= 4",
                 id="oracle_deformed_op-deep"),
    pytest.param(lambda: gaussian_weight(amplitude=0.0),
                 ConstraintError, "weight amplitude must be positive", id="amplitude"),
    pytest.param(lambda: FLAT_CUSTOM.sample(np.zeros(2), np.zeros(2)),
                 ConstraintError, "no Monte Carlo sampler for weight kind",
                 id="custom-sampler"),
    pytest.param(lambda: radial_mass(SHIFTED, 1, 2.0),
                 ConstraintError, "radial mass is defined for rotation-invariant weights",
                 id="radial_mass-off-centre"),
    pytest.param(_lopsided_moments, NumericalError, "moment matrix is not Hermitian",
                 id="moments-not-hermitian"),
]


@pytest.mark.parametrize("call, exc, message", REFUSALS)
def test_library_refusals_name_their_rule(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and message in str(info.value)


def test_deformed_op_of_degree_zero_is_one_about_the_centre():
    op = oracle_deformed_op(SHIFTED, (1.5,), (3.0,), 0)
    assert op.coeffs == (1.0 + 0j,) and op.centre == SHIFTED.centre
