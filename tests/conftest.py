import numpy as np
import pytest

from detratio import (cauchy_evaluator, disk_flat_weight, gaussian_weight,
                      ortho_system, shifted_gaussian_weight)
from detratio.weight import FAMILIES

# test variables: disk poles sit outside the unit disk, gaussian poles far
# enough out that the brute-force grids resolve them to ~1e-8
MUS_DISK = (1.7 + 0.4j, -1.2 + 1.5j, 0.5 - 2.2j)
EPS_DISK = (2.0 + 0.3j, -1.8 + 1.1j)
MUS_GAUSS = (1.3 + 0.8j, -0.7 + 1.1j, 0.5 - 2.2j)
EPS_GAUSS = (4.6 + 0.5j, -4.2 + 1.9j)


def family_weight(kind: str, amplitude: float = 1.0):
    """The built-in family ``kind`` at its configuration defaults; a
    required field is set off the origin (complex) or to 0.7 (real)."""
    family = FAMILIES[kind]
    values = {name: default if default is not None
              else 0.4 + 0.3j if value_type is complex else 0.7
              for name, value_type, default in family.fields}
    return family.build(**values, amplitude=amplitude)


def poly_values_on_circle(fn, degree: int, radius: float = 2.0) -> np.ndarray:
    """Recover polynomial coefficients by interpolation at degree+1 nodes.

    Evaluates ``fn`` on scaled roots of unity and solves the Vandermonde
    system; used to confirm monic normalization of deformed polynomials.
    """
    nodes = radius * np.exp(2j * np.pi * np.arange(degree + 1) / (degree + 1))
    values = np.array([fn(z) for z in nodes], dtype=complex)
    vand = np.vander(nodes, degree + 1, increasing=True)
    return np.linalg.solve(vand, values)


@pytest.fixture(scope="session")
def gauss():
    return gaussian_weight()


@pytest.fixture(scope="session")
def disk():
    return disk_flat_weight(1.0)


@pytest.fixture(scope="session")
def shifted():
    return shifted_gaussian_weight(0.4 + 0.3j)


@pytest.fixture(scope="session")
def gauss_sys(gauss):
    return ortho_system(gauss, 8)


@pytest.fixture(scope="session")
def disk_sys(disk):
    return ortho_system(disk, 8)


@pytest.fixture(scope="session")
def gauss_ev(gauss_sys):
    return cauchy_evaluator(gauss_sys)


@pytest.fixture(scope="session")
def disk_ev(disk_sys):
    return cauchy_evaluator(disk_sys)


@pytest.fixture(scope="session")
def gauss_ev_quad(gauss_sys):
    return cauchy_evaluator(gauss_sys, method="quadrature", tolerance=1e-9)


@pytest.fixture(scope="session")
def disk_ev_quad(disk_sys):
    return cauchy_evaluator(disk_sys, method="quadrature", tolerance=1e-9)
