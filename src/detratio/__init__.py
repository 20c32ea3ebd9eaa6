"""Determinant formulas for characteristic-polynomial ratios in
complex-eigenvalue ensembles, with brute-force verification oracles."""

from .cauchy import (CauchyEvaluator, CauchyResult, cauchy_evaluator,
                     cauchy_quadrature, cauchy_row, cauchy_transform_full,
                     series_transform)
from .deformed import (christoffel_poly, christoffel_q, combined_poly,
                       deformed_cauchy, uvarov_poly, uvarov_q)
from .errors import (ConfigError, ConstraintError, ConvergenceError,
                     DegenerateVariablesError, DetratioError, NumericalError,
                     SingularMatrixError)
from .oracle import (MONTE_CARLO, TENSOR_QUADRATURE, OracleConfig,
                     OracleEstimate, deformed_integral, oracle_deformed_op,
                     oracle_expectation, oracle_partition)
from .orthopoly import (MonicPoly, OrthoSystem, Poly, build_ortho_system,
                        bordered_coefficients, eval_poly, ortho_system,
                        orthogonality_residual_matrix, partition_function,
                        poly_derivative)
from .ratios import (Diagnostics, EvalResult, RatioQuery, expectation_inverses,
                     expectation_products, expectation_ratio,
                     partial_fractions)
from .weight import (DomainSpec, MomentMatrix, WeightSpec, custom_weight,
                     disk_domain, disk_flat_weight, full_plane_domain,
                     gaussian_weight, moment_matrix,
                     shifted_gaussian_weight)

__version__ = "0.1.0"
