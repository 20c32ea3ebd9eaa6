"""Command-line front end.

Subcommands:

* ``ortho``   construct the orthogonal system and report coefficients,
              norms and the quadrature orthogonality residuals;
* ``eval``    evaluate the ratio expectation for the configured query,
              with the telescope cross-check where one applies;
* ``verify``  sweep a grid of (N, L, M) cases comparing the determinant
              formula against the configured oracle (``oracle.method``;
              unset, tensor quadrature for N <= 2 and Monte Carlo above);
              a case that fails or is refused fails, and the sweep goes on;
* ``scan``    sweep one variable over a grid and tabulate the values.

Exit codes: 0 success (verify: all cases pass), 1 verification failure,
2 configuration error, 3 numerical failure, 4 constraint violation.
Reports are deterministic for a fixed config and seed: floats are
rounded to 17 significant digits and keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

from .cauchy import cauchy_evaluator
from .config import (RunConfig, build_oracle_config, build_query, build_weight,
                     complex_out, load_config)
from .errors import (ConfigError, ConstraintError, DetratioError,
                     NumericalError)
from .oracle import MONTE_CARLO, TENSOR_QUADRATURE, oracle_expectation
from .orthopoly import ortho_system, orthogonality_residual_matrix
from .quadrature import ROUNDING_FLOOR
from .ratios import (expectation_inverses, expectation_products,
                     expectation_ratio)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONSTRAINT = 4


def _round17(obj):
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _round17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round17(v) for v in obj]
    return obj


def _complex_dict(c: complex) -> dict:
    return {"re": float(c.real), "im": float(c.imag)}


def _emit(rc: RunConfig, report: dict, header=(), rows=()) -> None:
    """Write ``report`` as JSON, or ``header`` and ``rows`` as CSV, to the
    configured path or stdout."""
    if rc.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_round17(report), indent=2, sort_keys=True)
    if rc.output_path:
        try:
            with open(rc.output_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {rc.output_path}: "
                              f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _build(rc: RunConfig):
    weight = build_weight(rc)
    system = ortho_system(weight, rc.max_degree)
    return weight, system, cauchy_evaluator(system, tolerance=rc.tolerance)


def cmd_ortho(rc: RunConfig) -> int:
    system = ortho_system(build_weight(rc), rc.max_degree)
    residuals = orthogonality_residual_matrix(system)
    _emit(rc, {
        "command": "ortho",
        "weight": {"kind": rc.weight_kind},
        "max_degree": rc.max_degree,
        "norms": list(system.norms),
        "polynomials": [[list(complex_out(c)) for c in row[:d + 1]]
                        for d, row in enumerate(system.coeffs)],
        "conditioning": system.conditioning,
        "orthogonality_residual_matrix": residuals.tolist(),
        "orthogonality_residual_max": float(residuals.max()),
    })
    return EXIT_OK


def cmd_eval(rc: RunConfig) -> int:
    query = build_query(rc)
    _, system, cev = _build(rc)
    result = expectation_ratio(query, system, cev)
    checks = []
    if not query.is_confluent and (query.L_total == 0) != (query.M_total == 0):
        if query.M_total == 0:
            path, other = "telescope-products", expectation_products(query, system)
        else:
            path, other = "telescope-inverses", expectation_inverses(query, system, cev)
        checks.append({"path": path, "value": _complex_dict(other.value),
                       "abs_delta": abs(other.value - result.value)})
    report = {
        "command": "eval",
        "query": {"N": query.N, "mus": [complex_out(v) for v in query.mus],
                  "epsbars": [complex_out(v) for v in query.epsbars],
                  "mu_multiplicities": list(query.mu_multiplicities),
                  "eps_multiplicities": list(query.eps_multiplicities)},
        "value": _complex_dict(result.value),
        "abs_error_estimate": result.abs_error_estimate,
        "diagnostics": {
            "det_conditioning": result.diagnostics.det_conditioning,
            "backend": result.diagnostics.backend,
            "warnings": list(result.diagnostics.warnings),
        },
        "path_checks": checks,
    }
    _emit(rc, report, ["N", "L", "M", "value_re", "value_im", "abs_error_estimate"],
          [[query.N, query.L_total, query.M_total, result.value.real,
            result.value.imag, result.abs_error_estimate]])
    return EXIT_OK


def cmd_verify(rc: RunConfig) -> int:
    verify = rc.verify
    weight, system, cev = _build(rc)
    cases = []
    failed = []
    for query in verify.queries():
        name = f"N={query.N} L={query.L_total} M={query.M_total}"
        case = {"case": name, "N": query.N, "L": query.L_total, "M": query.M_total}
        formula = None
        try:
            formula = expectation_ratio(query, system, cev).value
            est = oracle_expectation(query, weight, rc.oracle)
        except (NumericalError, ConstraintError) as exc:
            refused = isinstance(exc, ConstraintError)
            if refused and formula is None:
                raise    # the formula's own refusal keeps its exit code
            status = ("formula-error" if formula is None
                      else "oracle-refused" if refused else "oracle-error")
            case.update({"status": status, "message": str(exc), "passed": False})
            cases.append(case)
            failed.append(name)
            continue
        dev = abs(formula - est.value)
        ref = max(abs(est.value), 1e-300)
        if est.method == TENSOR_QUADRATURE:
            passed = dev / ref <= verify.tolerance
            criterion = f"rel <= {verify.tolerance:g}"
        else:
            # 3 sigma, plus a rounding floor: an oracle sum whose
            # spread is a few ulps cannot tell ulps of deviation.
            floor = ROUNDING_FLOOR * max(abs(formula), abs(est.value))
            passed = dev <= 3.0 * est.stderr + floor
            criterion = (f"dev <= 3*stderr + {ROUNDING_FLOOR:.2e}"
                         "*max(|formula|, |oracle|)")
        case.update({
            "method": est.method,
            "formula": _complex_dict(formula),
            "oracle": _complex_dict(est.value),
            "oracle_stderr": est.stderr,
            "abs_deviation": dev,
            "rel_deviation": dev / ref,
            "criterion": criterion,
            "passed": bool(passed),
            "seed": rc.oracle.seed,
            "samples": rc.oracle.samples_drawn if est.method == MONTE_CARLO else None,
        })
        cases.append(case)
        if not passed:
            failed.append(name)

    _emit(rc, {
        "command": "verify",
        "weight": {"kind": rc.weight_kind},
        "tolerance": verify.tolerance,
        "cases": cases,
        "summary": {"total": len(cases), "passed": len(cases) - len(failed),
                    "failing_cases": failed},
    })
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_scan(rc: RunConfig) -> int:
    scan = rc.scan
    if scan is None:
        raise ConfigError("scan: block is missing")
    base = build_query(rc)
    _, system, cev = _build(rc)
    rows = []
    for v in scan.values:
        row = {"axis_re": v.real, "axis_im": v.imag}
        try:
            res = expectation_ratio(scan.query_at(base, v), system, cev)
            row.update({"value_re": res.value.real, "value_im": res.value.imag,
                        "abs_error_estimate": res.abs_error_estimate,
                        "status": "ok"})
        except DetratioError as exc:
            row.update({"value_re": "", "value_im": "",
                        "abs_error_estimate": "", "status": f"error: {exc}"})
        rows.append(row)

    header = ["axis_re", "axis_im", "value_re", "value_im",
              "abs_error_estimate", "status"]
    _emit(rc, {"command": "scan", "axis": scan.axis, "rows": rows},
          header, [[row[k] for k in header] for row in rows])
    return EXIT_OK


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detratio",
        description="Determinant formulas for characteristic-polynomial "
                    "ratios in complex-eigenvalue ensembles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, csv_ok in (("ortho", cmd_ortho, False), ("eval", cmd_eval, True),
                             ("verify", cmd_verify, False), ("scan", cmd_scan, True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the oracle seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="override the output format")
        p.add_argument("--tolerance", type=_positive_float, default=None,
                       help="override verify.tolerance for verify, the top-level "
                            "Cauchy-transform tolerance for the other commands")
        p.set_defaults(handler=fn, csv_ok=csv_ok)
    return parser


def _apply_flags(rc: RunConfig, args) -> RunConfig:
    """The run config with the command-line overrides applied."""
    rc = replace(rc, output_format=args.format or rc.output_format,
                 output_path=args.out or rc.output_path,
                 oracle=build_oracle_config(rc, seed=args.seed))
    if args.tolerance is None:
        return rc
    if args.command == "verify":
        return replace(rc, verify=replace(rc.verify, tolerance=args.tolerance))
    return replace(rc, tolerance=args.tolerance)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _apply_flags(load_config(args.config), args)
        if rc.output_format == "csv" and not args.csv_ok:
            raise ConfigError(f"{args.command} reports are JSON only")
        return args.handler(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
