"""Command-line front end.

Subcommands:

* ``ortho``   construct the orthogonal system and report coefficients,
              norms and the quadrature orthogonality residuals;
* ``eval``    evaluate the ratio expectation for the configured query,
              with the telescope cross-checks where they apply;
* ``verify``  sweep a grid of (N, L, M) cases comparing the determinant
              formula against the configured oracle;
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
import re
import sys

from .cauchy import cauchy_evaluator
from .config import (RunConfig, build_oracle_config, build_query, build_weight,
                     complex_out, load_config)
from .errors import (ConfigError, ConstraintError, DetratioError,
                     NumericalError)
from .oracle import MONTE_CARLO, TENSOR_QUADRATURE, oracle_expectation
from .orthopoly import ortho_system, orthogonality_residual_matrix
from .quadrature import ROUNDING_FLOOR
from .ratios import (RatioQuery, expectation_inverses, expectation_products,
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


def _write_output(text: str, path) -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(report: dict, path) -> None:
    _write_output(json.dumps(_round17(report), indent=2, sort_keys=True), path)


def cmd_ortho(rc: RunConfig, args) -> int:
    weight = build_weight(rc)
    system = ortho_system(weight, rc.max_degree)
    residuals = orthogonality_residual_matrix(system)
    report = {
        "command": "ortho",
        "weight": {"kind": rc.weight_kind},
        "max_degree": rc.max_degree,
        "norms": list(system.norms),
        "polynomials": [[list(complex_out(c)) for c in p.coeffs]
                        for p in system.polys],
        "conditioning": system.conditioning,
        "orthogonality_residual_matrix": residuals.tolist(),
        "orthogonality_residual_max": float(residuals.max()),
    }
    if rc.output_format != "json":
        raise ConfigError("ortho reports are JSON only")
    _emit_json(report, args.out or rc.output_path)
    return EXIT_OK


def _eval_case(rc: RunConfig, query: RatioQuery, tolerance: float):
    weight = build_weight(rc)
    system = ortho_system(weight, rc.max_degree)
    cev = cauchy_evaluator(system, tolerance=tolerance)
    return weight, system, cev


def cmd_eval(rc: RunConfig, args) -> int:
    query = build_query(rc)
    tolerance = args.tolerance or rc.tolerance
    weight, system, cev = _eval_case(rc, query, tolerance)
    result = expectation_ratio(query, system, cev)
    checks = []
    if query.M_total == 0 and query.L_total > 0 and not query.is_confluent:
        other = expectation_products(query, system)
        checks.append({"path": "telescope-products",
                       "value": _complex_dict(other.value),
                       "abs_delta": abs(other.value - result.value)})
    if query.L_total == 0 and query.M_total > 0 and not query.is_confluent:
        other = expectation_inverses(query, system, cev)
        checks.append({"path": "telescope-inverses",
                       "value": _complex_dict(other.value),
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
    if rc.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["N", "L", "M", "value_re", "value_im",
                         "abs_error_estimate"])
        writer.writerow([query.N, query.L_total, query.M_total,
                         repr(result.value.real), repr(result.value.imag),
                         repr(result.abs_error_estimate)])
        _write_output(buf.getvalue(), args.out or rc.output_path)
    else:
        _emit_json(report, args.out or rc.output_path)
    return EXIT_OK


def cmd_verify(rc: RunConfig, args) -> int:
    verify = rc.verify or {}
    ns = verify.get("Ns", [1, 2])
    ls = verify.get("Ls", [0, 1, 2])
    ms = verify.get("Ms")
    tolerance = args.tolerance or verify.get("tolerance", 1e-6)
    corrupt = float(verify.get("corrupt_factor", 1.0))
    mus_pool = tuple(verify.get("mus_pool", rc.mus))
    eps_pool = tuple(verify.get("eps_pool", rc.epsbars))
    weight = build_weight(rc)
    system = ortho_system(weight, rc.max_degree)
    cev = cauchy_evaluator(system, tolerance=rc.tolerance)

    cases = []
    failed = []
    for n_ev in ns:
        m_values = ms if ms is not None else list(range(0, min(n_ev, 2) + 1))
        for big_l in ls:
            for big_m in m_values:
                if big_m > n_ev:
                    continue
                if big_l > len(mus_pool) or big_m > len(eps_pool):
                    continue
                name = f"N={n_ev} L={big_l} M={big_m}"
                case = {"case": name, "N": n_ev, "L": big_l, "M": big_m}
                query = RatioQuery(N=n_ev, mus=mus_pool[:big_l],
                                   epsbars=eps_pool[:big_m])
                method = TENSOR_QUADRATURE if n_ev <= 2 else MONTE_CARLO
                cfg = build_oracle_config(rc, method=method, seed=args.seed)
                try:
                    formula = expectation_ratio(query, system, cev).value * corrupt
                    est = oracle_expectation(query, weight, cfg)
                except NumericalError as exc:
                    case.update({"status": "oracle-error", "message": str(exc),
                                 "passed": False})
                    cases.append(case)
                    failed.append(name)
                    continue
                dev = abs(formula - est.value)
                ref = max(abs(est.value), 1e-300)
                if method == TENSOR_QUADRATURE:
                    passed = dev / ref <= tolerance
                    criterion = f"rel <= {tolerance:g}"
                else:
                    # 3 sigma, plus a rounding floor: an oracle sum whose
                    # spread is a few ulps cannot tell ulps of deviation.
                    floor = ROUNDING_FLOOR * max(abs(formula), abs(est.value))
                    passed = dev <= 3.0 * est.stderr + floor
                    criterion = (f"dev <= 3*stderr + {ROUNDING_FLOOR:.2e}"
                                 "*max(|formula|, |oracle|)")
                case.update({
                    "method": method,
                    "formula": _complex_dict(formula),
                    "oracle": _complex_dict(est.value),
                    "oracle_stderr": est.stderr,
                    "abs_deviation": dev,
                    "rel_deviation": dev / ref,
                    "criterion": criterion,
                    "passed": bool(passed),
                    "seed": cfg.seed,
                    "samples": cfg.samples if method == MONTE_CARLO else None,
                })
                cases.append(case)
                if not passed:
                    failed.append(name)

    report = {
        "command": "verify",
        "weight": {"kind": rc.weight_kind},
        "tolerance": tolerance,
        "cases": cases,
        "summary": {"total": len(cases), "passed": len(cases) - len(failed),
                    "failing_cases": failed},
    }
    if rc.output_format != "json":
        raise ConfigError("verify reports are JSON only")
    _emit_json(report, args.out or rc.output_path)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


_AXIS_RE = re.compile(r"^(mus|epsbars)\[(\d+)\]$")


def cmd_scan(rc: RunConfig, args) -> int:
    scan = rc.scan
    if not scan:
        raise ConfigError("scan: block is missing")
    match = _AXIS_RE.match(scan.get("axis", ""))
    if not match:
        raise ConfigError("scan.axis: expected 'mus[i]' or 'epsbars[i]'")
    target, index = match.group(1), int(match.group(2))
    if "values" in scan:
        values = [complex(v) for v in scan["values"]]
    else:
        try:
            start, stop = float(scan["start"]), float(scan["stop"])
            count = int(scan["count"])
        except KeyError as exc:
            raise ConfigError(f"scan.{exc.args[0]}: required for a range sweep") from None
        if count < 0:
            raise ConfigError("scan.count: must be non-negative")
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        values = [complex(start + i * step) for i in range(count)]

    tolerance = args.tolerance or rc.tolerance
    weight, system, cev = _eval_case(rc, build_query(rc), tolerance)

    rows = []
    for v in values:
        mus, epsbars = list(rc.mus), list(rc.epsbars)
        (mus if target == "mus" else epsbars)[index:index + 1] = [v]
        row = {"axis_re": v.real, "axis_im": v.imag}
        try:
            query = RatioQuery(N=rc.n_eigenvalues, mus=mus, epsbars=epsbars)
            res = expectation_ratio(query, system, cev)
            row.update({"value_re": res.value.real, "value_im": res.value.imag,
                        "abs_error_estimate": res.abs_error_estimate,
                        "status": "ok"})
        except DetratioError as exc:
            row.update({"value_re": "", "value_im": "",
                        "abs_error_estimate": "", "status": f"error: {exc}"})
        rows.append(row)

    header = ["axis_re", "axis_im", "value_re", "value_im",
              "abs_error_estimate", "status"]
    if rc.output_format == "json":
        _emit_json({"command": "scan", "axis": scan["axis"], "rows": rows},
                   args.out or rc.output_path)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in header])
        _write_output(buf.getvalue(), args.out or rc.output_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detratio",
        description="Determinant formulas for characteristic-polynomial "
                    "ratios in complex-eigenvalue ensembles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("ortho", cmd_ortho), ("eval", cmd_eval),
                     ("verify", cmd_verify), ("scan", cmd_scan)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the oracle seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="override the output format")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the comparison tolerance")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = load_config(args.config)
        if args.format:
            rc = RunConfig(**{**rc.__dict__, "output_format": args.format})
        if args.seed is not None:
            rc = RunConfig(**{**rc.__dict__, "seed": args.seed})
        return args.handler(rc, args)
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
