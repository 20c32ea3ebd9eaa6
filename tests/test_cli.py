import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from detratio import disk_flat_weight, gaussian_weight, shifted_gaussian_weight
from detratio import cli, oracle
from detratio.cli import main
from detratio.config import VerifySpec, build_weight, parse_complex, parse_config
from detratio.errors import ConfigError

PI = math.pi


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_config(**overrides):
    data = {
        "weight": {"kind": "disk-flat", "radius": 1.0},
        "system": {"max_degree": 5},
        "query": {"N": 1, "mus": [], "epsbars": [[2.0, 0.0]]},
        "oracle": {"method": "tensor-quadrature", "radial_nodes": 48,
                   "angular_nodes": 64, "seed": 5},
        "output": {"format": "json", "path": None},
    }
    data.update(overrides)
    return data


def run(args):
    return main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def scale_formula(monkeypatch, factor):
    """Make the CLI see every determinant-formula value times ``factor``."""
    formula = cli.expectation_ratio

    def scaled(*args):
        result = formula(*args)
        return replace(result, value=result.value * factor)

    monkeypatch.setattr(cli, "expectation_ratio", scaled)


def test_ortho_gaussian_norms(tmp_path):
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        system={"max_degree": 3}))
    out = tmp_path / "ortho.json"
    assert run(["ortho", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out)
    assert report["norms"] == pytest.approx([PI, PI, 2 * PI, 6 * PI])
    assert report["orthogonality_residual_max"] < 1e-8


def test_ortho_disk_norms(tmp_path):
    cfg = write_config(tmp_path, base_config(system={"max_degree": 2}))
    out = tmp_path / "ortho.json"
    assert run(["ortho", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out)
    assert report["norms"] == pytest.approx([PI, PI / 2, PI / 3])


def test_malformed_config_exits_2(tmp_path, capsys):
    data = base_config()
    del data["weight"]["kind"]
    cfg = write_config(tmp_path, data)
    assert run(["ortho", "--config", cfg]) == 2
    assert "weight.kind" in capsys.readouterr().err


def test_eval_disk_anchor(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "eval.json"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out)
    assert report["value"]["re"] == pytest.approx(0.5, abs=1e-12)
    assert report["value"]["im"] == pytest.approx(0.0, abs=1e-12)
    assert report["path_checks"][0]["abs_delta"] < 1e-12


def test_eval_gaussian_heine(tmp_path):
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        query={"N": 2, "mus": ["1+1i"], "epsbars": []}))
    out = tmp_path / "eval.json"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out)
    assert report["value"]["re"] == pytest.approx(0.0, abs=1e-12)
    assert report["value"]["im"] == pytest.approx(2.0, rel=1e-12)


def test_far_pole_on_the_series_backend(tmp_path, capsys):
    # h_n ~ mass / ebar^(n+1): at |ebar| = 1e150 the power overflows while
    # the value does not; at 1e200 the value underflows to 0 and the
    # refusal names the non-finite error estimate
    def eval_at(ebar):
        cfg = write_config(tmp_path, base_config(
            weight={"kind": "gaussian", "scale": 1.0},
            query={"N": 2, "mus": ["1.7+0.4i"], "epsbars": [[ebar, 0.0]]}))
        out = tmp_path / "eval.json"
        return run(["eval", "--config", cfg, "--out", str(out)]), out

    values = {}
    for ebar in (1e100, 1e150):
        code, out = eval_at(ebar)
        assert code == 0
        report = read_json(out)["value"]
        values[ebar] = complex(report["re"], report["im"])
    assert values[1e150] == pytest.approx(values[1e100] * 1e-100, rel=1e-12)
    assert values[1e100] == pytest.approx(2.73e-200 + 1.36e-200j, rel=1e-12)
    capsys.readouterr()
    assert eval_at(1e200)[0] == 3
    assert "error estimate nan" in capsys.readouterr().err


def test_eval_at_a_near_origin_ebar_exits_3(tmp_path, capsys):
    # every h entry of degree >= 1 underflows to 0 at ebar = 1e-60, so the
    # expectation vanishes and is refused like any non-finite result
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0}, system={"max_degree": 8},
        query={"N": 7, "mus": [], "epsbars": [[1e-60, 0.0]]}))
    assert run(["eval", "--config", cfg]) == 3
    assert "non-finite evaluation result" in capsys.readouterr().err


def test_eval_m_exceeds_n_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        query={"N": 1, "mus": [], "epsbars": [[2.0, 0.0], [3.0, 0.0]]}))
    assert run(["eval", "--config", cfg]) == 4
    assert "exceed" in capsys.readouterr().err


def test_eval_depth_constraint_exits_4(tmp_path):
    cfg = write_config(tmp_path, base_config(
        system={"max_degree": 1},
        query={"N": 2, "mus": [[1.5, 0.0]], "epsbars": []}))
    assert run(["eval", "--config", cfg]) == 4


def test_degree_past_the_double_range_exits_3(tmp_path, capsys):
    # 171! overflows a double: the closed-form moment refuses its order
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0}, system={"max_degree": 171}))
    assert run(["eval", "--config", cfg]) == 3
    assert "closed-form moment of order 171" in capsys.readouterr().err


def test_eval_empty_query_depth_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        system={"max_degree": 8},
        query={"N": 10, "mus": [], "epsbars": []}))
    assert run(["eval", "--config", cfg]) == 4
    assert "requires system depth 9 (N + L - 1); system.max_degree is 8" \
        in capsys.readouterr().err


def test_verify_default_grid_passes(tmp_path):
    cfg = write_config(tmp_path, base_config(
        verify={"Ns": [1, 2], "Ls": [0, 1, 2], "tolerance": 1e-6,
                "mus_pool": ["1.7+0.4i", [-1.2, 1.5]],
                "eps_pool": [[2.0, 0.3], [-1.8, 1.1]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out)
    assert report["summary"]["failing_cases"] == []
    assert report["summary"]["total"] == 15
    case = report["cases"][1]
    assert {"formula", "oracle", "oracle_stderr", "seed", "passed"} <= set(case)


def test_verify_corrupted_prefactor_names_cases(tmp_path, monkeypatch):
    scale_formula(monkeypatch, 1.001)
    cfg = write_config(tmp_path, base_config(
        verify={"Ns": [1], "Ls": [0, 1], "tolerance": 1e-6,
                "mus_pool": ["1.7+0.4i"], "eps_pool": [[2.0, 0.3]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = read_json(out)
    assert "N=1 L=0 M=1" in report["summary"]["failing_cases"]


def test_verify_mc_n3(tmp_path):
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        system={"max_degree": 6},
        oracle={"method": "monte-carlo", "samples": 200000, "seed": 5},
        verify={"Ns": [3], "Ls": [0, 1], "Ms": [0, 1],
                "mus_pool": ["1.3+0.8i"], "eps_pool": [[4.6, 0.5]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out)
    for case in report["cases"]:
        assert case["method"] == "monte-carlo"
        assert case["passed"]
        assert case["samples"] == 200000


def test_verify_mc_empty_query_tolerates_rounding(tmp_path, monkeypatch):
    # L = M = 0 has an oracle stderr of a few 1e-17; a 2-ulp deviation of
    # the formula is rounding, not a failed case
    scale_formula(monkeypatch, 1.0000000000000004)
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        system={"max_degree": 6},
        oracle={"method": "monte-carlo", "samples": 200000, "seed": 5},
        verify={"Ns": [3], "Ls": [0], "Ms": [0],
                "mus_pool": ["1.3+0.8i"], "eps_pool": [[4.6, 0.5]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    (case,) = read_json(out)["cases"]
    assert case["method"] == "monte-carlo"
    assert case["abs_deviation"] > 3 * case["oracle_stderr"]
    assert case["passed"]


def test_verify_reports_an_oracle_refusal_and_goes_on(tmp_path, capsys):
    # Monte Carlo refuses the ebar 3.5+0.5i, too close to the gaussian's
    # effective support: each case with it fails with the refusal, and
    # the sweep goes on.  A refusal of the formula itself still exits 4
    def verify(max_degree):
        cfg = write_config(tmp_path, base_config(
            weight={"kind": "gaussian", "scale": 1.0},
            system={"max_degree": max_degree},
            oracle={"method": "monte-carlo", "samples": 20000, "seed": 5},
            verify={"Ns": [3], "Ls": [0, 1], "Ms": [0, 1],
                    "mus_pool": ["1.3+0.8i"], "eps_pool": [[3.5, 0.5]]}))
        out = tmp_path / "verify.json"
        return run(["verify", "--config", cfg, "--out", str(out)]), out

    code, out = verify(6)
    assert code == 1
    report = read_json(out)
    assert report["summary"]["failing_cases"] == ["N=3 L=0 M=1", "N=3 L=1 M=1"]
    for case in report["cases"]:
        if case["M"] == 1:
            assert case["status"] == "oracle-refused" and not case["passed"]
            assert "Monte Carlo with an inverse factor requires" in case["message"]
        else:
            assert case["passed"] and "status" not in case
    capsys.readouterr()
    assert verify(2)[0] == 4
    assert "requires system depth 3" in capsys.readouterr().err


def test_verify_runs_the_oracle_the_config_names(tmp_path):
    # Monte Carlo named at N = 2, where the default would take tensor
    # quadrature, runs Monte Carlo; tensor quadrature named at N = 3,
    # beyond its limit, is refused case by case
    def verify(method, n_ev):
        cfg = write_config(tmp_path, base_config(
            weight={"kind": "gaussian", "scale": 1.0},
            system={"max_degree": 6},
            oracle={"method": method, "samples": 20000, "seed": 5},
            verify={"Ns": [n_ev], "Ls": [0, 1], "Ms": [0],
                    "mus_pool": ["1.3+0.8i"], "eps_pool": [[4.6, 0.5]]}))
        out = tmp_path / "verify.json"
        return run(["verify", "--config", cfg, "--out", str(out)]), read_json(out)

    code, report = verify("monte-carlo", 2)
    assert code == 0
    for case in report["cases"]:
        assert case["method"] == "monte-carlo" and case["samples"] == 20000
        assert case["criterion"].startswith("dev <= 3*stderr")
    code, report = verify("tensor-quadrature", 3)
    assert code == 1
    for case in report["cases"]:
        assert case["status"] == "oracle-refused" and not case["passed"]
        assert "tensor-quadrature oracle supports N <= 2" in case["message"]


@pytest.mark.parametrize("samples, batches, drawn", [(10, 4, 8), (3, 4, 4), (12, 4, 12)])
def test_verify_reports_the_samples_drawn(tmp_path, monkeypatch, samples, batches, drawn):
    # batches of samples // batches draws, at least one each: the report
    # used to give the configured count instead
    sample = oracle._sample_eigenvalues
    rows = []

    def counted(spec, rng, shape):
        rows.append(shape[0])
        return sample(spec, rng, shape)

    monkeypatch.setattr(oracle, "_sample_eigenvalues", counted)
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        oracle={"method": "monte-carlo", "samples": samples, "batches": batches},
        verify={"Ns": [1], "Ls": [0], "Ms": [0]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    (case,) = read_json(out)["cases"]
    assert case["samples"] == sum(rows) == drawn


def test_verify_reports_a_monte_carlo_blow_up(tmp_path):
    # two samples a batch at N = 4: the |Delta|^2 weights leave an
    # effective sample size of 2.8, below the 32 batches, so the oracle
    # refuses its estimate and the case fails as an oracle error
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        system={"max_degree": 6},
        oracle={"method": "monte-carlo", "samples": 64, "batches": 32, "seed": 1},
        verify={"Ns": [4], "Ls": [0], "Ms": [0],
                "mus_pool": ["1.3+0.8i"], "eps_pool": [[4.6, 0.5]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 1
    (case,) = read_json(out)["cases"]
    assert case["status"] == "oracle-error" and not case["passed"]
    assert case["message"] == "Monte Carlo variance blow-up: neff = 2.8 of 64 samples"


def test_one_batch_is_refused_naming_the_field(tmp_path, capsys):
    # a single batch has no spread; it used to fail every Monte Carlo
    # estimate after sampling, as a variance blow-up
    cfg = write_config(tmp_path, base_config(
        oracle={"method": "monte-carlo", "samples": 1000, "batches": 1}))
    assert run(["eval", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: oracle.batches: expected an integer >= 2, got 1\n")


def test_tolerance_flag_sets_the_cauchy_tolerance_of_eval(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert run(["eval", "--config", cfg, "--tolerance", "1e-20"]) == 3
    assert "below the rounding floor" in capsys.readouterr().err


def test_ortho_builds_no_cauchy_evaluator(tmp_path):
    # ortho computes no transform, so a Cauchy tolerance below the rounding
    # floor, from the flag or the config, changes nothing in its report
    reports = []
    for name, flags, top in (("plain", [], {}), ("flag", ["--tolerance", "1e-20"], {}),
                             ("config", [], {"tolerance": 1e-20})):
        cfg = write_config(tmp_path, base_config(**top), f"{name}.json")
        out = tmp_path / f"ortho_{name}.json"
        assert run(["ortho", "--config", cfg, "--out", str(out), *flags]) == 0
        reports.append(out.read_text())
    assert reports[1] == reports[2] == reports[0]


def test_tolerance_flag_sets_the_pass_tolerance_of_verify(tmp_path):
    cfg = write_config(tmp_path, base_config(
        verify={"Ns": [1], "Ls": [0], "Ms": [1], "tolerance": 1e-6,
                "eps_pool": [[2.0, 0.3]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out),
                "--tolerance", "0.003"]) == 0
    report = read_json(out)
    assert report["tolerance"] == 0.003
    assert [case["criterion"] for case in report["cases"]] == ["rel <= 0.003"]


@pytest.mark.parametrize("command, path_in_config", [
    ("eval", False), ("verify", False), ("eval", True)])
def test_unwritable_output_exits_2(tmp_path, capsys, command, path_in_config):
    # --out into a missing directory, or output.path naming a directory
    out = tmp_path if path_in_config else tmp_path / "missing" / "report.json"
    cfg = write_config(tmp_path, base_config(
        verify={"Ns": [1], "Ls": [0], "Ms": [0]},
        output={"format": "json", "path": str(out) if path_in_config else None}))
    flags = [] if path_in_config else ["--out", str(out)]
    assert run([command, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {out}")
    assert "Traceback" not in err


def test_scan_inverse_column(tmp_path):
    cfg = write_config(tmp_path, base_config(
        scan={"axis": "epsbars[0]", "start": 1.5, "stop": 5.0, "count": 8}))
    out = tmp_path / "scan.csv"
    assert run(["scan", "--config", cfg, "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("axis_re,axis_im,value_re")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    values = [float(r[2]) for r in rows]
    eps = [float(r[0]) for r in rows]
    for e, v in zip(eps, values):
        assert v == pytest.approx(1.0 / e, rel=1e-10)
    assert values == sorted(values, reverse=True)


def test_scan_heine_column(tmp_path):
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        query={"N": 2, "mus": [[1.0, 0.0]], "epsbars": []},
        scan={"axis": "mus[0]", "start": 0.5, "stop": 2.0, "count": 4}))
    out = tmp_path / "scan.csv"
    assert run(["scan", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for row in rows:
        mu, val = float(row[0]), float(row[2])
        assert val == pytest.approx(mu ** 2, rel=1e-12)


def test_scan_empty_grid_header_only(tmp_path):
    cfg = write_config(tmp_path, base_config(
        scan={"axis": "epsbars[0]", "start": 1.5, "stop": 5.0, "count": 0}))
    out = tmp_path / "scan.csv"
    assert run(["scan", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1


def test_scan_rows_flagged_not_dropped(tmp_path):
    # sweeping epsbars onto a duplicate of a fixed second pole must flag
    cfg = write_config(tmp_path, base_config(
        query={"N": 2, "mus": [], "epsbars": [[2.0, 0.0], [3.0, 0.0]]},
        scan={"axis": "epsbars[0]", "values": [[2.5, 0.0], [3.0, 0.0]]}))
    out = tmp_path / "scan.csv"
    assert run(["scan", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("ok")
    assert "error" in lines[2]


def test_report_determinism(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["eval", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert run(["eval", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parse_complex_forms():
    assert parse_complex("1.5+2i", "x") == 1.5 + 2j
    assert parse_complex("-0.5i", "x") == -0.5j
    assert parse_complex("2", "x") == 2.0
    assert parse_complex([1.0, -2.0], "x") == 1 - 2j
    assert parse_complex(3, "x") == 3.0
    with pytest.raises(ConfigError):
        parse_complex("zebra", "x")
    with pytest.raises(ConfigError):
        parse_complex([1.0], "x")


def test_unknown_weight_kind(tmp_path):
    data = base_config()
    data["weight"]["kind"] = "lorentzian"
    cfg = write_config(tmp_path, data)
    assert run(["ortho", "--config", cfg]) == 2


def test_shifted_gaussian_config(tmp_path):
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "shifted-gaussian", "center": [0.4, 0.3], "scale": 1.0},
        system={"max_degree": 3},
        query={"N": 1, "mus": ["1+0.5i"], "epsbars": []}))
    out = tmp_path / "eval.json"
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    # Heine: pi_1(mu) = mu - c
    report = read_json(out)
    assert report["value"]["re"] == pytest.approx(0.6, rel=1e-9)
    assert report["value"]["im"] == pytest.approx(0.2, rel=1e-9)


@pytest.mark.parametrize("block, key, value", [
    ("verify", "Ns", 2),
    ("verify", "Ns", [0]),
    ("verify", "Ms", [-1]),
    ("verify", "tolerance", "x"),
    ("scan", "count", "x"),
    ("scan", "start", "a"),
    ("oracle", "radial_nodes", "x"),
    ("oracle", "samples", 0),
    (None, "tolerance", "x"),
    ("query", "mu_multiplicities", ["x"]),
    ("query", "mus", 5),
    ("query", "mus", ["nan"]),
    ("query", "mus", [{"re": 1.0, "im": 0.0}]),
    ("query", "epsbars", [True]),
    (None, "tolerance", 0),
    (None, "system", [4]),
    ("output", "path", 5),
    ("scan", "axis", "mus[x]"),
])
def test_malformed_value_exits_2_naming_the_field(tmp_path, capsys, block, key, value):
    # a malformed verify or scan block fails every command when the
    # config is loaded, eval included
    data = base_config(
        verify={"Ns": [1], "Ls": [0], "Ms": [0], "tolerance": 1e-6},
        scan={"axis": "epsbars[0]", "start": 1.5, "stop": 5.0, "count": 2})
    (data[block] if block else data)[key] = value
    cfg = write_config(tmp_path, data)
    assert run(["eval", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert (f"{block}.{key}" if block else f"error: {key}:") in err


@pytest.mark.parametrize("block, key", [
    (None, "tolerence"), ("weight", "scale"), ("system", "depth"),
    ("query", "epsbar"), ("oracle", "sample"), ("verify", "Nss"),
    ("scan", "stepsize"), ("output", "file"),
])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, block, key):
    # a dropped key would make "epsbar" for "epsbars" evaluate a query
    # with no inverse factor, and "tolerence" use the default tolerance
    data = base_config(
        verify={"Ns": [1]},
        scan={"axis": "epsbars[0]", "start": 1.5, "stop": 5.0, "count": 2})
    (data[block] if block else data)[key] = 1
    cfg = write_config(tmp_path, data)
    assert run(["eval", "--config", cfg]) == 2
    name = f"{block}.{key}" if block else key
    assert capsys.readouterr().err.startswith(
        f"config error: {name}: unknown field; expected one of (")


ROOT = Path(__file__).parents[1]
FACTORIES = {"gaussian": gaussian_weight, "disk-flat": disk_flat_weight,
             "shifted-gaussian": shifted_gaussian_weight}


def config_weights():
    """(id, config) for each committed config, each configured weight of
    the benchmark pools, and a shifted gaussian at depth 12."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield path.stem, json.loads(path.read_text())
    for path in sorted((ROOT / "bench" / "pools").glob("*.json")):
        for entry in json.loads(path.read_text())["weights"]:
            if "config" in entry:
                yield f"{path.stem}-{entry['id']}", {
                    "weight": entry["config"],
                    "system": {"max_degree": entry["max_degree"]},
                    "query": {"N": 1}}
    yield "shifted-12", {
        "weight": {"kind": "shifted-gaussian", "center": [0.4, 0.3]},
        "system": {"max_degree": 12}, "query": {"N": 1}}


@pytest.mark.parametrize("data", [pytest.param(d, id=i) for i, d in config_weights()])
def test_cli_builds_the_library_weight(data):
    # the depth of the system does not reach the weight: the CLI and the
    # library truncate the plane at the same radius
    rc = parse_config(data)
    built = build_weight(rc)
    library = FACTORIES[rc.weight_kind](**rc.weight_params)
    assert (built.kind, built.parameters, built.amplitude) == \
        (library.kind, library.parameters, library.amplitude)
    assert built.domain.quad_radius.hex() == library.domain.quad_radius.hex()


def test_deep_systems_keep_their_values(tmp_path):
    # the weight does not depend on the depth, and the Gram residual grid
    # widens with it: a cutoff of order 62 at radius 1.5 would move eval
    # to 0.0332-0.0199i, fail two verify cases and read a residual of 1.0.
    # The Cauchy rows' disk does follow the depth (weight.row_radius), so
    # the two quadrature values agree to rounding, not bit for bit: 1.2e-15
    def report(command, kind, depth, query):
        weight = ({"kind": "shifted-gaussian", "center": [0.4, 0.3], "scale": 1.0}
                  if kind == "shifted" else {"kind": "gaussian", "scale": 1.0})
        cfg = write_config(tmp_path, {"weight": weight,
                                      "system": {"max_degree": depth},
                                      "query": query}, f"{kind}{depth}.json")
        out = tmp_path / f"{command}{kind}{depth}.json"
        code = run([command, "--config", cfg, "--out", str(out)])
        return code, read_json(out)

    query = {"N": 2, "epsbars": [[4.6, 0.5]]}
    (code8, at8), (code31, at31) = (report("eval", "shifted", d, query) for d in (8, 31))
    assert code8 == code31 == 0
    assert at8["value"] == pytest.approx(at31["value"], rel=1e-13, abs=0)
    assert at8["value"]["re"] == pytest.approx(0.0509, abs=1e-4)
    query = {"N": 2, "mus": ["1.3+0.8i"], "epsbars": [[4.6, 0.5]]}
    code, verify = report("verify", "gauss", 31, query)
    assert code == 0 and len(verify["cases"]) == 8
    assert all(case["passed"] for case in verify["cases"])
    code, ortho = report("ortho", "gauss", 31, query)
    assert code == 0 and ortho["orthogonality_residual_max"] < 1e-12


def test_scan_row_keeps_multiplicities(tmp_path):
    query = {"N": 3, "mus": [[1.5, 0.0]], "epsbars": [],
             "mu_multiplicities": [2]}
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0}, query=query,
        scan={"axis": "mus[0]", "values": [[1.5, 0.0]]}))
    eval_out, scan_out = tmp_path / "eval.json", tmp_path / "scan.json"
    assert run(["eval", "--config", cfg, "--out", str(eval_out)]) == 0
    assert run(["scan", "--config", cfg, "--out", str(scan_out)]) == 0
    value = read_json(eval_out)["value"]
    (row,) = read_json(scan_out)["rows"]
    assert row["status"] == "ok"
    assert (row["value_re"], row["value_im"]) == (value["re"], value["im"])
    assert value["re"] == pytest.approx(1.5 ** 6, rel=1e-12)


@pytest.mark.parametrize("key, value", [("start", 1.5), ("stop", 5.0), ("count", 15)])
def test_scan_values_exclude_start_stop_and_count(tmp_path, capsys, key, value):
    # the grid fields used to be dropped without a word when values was given
    cfg = write_config(tmp_path, base_config(
        scan={"axis": "epsbars[0]", "values": [[3, 0]], key: value}))
    assert run(["scan", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"config error: scan.{key}: not read when scan.values is given\n")


def test_scan_without_a_scan_block_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert run(["scan", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: scan: block is missing\n"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "configuration root must be an object"),
    ("{\"weight\": ", "is not valid JSON"),
    (None, "cannot read config"),
], ids=["root-not-an-object", "invalid-json", "unreadable-path"])
def test_unloadable_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert run(["eval", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


def test_scan_axis_naming_no_variable_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        scan={"axis": "epsbars[1]", "values": [[2.5, 0.0]]}))
    assert run(["scan", "--config", cfg]) == 2
    assert "scan.axis: epsbars[1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ortho", "verify"])
def test_json_only_command_refuses_csv_before_computing(tmp_path, capsys,
                                                        monkeypatch, command):
    def fail(*args, **kwargs):
        raise AssertionError("computed before refusing the format")

    monkeypatch.setattr("detratio.cli.ortho_system", fail)
    cfg = write_config(tmp_path, base_config(verify={"Ns": [1]}))
    assert run([command, "--config", cfg, "--format", "csv"]) == 2
    assert capsys.readouterr().err == f"config error: {command} reports are JSON only\n"


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf", "x"])
def test_tolerance_flag_must_be_positive_and_finite(tmp_path, capsys, tolerance):
    cfg = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--config", cfg, "--tolerance", tolerance])
    assert exc.value.code == 2
    assert "--tolerance: expected a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--config", cfg, "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: expected an integer >= 0" in capsys.readouterr().err


def test_readme_example_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Run configuration", 1)[1]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    rc = parse_config(json.loads(example))
    assert rc.oracle.radial_nodes == 64
    assert len(list(rc.verify.queries())) == 15
    assert (rc.scan.target, rc.scan.index, len(rc.scan.values)) == ("epsbars", 0, 15)


def test_readme_library_quick_start_runs(capsys):
    # the printed formula and oracle values agree to verify's tolerance
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    exec(section.split("```python", 1)[1].split("```", 1)[0], {})
    value, oracle_value, _ = map(complex, capsys.readouterr().out.split())
    assert abs(value - oracle_value) <= VerifySpec.tolerance * abs(oracle_value)


def test_cli_imports_no_scipy():
    # scipy is a test dependency only; loading it would cost every CLI
    # process its import time
    code = ("import detratio, detratio.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_verify_reports_a_formula_failure_as_such(tmp_path):
    # at ebar 1e200 the h row underflows and the formula's error estimate
    # is NaN, so expectation_ratio raises NumericalError: the case fails
    # as formula-error, no oracle having run, and the sweep goes on
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        verify={"Ns": [2], "Ls": [0], "Ms": [0, 1],
                "mus_pool": ["1.3+0.8i"], "eps_pool": [[1e200, 0.0]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = read_json(out)
    assert report["summary"]["failing_cases"] == ["N=2 L=0 M=1"]
    failed = [case for case in report["cases"] if not case["passed"]]
    assert [case["status"] for case in failed] == ["formula-error"]
    assert "non-finite evaluation result" in failed[0]["message"]
