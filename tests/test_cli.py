import json
import math
from pathlib import Path

import pytest

from detratio.cli import main
from detratio.config import parse_complex, parse_config
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


def test_verify_corrupted_prefactor_names_cases(tmp_path):
    cfg = write_config(tmp_path, base_config(
        verify={"Ns": [1], "Ls": [0, 1], "tolerance": 1e-6,
                "corrupt_factor": 1.001,
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


def test_verify_mc_empty_query_tolerates_rounding(tmp_path):
    # L = M = 0 has an oracle stderr of a few 1e-17; a 2-ulp deviation of
    # the formula is rounding, not a failed case
    cfg = write_config(tmp_path, base_config(
        weight={"kind": "gaussian", "scale": 1.0},
        system={"max_degree": 6},
        oracle={"method": "monte-carlo", "samples": 200000, "seed": 5},
        verify={"Ns": [3], "Ls": [0], "Ms": [0],
                "corrupt_factor": 1.0000000000000004,
                "mus_pool": ["1.3+0.8i"], "eps_pool": [[4.6, 0.5]]}))
    out = tmp_path / "verify.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    (case,) = read_json(out)["cases"]
    assert case["method"] == "monte-carlo"
    assert case["abs_deviation"] > 3 * case["oracle_stderr"]
    assert case["passed"]


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
    ("verify", "corrupt_factor", "x"),
    ("scan", "count", "x"),
    ("scan", "start", "a"),
    ("oracle", "radial_nodes", "x"),
    ("oracle", "samples", 0),
    (None, "tolerance", "x"),
    ("query", "mu_multiplicities", ["x"]),
    ("query", "mus", 5),
    ("query", "mus", ["nan"]),
    ("query", "epsbars", [True]),
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
