"""Declarative run configuration.

A run is described by one JSON file with nested blocks: weight, system,
query, oracle, and optional verify / scan / output blocks.  Complex
numbers may be written either as two-element arrays [re, im] or as
strings like "1.5+2i".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .oracle import MONTE_CARLO, TENSOR_QUADRATURE, OracleConfig
from .ratios import RatioQuery
from .weight import FAMILIES, WeightSpec


def parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{where}: complex arrays must be [re, im]")
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", "").replace("i", "j"))
        except ValueError:
            raise ConfigError(f"{where}: cannot parse complex number {value!r}") from None
    raise ConfigError(f"{where}: expected a complex number, got {value!r}")


def complex_out(c: complex) -> list:
    return [float(c.real), float(c.imag)]


def _get(block: dict, key: str, where: str, default=None, required: bool = False):
    if key not in block:
        if required:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return default
    return block[key]


def _expect_block(data: dict, key: str, required: bool = True) -> dict:
    block = data.get(key)
    if block is None:
        if required:
            raise ConfigError(f"{key}: required block is missing")
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object")
    return block


@dataclass(frozen=True)
class RunConfig:
    weight_kind: str
    weight_params: dict
    max_degree: int
    n_eigenvalues: int
    mus: tuple = ()
    epsbars: tuple = ()
    mu_multiplicities: Optional[tuple] = None
    eps_multiplicities: Optional[tuple] = None
    oracle_method: str = TENSOR_QUADRATURE
    radial_nodes: int = 48
    angular_nodes: int = 64
    samples: int = 200_000
    seed: int = 0
    batches: int = 32
    verify: Optional[dict] = None
    scan: Optional[dict] = None
    output_format: str = "json"
    output_path: Optional[str] = None
    tolerance: float = 1e-9


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")

    wblock = _expect_block(data, "weight")
    kind = _get(wblock, "kind", "weight", required=True)
    if kind not in FAMILIES:
        raise ConfigError(
            f"weight.kind: unknown kind {kind!r}; expected one of {tuple(FAMILIES)}")
    params: dict = {}
    for name, value_type, default in FAMILIES[kind].fields:
        value = _get(wblock, name, "weight", default, required=default is None)
        params[name] = parse_complex(value, f"weight.{name}") \
            if value_type is complex else float(value)
    params["amplitude"] = float(_get(wblock, "amplitude", "weight", 1.0))

    sblock = _expect_block(data, "system")
    max_degree = _get(sblock, "max_degree", "system", required=True)
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ConfigError("system.max_degree: expected a non-negative integer")

    qblock = _expect_block(data, "query")
    n_ev = _get(qblock, "N", "query", required=True)
    if not isinstance(n_ev, int) or n_ev < 1:
        raise ConfigError("query.N: expected a positive integer")
    mus = tuple(parse_complex(v, f"query.mus[{i}]")
                for i, v in enumerate(_get(qblock, "mus", "query", [])))
    epsbars = tuple(parse_complex(v, f"query.epsbars[{i}]")
                    for i, v in enumerate(_get(qblock, "epsbars", "query", [])))
    mu_mult = _get(qblock, "mu_multiplicities", "query")
    eps_mult = _get(qblock, "eps_multiplicities", "query")
    mu_mult = tuple(int(v) for v in mu_mult) if mu_mult is not None else None
    eps_mult = tuple(int(v) for v in eps_mult) if eps_mult is not None else None

    oblock = _expect_block(data, "oracle", required=False)
    method = _get(oblock, "method", "oracle", TENSOR_QUADRATURE)
    if method not in (TENSOR_QUADRATURE, MONTE_CARLO):
        raise ConfigError(f"oracle.method: unknown method {method!r}")

    vblock = data.get("verify")
    if vblock is not None and not isinstance(vblock, dict):
        raise ConfigError("verify: expected an object")
    if vblock is not None:
        vblock = dict(vblock)
        for key in ("mus_pool", "eps_pool"):
            if key in vblock:
                vblock[key] = [parse_complex(v, f"verify.{key}[{i}]")
                               for i, v in enumerate(vblock[key])]

    scblock = data.get("scan")
    if scblock is not None:
        if not isinstance(scblock, dict):
            raise ConfigError("scan: expected an object")
        scblock = dict(scblock)
        if "axis" not in scblock:
            raise ConfigError("scan.axis: required field is missing")
        if "values" in scblock:
            scblock["values"] = [parse_complex(v, f"scan.values[{i}]")
                                 for i, v in enumerate(scblock["values"])]

    outblock = _expect_block(data, "output", required=False)
    out_format = _get(outblock, "format", "output", "json")
    if out_format not in ("json", "csv"):
        raise ConfigError(f"output.format: expected 'json' or 'csv', got {out_format!r}")

    return RunConfig(
        weight_kind=kind,
        weight_params=params,
        max_degree=max_degree,
        n_eigenvalues=n_ev,
        mus=mus,
        epsbars=epsbars,
        mu_multiplicities=mu_mult,
        eps_multiplicities=eps_mult,
        oracle_method=method,
        radial_nodes=int(_get(oblock, "radial_nodes", "oracle", 48)),
        angular_nodes=int(_get(oblock, "angular_nodes", "oracle", 64)),
        samples=int(_get(oblock, "samples", "oracle", 200_000)),
        seed=int(_get(oblock, "seed", "oracle", 0)),
        batches=int(_get(oblock, "batches", "oracle", 32)),
        verify=vblock,
        scan=scblock,
        output_format=out_format,
        output_path=_get(outblock, "path", "output"),
        tolerance=float(_get(data, "tolerance", "", 1e-9)),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(data)


def build_weight(rc: RunConfig) -> WeightSpec:
    return FAMILIES[rc.weight_kind].build(rc.weight_params,
                                          max(16, 2 * rc.max_degree))


def build_query(rc: RunConfig) -> RatioQuery:
    return RatioQuery(N=rc.n_eigenvalues, mus=rc.mus, epsbars=rc.epsbars,
                      mu_multiplicities=rc.mu_multiplicities,
                      eps_multiplicities=rc.eps_multiplicities)


def build_oracle_config(rc: RunConfig, method: Optional[str] = None,
                        seed: Optional[int] = None) -> OracleConfig:
    return OracleConfig(method=method or rc.oracle_method,
                        radial_nodes=rc.radial_nodes,
                        angular_nodes=rc.angular_nodes,
                        samples=rc.samples,
                        seed=rc.seed if seed is None else seed,
                        batches=rc.batches)
