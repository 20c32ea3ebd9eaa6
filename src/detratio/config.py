"""Declarative run configuration.

A run is described by one JSON file with nested blocks: weight, system,
query, oracle, and optional verify / scan / output blocks.  Complex
numbers may be written either as two-element arrays [re, im] or as
strings like "1.5+2i".  ``parse_config`` is the only reader of that
format: every value is converted and checked here, and a malformed one
raises ``ConfigError`` naming its field.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import re
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ConstraintError, is_integer
from .oracle import OracleConfig
from .ratios import RatioQuery
from .weight import FAMILIES, WeightSpec

_REQUIRED = object()
_AXIS_RE = re.compile(r"^(mus|epsbars)\[(\d+)\]$")


def parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_real(value, where))
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{where}: complex arrays must be [re, im]")
        return complex(_real(value[0], where), _real(value[1], where))
    if isinstance(value, str):
        try:
            parsed = complex(value.replace(" ", "").replace("i", "j"))
        except ValueError:
            parsed = complex("nan")
        if not cmath.isfinite(parsed):
            raise ConfigError(f"{where}: cannot parse complex number {value!r}")
        return parsed
    raise ConfigError(f"{where}: expected a complex number, got {value!r}")


def complex_out(c: complex) -> list:
    return [float(c.real), float(c.imag)]


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _positive(value, where: str) -> float:
    value = _real(value, where)
    if value <= 0:
        raise ConfigError(f"{where}: expected a positive number, got {value!r}")
    return value


def _integer(low: int):
    def convert(value, where: str) -> int:
        if not is_integer(value) or value < low:
            raise ConfigError(f"{where}: expected an integer >= {low}, got {value!r}")
        return value
    return convert


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _choice(options):
    def convert(value, where: str) -> str:
        if _text(value, where) not in options:
            raise ConfigError(
                f"{where}: unknown value {value!r}; expected one of {tuple(options)}")
        return value
    return convert


def _list(item):
    def convert(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return convert


def _field(block: dict, key: str, where: str, convert, default=_REQUIRED):
    """``block[key]`` converted; a JSON null counts as absent."""
    name = f"{where}.{key}" if where else key
    if block.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"{name}: required field is missing")
        return default
    return convert(block[key], name)


def _known(block: dict, where: str, keys) -> None:
    """Refuse a key of ``block`` outside ``keys``: a misspelt field would
    otherwise be dropped and its default used."""
    for key in block:
        if key not in keys:
            name = f"{where}.{key}" if where else key
            raise ConfigError(f"{name}: unknown field; expected one of {tuple(keys)}")


def _block(data: dict, key: str, keys, required: bool = False) -> Optional[dict]:
    """The object ``data[key]`` with its keys checked against ``keys``
    (None: checked by the caller)."""
    block = data.get(key)
    if block is None:
        if required:
            raise ConfigError(f"{key}: required block is missing")
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected an object")
    if keys is not None:
        _known(block, key, keys)
    return block


@dataclass(frozen=True)
class VerifySpec:
    """The ``verify`` block: the (N, L, M) grid, its pools and pass test."""

    mus_pool: tuple
    eps_pool: tuple
    Ns: tuple = (1, 2)
    Ls: tuple = (0, 1, 2)
    Ms: Optional[tuple] = None  # None: 0 .. min(N, 2)
    tolerance: float = 1e-6

    def queries(self):
        """One query per grid case that M <= N and the pools allow."""
        for n_ev in self.Ns:
            ms = self.Ms if self.Ms is not None else range(min(n_ev, 2) + 1)
            for big_l in self.Ls:
                for big_m in ms:
                    if big_m <= min(n_ev, len(self.eps_pool)) \
                            and big_l <= len(self.mus_pool):
                        yield RatioQuery(N=n_ev, mus=self.mus_pool[:big_l],
                                         epsbars=self.eps_pool[:big_m])


_VERIFY_FIELDS = {
    "mus_pool": _list(parse_complex), "eps_pool": _list(parse_complex),
    "Ns": _list(_integer(1)), "Ls": _list(_integer(0)), "Ms": _list(_integer(0)),
    "tolerance": _positive,
}


@dataclass(frozen=True)
class ScanSpec:
    """The ``scan`` block: the swept variable and the values it takes."""

    axis: str
    target: str  # "mus" or "epsbars"
    index: int
    values: tuple

    def query_at(self, base: RatioQuery, value: complex) -> RatioQuery:
        """``base`` with the swept variable set to ``value``."""
        variables = list(getattr(base, self.target))
        variables[self.index] = value
        return dataclasses.replace(base, **{self.target: variables})


def _scan(block: dict, mus: tuple, epsbars: tuple) -> ScanSpec:
    axis = _field(block, "axis", "scan", _text)
    match = _AXIS_RE.match(axis)
    if not match:
        raise ConfigError("scan.axis: expected 'mus[i]' or 'epsbars[i]'")
    target, index = match.group(1), int(match.group(2))
    configured = len(mus if target == "mus" else epsbars)
    if index >= configured:
        raise ConfigError(
            f"scan.axis: {axis} names no configured variable; "
            f"query.{target} has {configured}")
    if block.get("values") is not None:
        for key in ("start", "stop", "count"):
            if block.get(key) is not None:
                raise ConfigError(f"scan.{key}: not read when scan.values is given")
        values = _field(block, "values", "scan", _list(parse_complex))
    else:
        start = _field(block, "start", "scan", _real)
        stop = _field(block, "stop", "scan", _real)
        count = _field(block, "count", "scan", _integer(0))
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        values = tuple(complex(start + i * step) for i in range(count))
    return ScanSpec(axis, target, index, values)


@dataclass(frozen=True)
class RunConfig:
    weight_kind: str
    weight_params: dict
    max_degree: int
    n_eigenvalues: int
    mus: tuple
    epsbars: tuple
    mu_multiplicities: Optional[tuple]
    eps_multiplicities: Optional[tuple]
    oracle: OracleConfig
    verify: VerifySpec
    scan: Optional[ScanSpec]
    output_format: str
    output_path: Optional[str]
    tolerance: float


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    _known(data, "", ("weight", "system", "query", "oracle", "verify", "scan",
                      "output", "tolerance"))

    wblock = _block(data, "weight", None, required=True)
    kind = _field(wblock, "kind", "weight", _choice(FAMILIES))
    fields = FAMILIES[kind].fields
    _known(wblock, "weight", ("kind", "amplitude", *(f[0] for f in fields)))
    params = {name: _field(wblock, name, "weight",
                           parse_complex if value_type is complex else _real,
                           _REQUIRED if default is None else default)
              for name, value_type, default in fields}
    params["amplitude"] = _field(wblock, "amplitude", "weight", _real, 1.0)

    sblock = _block(data, "system", ("max_degree",), required=True)
    qblock = _block(data, "query", ("N", "mus", "epsbars", "mu_multiplicities",
                                    "eps_multiplicities"), required=True)
    mus = _field(qblock, "mus", "query", _list(parse_complex), ())
    epsbars = _field(qblock, "epsbars", "query", _list(parse_complex), ())

    oracle_fields = tuple(f.name for f in dataclasses.fields(OracleConfig))
    oblock = _block(data, "oracle", oracle_fields) or {}
    try:
        oracle = OracleConfig(**{name: oblock[name] for name in oracle_fields
                                 if oblock.get(name) is not None})
    except ConstraintError as exc:
        raise ConfigError(str(exc)) from None

    vblock = _block(data, "verify", tuple(_VERIFY_FIELDS)) or {}
    verify = VerifySpec(**{"mus_pool": mus, "eps_pool": epsbars, **{
        key: _field(vblock, key, "verify", convert)
        for key, convert in _VERIFY_FIELDS.items() if vblock.get(key) is not None}})
    scblock = _block(data, "scan", ("axis", "values", "start", "stop", "count"))
    outblock = _block(data, "output", ("format", "path")) or {}

    return RunConfig(
        weight_kind=kind,
        weight_params=params,
        max_degree=_field(sblock, "max_degree", "system", _integer(0)),
        n_eigenvalues=_field(qblock, "N", "query", _integer(1)),
        mus=mus,
        epsbars=epsbars,
        mu_multiplicities=_field(qblock, "mu_multiplicities", "query",
                                 _list(_integer(1)), None),
        eps_multiplicities=_field(qblock, "eps_multiplicities", "query",
                                  _list(_integer(1)), None),
        oracle=oracle,
        verify=verify,
        scan=_scan(scblock, mus, epsbars) if scblock is not None else None,
        output_format=_field(outblock, "format", "output", _choice(("json", "csv")),
                             "json"),
        output_path=_field(outblock, "path", "output", _text, None),
        tolerance=_field(data, "tolerance", "", _positive, 1e-9),
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
    return FAMILIES[rc.weight_kind].build(**rc.weight_params)


def build_query(rc: RunConfig) -> RatioQuery:
    return RatioQuery(N=rc.n_eigenvalues, mus=rc.mus, epsbars=rc.epsbars,
                      mu_multiplicities=rc.mu_multiplicities,
                      eps_multiplicities=rc.eps_multiplicities)


def build_oracle_config(rc: RunConfig, method: Optional[str] = None,
                        seed: Optional[int] = None) -> OracleConfig:
    return dataclasses.replace(
        rc.oracle, method=method or rc.oracle.method,
        seed=rc.oracle.seed if seed is None else seed)
