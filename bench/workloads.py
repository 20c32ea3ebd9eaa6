"""Workload inputs and operations of the detratio benchmark.

Each workload is a committed pool (``pools/<name>.json``) of weights and
operations with their reference outcomes, written by ``make_pools.py``.
A run's seed selects and orders one pass from the pool.  The pool is
organised in slots whose candidates share one structure (N, L, M,
multiplicities, pole class), so every seed measures the same mix with
different values; the library only ever sees the selected inputs.

Operations are driven through detratio's public functions the way the
CLI drives them: a query does what ``cli.cmd_eval`` does for one
``RatioQuery`` (``expectation_ratio`` plus the telescope cross-check
where ``cmd_eval`` runs one), and a verify case does what
``cli.cmd_verify`` does for one (N, L, M).  Library functions are looked
up on their modules at call time, so the tracer's rebinding reaches the
benchmark's own calls too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from detratio import cauchy, config, oracle, orthopoly, ratios, weight

POOL_DIR = Path(__file__).resolve().parent / "pools"

WORKLOADS = ("quad-scan", "series-eval", "mc-verify")

# cmd_verify's default tolerance for the tensor-quadrature oracle.
VERIFY_TENSOR_RTOL = 1e-6


class AnisoGaussian:
    """exp(-(a x'^2 + b y'^2)) in coordinates rotated by ``angle``.

    Not a built-in family: its moments go through polar quadrature and
    its Cauchy transforms through the quadrature backend.
    """

    def __init__(self, a: float, b: float, angle: float):
        self.a, self.b = a, b
        self.rot = complex(math.cos(angle), -math.sin(angle))

    def __call__(self, z):
        zr = np.asarray(z, dtype=complex) * self.rot
        return np.exp(-(self.a * zr.real ** 2 + self.b * zr.imag ** 2))


def cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def pair(c: complex) -> list:
    return [float(c.real), float(c.imag)]


def query_from_dict(d: dict) -> ratios.RatioQuery:
    return ratios.RatioQuery(
        N=d["N"], mus=[cplx(v) for v in d["mus"]],
        epsbars=[cplx(v) for v in d["epsbars"]],
        mu_multiplicities=d.get("mu_multiplicities"),
        eps_multiplicities=d.get("eps_multiplicities"))


def query_to_dict(q: ratios.RatioQuery) -> dict:
    return {"N": q.N, "mus": [pair(v) for v in q.mus],
            "epsbars": [pair(v) for v in q.epsbars],
            "mu_multiplicities": list(q.mu_multiplicities),
            "eps_multiplicities": list(q.eps_multiplicities)}


def run_config(entry: dict, query: Optional[dict] = None) -> dict:
    """CLI configuration dict for a config-expressible pool weight."""
    data = {"weight": entry["config"],
            "system": {"max_degree": entry["max_degree"]},
            "query": query or {"N": 1},
            "tolerance": entry.get("tolerance", 1e-9)}
    if "oracle" in entry:
        data["oracle"] = entry["oracle"]
    return data


@dataclass
class WeightCase:
    """One weight of a workload and how to build it."""

    entry: dict
    rc: Optional[config.RunConfig] = None

    def __post_init__(self):
        if "config" in self.entry:
            self.rc = config.parse_config(run_config(self.entry))

    @property
    def key(self) -> str:
        return self.entry["id"]

    @property
    def tolerance(self) -> float:
        return self.rc.tolerance if self.rc is not None else self.entry["tolerance"]

    def build_weight(self):
        if self.rc is not None:
            return config.build_weight(self.rc)
        c = self.entry["custom"]
        return weight.custom_weight(AnisoGaussian(c["a"], c["b"], c["angle"]),
                                    weight.full_plane_domain(c["cutoff"]))


@dataclass
class Built:
    """Weight, orthogonal system and evaluator, as ``cli._eval_case`` builds them."""

    weight: object
    system: object
    cev: object


def build(case: WeightCase) -> Built:
    w = case.build_weight()
    system = orthopoly.ortho_system(w, case.entry["max_degree"])
    cev = cauchy.cauchy_evaluator(system, tolerance=case.tolerance)
    return Built(w, system, cev)


def fresh_evaluator(case: WeightCase, built: Built) -> Built:
    """A new evaluator (empty memo) on an already built system."""
    return Built(built.weight, built.system,
                 cauchy.cauchy_evaluator(built.system, tolerance=case.tolerance))


@dataclass
class Op:
    """One query or verify case with what its outcome is checked against."""

    weight: int
    query: ratios.RatioQuery
    reference: Optional[complex] = None
    rtol: float = 0.0
    verify: Optional[dict] = None   # oracle method and seed of a verify case


@dataclass
class Block:
    """Operations sharing one evaluator, as one ``scan`` or ``verify`` run does."""

    weight: int
    ops: list


@dataclass
class Workload:
    name: str
    weights: list
    blocks: list
    telescope_rtol: float = 0.0

    @property
    def ops(self) -> list:
        return [op for b in self.blocks for op in b.ops]


def load_pool(name: str) -> dict:
    with open(POOL_DIR / f"{name.replace('-', '_')}.json") as handle:
        return json.load(handle)


def generate(name: str, seed: int) -> Workload:
    """The workload's pass for ``seed``: same seed, same inputs.

    Every slot of the pool contributes one block; the seed picks which of
    the slot's candidates (same structure, different values) it is, and
    the order of the blocks.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    pool = load_pool(name)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    weights = [WeightCase(entry) for entry in pool["weights"]]
    index = {case.key: i for i, case in enumerate(weights)}
    blocks = []
    for slot in pool["slots"]:
        chosen = slot["candidates"][rng.integers(len(slot["candidates"]))]
        widx = index[slot["weight"]]
        blocks.append(Block(widx, [_op(widx, d, pool) for d in chosen]))
    blocks = [blocks[i] for i in rng.permutation(len(blocks))]
    return Workload(name, weights, blocks, telescope_rtol=pool.get("telescope_rtol", 0.0))


def _op(widx: int, d: dict, pool: dict) -> Op:
    ref = d.get("reference")
    return Op(weight=widx, query=query_from_dict(d["query"]),
              reference=cplx(ref) if ref is not None else None,
              rtol=pool.get("reference_rtol", 0.0),
              verify=d.get("verify"))


# ---------------------------------------------------------------- execution

def telescope_path(q: ratios.RatioQuery) -> Optional[str]:
    """The cross-check ``cmd_eval`` runs for this query, if any."""
    if q.M_total == 0 and q.L_total > 0 and not q.is_confluent:
        return "products"
    if q.L_total == 0 and q.M_total > 0 and not q.is_confluent:
        return "inverses"
    return None


def run_query(q: ratios.RatioQuery, b: Built):
    """What cmd_eval computes for one query: value and telescope value."""
    value = ratios.expectation_ratio(q, b.system, b.cev).value
    path = telescope_path(q)
    other = None
    if path == "products":
        other = ratios.expectation_products(q, b.system).value
    elif path == "inverses":
        other = ratios.expectation_inverses(q, b.system, b.cev).value
    return value, other


def run_verify(op: Op, case: WeightCase, b: Built):
    """What cmd_verify computes for one case; returns (passed, detail)."""
    v = op.verify
    cfg = config.build_oracle_config(case.rc, method=v["method"], seed=v["seed"])
    formula = ratios.expectation_ratio(op.query, b.system, b.cev).value
    est = oracle.oracle_expectation(op.query, b.weight, cfg)
    dev = abs(formula - est.value)
    if v["method"] == oracle.TENSOR_QUADRATURE:
        rel = dev / max(abs(est.value), 1e-300)
        return rel <= VERIFY_TENSOR_RTOL, rel
    return dev <= 3.0 * est.stderr, dev / est.stderr if est.stderr > 0 else math.inf


def perform(op: Op, case: WeightCase, b: Built):
    """The timed part of one operation."""
    if op.verify is not None:
        return run_verify(op, case, b)
    return run_query(op.query, b)


def _finite(c) -> bool:
    return c is not None and math.isfinite(c.real) and math.isfinite(c.imag)


def check(op: Op, outcome, telescope_rtol: float) -> Optional[str]:
    """None when the outcome of ``perform`` is correct, else the reason."""
    if op.verify is not None:
        passed, score = outcome
        return None if passed else f"verify pass test failed (score {score:.3g})"
    value, other = outcome
    if not _finite(value) or (other is not None and not _finite(other)):
        return "non-finite value"
    if op.reference is not None:
        rel = abs(value - op.reference) / abs(op.reference)
        if not rel <= op.rtol:
            return f"differs from reference by {rel:.3e} (rtol {op.rtol:g})"
    if other is not None and telescope_rtol > 0:
        rel = abs(value - other) / abs(value)
        if not rel <= telescope_rtol:
            return f"differs from telescope by {rel:.3e} (rtol {telescope_rtol:g})"
    return None
