"""Write the committed input pools and reference outcomes of the benchmark.

    python3 bench/make_pools.py [quad-scan|series-eval|mc-verify ...]

The pools are drawn from fixed master seeds, so rerunning this script
on an unchanged library rewrites identical files.  Rewriting a pool
changes the benchmark: do it in a change of its own, never in a change
that claims a gain.

* quad-scan: reference values come from fresh evaluators at a tighter
  transform tolerance (``REF_TOLERANCES``, first one that converges) than
  the run's 1e-9; the pool records the largest deviation the run
  tolerance showed, and ``reference_rtol`` is the stated check.
* series-eval: reference values are the series-backend values; queries
  with a telescope path are checked against it at run time as well.
* mc-verify: every candidate case runs ``cmd_verify``'s pass test once
  here.  The Monte Carlo oracle is bit-reproducible for a fixed seed, so
  a case keeps its outcome.  A case that fails the test is run again at
  ``FALSE_ALARM_RECHECKS`` further oracle seeds: if it passes at all of
  them, the failure was the 3-sigma test's own false-alarm rate and the
  case is redrawn (it is listed under ``generation``); if it fails at any
  of them, the formula disagrees with the oracle and the script stops.
  The empty query L = M = 0 is not drawn for the Monte Carlo oracle:
  ``cmd_verify``'s pass test has no rounding floor and fails it whenever
  the oracle's sum rounds away from 1 (see ``bench/README.md``).

The candidates of one slot share their structure and are redrawn until
they also build the same number of quadrature nodes (a transform that
needs one more refinement level builds four times the nodes), so every
seed does the same work.

No query is dropped or redrawn because it fails: a query that raises at
the run tolerance stays in the pool and fails every run that draws it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from detratio import cauchy, oracle, ratios  # noqa: E402
from detratio.errors import DetratioError  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

REF_TOLERANCES = (1e-12, 1e-11, 1e-10)
MASTER_SEEDS = {"quad-scan": 20040404, "series-eval": 20040405, "mc-verify": 20040406}


def _grid_nodes(fn) -> float:
    """Quadrature grid nodes built while ``fn()`` runs: the work signature
    that the candidates of one slot must share."""
    t = tracer.Tracer()
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    stats = t.totals()
    return sum(stats[n].counters.get("nodes", 0.0) for n in tracer.GRID_BUILDERS
               if n in stats)


def _polar(rng, center: complex, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    return complex(center) + r * np.exp(2j * np.pi * rng.random())


def _round(c: complex, nd: int = 4) -> complex:
    return complex(round(c.real, nd), round(c.imag, nd))


def _mus(rng, center: complex, spread: float, count: int) -> list:
    return [_round(center + spread * complex(rng.normal(), rng.normal()))
            for _ in range(count)]


def _spread_angles(rng, count: int) -> np.ndarray:
    base = rng.random()
    return 2 * np.pi * (base + np.arange(count) / max(count, 1)
                        + 0.2 * rng.random(count) / max(count, 1))


# ------------------------------------------------------------------ quad-scan

QS_CLASSES = ("far", "mid", "inner")
QS_OPS_PER_BLOCK = 5
QS_SLOTS_PER_STRATUM = 2
CANDIDATES = 3


def _qs_geometry(w):
    """(center, effective support radius S, truncation radius B), origin based."""
    if w.kind == "shifted-gaussian":
        center = complex(w.parameters[0], w.parameters[1])
    else:
        center = 0j
    return center, w.effective_support_radius, w.domain.quad_radius


def _qs_eps_ok(w, cls: str, eps: complex, confluent: bool) -> bool:
    _, s, b = _qs_geometry(w)
    r = abs(eps)
    if cls == "far":
        ok = r > b + 0.2
    elif cls == "mid":
        ok = s + 0.2 < r < b - 0.2
    else:
        ok = r < s - 0.2
    return ok and (not confluent or r > s)


def _qs_draw_eps(rng, w, cls: str, count: int) -> list:
    center, s, b = _qs_geometry(w)
    angles = _spread_angles(rng, count)
    if cls == "far":
        radii = rng.uniform(b + 0.6, b + 3.0, count)
        return [_round(r * np.exp(1j * a)) for r, a in zip(radii, angles)]
    if cls == "mid":
        radii = rng.uniform(s + 0.6, b - 0.6, count)
        return [_round(r * np.exp(1j * a)) for r, a in zip(radii, angles)]
    inner = (s - abs(center)) * 0.75
    radii = rng.uniform(0.15 * inner, inner, count)
    return [_round(center + r * np.exp(1j * a)) for r, a in zip(radii, angles)]


def _qs_structure(rng, cls: str, sweep: str) -> tuple:
    """(N, mu multiplicities, eps multiplicities) of one scan block."""
    while True:
        n_ev = int(rng.integers(2, 5))
        m_distinct = int(rng.integers(1, 3))
        # derivative rows only for poles outside the effective support
        confluent_eps = cls != "inner" and m_distinct == 1 and rng.random() < 0.5
        eps_mult = [2] if confluent_eps else [1] * m_distinct
        n_mu = int(rng.integers(1, 3)) if sweep == "mu" else int(rng.integers(0, 3))
        mu_mult = [2] if n_mu == 1 and rng.random() < 0.3 else [1] * n_mu
        if sum(eps_mult) <= n_ev:
            return n_ev, mu_mult, eps_mult


def _qs_block(rng, w, cls: str, sweep: str, structure: tuple) -> list:
    """A scan: eps-sweeps move every pole (each lookup misses the memo),
    mu-sweeps move mus[0] at fixed poles (the transforms are reused)."""
    center, s, _ = _qs_geometry(w)
    n_ev, mu_mult, eps_mult = structure
    while True:
        eps = _qs_draw_eps(rng, w, cls, len(eps_mult))
        mus = _mus(rng, center, 0.8 * (s - abs(center)) / 3.0, len(mu_mult))
        step = (0.3 if cls == "far" else 0.12) * np.exp(2j * np.pi * rng.random())
        queries = []
        for k in range(QS_OPS_PER_BLOCK):
            e = [_round(v + k * step) for v in eps] if sweep == "eps" else eps
            m = [_round(mus[0] + k * step)] + mus[1:] if sweep == "mu" else mus
            queries.append(ratios.RatioQuery(N=n_ev, mus=m, epsbars=e,
                                             mu_multiplicities=mu_mult,
                                             eps_multiplicities=eps_mult))
        if all(_qs_eps_ok(w, cls, e, max(eps_mult) > 1)
               for q in queries for e in q.epsbars):
            return queries


def _reference(built, q):
    for tol in REF_TOLERANCES:
        cev = cauchy.cauchy_evaluator(built.system, tolerance=tol)
        try:
            return ratios.expectation_ratio(q, built.system, cev).value, tol
        except DetratioError:
            continue
    return None, None


def make_quad_scan(rng) -> dict:
    weights = []
    for i in range(3):
        center = _round(_polar(rng, 0j, 0.0, 1.5), 3)
        weights.append({"id": f"sg{i}", "max_degree": 8,
                        "config": {"kind": "shifted-gaussian",
                                   "center": wl.pair(center),
                                   "scale": round(float(rng.uniform(0.7, 1.5)), 3)}})
    weights.append({"id": "aniso", "max_degree": 8, "tolerance": 1e-9,
                    "custom": {"a": 1.0, "b": 2.2, "angle": 0.5, "cutoff": 8.0}})

    slots, devs, failures = [], [], []
    for entry in weights:
        case = wl.WeightCase(entry)
        built = wl.build(case)
        # the custom weight's effective support is its whole truncated domain
        classes = QS_CLASSES if "config" in entry else ("far", "inner")
        for cls in classes:
            for sweep in ("eps", "mu"):
                for _ in range(QS_SLOTS_PER_STRATUM):
                    structure = _qs_structure(rng, cls, sweep)
                    candidates, signature = [], None
                    for _ in range(CANDIDATES):
                        while True:
                            queries = _qs_block(rng, built.weight, cls, sweep, structure)
                            run = wl.fresh_evaluator(case, built)
                            values = []

                            def scan():
                                for q in queries:
                                    try:
                                        values.append(wl.run_query(q, run)[0])
                                    except DetratioError as exc:
                                        values.append(exc)

                            nodes = _grid_nodes(scan)
                            signature = nodes if signature is None else signature
                            failed = any(isinstance(v, DetratioError) for v in values)
                            # a failing query is kept whatever its cost
                            if nodes == signature or failed:
                                break
                        ops = []
                        for q, value in zip(queries, values):
                            ref, ref_tol = _reference(built, q)
                            if isinstance(value, DetratioError):
                                failures.append(f"{entry['id']} {cls}/{sweep}: {value}")
                            elif ref is not None:
                                devs.append(abs(value - ref) / abs(ref))
                            ops.append({"query": wl.query_to_dict(q),
                                        "reference": None if ref is None else wl.pair(ref),
                                        "reference_tolerance": ref_tol})
                        candidates.append(ops)
                    slots.append({"weight": entry["id"], "stratum": f"{cls}/{sweep}",
                                  "candidates": candidates})
    return {
        "about": "quad-scan pool: scan-like blocks on shifted-gaussian weights "
                 "and one custom anisotropic gaussian, quadrature Cauchy backend",
        "master_seed": MASTER_SEEDS["quad-scan"],
        "reference_rtol": 1e-7,
        "generation": {"max_rel_dev_at_run_tolerance": max(devs),
                       "run_tolerance_failures": failures},
        "weights": weights,
        "slots": slots,
    }


# ---------------------------------------------------------------- series-eval

SE_KINDS = ("generic", "products", "inverses", "confluent")
SE_OPS_PER_BLOCK = 25


def _se_structure(rng, kind: str, max_degree: int) -> tuple:
    """(N, mu multiplicities, eps multiplicities) of one query."""
    while True:
        n_ev = int(rng.integers(2, 15))
        if kind == "generic":
            mu_mult = [1] * int(rng.integers(1, 4))
            eps_mult = [1] * int(rng.integers(1, 4))
        elif kind == "products":
            mu_mult, eps_mult = [1] * int(rng.integers(1, 4)), []
        elif kind == "inverses":
            mu_mult, eps_mult = [], [1] * int(rng.integers(1, 4))
        elif rng.random() < 0.5:
            mu_mult = [2] + [1] * int(rng.integers(0, 2))
            eps_mult = [1] * int(rng.integers(0, 3))
        else:
            mu_mult = [1] * int(rng.integers(0, 3))
            eps_mult = [2] + [1] * int(rng.integers(0, 2))
        if sum(eps_mult) <= n_ev and n_ev + sum(mu_mult) - 1 <= max_degree:
            return n_ev, mu_mult, eps_mult


def _se_query(rng, structure: tuple, s: float) -> ratios.RatioQuery:
    n_ev, mu_mult, eps_mult = structure
    # derivative rows only for poles outside the effective support
    lo = 1.1 * s if any(m > 1 for m in eps_mult) else 0.25 * s
    angles = _spread_angles(rng, len(eps_mult))
    eps = [_round(rng.uniform(lo, 2.0 * s) * np.exp(1j * a)) for a in angles]
    mus = [_round(_polar(rng, 0j, 0.0, 1.5 * s)) for _ in mu_mult]
    return ratios.RatioQuery(N=n_ev, mus=mus, epsbars=eps,
                             mu_multiplicities=mu_mult, eps_multiplicities=eps_mult)


def make_series_eval(rng) -> dict:
    weights = [
        {"id": "gauss1", "max_degree": 20, "config": {"kind": "gaussian", "scale": 1.0}},
        {"id": "gauss05", "max_degree": 20, "config": {"kind": "gaussian", "scale": 0.5}},
        {"id": "disk1", "max_degree": 20, "config": {"kind": "disk-flat", "radius": 1.0}},
        {"id": "disk15", "max_degree": 20, "config": {"kind": "disk-flat", "radius": 1.5}},
    ]
    slots, tel_devs, failures = [], [], []
    for entry in weights:
        case = wl.WeightCase(entry)
        built = wl.build(case)
        s = built.weight.effective_support_radius
        for kind in SE_KINDS:
            template = [_se_structure(rng, kind, entry["max_degree"])
                        for _ in range(SE_OPS_PER_BLOCK)]
            candidates = []
            for _ in range(CANDIDATES):
                run = wl.fresh_evaluator(case, built)
                ops = []
                for structure in template:
                    q = _se_query(rng, structure, s)
                    try:
                        value, other = wl.run_query(q, run)
                    except DetratioError as exc:
                        failures.append(f"{entry['id']} {kind}: {exc}")
                        value, other = None, None
                    if other is not None:
                        tel_devs.append(abs(value - other) / abs(value))
                    ops.append({"query": wl.query_to_dict(q),
                                "reference": None if value is None else wl.pair(value)})
                candidates.append(ops)
            slots.append({"weight": entry["id"], "stratum": kind, "candidates": candidates})
    return {
        "about": "series-eval pool: rotation-invariant weights at max_degree 20, "
                 "series Cauchy backend, cmd_eval query mix",
        "master_seed": MASTER_SEEDS["series-eval"],
        "reference_rtol": 1e-9,
        "telescope_rtol": 1e-9,
        "generation": {"max_telescope_rel_dev": max(tel_devs), "failures": failures},
        "weights": weights,
        "slots": slots,
    }


# ------------------------------------------------------------------ mc-verify

MC_ORACLE = {"method": "monte-carlo", "samples": 200_000, "batches": 32,
             "radial_nodes": 64, "angular_nodes": 96}
# (weight id, stratum, cases per pass): 100 distinct cases, tensor a minority
MC_LAYOUT = (("gauss", "mc-N3", 17), ("gauss", "mc-N4", 17),
             ("sgA", "mc-N3", 17), ("sgA", "mc-N4", 8),
             ("sgB", "mc-N3", 8), ("sgB", "mc-N4", 17),
             ("disk", "tensor", 16))


FALSE_ALARM_RECHECKS = 5


def _mc_structure(rng, stratum: str) -> tuple:
    """(N, L, M) of one verify case, uniform over cmd_verify's default grid
    for N (L in 0..2, M in 0..min(N, 2)); on the Monte Carlo oracle the
    empty query L = M = 0 is left out, since the pass test fails it by
    rounding alone."""
    while True:
        n_ev = int(rng.integers(1, 3)) if stratum == "tensor" else int(stratum[-1])
        n_mu, n_eps = int(rng.integers(0, 3)), int(rng.integers(0, min(n_ev, 2) + 1))
        if stratum == "tensor" or n_mu + n_eps > 0:
            return n_ev, n_mu, n_eps


def _false_alarm(op, case, built) -> bool:
    """Whether a case that failed the pass test passes it at each of
    FALSE_ALARM_RECHECKS further oracle seeds."""
    for k in range(1, FALSE_ALARM_RECHECKS + 1):
        again = dataclasses.replace(op, verify=dict(op.verify, seed=op.verify["seed"] + k))
        if wl.check(again, wl.perform(again, case, wl.fresh_evaluator(case, built)),
                    0.0) is not None:
            return False
    return True


def _mc_case(rng, w, stratum: str, structure: tuple) -> tuple:
    n_ev, n_mu, n_eps = structure
    if stratum == "tensor":
        r = w.domain.radius
        eps = [_round(a * np.exp(1j * t)) for a, t in
               zip(rng.uniform(1.5 * r, 2.5 * r, n_eps), _spread_angles(rng, n_eps))]
        mus = [_round(_polar(rng, 0j, 0.0, 1.5 * r)) for _ in range(n_mu)]
        method = oracle.TENSOR_QUADRATURE
    else:
        center = complex(w.parameters[0], w.parameters[1]) \
            if w.kind == "shifted-gaussian" else 0j
        floor = w.effective_support_radius \
            + oracle.MC_MIN_SUPPORT_DISTANCE * w.domain_scale
        eps = [_round(center + a * np.exp(1j * t)) for a, t in
               zip(rng.uniform(floor + 0.3, floor + 2.0, n_eps),
                   _spread_angles(rng, n_eps))]
        mus = _mus(rng, center, 0.7 / math.sqrt(w.parameters[-1]), n_mu)
        method = oracle.MONTE_CARLO
    q = ratios.RatioQuery(N=n_ev, mus=mus, epsbars=eps)
    return q, {"method": method, "seed": int(rng.integers(1, 2 ** 31))}


def make_mc_verify(rng) -> dict:
    weights = [
        {"id": "gauss", "max_degree": 8, "oracle": MC_ORACLE,
         "config": {"kind": "gaussian", "scale": 1.0}},
        {"id": "sgA", "max_degree": 8, "oracle": MC_ORACLE,
         "config": {"kind": "shifted-gaussian",
                    "center": wl.pair(_round(_polar(rng, 0j, 0.3, 1.0), 3)),
                    "scale": 1.0}},
        {"id": "sgB", "max_degree": 8, "oracle": MC_ORACLE,
         "config": {"kind": "shifted-gaussian",
                    "center": wl.pair(_round(_polar(rng, 0j, 0.3, 1.0), 3)),
                    "scale": 1.4}},
        {"id": "disk", "max_degree": 6, "oracle": MC_ORACLE,
         "config": {"kind": "disk-flat", "radius": 1.0}},
    ]
    entries = {w["id"]: w for w in weights}
    built = {}
    slots, false_alarms = [], []
    for wid, stratum, take in MC_LAYOUT:
        case = wl.WeightCase(entries[wid])
        if wid not in built:
            built[wid] = wl.build(case)
        template = [_mc_structure(rng, stratum) for _ in range(take)]
        candidates = []
        signatures: list = [None] * take
        for _ in range(CANDIDATES):
            ops = []
            for pos, structure in enumerate(template):
                # redrawn for its work, or for a false alarm of the pass test
                while True:
                    q, verify = _mc_case(rng, built[wid].weight, stratum, structure)
                    op = wl.Op(weight=0, query=q, verify=verify)
                    outcome = []

                    def case_run():
                        fresh = wl.fresh_evaluator(case, built[wid])
                        try:
                            outcome.append(wl.check(op, wl.perform(op, case, fresh), 0.0))
                        except DetratioError as exc:
                            outcome.append(f"{type(exc).__name__}: {exc}")

                    nodes = _grid_nodes(case_run)
                    signatures[pos] = nodes if signatures[pos] is None else signatures[pos]
                    if nodes != signatures[pos]:
                        continue
                    if outcome[0] is None:
                        break
                    name = f"{wid} N={q.N} L={q.L_total} M={q.M_total} seed {verify['seed']}"
                    if not _false_alarm(op, case, built[wid]):
                        raise RuntimeError(f"{name}: {outcome[0]}, and it fails again at "
                                           "another oracle seed")
                    false_alarms.append(f"{name}: {outcome[0]}")
                ops.append({"query": wl.query_to_dict(q), "verify": verify})
            candidates.append(ops)
        slots.append({"weight": wid, "stratum": stratum, "candidates": candidates})
    return {
        "about": "mc-verify pool: cmd_verify cases, Monte Carlo oracle for N = 3-4 "
                 "and tensor quadrature for disk-flat N <= 2",
        "master_seed": MASTER_SEEDS["mc-verify"],
        "generation": {"false_alarms_redrawn": false_alarms},
        "weights": weights,
        "slots": slots,
    }


MAKERS = {"quad-scan": make_quad_scan, "series-eval": make_series_eval,
          "mc-verify": make_mc_verify}


def _dump(pool: dict, handle) -> None:
    """Pretty at the top, one operation per line below, keys sorted."""
    def ops(items):
        return "[\n" + ",\n".join("    " + json.dumps(op, sort_keys=True)
                                    for op in items) + "]"
    parts = []
    for key in sorted(pool):
        if key == "slots":
            slots = []
            for slot in pool[key]:
                head = json.dumps({k: v for k, v in slot.items() if k != "candidates"},
                                  sort_keys=True)[:-1]
                cands = ",\n   ".join(ops(c) for c in slot["candidates"])
                slots.append(f"  {head}, \"candidates\": [\n   {cands}]}}")
            value = "[\n" + ",\n".join(slots) + "]"
        else:
            value = json.dumps(pool[key], indent=1, sort_keys=True)
        parts.append(f" {json.dumps(key)}: {value}")
    handle.write("{\n" + ",\n".join(parts) + "\n}\n")


def main(argv) -> int:
    names = argv or list(MAKERS)
    os.makedirs(wl.POOL_DIR, exist_ok=True)
    for name in names:
        pool = MAKERS[name](np.random.default_rng(MASTER_SEEDS[name]))
        path = wl.POOL_DIR / f"{name.replace('-', '_')}.json"
        with open(path, "w") as handle:
            _dump(pool, handle)
        with open(path) as handle:
            if json.load(handle) != json.loads(json.dumps(pool)):
                raise RuntimeError(f"{path} does not read back as written")
        count = sum(len(c) for slot in pool["slots"] for c in slot["candidates"])
        print(f"{name}: {len(pool['slots'])} slots, {count} ops -> {path}")
        print(json.dumps(pool.get("generation", {}), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
