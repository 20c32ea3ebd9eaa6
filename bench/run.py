"""Benchmark for detratio: one workload, one seed, one run.

    python3 bench/run.py --workload quad-scan --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the run for a reader.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` alternates
untraced and traced passes over the same inputs and reports the
per-layer metrics and the tracing overhead.  Every timing is the median
of repeats spread over the whole run: an operation's executions across
passes, the set-ups, the CLI processes, the passes.
Workloads and metrics are described in ``bench/README.md``.

Load: one process, one caller, closed loop (the next operation starts
when the previous one has returned); BLAS and OpenMP pools are capped
at one thread before numpy is imported, and the untraced run moves
between the CPUs it may use, one stretch on each in turn.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# glibc maps fresh pages for a malloc above its mmap threshold (128 KiB
# at start) and raises the threshold the first time such a block is
# freed; whether a run's large temporaries then come from fresh pages or
# from the heap depends on its allocation history.  A quadrature query
# spends about half its time in page faults in the first case and none
# in the second, so runs of identical work split into modes 2x apart.
# Fixed thresholds (which turn the adjustment off) keep every run on the
# heap, so the timings measure the library's work.  Child processes get
# the same settings through the environment.
MALLOC_SETTINGS = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 128 << 20)}


def configure_process() -> bool:
    """Cap thread pools and pin the allocator, before numpy is imported.

    Returns False where there is no glibc ``mallopt`` to pin with.
    """
    import ctypes
    import ctypes.util
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    for name, (_, value) in MALLOC_SETTINGS.items():
        os.environ["MALLOC_" + name[2:] + "_"] = str(value)
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS.values())


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-ups and CLI processes run at a checkpoint between every two of the
# SEGMENTS stretches of operations, so they sample the machine's speed
# over the whole run, as the operations do.  At each checkpoint the run
# also moves itself to the next CPU it may use: on a shared host each
# CPU's speed changes on its own, for seconds to minutes, and a process
# left on one CPU measures that CPU's phase for the whole run.
SEGMENTS = 54
# set-ups repeat at each checkpoint for this long, at least MIN_SETUPS times
SETUP_SECONDS_PER_CHECKPOINT = 0.035
MIN_SETUPS = 3
# one CLI process at every CLI_EVERY-th checkpoint, the first included
CLI_EVERY = 3
CLI_TIMEOUT_S = 60
CLI_RTOL = 1e-12

# name -> (unit, description); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "time to build every weight, moment matrix, OrthoSystem "
                     "and CauchyEvaluator of the run"),
    "op_ms_p50": ("ms", "median over the pass's operations (queries, or verify "
                        "cases on mc-verify) of their latency"),
    "op_ms_p90": ("ms", "90th percentile of the same"),
    "ops_per_s": ("1/s", "operations per second of operation time, from the "
                         "per-operation latencies"),
    "cli_eval_s": ("s", "wall time of a fresh `python -m detratio eval` "
                        "process on a generated config"),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
}

PER_LAYER = {
    "cauchy.quadrature.s": ("s", "time in cauchy_quadrature per pass"),
    "cauchy.quadrature.transforms": ("count", "quadrature transforms computed per pass"),
    "cauchy.quadrature.nodes_per_transform": ("count", "grid nodes per quadrature "
                                                       "transform, probe included"),
    "cauchy.quadrature.levels_per_transform": ("count", "adaptive refinement levels "
                                                        "per quadrature transform"),
    "quadrature.grids": ("count", "grids built per pass"),
    "quadrature.nodes": ("count", "grid nodes built per pass"),
    "quadrature.grid_build.s": ("s", "time building grids per pass"),
    "cauchy.requests": ("count", "cauchy_transform_full calls per pass"),
    "cauchy.computed": ("count", "transforms computed (memo misses) per pass"),
    "cauchy.hits": ("count", "transforms served from the memo per pass"),
    "cauchy.hit_ratio": ("ratio", "hits / requests"),
    "cauchy.memo_entries_max": ("count", "largest memo of any evaluator"),
    "cauchy.series.s": ("s", "time in series_transform per pass"),
    "ratios.expectation_ratio.self_s": ("s", "self time of expectation_ratio per pass"),
    "ratios.telescope.s": ("s", "time in the telescope paths per pass"),
    "determinants.scaled_lu_det.calls": ("count", "scaled_lu_det calls per pass"),
    "determinants.scaled_lu_det.s": ("s", "time in scaled_lu_det per pass"),
    "determinants.cond_max": ("ratio", "largest pivot-ratio condition seen"),
    "orthopoly.eval_poly.calls": ("count", "eval_poly calls per pass"),
    "deformed.christoffel_poly.calls": ("count", "christoffel_poly calls per pass"),
    "deformed.christoffel_poly.s": ("s", "time in christoffel_poly per pass"),
    "deformed.deformed_cauchy.calls": ("count", "deformed_cauchy calls per pass"),
    "deformed.deformed_cauchy.s": ("s", "time in deformed_cauchy per pass"),
    "weight.moment_matrix.calls": ("count", "moment_matrix calls per set-up"),
    "weight.moment_matrix.s": ("s", "time in moment_matrix per set-up"),
    "weight.moment_matrix.nodes": ("count", "quadrature nodes of moment_matrix "
                                            "per set-up"),
    "orthopoly.build_ortho_system.s": ("s", "time in build_ortho_system per set-up"),
    "oracle.mc.s": ("s", "time in the Monte Carlo oracle per pass"),
    "oracle.mc.samples": ("count", "Monte Carlo samples drawn per pass"),
    "oracle.mc.samples_per_s": ("1/s", "samples drawn per second of oracle time"),
    "oracle.mc.neff_ratio": ("ratio", "effective over drawn samples"),
    "oracle.tensor.s": ("s", "time in the tensor-quadrature oracle per pass"),
    "oracle.tensor.nodes": ("count", "grid nodes of the tensor oracle per pass"),
    **{f"split.{m}.self_s": ("s", f"self time of the traced {m} functions per pass")
       for m in ("weight", "quadrature", "orthopoly", "cauchy", "deformed",
                 "determinants", "ratios", "oracle")},
    "pass.ops": ("count", "operations per pass"),
    "trace.untraced_pass_s": ("s", "untraced pass time"),
    "trace.overhead_share": ("ratio", "traced over untraced pass time, minus 1"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import detratio from this checkout's src, never from elsewhere."""
    if not (SRC / "detratio" / "__init__.py").is_file():
        raise SystemExit(f"error: no detratio sources under {SRC}; run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import detratio
    if Path(detratio.__file__).resolve().parent != (SRC / "detratio").resolve():
        raise SystemExit(f"error: detratio imported from {detratio.__file__}, not {SRC}")
    return detratio


def run_cpus() -> list:
    """The CPUs the run cycles through; [None] where it cannot pin itself."""
    if not hasattr(os, "sched_setaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))


def environment(allocator_pinned: bool) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_thread_cap": THREAD_CAP, "load": "closed loop, 1 caller, 1 process",
            "cpus_cycled": run_cpus(),
            "malloc": {k: v for k, (_, v) in MALLOC_SETTINGS.items()}
            if allocator_pinned else "not pinned"}


class Runner:
    """Executes passes of one workload and keeps the outcome tallies."""

    def __init__(self, workload, wl):
        from detratio.errors import DetratioError
        self.error = DetratioError
        self.workload = workload
        self.wl = wl
        self.attempted = 0
        self.failures: list = []

    def setup(self) -> list:
        return [self.wl.build(case) for case in self.workload.weights]

    def timed_setup(self) -> float:
        start = time.perf_counter()
        self.setup()
        return time.perf_counter() - start

    def run_op(self, op, built) -> float:
        """Run and check one operation; returns its latency in seconds."""
        case = self.workload.weights[op.weight]
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.wl.perform(op, case, built)
        except self.error as exc:
            elapsed = time.perf_counter() - start
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        reason = self.wl.check(op, outcome, self.workload.telescope_rtol)
        if reason is not None:
            self.failures.append(reason)
        return elapsed

    def ops(self, systems):
        """Every operation of one pass, each block on a fresh evaluator."""
        for block in self.workload.blocks:
            case = self.workload.weights[block.weight]
            built = self.wl.fresh_evaluator(case, systems[block.weight])
            for op in block.ops:
                yield op, built

    def cycle(self, systems):
        """Operations pass after pass, with their position in the pass."""
        while True:
            yield from enumerate(self.ops(systems))

    def run_pass(self, systems) -> float:
        gc.collect()
        start = time.perf_counter()
        for op, built in self.ops(systems):
            self.run_op(op, built)
        return time.perf_counter() - start

    def warm_up(self, systems) -> None:
        """Pay every path's lazy set-up once: the first op of each block."""
        for block in self.workload.blocks:
            case = self.workload.weights[block.weight]
            built = self.wl.fresh_evaluator(case, systems[block.weight])
            try:
                self.wl.perform(block.ops[0], case, built)
            except self.error:
                pass


class CliEval:
    """Fresh ``python -m detratio eval`` processes on a generated config.

    The config holds the first query of the pass whose weight the CLI can
    express; every process must print the in-process value.
    """

    def __init__(self, runner, systems, tmpdir: Path):
        from detratio import ratios
        wl = runner.wl
        self.runner = runner
        for block in runner.workload.blocks:
            case = runner.workload.weights[block.weight]
            if case.rc is not None:
                op = block.ops[0]
                break
        else:
            raise SystemExit("error: no CLI-expressible weight in the workload")
        self.config = tmpdir / "eval.json"
        self.config.write_text(json.dumps(wl.run_config(case.entry,
                                                        wl.query_to_dict(op.query))))
        fresh = wl.fresh_evaluator(case, systems[op.weight])
        self.expected = ratios.expectation_ratio(op.query, fresh.system, fresh.cev).value

    def run(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.runner.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "detratio", "eval",
                               "--config", str(self.config)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.runner.failures.append(
                f"cli eval exit {proc.returncode}: {proc.stderr.strip()}")
            return elapsed
        value = json.loads(proc.stdout)["value"]
        got = complex(value["re"], value["im"])
        if not abs(got - self.expected) <= CLI_RTOL * abs(self.expected):
            self.runner.failures.append(
                f"cli eval value {got!r} differs from in-process {self.expected!r}")
        return elapsed


def end_to_end(args, runner) -> dict:
    """Operations for ``--seconds`` in SEGMENTS stretches, with set-ups and
    CLI processes at every checkpoint around them.  Every execution is
    timed and checked; every timing is the median of its repeats."""
    systems = runner.setup()
    runner.warm_up(systems)
    samples: dict = {}
    setups, clis = [], []
    cpus = itertools.cycle(run_cpus())
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        cli = CliEval(runner, systems, Path(tmp))

        def checkpoint(k):
            cpu = next(cpus)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            gc.collect()
            stop = time.perf_counter() + SETUP_SECONDS_PER_CHECKPOINT
            for n in itertools.count(1):
                setups.append(runner.timed_setup())
                if n >= MIN_SETUPS and time.perf_counter() >= stop:
                    break
            if k % CLI_EVERY == 0:
                clis.append(cli.run())
            gc.collect()

        stream = runner.cycle(systems)
        checkpoint(0)
        for k in range(1, SEGMENTS + 1):
            stop = time.perf_counter() + args.seconds / SEGMENTS
            for i, (op, built) in stream:
                samples.setdefault(i, []).append(runner.run_op(op, built))
                if time.perf_counter() >= stop:
                    break
            checkpoint(k)

    lat_ms = sorted(statistics.median(v) * 1e3 for v in samples.values())
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= 2 else lat_ms[0]
    print(f"# operations: {len(lat_ms)} distinct timed "
          f"({len(lat_ms) - sum(v <= p90 for v in lat_ms)} beyond p90), "
          f"{sum(len(v) for v in samples.values())} executions; "
          f"{len(setups)} set-ups, {len(clis)} CLI processes")
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": p90,
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "cli_eval_s": statistics.median(clis),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _counts(stats: dict) -> dict:
    return {name: (st.calls, tuple(sorted(st.counters.items())))
            for name, st in stats.items()}


def _traced(tracer, fn):
    tracer.install()
    try:
        out = fn()
    finally:
        tracer.uninstall()
    stats = tracer.totals()
    tracer.reset()
    return out, stats


def per_layer(args, runner, tracer_mod) -> tuple:
    """Alternate untraced and traced passes over the same inputs."""
    tracer = tracer_mod.Tracer()
    systems = runner.setup()
    runner.warm_up(systems)
    setup_stats = [_traced(tracer, runner.setup)[1] for _ in range(3)]

    plain, traced, pass_stats = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(runner.run_pass(systems))
        elapsed, stats = _traced(tracer, lambda: runner.run_pass(systems))
        traced.append(elapsed)
        pass_stats.append(stats)

    repeat_ok = all(_counts(s) == _counts(pass_stats[0]) for s in pass_stats[1:]) and \
        all(_counts(s) == _counts(setup_stats[0]) for s in setup_stats[1:])
    if not repeat_ok:
        runner.failures.append("per-layer counts differ between identical passes")
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; "
          f"counts repeat across passes: {repeat_ok}")
    return layer_metrics(pass_stats, setup_stats, plain, traced, len(runner.workload.ops),
                         tracer_mod), repeat_ok


def layer_metrics(pass_stats, setup_stats, plain, traced, ops_per_pass, tracer_mod) -> dict:
    first, setup = pass_stats[0], setup_stats[0]

    def calls(stats, *names):
        return sum(stats[n].calls for n in names if n in stats)

    def counter(stats, key, *names):
        return sum(stats[n].counters.get(key, 0.0) for n in names if n in stats)

    def seconds(runs, *names, self_time=False):
        return statistics.median(
            sum((s[n].self_time if self_time else s[n].total) for n in names if n in s)
            for s in runs)

    def ratio(a, b):
        return a / b if b else 0.0

    grids = tracer_mod.GRID_BUILDERS
    cq = "cauchy.cauchy_quadrature"
    ctf = "cauchy.cauchy_transform_full"
    maxima = first.get("<max>")
    requests, computed = calls(first, ctf), counter(first, "computed", ctf)
    mc_s = seconds(pass_stats, "oracle.mc")
    mc_samples = counter(first, "samples", "oracle.mc")
    metrics = {
        "cauchy.quadrature.s": seconds(pass_stats, cq),
        "cauchy.quadrature.transforms": calls(first, cq),
        "cauchy.quadrature.nodes_per_transform": ratio(counter(first, "nodes", cq),
                                                       calls(first, cq)),
        "cauchy.quadrature.levels_per_transform": ratio(counter(first, "levels", cq),
                                                        calls(first, cq)),
        "quadrature.grids": calls(first, *grids),
        "quadrature.nodes": counter(first, "nodes", *grids),
        "quadrature.grid_build.s": seconds(pass_stats, *grids),
        "cauchy.requests": requests,
        "cauchy.computed": computed,
        "cauchy.hits": requests - computed,
        "cauchy.hit_ratio": ratio(requests - computed, requests),
        "cauchy.memo_entries_max": maxima.counters.get("memo_entries", 0.0) if maxima else 0.0,
        "cauchy.series.s": seconds(pass_stats, "cauchy.series_transform"),
        "ratios.expectation_ratio.self_s": seconds(pass_stats, "ratios.expectation_ratio",
                                                   self_time=True),
        "ratios.telescope.s": seconds(pass_stats, "ratios.expectation_products",
                                      "ratios.expectation_inverses"),
        "determinants.scaled_lu_det.calls": calls(first, "determinants.scaled_lu_det"),
        "determinants.scaled_lu_det.s": seconds(pass_stats, "determinants.scaled_lu_det"),
        "determinants.cond_max": maxima.counters.get("cond", 0.0) if maxima else 0.0,
        "orthopoly.eval_poly.calls": calls(first, "orthopoly.eval_poly"),
        "deformed.christoffel_poly.calls": calls(first, "deformed.christoffel_poly"),
        "deformed.christoffel_poly.s": seconds(pass_stats, "deformed.christoffel_poly"),
        "deformed.deformed_cauchy.calls": calls(first, "deformed.deformed_cauchy"),
        "deformed.deformed_cauchy.s": seconds(pass_stats, "deformed.deformed_cauchy"),
        "weight.moment_matrix.calls": calls(setup, "weight.moment_matrix"),
        "weight.moment_matrix.s": seconds(setup_stats, "weight.moment_matrix"),
        "weight.moment_matrix.nodes": counter(setup, "nodes", "weight.moment_matrix"),
        "orthopoly.build_ortho_system.s": seconds(setup_stats,
                                                  "orthopoly.build_ortho_system"),
        "oracle.mc.s": mc_s,
        "oracle.mc.samples": mc_samples,
        "oracle.mc.samples_per_s": ratio(mc_samples, mc_s),
        "oracle.mc.neff_ratio": ratio(counter(first, "neff", "oracle.mc"), mc_samples),
        "oracle.tensor.s": seconds(pass_stats, "oracle.tensor"),
        "oracle.tensor.nodes": counter(first, "nodes", "oracle.tensor"),
    }
    for module in tracer_mod.MODULES:
        names = [n for n in first if n.startswith(module + ".")]
        metrics[f"split.{module}.self_s"] = seconds(pass_stats, *names, self_time=True)
    metrics["pass.ops"] = ops_per_pass
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # A terminated run unwinds as an interrupted one does: the CLI process
    # it waits for is killed and reaped, and its temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    allocator_pinned = configure_process()
    import_library()
    import tracer as tracer_mod
    import workloads as wl
    try:
        workload = wl.generate(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(workload, wl)

    print(f"# detratio benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment(allocator_pinned), sort_keys=True)}")
    print(f"# inputs: weights={[c.key for c in workload.weights]} "
          f"blocks={len(workload.blocks)} ops_per_pass={len(workload.ops)}")

    correct = True
    if args.trace:
        values, correct = per_layer(args, runner, tracer_mod)
        table = PER_LAYER
    else:
        values = end_to_end(args, runner)
        table = END_TO_END
    failed = len(runner.failures)
    correct = correct and failed == 0
    for reason in runner.failures[:10]:
        print(f"# failure: {reason}", file=sys.stderr)

    print(f"# failed_share = {failed / max(runner.attempted, 1):.6g} "
          f"({failed} of {runner.attempted} operations)")
    metrics = {}
    for name, (unit, about) in table.items():
        value = float(values[name])
        print(f"# {name} = {value:.6g} {unit}  -- {about}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
