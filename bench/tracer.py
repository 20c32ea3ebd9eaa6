"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` rebinds the traced functions to timing wrappers in
every ``detratio`` module that holds them.  The modules import each
other by name (``from .cauchy import cauchy_transform_full``), so each
importing module has its own binding and all of them are replaced;
methods are rebound on their class.  ``uninstall`` restores the
originals, so untraced code runs unwrapped.

A span's self time is its duration minus the time of the traced spans
it directly encloses.  Counters (grid nodes, refinement levels, Monte
Carlo samples, ...) are recorded inside the innermost open span and
added to every enclosing span when it closes, so a span's counters are
inclusive.  Everything stays in memory; ``totals`` reads it out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import detratio

# (module, function) pairs wrapped; the span name is "module.function".
# A dotted function is a method, rebound on its class.
TRACED = (
    ("weight", "WeightSpec.evaluate"),
    ("weight", "moment_matrix"),
    ("weight", "radial_mass"),
    ("quadrature", "star_grid"),
    ("quadrature", "cauchy_kernel_grid"),
    ("quadrature", "adaptive_integral"),
    ("orthopoly", "build_ortho_system"),
    ("orthopoly", "eval_poly"),
    ("cauchy", "cauchy_transform_full"),
    ("cauchy", "series_transform"),
    ("cauchy", "cauchy_quadrature"),
    ("deformed", "christoffel_poly"),
    ("deformed", "deformed_cauchy"),
    ("determinants", "scaled_lu_det"),
    ("determinants", "lu_det"),
    ("ratios", "expectation_ratio"),
    ("ratios", "expectation_products"),
    ("ratios", "expectation_inverses"),
    ("oracle", "oracle_expectation"),
    ("oracle", "_sample_eigenvalues"),
)

MODULES = ("weight", "quadrature", "orthopoly", "cauchy", "deformed",
           "determinants", "ratios", "oracle")

GRID_BUILDERS = ("quadrature.star_grid", "quadrature.cauchy_kernel_grid")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))


@dataclass
class _Frame:
    name: str
    start: float
    child_time: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self):
        self.stats: dict = defaultdict(SpanStats)
        self.stack: list = []
        self._saved: list = []   # (module object, attribute, original)

    # ---------------------------------------------------------- recording

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add to a counter of the innermost open span."""
        self.stack[-1].counters[key] += amount

    def maximum(self, key: str, value: float) -> None:
        st = self.stats["<max>"].counters
        st[key] = max(st[key], value)

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        self.stack.pop()
        st = self.stats[frame.name]
        st.calls += 1
        st.total += elapsed
        st.self_time += elapsed - frame.child_time
        for key, val in frame.counters.items():
            st.counters[key] += val
        if self.stack:
            parent = self.stack[-1]
            parent.child_time += elapsed
            for key, val in frame.counters.items():
                parent.counters[key] += val

    def reset(self) -> None:
        self.stats = defaultdict(SpanStats)

    # ----------------------------------------------------------- wrapping

    def _wrapper(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                tracer._close(frame)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "detratio" or key.startswith("detratio."))]
        for mod_name, fn_name in TRACED:
            module = getattr(detratio, mod_name)
            if "." in fn_name:
                cls_name, attr = fn_name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrapper(f"{mod_name}.{fn_name}", original))
                continue
            original = getattr(module, fn_name)
            traced = self._wrapper(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    # -------------------------------------------------------------- hooks

    def _grid(self, fn, args, kwargs):
        grid = fn(*args, **kwargs)
        self.count("nodes", grid.size)
        return grid

    _hook_quadrature_star_grid = _grid
    _hook_quadrature_cauchy_kernel_grid = _grid

    def _hook_quadrature_adaptive_integral(self, fn, args, kwargs):
        evaluate = args[0]

        def counted(n_r, n_t):
            self.count("levels")
            return evaluate(n_r, n_t)

        return fn(counted, *args[1:], **kwargs)

    def _hook_cauchy_cauchy_transform_full(self, fn, args, kwargs):
        memo = args[0]._memo
        before = len(memo)
        out = fn(*args, **kwargs)
        self.count("computed", len(memo) - before)
        self.maximum("memo_entries", len(memo))
        return out

    def _hook_determinants_scaled_lu_det(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.maximum("cond", out[2])
        return out

    def _hook_oracle_oracle_expectation(self, fn, args, kwargs):
        cfg = args[2]
        frame = self.stack[-1]
        if cfg.method == detratio.oracle.MONTE_CARLO:
            frame.name = "oracle.mc"
            out = fn(*args, **kwargs)
            self.count("neff", out.neff)
            return out
        frame.name = "oracle.tensor"
        return fn(*args, **kwargs)

    def _hook_oracle__sample_eigenvalues(self, fn, args, kwargs):
        z = fn(*args, **kwargs)
        self.count("samples", z.shape[0])   # one row of N eigenvalues per sample
        return z

    # ------------------------------------------------------------ results

    def totals(self) -> dict:
        """Copy of the per-span statistics, keyed by span name."""
        return {name: SpanStats(st.calls, st.total, st.self_time, dict(st.counters))
                for name, st in self.stats.items()}
