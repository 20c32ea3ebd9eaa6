"""The benchmark's trace mode wraps library functions by name.

``bench/tracer.py`` lists them in ``TRACED`` as (module, attribute)
pairs; a function renamed or deleted in ``detratio`` breaks only
``bench/run.py --trace 1``, so every pair is resolved here.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def traced_pairs() -> tuple:
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


def test_traced_functions_exist():
    pairs = traced_pairs()
    assert pairs
    for module_name, attribute in pairs:
        target = importlib.import_module(f"detratio.{module_name}")
        for part in attribute.split("."):
            assert hasattr(target, part), f"detratio.{module_name}.{attribute}"
            target = getattr(target, part)
        assert callable(target), f"detratio.{module_name}.{attribute}"
