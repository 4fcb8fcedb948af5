"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` wraps package functions and methods by name; a
rename or deletion there would only show up as an ``AttributeError`` or
``KeyError`` in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_targets_resolve():
    tracing = _load_tracing()
    for module, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, *_ in tracing.METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
