"""The benchmark's per-layer spans name functions that exist.

``bench/tracer.py`` wraps functions of the package by module and
attribute name, and a name it cannot find only lands in its ``missing``
list: a rename under ``src`` would drop that layer's span without a word.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


@pytest.mark.parametrize("name, module, attr", _wrapped())
def test_wrapped_function_exists(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name
