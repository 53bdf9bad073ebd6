"""The benchmark's tracer wraps stackedcx functions by module and name;
every name it lists must exist, or a traced run would break."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.FUNCTIONS.items()
            for name in names]


@pytest.mark.parametrize("module, name", traced_functions())
def test_traced_function_exists(module, name):
    fn = getattr(importlib.import_module(f"stackedcx.{module}"), name, None)
    assert callable(fn), f"stackedcx.{module}.{name}"
