"""Names that other code depends on: the package exports and the benchmark's counters.

The benchmark counts calls of named public layer functions; a function that is
deleted or renamed would read as zero calls instead of failing, so the names
are pinned here.
"""

import importlib.util
import types
from pathlib import Path

import pytest

import sasakigeo

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _bench_span_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted(set(spans.CALLS + spans.SECONDS + spans.US_PER_CALL))


@pytest.mark.parametrize("name", _bench_span_names())
def test_benchmark_counter_names_a_public_layer_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"sasakigeo.{layer}")
    fn = getattr(module, attr, None)
    assert isinstance(fn, types.FunctionType), f"{name} is not a function of sasakigeo.{layer}"
    assert fn.__module__ == module.__name__ and not attr.startswith("_")


def test_every_export_resolves():
    missing = [name for name in sasakigeo.__all__ if not hasattr(sasakigeo, name)]
    assert not missing
