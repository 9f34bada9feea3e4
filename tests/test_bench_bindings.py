"""The names the benchmark's tracer binds must still exist in the package.

bench/spans.py wraps each function in its LAYERS table by module and name,
and binds class_number's arguments by name to count ceiling skips; a
rename in the package would otherwise break the benchmark only.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from pellrat import classno

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = [f"{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"pellrat.{layer}"), name, None))]
    assert missing == []


def test_class_number_keeps_the_parameters_the_tracer_binds():
    params = inspect.signature(classno.class_number).parameters
    assert {"field", "ceiling", "eps"} <= set(params)
