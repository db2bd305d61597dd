"""The benchmark tracer's table names functions that exist.

``perfbench/spans.py`` wraps package functions by module and name; a
renamed function would otherwise surface only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = []
    for module_name, functions in spans.SPANS.values():
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        missing += [f"{module_name}.{name}" for name in functions
                    if not callable(getattr(module, name, None))]
    assert missing == []
    expected = set().union(*spans.EXPECTED_SPANS.values())
    assert expected <= spans.SPANS.keys()
