"""The traced benchmark (perfbench/spans.py) wraps symquery attributes by
name and reads the outcome caches' statistics; a rename must fail here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_attributes_resolve():
    for mod, attr, _ in load_spans().SPANNED:
        module = importlib.import_module(f"symquery.{mod}")
        assert callable(getattr(module, attr, None)), f"symquery.{mod}.{attr}"


def test_counted_attributes_resolve():
    algos = importlib.import_module("symquery.algos")
    assert callable(algos.domain_inputs)
    for name in load_spans().OUTCOME_CACHES:
        assert hasattr(getattr(algos, name), "cache_info"), name
