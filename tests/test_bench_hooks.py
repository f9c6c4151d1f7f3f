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


# One valid instance and input per registry id, as the benchmark's `run`
# requests give them: parameters in registry order, then the input.
ONE_RUN = {
    "xquery": ((6,), "110100"),
    "dj": ((8, 1), "10000000"),
    "dhw": ((5, 3), "11100"),
    "f1": ((7,), "1000100"),
    "f3": ((7,), "0110000"),
    "grover1": ((8,), "01000000"),
    "dw1": ((8,), "11000000"),
    "dw2": ((8,), "11111100"),
    "dw": ((8, 1, 7), "11111110"),
    "f2": ((8, 2), "11100000"),
    "f4": ((7,), "1000111"),
}


def test_runners_resolve_by_name():
    # perfbench/answers.py looks each runner up by id and formats every
    # branch's probability with :.12g
    algos = importlib.import_module("symquery.algos")
    assert list(ONE_RUN) == list(algos.ALGORITHMS)
    for alg, (params, x) in ONE_RUN.items():
        run = getattr(algos, "dw_general" if alg == "dw" else alg)(*params, x)
        assert run.x == x and run.branches, alg
        for b in run.branches:
            assert 0 < float(f"{b.probability:.12g}") <= 1, (alg, b)
