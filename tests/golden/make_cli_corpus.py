"""Regenerate tests/golden/cli.json: argv, exit code, stdout and stderr of
``symquery`` verify, run, classical, classify, det and families for a fixed
set of invocations, each with and without ``--json``, plus user errors that
end with exit 2 and an ``error:`` line.

    PYTHONPATH=src python tests/golden/make_cli_corpus.py

Only regenerate when a change to the output is intended; test_golden.py
replays the file through ``replay`` below and asserts byte-identical output.
Errors raised by argparse itself are left out: their wording differs between
Python versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from symquery import algos, family_f1, symfun
from symquery.cli import main

CORPUS = Path(__file__).with_name("cli.json")

# registry edits that make a verify invocation fail; an entry names one by key
PATCHES = {
    "f1 targets F1(n, n//2 + 1)": ("f1", lambda n: family_f1(n, n // 2 + 1)),
}

PARAMS = {
    "xquery": {"n": 6},
    "grover1": {"n": 8},
    "dj": {"n": 8, "k": 1},
    "dhw": {"n": 5, "k": 3},
    "f1": {"n": 7},
    "f3": {"n": 7},
    "dw1": {"n": 8},
    "dw2": {"n": 8},
    "dw": {"n": 8, "k": 1, "l": 7},
    "f2": {"n": 8, "k": 2},
    "f4": {"n": 7},
}
RUN_INPUTS = {
    "xquery": "110100",
    "grover1": "01000000",
    "dj": "10000000",
    "dhw": "11100",
    "f1": "1000100",
    "f3": "0110000",
    "dw1": "11000000",
    "dw2": "11111100",
    "dw": "11111110",
    "f2": "11100000",
    "f4": "0011100",
}


def _flags(params: dict[str, int]) -> list[str]:
    return [arg for name, value in params.items() for arg in (f"--{name}", str(value))]


def invocations() -> list[tuple[list[str], str | None]]:
    out: list[tuple[list[str], str | None]] = []
    for alg, params in PARAMS.items():
        out.append((["verify", "--alg", alg, *_flags(params)], None))
    out.append((["verify", "--alg", "f1", "--n", "7"], "f1 targets F1(n, n//2 + 1)"))
    for alg, params in PARAMS.items():
        out.append((["run", "--alg", alg, *_flags(params), "--input", RUN_INPUTS[alg]], None))
    out.append((["run", "--alg", "dj", "--n", "8", "--k", "1", "--input", "11100000"], None))
    for fn in ("DJ:8,1", "0*1*0", "PARITY:6", "**1*0*"):
        out.append((["classical", "--fn", fn], None))
    for fn in ("0*1*0", "001**", "F2:9,5", "F4:6", "DJ:8,1", "1***", "******"):
        out.append((["classify", "--fn", fn], None))
    # (12, 5), (13, 5) and (21, 8) lie in the band 2k+1 <= n <= 3k-2
    for n, k in ((6, 1), (12, 3), (20, 4), (1, 0), (12, 5), (13, 5), (21, 8)):
        out.append((["det", "--n", str(n), "--k", str(k)], None))
    out.append((["families"], None))
    errors = [
        ["verify", "--alg", "nope", "--n", "5"],
        ["verify", "--alg", "dj", "--n", "8"],
        ["verify", "--alg", "xquery", "--n", "-1"],
        ["verify", "--alg", "grover1", "--n", "0"],
        ["verify", "--alg", "f4", "--n", str(symfun.MAX_FAMILY_N + 1)],
        ["verify", "--alg", "dw", "--n", "8", "--k", "7", "--l", "1"],
        ["run", "--alg", "dj", "--n", "8", "--k", "1"],
        ["run", "--alg", "xquery", "--n", "4", "--input", "11"],
        ["run", "--alg", "f1", "--n", "4", "--input", "0110"],
        ["run", "--alg", "grover1", "--n", "3", "--input", "012"],
        ["run", "--alg", "dj", "--n", "14", "--k", "6", "--input", "1" * 7 + "0" * 7],
        ["classical", "--fn", "DJ:5,1"],
        ["classify", "--fn", "1"],
        ["classify", "--fn", "XYZ:3"],
        ["det", "--n", "-1", "--k", "0"],
        ["det", "--n", "3", "--k", "5"],
    ]
    return out + [(argv, None) for argv in errors]


@contextlib.contextmanager
def _patched(patch: str | None):
    if patch is None:
        yield
        return
    alg, family = PATCHES[patch]
    original = algos.ALGORITHMS[alg]
    algos.ALGORITHMS[alg] = original._replace(family=family)
    try:
        yield
    finally:
        algos.ALGORITHMS[alg] = original


def replay(argv: list[str], patch: str | None = None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with _patched(patch), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def build() -> list[dict]:
    entries = []
    for argv, patch in invocations():
        for extra in ([], ["--json"]):
            code, stdout, stderr = replay([*argv, *extra], patch)
            entry = {"argv": [*argv, *extra], "exit": code, "stdout": stdout, "stderr": stderr}
            if patch is not None:
                entry["patch"] = patch
            entries.append(entry)
    return entries


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {CORPUS}", file=sys.stderr)
