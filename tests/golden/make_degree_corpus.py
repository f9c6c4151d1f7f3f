"""Regenerate tests/golden/degree.json: argv, exit code and stdout of
``symquery degree`` for a fixed set of invocations, each with and without
``--json``.

    PYTHONPATH=src python tests/golden/make_degree_corpus.py

Only regenerate when a change to the output is intended; test_golden.py
replays the file and asserts byte-identical output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from symquery.cli import main

CORPUS = Path(__file__).with_name("degree.json")
SEED = 20261018
EPSILONS = ("0", "1/8", "1/4", "1/3")
RANDOM_PER_EPS = 6
FIXED = [
    ("PARITY:9", "0"), ("PARITY:10", "1/3"), ("MAJ:9", "0"), ("MAJ:10", "1/4"),
    ("THRESHOLD:11,4", "1/8"), ("DJ:8,0", "0"), ("DJ:12,3", "1/8"),
    ("F1:7,3", "0"), ("F2:9,5", "1/4"), ("F3:10,5", "0"), ("F4:11", "1/3"),
    ("DW:12,2,9", "0"),
    ("******", "0"), ("**1*", "0"), ("01", "0"), ("*1", "1/4"),
    # eps = 0 witnesses that a per-row (not uniform) scaling of the simplex changes
    ("0***01**10", "0"), ("*1**1*0**1", "0"), ("10**0*01*1", "0"),
    # eps = 0 LPs whose box rows carry large Lagrange contents: the alternation
    # at n = 44 (22 box weights, 123 pivots) and a random vector at n = 36
    ("0*1*" * 11 + "0", "0"), ("**1**00*11001101*1*00**1**11*0010*000", "0"),
]


def invocations() -> list[tuple[str, str]]:
    rng = random.Random(SEED)
    out = []
    for eps in EPSILONS:
        for _ in range(RANDOM_PER_EPS):
            n = rng.randint(2, 12)
            out.append(("".join(rng.choice("01*") for _ in range(n + 1)), eps))
    return out + FIXED


def replay(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def build() -> list[dict]:
    entries = []
    for fn, eps in invocations():
        for extra in ([], ["--json"]):
            argv = ["degree", "--fn", fn, "--eps", eps, *extra]
            code, stdout = replay(argv)
            entries.append({"argv": argv, "exit": code, "stdout": stdout})
    return entries


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {CORPUS}", file=sys.stderr)
