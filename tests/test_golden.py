"""Golden corpus: ``symquery degree`` output, human and --json, replayed in
process and compared byte for byte (corpus: tests/golden/degree.json)."""

import json
from pathlib import Path

import pytest

from symquery.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "degree.json").read_text())


def test_corpus_covers_every_epsilon_and_both_formats():
    eps = {e["argv"][4] for e in CORPUS}
    assert eps == {"0", "1/8", "1/4", "1/3"}
    assert sum("--json" in e["argv"] for e in CORPUS) * 2 == len(CORPUS) >= 80


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"][2:]))
def test_degree_output_byte_identical(entry, capsys):
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert out == entry["stdout"]
