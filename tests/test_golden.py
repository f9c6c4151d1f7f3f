"""Golden corpora: ``symquery`` output, human and --json, replayed in process
and compared byte for byte.  tests/golden/degree.json holds ``degree``;
tests/golden/cli.json holds verify, run, classical, classify, det, families
and user errors, with stderr and exit codes."""

import importlib.util
import json
from pathlib import Path

import pytest

from symquery.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "degree.json").read_text())
CLI_CORPUS = json.loads((GOLDEN / "cli.json").read_text())

# the generator's replay applies the registry patch an entry names
_spec = importlib.util.spec_from_file_location("make_cli_corpus", GOLDEN / "make_cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)


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


def test_cli_corpus_covers_every_command_algorithm_and_exit_code():
    assert {e["argv"][0] for e in CLI_CORPUS} == {"verify", "run", "classical", "classify", "det", "families"}
    for command in ("verify", "run"):
        algs = {e["argv"][2] for e in CLI_CORPUS if e["argv"][0] == command and e["exit"] == 0}
        assert algs == set(cli_corpus.PARAMS), command
    assert {e["exit"] for e in CLI_CORPUS} == {0, 1, 2}
    assert any(e["exit"] == 1 and e["argv"][0] == "verify" for e in CLI_CORPUS)
    assert sum("--json" in e["argv"] for e in CLI_CORPUS) * 2 == len(CLI_CORPUS)


@pytest.mark.parametrize("entry", CLI_CORPUS, ids=lambda e: " ".join(e["argv"])[:80])
def test_cli_output_byte_identical(entry):
    code, out, err = cli_corpus.replay(entry["argv"], entry.get("patch"))
    assert code == entry["exit"]
    assert out == entry["stdout"]
    assert err == entry["stderr"]
