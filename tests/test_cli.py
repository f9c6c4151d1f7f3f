"""Command-line interface: outputs, exit codes, JSON determinism."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import symquery
from symquery import algos, family_f1, identities, polydeg, symfun
from symquery.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegree:
    def test_balanced_even(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--fn", "DJ:8,0")
        assert code == 0
        assert "degree          2" in out
        assert "qe_lower_bound  1" in out
        assert "c1=7/16" in out

    def test_literal_single_weight(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--fn", "0***1")
        assert code == 0
        assert "degree          1" in out

    def test_balanced_one_excluded(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--fn", "DJ:8,1")
        assert code == 0
        assert "degree          4" in out
        assert "qe_lower_bound  2" in out

    def test_eps_flag(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--fn", "DJ:8,1", "--eps", "1/4")
        assert code == 0

    def test_zero_denominator_eps(self, capsys):
        code, out, err = run_cli(capsys, "degree", "--fn", "01", "--eps", "1/0")
        assert code == 2 and out == ""
        assert err == "error: --eps '1/0' has a zero denominator\n"

    def test_large_exponent_refused_unparsed(self, capsys, monkeypatch):
        # Fraction builds 10**|exponent| in full: "1e-100000000" would not finish
        def guarded(text):
            assert "e" not in text.lower(), f"Fraction({text!r}) builds 10**|exponent|"
            return Fraction(text)

        monkeypatch.setattr("fractions.Fraction", guarded)  # _cmd_degree imports it when it runs
        for eps in ("1e-100000000", "1e-4300", "1E+04_300"):
            code, out, err = run_cli(capsys, "degree", "--fn", "01", "--eps", eps)
            assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error: --eps has an exponent")
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "degree", "--fn", "01", "--eps", "1e-4299")  # 4300 digits: admitted
        assert code == 0 and "degree          1" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "degree", "--fn", "XYZ")
        assert code != 0
        assert "error" in err


class TestRun:
    def test_xquery_table(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--alg", "xquery", "--n", "4", "--input", "1100")
        assert code == 0
        assert "(1,3)" in out and "probability sum 1" in out

    def test_decision_run_reports_expected(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--alg", "dj", "--n", "8", "--k", "1", "--input", "10000000"
        )
        assert code == 0
        assert "expected  0" in out

    def test_off_promise_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--alg", "dj", "--n", "8", "--k", "1", "--input", "11100000"
        )
        assert code == 0
        assert "outside the promise" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--alg", "dj", "--n", "14", "--k", "6", "--input", "1" * 7 + "0" * 7),
            ("--alg", "xquery", "--n", "1000", "--input", "1" * 500 + "0" * 500),
            ("--alg", "f2", "--n", "400", "--k", "100", "--input", "0" * 400),
            # x_1 = 1 leaves weight 201 = k + 1 for f2 on 400 bits: 120,600 branches
            ("--alg", "f4", "--n", "401", "--input", "1" * 200 + "0" * 201),
            ("--alg", "grover1", "--n", str(symfun.MAX_FAMILY_N + 1), "--input", "0" * (symfun.MAX_FAMILY_N + 1)),
        ],
    )
    def test_refused_before_any_branch(self, capsys, monkeypatch, argv):
        def no_branch(x):
            raise AssertionError("a subroutine ran before the refusal")

        monkeypatch.setattr(algos, "xquery_outcomes", no_branch)
        monkeypatch.setattr(algos, "grover_outcomes", no_branch)
        code, out, err = run_cli(capsys, "run", *argv)
        assert code == 2
        assert err.startswith("error: run is capped at")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv, listed",
        [
            # at weight k the first search never reports a 0-position
            (("--alg", "f2", "--n", "400", "--k", "100", "--input", "1" * 100 + "0" * 300), 100),
            # x_1 = 0 leaves weight 200 = k for f2 on 400 bits
            (("--alg", "f4", "--n", "401", "--input", "0" + "1" * 200 + "0" * 200), 200),
            # at weight k+1 the second search reports only its 101 1-positions,
            # behind each of the first search's 1 + 299 positions: the bound
            (("--alg", "f2", "--n", "400", "--k", "100", "--input", "1" * 101 + "0" * 299), 30_300),
            # x_1 = 1 settles 1 at once, whatever the weight of the rest
            (("--alg", "f1", "--n", "999", "--input", "1" * 500 + "0" * 499), 1),
        ],
    )
    def test_weight_aware_bound_admits_few_branches(self, capsys, argv, listed):
        code, out, err = run_cli(capsys, "run", *argv, "--json")
        assert code == 0, err
        assert len(json.loads(out)["branches"]) == listed

    def test_branch_cap_boundary(self, monkeypatch):
        # xquery on 1100 lists its 4 differing pairs
        monkeypatch.setattr(algos, "MAX_RUN_BRANCHES", 4)
        assert len(algos.run("xquery", {"n": 4}, "1100").branches) == 4
        monkeypatch.setattr(algos, "MAX_RUN_BRANCHES", 3)
        with pytest.raises(ValueError, match="capped at 3 branches"):
            algos.run("xquery", {"n": 4}, "1100")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--alg", "xquery", "--n", "0"), "xquery contract needs n >= 1, got n=0"),
            (("--alg", "grover1", "--n", "0"), "grover1 contract needs n >= 1, got n=0"),
            (("--alg", "dw1", "--n", "0"), "dw1 needs n >= 4, got n=0"),
            (("--alg", "dw2", "--n", "0"), "dw2 needs n >= 4, got n=0"),
            (("--alg", "dhw", "--n", "0", "--k", "0"), "dhw needs k >= 1, got k=0"),
        ],
    )
    def test_zero_length_subroutine_call(self, capsys, argv, message):
        # the algorithm's own rule refuses the instance before any subroutine's weight law
        code, out, err = run_cli(capsys, "run", *argv, "--input", "")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "run", "--alg", "dj", "--n", "8", "--input", "10000000")
        assert code != 0
        assert "requires --k" in err

    def test_json_branches(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--alg", "grover1", "--n", "4", "--input", "0000", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "run"
        assert len(payload["branches"]) == 4
        assert abs(sum(b["probability"] for b in payload["branches"]) - 1.0) < 1e-9


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alg", "dj", "--n", "8", "--k", "1")
        assert code == 0
        assert "all_exact           True" in out
        assert "worst_case_queries  2" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alg", "dw1", "--n", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_exact"] is True
        assert payload["worst_case_queries"] == 2

    def test_subroutine_contract(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alg", "xquery", "--n", "5")
        assert code == 0
        assert "xquery-contract" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--alg", "xquery", "--n", "-1"),
            ("--alg", "xquery", "--n", "0"),
            ("--alg", "grover1", "--n", "-4"),
            ("--alg", "grover1", "--n", "0"),
            ("--alg", "f4", "--n", str(symfun.MAX_FAMILY_N + 1)),
            ("--alg", "dj", "--n", "2400", "--k", "1100"),
        ],
    )
    def test_refused_sizes_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv, head",
        [
            (("--alg", "dw2", "--n", "2"), "dw2"),
            (("--alg", "f1", "--n", "1"), "f1"),
            (("--alg", "f3", "--n", "1"), "f3"),
            (("--alg", "dhw", "--n", "5", "--k", "9"), "dhw"),
            (("--alg", "dj", "--n", "7", "--k", "1"), "dj"),
            (("--alg", "f2", "--n", "8", "--k", "8"), "f2"),
            (("--alg", "dw", "--n", "8", "--k", "7", "--l", "1"), "DW"),  # dw's rule is its promise's
            (("--alg", "xquery", "--n", "0"), "xquery"),
            (("--alg", "xquery", "--n", "-1"), "xquery"),
            (("--alg", "grover1", "--n", "0"), "grover1"),
            (("--alg", "dw1", "--n", "0"), "dw1"),
            (("--alg", "dw2", "--n", "-4"), "dw2"),
            (("--alg", "dhw", "--n", "0", "--k", "0"), "dhw"),
        ],
    )
    def test_bad_instance_reads_the_same_from_run(self, capsys, argv, head):
        # the algorithm's own rule speaks first, so verify never names parameters run was not given
        ran = run_cli(capsys, "run", *argv, "--input", "0" * int(argv[3]))
        verified = run_cli(capsys, "verify", *argv)
        assert ran == verified
        code, out, err = verified
        assert (code, out) == (2, "") and err.startswith(f"error: {head} ") and err.count("\n") == 1, err

    def test_grover1_contract_needs_a_multiple_of_four(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--alg", "grover1", "--n", "6")
        assert (code, out, err) == (2, "", "error: grover1 contract needs n divisible by 4, got n=6\n")

    def test_inexact_exit_one(self, capsys, monkeypatch):
        info = algos.ALGORITHMS["f1"]
        wrong = info._replace(family=lambda n: family_f1(n, n // 2 + 1))
        monkeypatch.setitem(algos.ALGORITHMS, "f1", wrong)
        code, out, _ = run_cli(capsys, "verify", "--alg", "f1", "--n", "7")
        assert code == 1
        assert "all_exact           False" in out
        assert "FAILURE on 0" in out


class TestClassicalClassifyDet:
    def test_classical(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--fn", "DJ:8,1")
        assert code == 0
        assert "d_complexity  6" in out

    def test_classify_hit_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fn", "0*1*0")
        assert code == 0
        assert "F3(2)" in out

    def test_classify_miss_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fn", "001**")
        assert code == 1
        assert "none" in out

    def test_det_match(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--n", "6", "--k", "1")
        assert code == 0
        assert "-50" in out and "match        True" in out

    def test_det_json(self, capsys):
        code, out, _ = run_cli(capsys, "det", "--n", "12", "--k", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["determinant"] == payload["closed_form"]

    def test_det_caps_refuse_before_building(self, capsys, monkeypatch):
        def no_entries(n, k):
            raise AssertionError("the entries were built")

        # the kernel reads the entries from this one builder
        monkeypatch.setattr(identities, "_hankel_entries", no_entries)
        cap_n, cap_k = identities.MAX_DET_N, identities.MAX_DET_K
        # at the cap corner and in the band n <= 3k-2 (lifted entries)
        for n, k in ((cap_n, cap_k), (3 * cap_k - 2, cap_k)):
            with pytest.raises(AssertionError, match="built"):
                main(["det", "--n", str(n), "--k", str(k)])
        for n, k in ((cap_n + 1, cap_k), (cap_n, cap_k + 1)):
            code, out, err = run_cli(capsys, "det", "--n", str(n), "--k", str(k))
            assert code == 2 and out == ""
            assert err.startswith("error: det is capped at")

    def test_family_cap_refuses_before_building(self, capsys, monkeypatch):
        cap = symfun.MAX_FAMILY_N
        # at the cap the vector is built, and classical answers it
        code, out, err = run_cli(capsys, "classical", "--fn", f"OR:{cap}")
        assert code == 0 and err == ""
        assert f"d_complexity  {cap}" in out

        def no_vector(*args):
            raise AssertionError("the vector was built")

        params, _, about = symfun.FAMILIES["OR"]
        monkeypatch.setitem(symfun.FAMILIES, "OR", (params, no_vector, about))
        with pytest.raises(AssertionError, match="built"):
            main(["classical", "--fn", f"OR:{cap}"])
        code, out, err = run_cli(capsys, "classical", "--fn", f"OR:{cap + 1}")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: family specs are capped at n={cap}, got n={cap + 1}")
        # a literal of cap + 1 characters names n = cap, one more is refused
        monkeypatch.setattr(symfun, "SymPartialFn", no_vector)
        with pytest.raises(AssertionError, match="built"):
            main(["classical", "--fn", "01" * (cap // 2) + "0"])
        code, out, err = run_cli(capsys, "classical", "--fn", "01" * (cap // 2 + 1))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: literal specs are capped at n={cap}, got n={cap + 1}")

    def test_families_listing(self, capsys):
        code, out, _ = run_cli(capsys, "families")
        assert code == 0
        assert "DJ:n,k" in out and "DW:n,k,l" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("degree", "--fn", "DJ:8,1", "--json"),
            ("run", "--alg", "f2", "--n", "8", "--k", "2", "--input", "11100000", "--json"),
            ("verify", "--alg", "f3", "--n", "5", "--json"),
            ("classify", "--fn", "0*11*", "--json"),
            ("det", "--n", "20", "--k", "4", "--json"),
        ],
    )
    def test_byte_identical_json(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
        json.loads(out1)


# Runs in a fresh interpreter with numpy made unimportable: the test process
# itself already holds numpy.
NO_NUMPY_CHILD = """
import contextlib, io, sys
sys.modules["numpy"] = None
import symquery, symquery.cli

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return symquery.cli.main(argv)

runs = {
    "xquery": (["--n", "6"], "110100"),
    "dj": (["--n", "8", "--k", "1"], "10000000"),
    "dhw": (["--n", "5", "--k", "3"], "11100"),
    "f1": (["--n", "5"], "01100"),
    "f3": (["--n", "7"], "0110000"),
    "grover1": (["--n", "8"], "01000000"),
    "dw1": (["--n", "8"], "11000000"),
    "dw2": (["--n", "8"], "11111100"),
    "dw": (["--n", "8", "--k", "1", "--l", "7"], "11111110"),
    "f2": (["--n", "8", "--k", "2"], "11100000"),
    "f4": (["--n", "7"], "0011100"),
}
assert list(runs) == list(symquery.algos.ALGORITHMS)
argvs = [
    ["degree", "--fn", "DJ:8,1"],
    ["degree", "--fn", "MAJ:7", "--eps", "1/8", "--json"],
    *(["run", "--alg", alg, *flags, "--input", x] for alg, (flags, x) in runs.items()),
    ["run", "--alg", "f2", "--n", "8", "--k", "2", "--input", "11100000", "--json"],
    *(["verify", "--alg", alg, *flags] for alg, (flags, x) in runs.items()),
    ["verify", "--alg", "f4", "--n", "7", "--json"],
    ["classical", "--fn", "DJ:8,1"],
    ["classify", "--fn", "0*1*0"],
    ["det", "--n", "6", "--k", "1"],
    ["families", "--json"],
]
assert {argv[0] for argv in argvs} == {"degree", "run", "verify", "classical", "classify", "det", "families"}
for argv in argvs:
    assert call(argv) == 0, argv
for argv in [["verify", "--alg", "nope", "--n", "5"], ["det", "--n", "x"]]:
    assert call(argv) == 2, argv
assert "symquery.qsim" not in sys.modules
print("ok")
"""


# Counted as the difference from the modules loaded before the import, so
# whatever site hooks import does not count.
IMPORT_GRAPH_CHILD = """
import sys
before = set(sys.modules)
import symquery.cli
added = set(sys.modules) - before
assert not added & {"dataclasses", "json"}, sorted(added)
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    assert symquery.cli.main(["families", "--json"]) == 0
assert "json" in sys.modules
print("ok")
"""

# The layers the benchmark client imports, and one call of each request kind
# it sends in process: none of them may load numpy; a dense call then does.
LAZY_NUMPY_CHILD = """
import sys
from fractions import Fraction
import symquery
from symquery import algos, classical, identities, polydeg, qsim, symfun
assert "numpy" not in sys.modules
f = symfun.from_string("DJ:8,1")
for eps in (0, Fraction(1, 8)):
    d = polydeg.degree(f, eps)
    assert polydeg.lp_feasible(f, eps, d).feasible
assert polydeg.classify_deg2(symfun.from_string("0*1*0")) is not None
assert classical.d_complexity(f) == 6
assert identities.check_identity(6, 1)
assert algos.verify_exact("dj", {"n": 8, "k": 1}).all_exact
assert "numpy" not in sys.modules
state = qsim.basis_state(2, 1)
assert "numpy" in sys.modules
assert state.amplitude(0, 0) == 1 and qsim.measure(state) == [((0, 0), 1.0)]
print("ok")
"""

# Without numpy the dense module still imports; only a dense call fails.
BLOCKED_NUMPY_CHILD = """
import sys
sys.modules["numpy"] = None
import symquery.qsim, symquery.algos
try:
    symquery.qsim.basis_state(1, 1)
except ImportError:
    print("ok")
"""

# The symquery modules and fractions that one command loads, counted from
# before `import symquery.cli`: the package and the cli load no layer, and
# each command loads only the layers it calls.
LAYERS_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
import symquery.cli
def loaded():
    return sorted(m for m in set(sys.modules) - before if m.startswith("symquery") or m == "fractions")
assert loaded() == ["symquery", "symquery.cli"], loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = symquery.cli.main(sys.argv[1:])
print(code, *loaded())
"""

POLYDEG = ["fractions", "catalogue", "polydeg", "symfun"]
COMMAND_LAYERS = [  # argv, exit code, what it loads
    (["degree", "--fn", "DJ:8,1"], 0, POLYDEG),
    (["degree", "--fn", "MAJ:7", "--eps", "1/8", "--json"], 0, POLYDEG),
    (["classify", "--fn", "0*1*0"], 0, POLYDEG),
    (["run", "--alg", "dj", "--n", "8", "--k", "1", "--input", "10000000"], 0, ["algos", "symfun"]),
    (["verify", "--alg", "dj", "--n", "8", "--k", "1"], 0, ["algos", "symfun"]),
    (["verify", "--alg", "nope", "--n", "5"], 2, ["algos", "symfun"]),
    (["families", "--json"], 0, ["algos", "symfun"]),
    (["classical", "--fn", "DJ:8,1"], 0, ["classical", "symfun"]),
    (["det", "--n", "6", "--k", "1"], 0, ["fractions", "identities"]),
    (["det", "--n", "x"], 2, []),  # argparse's usage errors load no layer
    (["frobnicate"], 2, []),
]

SRC = str(Path(symquery.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_child(script: str) -> None:
    child = subprocess.run(
        [sys.executable, "-c", script], env=CHILD_ENV, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "ok\n"


class TestStartup:
    def test_every_command_runs_without_numpy(self):
        run_child(NO_NUMPY_CHILD)

    def test_numpy_loads_at_the_first_dense_call(self):
        run_child(LAZY_NUMPY_CHILD)

    def test_dense_module_imports_without_numpy(self):
        run_child(BLOCKED_NUMPY_CHILD)

    def test_import_loads_neither_dataclasses_nor_json(self):
        run_child(IMPORT_GRAPH_CHILD)

    @pytest.mark.parametrize("argv, code, layers", COMMAND_LAYERS, ids=[" ".join(argv) for argv, _, _ in COMMAND_LAYERS])
    def test_each_command_loads_only_its_layers(self, argv, code, layers):
        child = subprocess.run([sys.executable, "-c", LAYERS_CHILD, *argv], env=CHILD_ENV,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        modules = {"symquery", "symquery.cli"} | {m if m == "fractions" else f"symquery.{m}" for m in layers}
        assert child.stdout.split() == [str(code), *sorted(modules)]

    def test_exports_resolve_on_first_access(self):
        for name in symquery.__all__:
            module = importlib.import_module(f"symquery.{symquery._EXPORTS[name]}")
            assert getattr(symquery, name) is getattr(module, name), name
        assert set(symquery.__all__) < set(dir(symquery))
        assert {"algos", "cli", "identities", "polydeg", "qsim", "symfun"} <= set(dir(symquery))
        assert symquery.algos is algos and symquery.algos.ALGORITHMS is algos.ALGORITHMS
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            symquery.nope  # noqa: B018
        with pytest.raises(ImportError):
            from symquery import nope  # noqa: F401

    @pytest.mark.parametrize(
        "argv", [["families", "--json"], ["verify", "--alg", "dj", "--n", "8", "--k", "1"]], ids=" ".join
    )
    def test_closed_stdout_exits_two(self, argv):
        child = subprocess.Popen([sys.executable, "-m", "symquery.cli", *argv], env=CHILD_ENV,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()  # the child is still importing: nothing is written yet
        err = child.stderr.read()
        assert child.wait(timeout=120) == 2
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestRecords:
    """Every record is an immutable NamedTuple; the validating ones check and
    convert on construction."""

    RECORDS = [
        (symquery.SymPartialFn(2, "0*1"), "n"),
        (polydeg.PolyV((1, 2)), "coeffs"),
        (polydeg.FeasibilityResult(True, polydeg.PolyV((0,))), "feasible"),
        (polydeg.FamilyTag(polydeg.FamilyKind.F1, 2, "identity"), "kind"),
        (algos.BranchTrace(("m",), 1.0, 0, 1), "path"),
        (algos.AlgorithmRun("01", (algos.BranchTrace(("m",), 1.0, 0, 1),)), "x"),
        (algos.VerificationReport("01", 4, True, 1, ()), "function"),
        (algos.ALGORITHMS["dj"], "params"),
    ]

    @pytest.mark.parametrize("record, field", RECORDS, ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_immutable(self, record, field):
        getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_polyv_coefficients_become_fractions(self):
        coeffs = polydeg.PolyV((1, 2)).coeffs
        assert coeffs == (1, 2) and all(type(c) is Fraction for c in coeffs)
        assert all(type(c) is Fraction for c in polydeg.PolyV((0,))._replace(coeffs=(1, 2)).coeffs)
        with pytest.raises(ValueError, match="^need at least the constant coefficient c_0$"):
            polydeg.PolyV(())

    @pytest.mark.parametrize(
        "n, values, message",
        [
            (0, "0", "input length must be >= 1, got n=0"),
            (2, "01", "need 3 weight entries for n=2, got 2"),
            (1, ("0", "1"), "values must be a string over 0/1/*"),
        ],
    )
    def test_symfn_validation_messages(self, n, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            symquery.SymPartialFn(n, values)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            symquery.SymPartialFn(2, "0*1")._replace(n=n, values=values)

    def test_algorithm_run_checks_probabilities(self):
        with pytest.raises(ValueError, match="branch probabilities sum to 0.5, not 1"):
            algos.AlgorithmRun("01", (algos.BranchTrace(("m",), 0.5, 0, 1),))


ALGS = [*algos.ALGORITHMS, "nope"]
SIZES = st.integers(-3, 12)
FNS = st.one_of(
    st.text("01*", max_size=13),
    st.builds(
        lambda name, args: f"{name}:{','.join(map(str, args))}",
        st.sampled_from(["DJ", "F1", "F2", "F3", "F4", "DW", "EXACT", "THRESHOLD", "OR", "AND",
                         "PARITY", "MAJ", "XYZ"]),
        st.lists(SIZES, max_size=3),
    ),
)


@st.composite
def argvs(draw):
    """One invocation from a small grammar: subcommand (or an unknown one),
    known or unknown algorithm and function, sizes in -3..12, optional flags,
    an occasional unknown flag, and optional --json."""
    sub = draw(st.sampled_from(["degree", "run", "verify", "classical", "classify", "det", "families", "nosuch"]))
    argv = [sub]
    if sub in ("degree", "classical", "classify"):
        argv += ["--fn", draw(FNS)]
        if sub == "degree" and draw(st.booleans()):
            argv += ["--eps", draw(st.sampled_from(["0", "1/8", "1/3", "1/2", "-1", "x"]))]
    elif sub in ("run", "verify"):
        argv += ["--alg", draw(st.sampled_from(ALGS))]
        n = draw(st.sampled_from([None, *range(-3, 13)]))
        if n is not None:
            argv += ["--n", str(n)]
        for flag in ("k", "l"):
            if draw(st.booleans()):
                argv += [f"--{flag}", str(draw(SIZES))]
        if sub == "run":
            bits = st.text("01", min_size=max(n or 0, 0), max_size=max(n or 0, 0))
            x = draw(st.one_of(bits, bits, st.text("012", max_size=12), st.none()))
            if x is not None:
                argv += ["--input", x]
    elif sub == "det":
        argv += ["--n", str(draw(SIZES)), "--k", str(draw(SIZES))]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestFuzz:
    @given(argvs())
    @settings(max_examples=300, deadline=None)
    def test_every_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 2:
            assert err.getvalue().startswith(("error:", "usage:")), argv
