"""Command-line interface: outputs, exit codes, JSON determinism."""

import dataclasses
import json
import math

import pytest

from symquery import algos, family_f1
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
        "alg, n",
        [
            ("grover1", algos.MAX_DENSE_DIM),  # dimension n + 1 = cap + 1
            ("xquery", math.isqrt(algos.MAX_DENSE_DIM)),  # least m with (m + 1)^2 > cap
        ],
    )
    def test_oversize_simulation_refused_before_allocating(self, capsys, monkeypatch, alg, n):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the size check")

        monkeypatch.setattr(algos, "np", NoNumpy())
        code, out, err = run_cli(capsys, "run", "--alg", alg, "--n", str(n), "--input", "0" * n)
        assert code == 2
        assert err.startswith("error:") and f"capped at {algos.MAX_DENSE_DIM}" in err
        assert "Traceback" not in out + err

    def test_dense_cap_admits_pair_test_at_32_bits(self):
        assert (32 + 1) ** 2 <= algos.MAX_DENSE_DIM < (33 + 1) ** 2
        for build in (algos.xquery_unitaries, algos.grover_unitaries):
            assert build.cache_info().maxsize <= 8

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
            ("--alg", "f4", "--n", str(algos.MAX_VERIFY_N + 1)),
            ("--alg", "dj", "--n", "2400", "--k", "1100"),
        ],
    )
    def test_refused_sizes_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in out + err

    def test_inexact_exit_one(self, capsys, monkeypatch):
        info = algos.DECISION_ALGORITHMS["f1"]
        wrong = dataclasses.replace(info, family=lambda n: family_f1(n, n // 2 + 1))
        monkeypatch.setitem(algos.DECISION_ALGORITHMS, "f1", wrong)
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
