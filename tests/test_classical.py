"""Deterministic query complexity: reference values, the independent
decision-tree oracle, and structural properties."""

import itertools
import random

import pytest
from hypothesis import given, settings

import symquery as sq

from helpers import registered, set_rule_d_complexity, sym_fns, tree_search_depth

vec = sq.from_string


class TestReferenceValues:
    def test_balanced_promise(self):
        assert sq.d_complexity(vec("DJ:8,0")) == 5

    def test_balanced_promise_one_excluded(self):
        assert sq.d_complexity(vec("DJ:8,1")) == 6

    def test_or_total(self):
        assert sq.d_complexity(vec("OR:4")) == 4

    def test_constant_and_empty(self):
        assert sq.d_complexity(vec("11*1")) == 0
        assert sq.d_complexity(vec("***")) == 0

    def test_half_plus_k_plus_one_formula(self):
        for n in range(2, 21, 2):
            for k in range(n // 2):
                assert sq.d_complexity(sq.family_dj(n, k)) == n // 2 + k + 1

    def test_cap(self):
        # the input-enumeration cap n = 30 does not bound d_complexity
        for f in (sq.SymPartialFn(31, "0" * 32), vec("F3:31,15"), vec("MAJ:31")):
            assert sq.d_complexity(f) == set_rule_d_complexity(f), str(f)

    @pytest.mark.parametrize("k", [0, 1, 100, 499])
    def test_balanced_promise_at_the_family_cap(self, k):
        assert sq.d_complexity(vec(f"DJ:1000,{k}")) == 500 + k + 1

    def test_total_function_at_the_family_cap(self):
        assert sq.d_complexity(vec("OR:1000")) == 1000

    def test_beyond_the_family_cap(self):
        # the library builds vectors past symfun.MAX_FAMILY_N
        assert sq.d_complexity(sq.family_dj(5000, 7)) == 2500 + 7 + 1
        assert sq.d_complexity(sq.family_f3(5000, 1234)) == 5000 + 1 - 1234
        assert sq.d_complexity(sq.family_named("MAJ", 5000)) == 5000


class TestAgainstTreeSearchOracle:
    def test_exhaustive_small_n(self):
        for n in range(1, 5):
            for vals in itertools.product("01*", repeat=n + 1):
                f = vec("".join(vals))
                assert sq.d_complexity(f) == tree_search_depth(f), str(f)

    def test_sampled_n5_n6(self):
        rng = random.Random(20240817)
        for n in (5, 6):
            for _ in range(120):
                f = vec("".join(rng.choice("01*") for _ in range(n + 1)))
                assert sq.d_complexity(f) == tree_search_depth(f), str(f)

    def test_families_n6(self):
        cases = [
            vec("DJ:6,0"), vec("DJ:6,2"), vec("OR:6"), vec("AND:6"),
            vec("PARITY:6"), vec("MAJ:6"), vec("EXACT:6,3"), vec("THRESHOLD:6,2"),
            vec("F1:6,3"), vec("F2:6,3"), vec("F3:6,3"), vec("DW:6,1,5"),
        ]
        for f in cases:
            assert sq.d_complexity(f) == tree_search_depth(f), str(f)


class TestAgainstSetRule:
    def test_every_vector_up_to_n7(self):
        for n in range(1, 8):
            for vals in itertools.product("01*", repeat=n + 1):
                f = vec("".join(vals))
                assert sq.d_complexity(f) == set_rule_d_complexity(f), str(f)

    @given(sym_fns(max_n=16))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_the_set_rule(self, f):
        assert sq.d_complexity(f) == set_rule_d_complexity(f)


class TestProperties:
    @given(sym_fns(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_isomorphism_invariance(self, f):
        values = {sq.d_complexity(g) for g in sq.isomorphs(f)}
        assert len(values) == 1

    @given(sym_fns(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_dropping_weights_never_increases(self, f):
        base = sq.d_complexity(f)
        for w in f.domain_weights:
            values = list(f.values)
            values[w] = "*"
            g = sq.SymPartialFn(f.n, "".join(values))
            assert sq.d_complexity(g) <= base

    def test_quantum_advantage_direction(self):
        # measured quantum worst cases never exceed the classical optimum
        from symquery import algos

        for alg, params in [
            ("dj", {"n": 8, "k": 1}),
            ("dj", {"n": 10, "k": 3}),
            ("f1", {"n": 7}),
            ("f3", {"n": 7}),
            ("dw1", {"n": 8}),
            ("f2", {"n": 8, "k": 2}),
            ("f4", {"n": 7}),
        ]:
            f = registered(alg, params, "family")
            report = algos.verify_exact(alg, params)
            assert report.worst_case_queries <= sq.d_complexity(f), alg
