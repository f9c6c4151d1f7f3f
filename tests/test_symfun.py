"""Function vectors: parsing, families, isomorphism orbit, domain enumeration."""

import math
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import symquery as sq
from symquery import algos
from symquery.symfun import (
    FAMILIES,
    FLIP,
    TRANSFORMS,
    complement_fn,
    reverse_fn,
)

from helpers import fn_strings, sym_fns

vec = sq.from_string


class TestParsing:
    def test_literal_vector(self):
        f = vec("0***1***0")
        assert f.n == 8
        assert str(f) == "0***1***0"
        assert f == sq.family_dj(8, 0)

    def test_family_expression(self):
        assert str(vec("DJ:8,1")) == "00**1**00"

    def test_case_and_whitespace(self):
        assert vec(" dj:8,1 ") == vec("DJ:8,1")

    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            vec("XYZ")

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            vec("0")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            vec("NOPE:4")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            vec("DJ:8")

    def test_non_integer_parameter(self):
        with pytest.raises(ValueError):
            vec("DJ:8,x")

    def test_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            vec("DJ:4,2")

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_every_listed_family_parses_at_its_arity_only(self, name):
        # 8, 3, 5 is in range for every family of that arity
        params, ctor, _ = FAMILIES[name]
        args = [8, 3, 5, 6]
        assert vec(f"{name}:" + ",".join(map(str, args[: len(params)]))) == ctor(*args[: len(params)])
        for m in set(range(len(args) + 1)) - {len(params)}:
            with pytest.raises(ValueError, match=f"{name} takes {len(params)} parameter"):
                vec(f"{name}:" + ",".join(map(str, args[:m])))

    @pytest.mark.parametrize(
        "spec",
        ["01*", "DJ:8,1", "F1:5,3", "F2:4,2", "F3:5,3", "F4:7", "DW:4,1,3",
         "EXACT:4,2", "THRESHOLD:4,2", "OR:3", "AND:3", "PARITY:3", "MAJ:5"],
    )
    def test_round_trip_via_literal(self, spec):
        f = vec(spec)
        assert vec(str(f)) == f


class TestRepresentation:
    """A function is its 0/1/* string: printed, reversed and complemented as
    that string."""

    @given(fn_strings(max_n=12))
    @settings(max_examples=100)
    def test_values_are_the_literal(self, s):
        f = vec(s)
        assert str(f) == s and str(f) is f.values
        assert reverse_fn(f).values == s[::-1]
        assert complement_fn(f).values == s.translate(FLIP)

    @given(st.text("01", min_size=2, max_size=13))
    @settings(max_examples=60)
    def test_input_flip_is_the_vector_complement(self, x):
        assert algos._flip(x) == complement_fn(vec(x)).values

    @pytest.mark.parametrize(
        "n, values, message",
        [
            (1, ("0", "1"), "values must be a string over 0/1/*"),
            (1, "02", "values must be a string over 0/1/*"),
            (1, "0 ", "values must be a string over 0/1/*"),
            (2, "01", "need 3 weight entries for n=2, got 2"),
        ],
    )
    def test_constructor_and_replace_reject(self, n, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sq.SymPartialFn(n, values)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vec("0*1")._replace(n=n, values=values)


class TestFamilies:
    def test_dj_examples(self):
        assert str(sq.family_dj(4, 0)) == "0*1*0"
        assert str(sq.family_dj(8, 1)) == "00**1**00"

    def test_dj_rejects_k_at_half(self):
        with pytest.raises(ValueError):
            sq.family_dj(4, 2)

    def test_dj_rejects_odd_n(self):
        with pytest.raises(ValueError):
            sq.family_dj(5, 1)

    def test_f1_example(self):
        assert str(sq.family_f1(5, 3)) == "0**1**"

    def test_f2_example(self):
        assert str(sq.family_f2(4, 2)) == "0*11*"

    def test_dw_example(self):
        assert str(sq.family_dw(4, 1, 3)) == "*0*1*"

    def test_f4_even_equals_f3_middle(self):
        for n in (2, 4, 6, 8):
            assert sq.family_f4(n) == sq.family_f3(n, n // 2)

    def test_named_examples(self):
        assert str(sq.family_named("OR", 3)) == "0111"
        assert str(sq.family_named("EXACT", 4, 2)) == "00100"
        assert str(sq.family_named("PARITY", 3)) == "0101"
        assert str(sq.family_named("AND", 3)) == "0001"
        assert str(sq.family_named("MAJ", 4)) == "00011"
        assert str(sq.family_named("THRESHOLD", 4, 3)) == "00011"

    def test_named_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            sq.family_named("EXACT", 4, 5)

    def test_named_rejects_a_stray_k_and_an_unknown_name(self):
        with pytest.raises(ValueError, match="OR takes no k parameter"):
            sq.family_named("OR", 4, 2)
        with pytest.raises(ValueError, match="unknown named family 'FOO'"):
            sq.family_named("FOO", 4)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            sq.family_f1(5, 0)
        with pytest.raises(ValueError):
            sq.family_f2(4, 4)
        with pytest.raises(ValueError):
            sq.family_f3(4, 4)
        with pytest.raises(ValueError):
            sq.family_f4(1)
        with pytest.raises(ValueError):
            sq.family_dw(4, 3, 3)

    def test_family_values_match_case_splits(self):
        for n in range(2, 11, 2):
            for k in range(n // 2):
                f = sq.family_dj(n, k)
                for w in range(n + 1):
                    if w == n // 2:
                        assert f.values[w] == "1"
                    elif w <= k or w >= n - k:
                        assert f.values[w] == "0"
                    else:
                        assert f.values[w] == "*"
        for n in range(2, 10):
            for k in range(1, n):
                f = sq.family_f2(n, k)
                for w in range(n + 1):
                    expected = (
                        "0" if w == 0 else "1" if w in (k, k + 1) else "*"
                    )
                    assert f.values[w] == expected

    def test_remaining_family_case_splits(self):
        for n in range(2, 9):
            for k in range(1, n + 1):
                f = sq.family_f1(n, k)
                for w in range(n + 1):
                    expected = "0" if w == 0 else "1" if w == k else "*"
                    assert f.values[w] == expected
            for l in range(1, n):
                f = sq.family_f3(n, l)
                for w in range(n + 1):
                    expected = "0" if w in (0, n) else "1" if w == l else "*"
                    assert f.values[w] == expected
            f = sq.family_f4(n)
            middle = {n // 2, (n + 1) // 2}
            for w in range(n + 1):
                expected = "1" if w in middle else "0" if w in (0, n) else "*"
                assert f.values[w] == expected
            for k in range(n):
                for l in range(k + 1, n + 1):
                    f = sq.family_dw(n, k, l)
                    for w in range(n + 1):
                        expected = "0" if w == k else "1" if w == l else "*"
                        assert f.values[w] == expected

    def test_named_family_case_splits(self):
        for n in range(1, 9):
            cases = {
                "OR": lambda w: w >= 1,
                "AND": lambda w: w == n,
                "PARITY": lambda w: w % 2 == 1,
                "MAJ": lambda w: 2 * w > n,
            }
            for name, pred in cases.items():
                f = sq.family_named(name, n)
                for w in range(n + 1):
                    assert f.values[w] == ("1" if pred(w) else "0"), (name, n, w)
            for k in range(n + 1):
                exact = sq.family_named("EXACT", n, k)
                threshold = sq.family_named("THRESHOLD", n, k)
                for w in range(n + 1):
                    assert exact.values[w] == ("1" if w == k else "0")
                    assert threshold.values[w] == ("1" if w >= k else "0")

    def test_vector_length_invariant(self):
        with pytest.raises(ValueError):
            sq.SymPartialFn(3, "01")


class TestIsomorphs:
    def test_orbit_example(self):
        orbit = [str(g) for g in sq.isomorphs(vec("01*"))]
        assert orbit == ["01*", "*10", "10*", "*01"]

    def test_constant_orbit_has_duplicates(self):
        orbit = [str(g) for g in sq.isomorphs(vec("00"))]
        assert orbit == ["00", "00", "11", "11"]

    def test_palindromic_orbit(self):
        orbit = {str(g) for g in sq.isomorphs(vec("0*1*0"))}
        assert orbit == {"0*1*0", "1*0*1"}

    def test_is_isomorphic_output_complement(self):
        assert sq.is_isomorphic(vec("0*1"), vec("1*0"))

    def test_is_isomorphic_negative(self):
        assert not sq.is_isomorphic(vec("01*"), vec("0*1"))

    def test_is_isomorphic_identity(self):
        f = vec("0*11*")
        assert sq.is_isomorphic(f, f)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sq.is_isomorphic(vec("01"), vec("011"))

    @given(sym_fns(max_n=10))
    def test_transforms_are_involutions(self, f):
        assert reverse_fn(reverse_fn(f)) == f
        assert complement_fn(complement_fn(f)) == f

    @given(sym_fns(max_n=10))
    def test_orbit_closed_under_transforms(self, f):
        orbit = set(map(str, sq.isomorphs(f)))
        for g in sq.isomorphs(f):
            assert str(reverse_fn(g)) in orbit
            assert str(complement_fn(g)) in orbit

    @given(sym_fns(max_n=10))
    def test_is_isomorphic_symmetric_over_orbit(self, f):
        for g in sq.isomorphs(f):
            assert sq.is_isomorphic(f, g)
            assert sq.is_isomorphic(g, f)

    def test_transform_order_matches_names(self):
        f = vec("001*1")
        orbit = sq.isomorphs(f)
        assert len(orbit) == len(TRANSFORMS) == 4
        assert orbit[0] == f
        assert orbit[1] == reverse_fn(f)
        assert orbit[2] == complement_fn(f)
        assert orbit[3] == reverse_fn(complement_fn(f))


class TestValueChanges:
    def test_examples(self):
        assert vec("0*1*0").value_changes == ((0, 2), (2, 4))
        assert vec("DJ:8,1").value_changes == ((1, 4), (4, 7))
        assert vec("PARITY:3").value_changes == ((0, 1), (1, 2), (2, 3))
        assert vec("11*1").value_changes == vec("***").value_changes == ()

    def test_built_once_per_values_string(self):
        # a request reads both in degree, classify_deg2 and d_complexity:
        # equal values strings share one pair of tuples
        f, g = vec("01*10**1*01"), vec("01*10**1*01")
        assert f is not g
        assert f.domain_weights is g.domain_weights == (0, 1, 3, 4, 7, 9, 10)
        assert f.value_changes is g.value_changes == ((0, 1), (3, 4), (4, 7), (7, 9), (9, 10))

    @given(sym_fns(max_n=10))
    @settings(max_examples=100)
    def test_adjacent_defined_weights_with_different_values(self, f):
        defined = [(w, v) for w, v in enumerate(f.values) if v != "*"]
        assert f.value_changes == tuple((u, w) for (u, a), (w, b) in zip(defined, defined[1:]) if a != b)

    @given(sym_fns(max_n=10))
    @settings(max_examples=100)
    def test_isomorphs_mirror_or_keep_the_pairs(self, f):
        mirrored = tuple(sorted((f.n - v, f.n - u) for u, v in f.value_changes))
        for t, g in zip(TRANSFORMS, sq.isomorphs(f)):
            assert g.value_changes == (mirrored if "reverse" in t else f.value_changes), t


class TestDomain:
    def test_value_at_weight(self):
        assert sq.value_at_weight(sq.family_dj(4, 0), 2) == "1"
        with pytest.raises(ValueError):
            sq.value_at_weight(sq.family_dj(4, 0), 5)

    def test_domain_count_dj40(self):
        inputs = list(sq.domain_inputs(sq.family_dj(4, 0)))
        assert len(inputs) == 8  # weights {0, 2, 4}: 1 + 6 + 1
        assert inputs == sorted(inputs)  # lexicographic

    def test_all_undefined_empty(self):
        assert list(sq.domain_inputs(vec("***"))) == []

    def test_enumeration_cap(self):
        big = sq.SymPartialFn(31, "0" * 32)
        with pytest.raises(ValueError):
            next(sq.domain_inputs(big))

    @given(sym_fns(max_n=9))
    @settings(max_examples=60)
    def test_domain_size_matches_enumeration(self, f):
        expected = sum(math.comb(f.n, w) for w in f.domain_weights)
        assert sq.domain_size(f) == expected
        assert sum(1 for _ in sq.domain_inputs(f)) == expected

    @given(sym_fns(max_n=8))
    @settings(max_examples=40)
    def test_domain_inputs_have_defined_weights(self, f):
        defined = set(f.domain_weights)
        for x in sq.domain_inputs(f):
            assert x.count("1") in defined
