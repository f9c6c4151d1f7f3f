"""Binomial determinant identity and its helper product rule, exact integers."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import symquery as sq
from helpers import pivoting_bareiss_det, plane_partitions
from symquery.identities import _condensation, _hankel_entries, binom_matrix, comb_ext

# every (n, k) with k <= 12 and 2k+1 <= n <= 80, on both sides of n = 3k-1
BOUNDARY = [(n, k) for k in range(13) for n in range(2 * k + 1, 81)]


def leading_minors(m: list[list[int]]) -> list[int]:
    """Determinants of the j x j leading blocks, j = 1..size, by the reference."""
    return [pivoting_bareiss_det([row[:j] for row in m[:j]]) for j in range(1, len(m) + 1)]


@st.composite
def odd_sequences(draw, max_k: int = 5, bound: int = 9) -> list[int]:
    size = 2 * draw(st.integers(0, max_k)) + 1
    return draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))


def hankel(s: list[int], j: int, m: int) -> list[list[int]]:
    """The m x m Hankel matrix [s_(j+r+c)]."""
    return [[s[j + r + c] for c in range(m)] for r in range(m)]


def product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unlifted(n: int, k: int) -> list[int]:
    """The 2k+1 entries s_i = C(n-k, i+1) that the Pascal sweeps leave."""
    return [math.comb(n - k, i + 1) for i in range(2 * k + 1)]


def condensed_det(s: list[int]) -> int:
    *_, (det,) = _condensation(s)
    return det


class TestHelperIdentity:
    def test_plain_case(self):
        # 6 * C(5,2) = 6 * 10 = 60 = 3 * C(6,3) = 3 * 20
        assert sq.helper_identity(5, 2)

    def test_vanishing_above(self):
        assert comb_ext(3, 5) == 0
        assert sq.helper_identity(3, 5)

    def test_vanishing_below(self):
        assert comb_ext(4, -1) == 0
        assert sq.helper_identity(4, -1)

    def test_exhaustive_window(self):
        for p in range(0, 41):
            for l in range(-3, p + 4):
                assert sq.helper_identity(p, l), (p, l)

    def test_negative_p(self):
        for p in range(-4, 0):
            for l in range(-4, 4):
                assert sq.helper_identity(p, l), (p, l)


class TestDeterminant:
    def test_two_by_two_value(self):
        assert binom_matrix(6, 1) == [[15, 20], [10, 10]]
        assert sq.binom_det(6, 1) == Fraction(-50)
        assert sq.binom_det_closed(6, 1) == Fraction(-50)

    def test_one_by_one_value(self):
        assert sq.binom_det(4, 0) == 4
        assert sq.binom_det_closed(4, 0) == 4

    def test_sign_exponent(self):
        # k = 2: exponent k(k+5)/2 = 7, so the closed form is negative
        assert sq.binom_det_closed(12, 2) < 0

    def test_example_values(self):
        assert sq.check_identity(12, 3)
        assert sq.binom_det(12, 3) != 0
        assert sq.check_identity(25, 5)

    def test_full_range(self):
        for k in range(1, 7):
            for n in range(2 * k + 2, 31):
                assert sq.check_identity(n, k), (n, k)
                assert sq.binom_det(n, k) != 0, (n, k)

    def test_pascal_reduction_is_the_hankel_matrix(self):
        # k sweeps of R_r -= R_(r+1), the s-th on rows 0..k-s in increasing
        # order, are integer row subtractions: by Pascal's rule they take the
        # binomial matrix to the Hankel matrix with the same determinant
        for k in range(9):
            for n in range(2 * k + 1, 41):
                m = binom_matrix(n, k)
                for s in range(k, 0, -1):
                    for r in range(s):
                        m[r] = [x - y for x, y in zip(m[r], m[r + 1])]
                assert m == hankel(unlifted(n, k), 0, k + 1), (n, k)
                if n >= 3 * k - 1:
                    assert _hankel_entries(n, k) == unlifted(n, k), (n, k)

    def test_reduction_keeps_the_determinant(self):
        for k in range(1, 7):
            for n in range(2 * k + 2, 31):
                assert sq.binom_det(n, k) == pivoting_bareiss_det(binom_matrix(n, k)), (n, k)

    def test_leading_minors_are_smaller_closed_forms(self):
        # the j x j leading block of the reduced matrix is the reduced matrix
        # of (n-k+j-1, j-1); the lift, a congruence by a unit lower-triangular
        # matrix, keeps the leading minors, the first column of the table
        for k in range(9):
            for n in range(2 * k + 1, 41):
                closed = [sq.binom_det_closed(n - k + j - 1, j - 1) for j in range(1, k + 2)]
                assert leading_minors(hankel(unlifted(n, k), 0, k + 1)) == closed, (n, k)
                assert [row[0] for row in _condensation(_hankel_entries(n, k))] == closed, (n, k)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sq.binom_det(4, 2)  # n < 2k+1
        with pytest.raises(ValueError):
            sq.binom_det(4, -1)


class TestCondensationKernel:
    @given(odd_sequences())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_or_raises(self, s):
        # the table divides by H_m^(j) for 1 <= m <= k-1 and 2 <= j <= 2k-2m
        k = len(s) // 2
        divisors = [pivoting_bareiss_det(hankel(s, j, m)) for m in range(1, k) for j in range(2, 2 * k - 2 * m + 1)]
        if all(divisors):
            assert condensed_det(s) == pivoting_bareiss_det(hankel(s, 0, k + 1))
        else:
            with pytest.raises(RuntimeError):
                condensed_det(s)

    def test_zero_divisor_raises_not_zero_division(self):
        # the one divisor at k = 2 is s_2 = 0, yet the determinant is -2
        assert pivoting_bareiss_det(hankel([1, 1, 0, 1, 1], 0, 3)) == -2
        with pytest.raises(RuntimeError):
            condensed_det([1, 1, 0, 1, 1])


class TestCondensationBoundary:
    def test_table_holds_signed_plane_partition_counts(self):
        # where n >= 3k-1: H_m^(j) = (-1)^(m(m-1)/2) PP(N-j-m, j+m, m) for
        # j+m <= N, so every divisor (j+m <= 2k-1 <= N) is nonzero
        for n, k in BOUNDARY:
            if n < 3 * k - 1:
                continue
            N = n - k
            rows = list(_condensation(_hankel_entries(n, k)))
            for m, row in enumerate(rows, 1):
                sign = -1 if m * (m - 1) // 2 % 2 else 1
                for j, minor in enumerate(row):
                    assert minor == (sign * plane_partitions(N - j - m, j + m, m) if j + m <= N else 0), (n, k, m, j)
            assert all(rows[m - 1][j] for m in range(1, k) for j in range(2, 2 * k - 2 * m + 1)), (n, k)
            assert sq.binom_det(n, k) == sq.binom_det_closed(n, k) == rows[-1][0], (n, k)

    def test_band_condenses_the_lifted_entries(self):
        # where 2k+1 <= n <= 3k-2 the divisor H_1^(2k-2) = C(n-k, 2k-1) of the
        # unlifted entries is 0; on the lifted t_i = C(N+i, i+1) every table
        # entry is H_m^(j) = (-1)^(m(m-1)/2) PP(N-m, j+m, m), nonzero as m <= N
        band = [(n, k) for n, k in BOUNDARY if n <= 3 * k - 2]
        assert len(band) == sum(k - 2 for k in range(3, 13))
        for n, k in band:
            s = unlifted(n, k)
            assert s[2 * k - 2] == 0
            with pytest.raises(RuntimeError):
                condensed_det(s)
            N = n - k
            t = _hankel_entries(n, k)
            assert t == [math.comb(N + i, i + 1) for i in range(2 * k + 1)], (n, k)
            for m, row in enumerate(_condensation(t), 1):
                sign = -1 if m * (m - 1) // 2 % 2 else 1
                assert row == [sign * plane_partitions(N - m, j + m, m) for j in range(len(row))], (n, k, m)
            assert sq.binom_det(n, k) == pivoting_bareiss_det(binom_matrix(n, k)) == sq.binom_det_closed(n, k), (n, k)

    def test_pascal_congruence_lifts_the_entries(self):
        # P [s_(r+c)] P^T = [t_(r+c)] with P = [C(r, i)] unit lower-triangular,
        # as t_i = sum_j C(i, j) s_j (Vandermonde): the same determinant
        for k in range(9):
            pascal = [[math.comb(r, i) for i in range(k + 1)] for r in range(k + 1)]
            for n in range(2 * k + 1, 41):
                t = [math.comb(n - k + i, i + 1) for i in range(2 * k + 1)]
                congruent = product(product(pascal, hankel(unlifted(n, k), 0, k + 1)), list(zip(*pascal)))
                assert congruent == hankel(t, 0, k + 1), (n, k)


class TestDeterminantAgainstCofactors:
    def test_three_by_three_cross_check(self):
        m = binom_matrix(9, 2)
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        cofactor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert sq.binom_det(9, 2) == cofactor
