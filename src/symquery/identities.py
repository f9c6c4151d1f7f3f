"""Exact verification of a binomial determinant identity.

The matrix with entries C(n-r, k+1+c) for r, c in 0..k has determinant

    (-1)^(k(k+5)/2) * prod_{i=k+1}^{2k+1} C(n,i) / prod_{i=1}^{k} C(n,i),

nonzero throughout the range used here.  The determinant side is evaluated
by Bareiss fraction-free elimination over arbitrary-precision integers,
after k sweeps of integer row subtractions that leave the Hankel matrix
C(n-k, r+c+1) with the same determinant and smaller entries (a mean of 235
bits against 324 at n = 1000, k = 40); the closed form is evaluated
directly; both are compared exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction


def comb_ext(p: int, l: int) -> int:
    """Binomial coefficient under the convention C(p, l) = 0 whenever l < 0
    or p < l (covers all integer arguments)."""
    if l < 0 or p < l:
        return 0
    return math.comb(p, l)


def helper_identity(p: int, l: int) -> bool:
    """Check (p+1) * C(p, l) == (l+1) * C(p+1, l+1) for any integers."""
    return (p + 1) * comb_ext(p, l) == (l + 1) * comb_ext(p + 1, l + 1)


# Largest n and k the determinant side accepts.  Elimination cost grows
# steeply with k: on the Pascal-reduced matrix the corner instance
# (1000, 40) takes 0.3 s on a 2-core x86 VM, (1000, 50) 1.3 s and
# (1000, 60) 4.2 s.
MAX_DET_N = 1000
MAX_DET_K = 40


def _check_params(n: int, k: int) -> None:
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if n < 2 * k + 1:
        raise ValueError(f"need n >= 2k+1, got n={n}, k={k}")
    if n > MAX_DET_N or k > MAX_DET_K:
        raise ValueError(f"det is capped at n={MAX_DET_N} and k={MAX_DET_K}, got n={n}, k={k}")


def binom_matrix(n: int, k: int) -> list[list[int]]:
    """The (k+1)x(k+1) integer matrix with entries C(n-r, k+1+c)."""
    _check_params(n, k)
    return [[comb_ext(n - r, k + 1 + c) for c in range(k + 1)] for r in range(k + 1)]


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Fraction-free determinant; all intermediate divisions are exact."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for p in range(size - 1):
        if m[p][p] == 0:
            for r in range(p + 1, size):
                if m[r][p] != 0:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(p + 1, size):
            for c in range(p + 1, size):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
            m[r][p] = 0
        prev = m[p][p]
    return sign * m[size - 1][size - 1]


def _pascal_reduce(matrix: list[list[int]]) -> list[list[int]]:
    """k sweeps of R_r -= R_{r+1} over the (k+1)-row matrix, the s-th sweep on
    rows 0..k-s in increasing order; integer row subtractions, so the
    determinant is unchanged.  By Pascal's rule C(m, j) - C(m-1, j) =
    C(m-1, j-1), they take the binomial matrix to the Hankel matrix
    C(n-k, r+c+1)."""
    m = list(matrix)  # rows are replaced, never changed in place
    for s in range(len(m) - 1, 0, -1):
        for r in range(s):
            m[r] = [x - y for x, y in zip(m[r], m[r + 1])]
    return m


def binom_det(n: int, k: int) -> Fraction:
    """Exact determinant of the binomial matrix (an integer, returned as a
    rational for interface uniformity), by Bareiss on its Pascal reduction,
    whose entries and leading minors are smaller.  Refuses n and k
    above the caps before building the matrix."""
    _check_params(n, k)
    return Fraction(_bareiss_det(_pascal_reduce(binom_matrix(n, k))))


def binom_det_closed(n: int, k: int) -> Fraction:
    """Closed form (-1)^(k(k+5)/2) * prod_{i=k+1}^{2k+1} C(n,i) / prod_{i=1}^k C(n,i)."""
    _check_params(n, k)
    sign = -1 if (k * (k + 5) // 2) % 2 else 1
    numerator = math.prod(math.comb(n, i) for i in range(k + 1, 2 * k + 2))
    denominator = math.prod(math.comb(n, i) for i in range(1, k + 1))
    return Fraction(sign * numerator, denominator)


def check_identity(n: int, k: int) -> bool:
    """Exact equality of the eliminated determinant and the closed form."""
    return binom_det(n, k) == binom_det_closed(n, k)
