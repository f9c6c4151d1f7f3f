"""Exact verification of a binomial determinant identity.

The matrix with entries C(n-r, k+1+c) for r, c in 0..k has determinant

    (-1)^(k(k+5)/2) * prod_{i=k+1}^{2k+1} C(n,i) / prod_{i=1}^{k} C(n,i),

nonzero whenever n >= 2k+1.  k sweeps of integer row subtractions take it,
by Pascal's rule, to the Hankel matrix C(N, r+c+1), N = n-k, built here
from its 2k+1 distinct entries: the same determinant, smaller entries (a
mean of 235 bits against 324 at n = 1000, k = 40).  Its j x j leading
block is the reduced matrix of the instance n' = N+j-1, k' = j-1, where
n' - 2k' - 1 = N - j >= 0 as N >= k+1 >= j, so every leading minor is
that instance's nonzero closed form.  A symmetric fraction-free
elimination therefore meets no zero pivot and needs no row swap.  The
closed form is evaluated directly; both sides are compared exactly.
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
# steeply with k: on the Hankel matrix the corner instance
# (1000, 40) takes 0.16 s on a 2-core x86 VM, (1000, 50) 0.56 s and
# (1000, 60) 1.6 s.
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
    """Fraction-free determinant of a symmetric matrix; every division is
    exact.  After step p, entry (r, c) is the minor on rows {0..p, r} and
    columns {0..p, c}, symmetric in r and c, so row r updates only row[r:]
    and reads m[r][p] as m[p][r].  The pivots are the leading minors; a zero
    one before the last step raises RuntimeError (no pivot search)."""
    m = [row[:] for row in matrix]
    prev = 1
    for p in range(len(m) - 1):
        prow, piv = m[p], m[p][p]
        if piv == 0:
            raise RuntimeError(f"zero leading minor of order {p + 1}")
        for r, f in enumerate(prow[p + 1 :], p + 1):
            m[r][r:] = [(x * piv - f * y) // prev for x, y in zip(m[r][r:], prow[r:])]
        prev = piv
    return m[-1][-1]


def _hankel_matrix(n: int, k: int) -> list[list[int]]:
    """C(n-k, r+c+1) for r, c in 0..k, from its 2k+1 distinct entries."""
    h = [math.comb(n - k, j) for j in range(1, 2 * k + 2)]
    return [h[r : r + k + 1] for r in range(k + 1)]


def binom_det(n: int, k: int) -> Fraction:
    """Exact determinant of the binomial matrix (an integer, returned as a
    rational for interface uniformity), by Bareiss on the Hankel matrix of
    the module docstring, whose entries and leading minors are smaller.
    Refuses n and k above the caps before building it."""
    _check_params(n, k)
    return Fraction(_bareiss_det(_hankel_matrix(n, k)))


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
