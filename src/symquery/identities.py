"""Exact verification of a binomial determinant identity.

The matrix with entries C(n-r, k+1+c) for r, c in 0..k has determinant

    (-1)^(k(k+5)/2) * prod_{i=k+1}^{2k+1} C(n,i) / prod_{i=1}^{k} C(n,i),

nonzero whenever n >= 2k+1.  k sweeps of integer row subtractions take it,
by Pascal's rule, to the Hankel matrix [s_(r+c)] of the 2k+1 entries
s_i = C(N, i+1), N = n-k: the same determinant, smaller entries (a mean of
235 bits against 324 at n = 1000, k = 40).  The closed form is evaluated
directly; both sides are compared exactly.

The determinant side condenses (Dodgson 1866).  Let H_m^(j) be the m x m
minor det[s_(j+r+c)], r, c < m, with H_0 = 1 and H_1^(j) = s_j.  The
Desnanot-Jacobi identity gives, for m = 1..k and j = 0..2k-2m,

    H_(m+1)^(j) = (H_m^(j) * H_m^(j+2) - (H_m^(j+1))^2) / H_(m-1)^(j+2),

an exact division, up to H_(k+1)^(0), the determinant: O(k^2) divisions
where an elimination makes O(k^3) steps.  The divisors are the H_m^(j) with
1 <= m <= k-1 and 2 <= j <= 2k-2m, so j+m reaches 2k-1, at H_1^(2k-2).

When is every divisor nonzero?  Reversing the m columns of [C(N, j+1+r+c)]
gives [C(N, j+m+r-c)], and by the Lindstrom-Gessel-Viennot lemma that
determinant counts families of m nonintersecting lattice paths, which are
MacMahon's plane partitions in an a x b x m box (Gessel and Viennot 1985):

    H_m^(j) = (-1)^(m(m-1)/2) * PP(N-j-m, j+m, m),
    PP(a, b, c) = prod_{i=1}^a prod_{l=1}^b (i+l+c-1)/(i+l-1) >= 1,

for j+m <= N; for j+m > N the last row, C(N, j+m+c), is zero.  So H_m^(j)
is nonzero exactly when j+m <= N, and every divisor is nonzero exactly
when N >= 2k-1, that is n >= 3k-1.  In the band 2k+1 <= n <= 3k-2 the
divisor H_1^(2k-2) = C(N, 2k-1) is 0, so every band instance meets a zero
divisor and condensation cannot serve it.

There a symmetric fraction-free elimination serves.  The j x j leading
block of [s_(r+c)] is the reduced matrix of the instance n' = N+j-1,
k' = j-1, where n' - 2k' - 1 = N - j >= 0 as N >= k+1 >= j, so every
leading minor is that instance's nonzero closed form (H_j^(0) above): the
elimination meets no zero pivot and needs no row swap.
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


# Largest n and k the determinant side accepts.  Condensation serves
# n >= 3k-1, the corner (1000, 40) among them, in 0.07-0.09 s on a 2-core
# x86 VM (Bareiss took 0.16-0.19 s); Bareiss serves the band below, whose
# costliest instance, (118, 40), takes 0.03-0.04 s.  At k = 44 the corner
# takes 0.13-0.15 s by condensation, about what k = 40 took by Bareiss, and
# (1000, 50) 0.27 s, so the caps keep their values.
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


def _condensation(s: list[int]):
    """Yield the rows H_1, ..., H_(k+1) of the table of shifted Hankel minors
    of the module docstring, for s of odd length 2k+1; the last row is
    [det[s_(r+c)]].  Every division is exact; a zero divisor raises
    RuntimeError."""
    prev, cur = [1] * len(s), s
    yield cur
    while len(cur) > 1:
        if 0 in prev[2 : len(cur)]:
            raise RuntimeError(f"zero shifted minor of order {(len(s) - len(cur)) // 2}")
        prev, cur = cur, [(a * c - b * b) // d for a, b, c, d in zip(cur, cur[1:], cur[2:], prev[2:])]
        yield cur


def _hankel_entries(n: int, k: int) -> list[int]:
    """The 2k+1 distinct entries s_i = C(n-k, i+1) of the Hankel matrix."""
    return [math.comb(n - k, i + 1) for i in range(2 * k + 1)]


def _hankel_matrix(n: int, k: int) -> list[list[int]]:
    """C(n-k, r+c+1) for r, c in 0..k, sliced from its 2k+1 entries."""
    s = _hankel_entries(n, k)
    return [s[r : r + k + 1] for r in range(k + 1)]


def binom_det(n: int, k: int) -> Fraction:
    """Exact determinant of the binomial matrix (an integer, returned as a
    rational for interface uniformity), on the Hankel matrix of the module
    docstring, whose entries are smaller: by condensation where n >= 3k-1,
    where every divisor is nonzero, by Bareiss in the band below it.
    Refuses n and k above the caps before building the entries."""
    _check_params(n, k)
    if n >= 3 * k - 1:
        *_, (det,) = _condensation(_hankel_entries(n, k))
        return Fraction(det)
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
