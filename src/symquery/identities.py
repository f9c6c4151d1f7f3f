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
divisor H_1^(2k-2) = C(N, 2k-1) is 0, so condensation cannot serve s there.

There the binomial transform serves, which keeps every Hankel determinant
(Layman, "The Hankel transform and some of its properties", J. Integer
Seq. 2001).  With P = [C(r, i)], unit lower triangular, Vandermonde's
convolution gives the lifted entries t_i = C(N+i, i+1) = sum_j C(i, j) s_j,
so P [s_(r+c)] P^T = [t_(r+c)], of the same determinant.  By the same
convolution the shifted sequence t_(j+i) is the binomial transform of
C(N+j, j+1+i), so the count above, with N+j for N, gives

    H_m^(j)(t) = (-1)^(m(m-1)/2) * PP(N-m, j+m, m),

nonzero for every j, as m <= k+1 <= N: condensation serves t on every
admitted (n, k).  Outside the band s stays, whose minors, PP(N-j-m, ...)
against PP(N-m, ...), are the smaller.
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


# Largest n and k the determinant side accepts.  On a 2-core x86 VM
# condensation takes 0.07-0.10 s at the corner (1000, 40), and 9-12 ms on
# the lifted entries of the band's costliest instance, (118, 40).  At
# k = 44 the corner takes 0.12-0.17 s and (1000, 50) 0.24-0.27 s, so the
# caps keep their values.
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
    """The 2k+1 distinct entries of a Hankel matrix with the binomial
    matrix's determinant: s_i = C(n-k, i+1), lifted to t_i = C(n-k+i, i+1)
    in the band n <= 3k-2, where condensing s meets a zero divisor."""
    lift = n < 3 * k - 1
    return [math.comb(n - k + lift * i, i + 1) for i in range(2 * k + 1)]


def binom_det(n: int, k: int) -> Fraction:
    """Exact determinant of the binomial matrix (an integer, returned as a
    rational for interface uniformity), condensed on the Hankel entries of
    the module docstring, where every divisor is nonzero.  Refuses n and k
    above the caps before building the entries."""
    _check_params(n, k)
    *_, (det,) = _condensation(_hankel_entries(n, k))
    return Fraction(det)


def binom_det_closed(n: int, k: int) -> Fraction:
    """Closed form (-1)^(k(k+5)/2) * prod_{i=k+1}^{2k+1} C(n,i) / prod_{i=1}^k C(n,i)."""
    _check_params(n, k)
    sign = -1 if (k * (k + 5) // 2) % 2 else 1
    numerator = math.prod(math.comb(n, i) for i in range(k + 1, 2 * k + 2))
    denominator = math.prod(math.comb(n, i) for i in range(1, k + 1))
    return Fraction(sign * numerator, denominator)


def check_identity(n: int, k: int) -> bool:
    """Exact equality of the condensed determinant and the closed form."""
    return binom_det(n, k) == binom_det_closed(n, k)
