"""Exact-rational degree certification for symmetric promise problems.

A weight profile of degree d is stored in the binomial basis: on inputs of
weight w it evaluates to sum_k c_k * C(w, k) with rational coefficients
c_0..c_d.  Whether some degree-d profile fits a function within error eps is
a linear feasibility question, decided exactly on one path for every eps:
with eps = p/q the weight bounds are integers over q, the weights they pin
(the defined ones, at eps = 0) are eliminated by Gauss–Jordan with the box
rows of the others carried along, and a Phase-I simplex decides the box
rows.  Both run one column-major fraction-free pivot (Edmonds 1967, Bareiss
1968) on integers over one common denominator and store no basic column,
as each is D·e_r: the simplex keeps a dictionary (Chvátal 1983) whose
choices are those of the full tableau.  Every feasible witness is
re-checked exactly, in integers over the lcm of its denominators.  The
least feasible degree is found by binary search from an exact lower bound
on one elimination, whose state after pivot d is the degree-d system; a
complete catalogue matcher identifies every function of degree <= 2 up to
isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .symfun import (
    ONE,
    TRANSFORMS,
    UNDEFINED,
    ZERO,
    SymPartialFn,
    family_f1,
    family_f2,
    family_f3,
    family_f4,
    isomorphs,
)

RationalLike = Fraction | int | str


@dataclass(frozen=True)
class PolyV:
    """Weight profile in the binomial basis: coeffs = (c_0, ..., c_d)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient c_0")
        if not all(isinstance(c, Fraction) for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return ", ".join(f"c{k}={c}" for k, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict of a degree-d fit, with a witness profile when feasible."""

    feasible: bool
    witness: PolyV | None


class FamilyKind(Enum):
    CONSTANT_OR_EMPTY = "constant-or-empty"
    DEG1_F1NN = "deg1-f1nn"
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"


@dataclass(frozen=True)
class FamilyTag:
    """Catalogue match: which low-degree family, with which parameter, under
    which orbit transform."""

    kind: FamilyKind
    param: int | None
    transform: str

    def __str__(self) -> str:
        param = "" if self.param is None else f"({self.param})"
        return f"{self.kind.value}{param} via {self.transform}"


def eval_poly_at_weight(q: PolyV, w: int) -> Fraction:
    """Exact value sum_k c_k * C(w, k); terms with k > w vanish."""
    if w < 0:
        raise ValueError(f"weight must be >= 0, got {w}")
    return sum((c * comb(w, k) for k, c in enumerate(q.coeffs)), Fraction(0))


def _as_eps(eps: RationalLike) -> Fraction:
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"error bound must satisfy 0 <= eps < 1/2, got {eps}")
    return eps


def check_representation(q: PolyV, f: SymPartialFn, eps: RationalLike) -> bool:
    """Exact check: q stays in [0,1] at every weight, is <= eps where f is 0
    and >= 1-eps where f is 1.

    Decided in integers: with L the lcm of the coefficient denominators and
    eps = p/r, V(w) = L·q(w) must satisfy 0 <= V <= L, r·V <= p·L where f is
    0 and r·V >= (r-p)·L where f is 1.  V is walked along the weights by its
    forward differences, which start at the numerators L·c_k.
    """
    eps = _as_eps(eps)
    p, r = eps.numerator, eps.denominator
    L = lcm(*(c.denominator for c in q.coeffs))
    diffs = [c.numerator * (L // c.denominator) for c in q.coeffs]
    for w, b in enumerate(f.values):
        if w:  # Δ^k V(w) = Δ^k V(w-1) + Δ^(k+1) V(w-1)
            for k in range(len(diffs) - 1):
                diffs[k] += diffs[k + 1]
        v = diffs[0]
        if v < 0 or v > L:
            return False
        if b is ZERO and r * v > p * L:
            return False
        if b is ONE and r * v < (r - p) * L:
            return False
    return True


# ---------------------------------------------------------------------------
# Phase-I simplex over an integer dictionary
# ---------------------------------------------------------------------------


def _pivot(cols: list[list[int]], col: list[int], r: int, D: int) -> int:
    """Fraction-free pivot on p = col[r] > 0 of the columns cols over D: p
    is the new D, and row i != r of column a becomes (p·a[i] - a[r]·col[i])
    // D, exact as every entry is a minor.  p is positive for both callers:
    the simplex's ratio test picks a positive entry, and _reduce's pivots
    are ratios of leading minors of C(w, k) over ascending weights, each a
    Vandermonde determinant over prod k!.  col, now D·e_r, is the caller's
    to drop.  Returns p."""
    p = col[r]
    for a in cols:
        b = a[r]
        if b:
            a[:] = [(p * x - b * y) // D for x, y in zip(a, col)]
            a[r] = b
        elif p != D:
            a[:] = [p * x // D for x in a]
    return p


def _feasible_box(rows: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """Find t with rows·t <= rhs exactly, as numerators over one denominator,
    or None when infeasible.

    Phase-I simplex with Bland's anti-cycling rule over an integer
    dictionary.  The free t is split as y⁺ - y⁻ with y⁺, y⁻ >= 0, and
    rows·y⁺ - rows·y⁻ + slack = rhs.  Rows with negative right-hand side are
    sign-flipped and given an artificial variable; the search drives the
    artificial total to zero.  Bland's rule scans the virtual columns y⁺
    (0..nf-1), y⁻ (nf..2nf-1), the slacks and the artificials in that order.

    A basic column is always D·e_r, so only nonbasic ones are stored, beside
    the right-hand side: a y pair while neither half is basic (as y⁺; y⁻ is
    its negation, since B⁻¹(-a) = -B⁻¹a) and a nonbasic slack.  An
    artificial is dropped when it leaves and never re-enters.  The scan
    skips a y half whose partner is basic (its reduced cost is 0).  A pivot
    at (r, c) updates every other stored column by _pivot, and the entering
    slot takes the leaver's new column: -col off row r, the old D on it,
    negated for a y⁻.  So every choice, pivot and witness is that of the
    full tableau.

    A positive factor common to every row (the caller's q·D) rescales only
    the slacks, so every sign and ratio test (ratios by cross-multiplication)
    decides as over the rationals and the pivots and witness are those of
    the rational system; per-row factors would reweight the phase-I
    objective and could change Bland's entering column.
    """
    m = len(rows)
    nf = len(rows[0]) if m else 0
    art_base = 2 * nf + m
    flips = [-1 if b < 0 else 1 for b in rhs]
    # slot j < nf holds the y pair j, slot nf + i the slack of row i
    slots: list[list[int] | None] = [[s * row[j] for s, row in zip(flips, rows)] for j in range(nf)]
    slots += [None if s > 0 else [-(k == i) for k in range(m)] for i, s in enumerate(flips)]
    rhs = [abs(b) for b in rhs]
    basis = [art_base + i if s < 0 else 2 * nf + i for i, s in enumerate(flips)]  # artificials keep the row order
    order = [(j, 1) for j in range(nf)] + [(j, -1) for j in range(nf)] + [(nf + i, 1) for i in range(m)]

    D = 1
    while True:
        art_rows = [r for r in range(m) if basis[r] >= art_base]
        if not art_rows:
            break
        for enter, (s, sign) in enumerate(order):  # Bland: smallest improving column index
            a = slots[s]
            if a is not None and sign * sum(a[r] for r in art_rows) > 0:
                break
        else:
            break  # phase-I optimum reached with artificials still positive
        col = a if sign > 0 else [-v for v in a]
        leave = -1
        for r in range(m):
            v = col[r]
            if v > 0:
                if leave >= 0:  # sign of ratio(r) - ratio(leave)
                    cross = rhs[r] * col[leave] - rhs[leave] * v
                if leave < 0 or cross < 0 or (cross == 0 and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:  # cannot happen: phase-I objective is bounded below
            raise RuntimeError("phase-I simplex lost boundedness")
        slots[s] = None
        old, D_old = basis[leave], D
        D = _pivot([a for a in slots if a is not None] + [rhs], col, leave, D)
        basis[leave] = enter
        if old < art_base:  # the leaving column, stored as y⁺ for a y⁻
            sign = -1 if nf <= old < 2 * nf else 1
            slots[old if old < nf else old - nf] = back = [-sign * v for v in col]
            back[leave] = sign * D_old

    if any(rhs[r] for r in range(m) if basis[r] >= art_base):
        return None
    t = [0] * nf
    for r, j in enumerate(basis):
        if j < nf:
            t[j] += rhs[r]
        elif j < 2 * nf:
            t[j - nf] -= rhs[r]
    return t, D


class _Reduction(NamedTuple):
    """f within eps, its npin pinned weights eliminated (see _reduce): rows
    are the pinned weights, then q times the box weights' rows (bounds in
    boxes); cols holds the free columns npin.. and b the rhs, over D."""

    f: SymPartialFn
    eps: Fraction
    npin: int
    boxes: list[tuple[int, int]]
    cols: list[list[int]]
    b: list[int]
    D: int


def _reduce(f: SymPartialFn, eps: Fraction, top: int) -> _Reduction:
    """Gauss–Jordan on the pinned equalities a·c = lo over c_0..c_top, with
    the simplex's pivot, carrying the box rows along as non-pivot rows with
    b = 0.  The pinned weights are distinct and ascending, so the leading
    minors of their rows C(w, k) are positive (see _pivot): column c pivots
    on row c, and the free columns c >= npin take no later pivot.  Reduced pinned row i reads D·c_i + sum over free k of
    cols[k][i]·c_k = b[i].  By the Schur complement a carried box row of a
    holds D·a_k - sum_i a_i·cols[k][i] and, in b, -sum_i a_i·b[i], so
    q·D·(a·c) = sum over free k of cols[k][row]·c_k - b[row]."""
    p, q = eps.numerator, eps.denominator
    bounds = [{ZERO: (0, p), ONE: (q - p, q), UNDEFINED: (0, q)}[v] for v in f.values]
    pinned = [w for w, (lo, hi) in enumerate(bounds) if lo == hi]  # only at p = 0, so q = 1
    boxed = [w for w, (lo, hi) in enumerate(bounds) if lo != hi]
    cols = [[comb(w, k) for w in pinned] + [q * comb(w, k) for w in boxed] for k in range(top + 1)]
    b, D = [bounds[w][0] for w in pinned] + [0] * len(boxed), 1
    for c in range(min(top + 1, len(pinned))):
        D = _pivot(cols[c + 1 :] + [b], cols[c], c, D)
    return _Reduction(f, eps, len(pinned), [bounds[w] for w in boxed], cols[len(pinned) :], b, D)


def _solve_at(red: _Reduction, d: int) -> FeasibilityResult:
    """Decide degree d <= top from its reduction up to top.  For d < npin a
    degree-d fit of the pinned values is their interpolant of degree
    < npin, which is unique, so it exists iff that one's coefficients
    c_(d+1).. are zero: b[d+1:npin] = 0, with the free ones set to zero.
    Otherwise the box simplex decides the free coefficients c_npin..c_d."""
    b, D, npiv = red.b, red.D, min(d + 1, red.npin)
    if any(b[npiv : red.npin]):
        return FeasibilityResult(False, None)
    free = red.cols[: d + 1 - npiv]
    t, Dt = [0] * len(free), 1  # the free coefficients are t / Dt
    if free and red.boxes:
        rows, rhs = [], []
        for i, (lo, hi) in enumerate(red.boxes, red.npin):
            coef = [col[i] for col in free]  # D·lo <= coef·t - b[i] <= D·hi
            rows += [coef, [-v for v in coef]]
            rhs += [D * hi + b[i], -b[i] - D * lo]
        solved = _feasible_box(rows, rhs)
        if solved is None:
            return FeasibilityResult(False, None)
        t, Dt = solved
    coeffs = [Fraction(b[i] * Dt - sum(col[i] * v for col, v in zip(free, t)), D * Dt) for i in range(npiv)]
    witness = PolyV(tuple(coeffs + [Fraction(v, Dt) for v in t]))
    if not check_representation(witness, red.f, red.eps):
        if free:
            # the simplex saw every box constraint, so this is a solver bug
            raise RuntimeError(f"simplex produced an unsound witness for {red.f}")
        return FeasibilityResult(False, None)  # unique solution fails the boxes
    return FeasibilityResult(True, witness)


def lp_feasible(f: SymPartialFn, eps: RationalLike, d: int) -> FeasibilityResult:
    """Decide, exactly, whether some degree-<=d profile fits f within eps.

    One path for every eps.  With eps = p/q, each weight w bounds q times
    the profile value a·c = sum_k c_k C(w,k) to integers [lo, hi]: [0, p]
    where f is 0, [q-p, q] where f is 1 and [0, q] where f is undefined.
    Weights with lo = hi (the defined ones, at eps = 0 only) are equalities,
    eliminated up to d by _reduce, which carries the pair of box rows of
    every other weight along, all scaled by one common factor q·D: so the
    simplex's choices are those of the rational system (see _feasible_box),
    and when feasible the witness is whichever basic solution it lands on.
    A unique solution (no free coefficient) that leaves a box is
    infeasible; an unsound witness from the simplex raises RuntimeError.
    """
    eps = _as_eps(eps)
    if not 0 <= d <= f.n:
        raise ValueError(f"degree bound must satisfy 0 <= d <= n={f.n}, got {d}")
    return _solve_at(_reduce(f, eps, d), d)


def least_degree(f: SymPartialFn, eps: RationalLike = 0) -> tuple[int, FeasibilityResult]:
    """Least d with a feasible degree-d profile, by binary search on [lo, n],
    with the feasible result (and witness) of the search's probe at d.

    lo, the number of adjacent defined weights (undefined ones skipped) with
    different values, is exact.  If q fits f within eps < 1/2, q - 1/2 is
    <= eps - 1/2 < 0 at one weight of such a pair and >= 1/2 - eps > 0 at
    the other, so it has a root strictly between them: a nonzero polynomial
    in w of degree <= d with lo distinct roots, so d >= lo.  Interpolating
    the defined values (zero at undefined weights) is feasible at d = n.
    The search eliminates once, up to n, and solves every probe from that
    state; its last feasible probe is at the returned d, so the witness
    needs no second solve.
    """
    eps = _as_eps(eps)
    defined = [v for v in f.values if v is not UNDEFINED]
    lo, hi = sum(u is not v for u, v in zip(defined, defined[1:])), f.n
    reduced, best = _reduce(f, eps, hi), None
    while lo <= hi:
        d = (lo + hi) // 2
        result = _solve_at(reduced, d)
        if result.feasible:
            hi, best = d - 1, result
        else:
            lo = d + 1
    return lo, best


def degree(f: SymPartialFn, eps: RationalLike = 0) -> int:
    """Least d with a feasible degree-d profile (see ``least_degree``)."""
    return least_degree(f, eps)[0]


def qe_lower_bound(f: SymPartialFn) -> int:
    """Query lower bound ceil(degree(f, 0) / 2) from the profile-degree of the
    acceptance probability of any exact algorithm."""
    return (degree(f, 0) + 1) // 2


def classify_deg2(f: SymPartialFn) -> FamilyTag | None:
    """Match f against the complete catalogue of degree <= 2 promise families.

    Returns CONSTANT_OR_EMPTY when the defined values admit a constant fit
    (degree 0), DEG1_F1NN for the unique degree-1 orbit, a family tag with
    parameter for the degree-2 catalogue, and None otherwise.  The parameter
    ranges are k in [floor(n/2), n-1] for F1/F2 and l in
    [floor(n/2), ceil(n/2)] for F3; for even n the F4 vector equals
    F3(n/2) and is reported as F3.
    """
    if f.n <= 1:
        raise ValueError(f"classification needs n > 1, got n={f.n}")
    n = f.n
    present = {v for v in f.values if v is not UNDEFINED}
    if len(present) <= 1:
        return FamilyTag(FamilyKind.CONSTANT_OR_EMPTY, None, TRANSFORMS[0])
    orbit = isomorphs(f)

    def match(target: SymPartialFn) -> str | None:
        for t, g in zip(TRANSFORMS, orbit):
            if g == target:
                return t
        return None

    t = match(family_f1(n, n))
    if t is not None:
        return FamilyTag(FamilyKind.DEG1_F1NN, None, t)

    candidates: list[tuple[FamilyKind, int | None, SymPartialFn]] = []
    for k in range(n // 2, n):
        candidates.append((FamilyKind.F1, k, family_f1(n, k)))
    for k in range(n // 2, n):
        candidates.append((FamilyKind.F2, k, family_f2(n, k)))
    for l in range(n // 2, (n + 1) // 2 + 1):
        candidates.append((FamilyKind.F3, l, family_f3(n, l)))
    if n % 2:
        candidates.append((FamilyKind.F4, None, family_f4(n)))
    for kind, param, target in candidates:
        t = match(target)
        if t is not None:
            return FamilyTag(kind, param, t)
    return None
