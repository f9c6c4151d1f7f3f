"""Exact-rational degree certification for symmetric promise problems.

A weight profile of degree d is stored in the binomial basis: on inputs of
weight w it evaluates to sum_k c_k * C(w, k) with rational coefficients
c_0..c_d.  Whether some degree-d profile fits a function within error eps is
a linear feasibility question, decided exactly on one path for every eps:
with eps = p/q the weight bounds are integers over q.  The interpolant of
the values they pin (the defined ones, at eps = 0; Newton's divided
differences) is checked once: the one candidate below their count, it
answers wherever it fits.  Else the pinned equalities are solved by Cramer's
rule over their Vandermonde determinant (integer Lagrange weights, one table
per function), which leaves the box rows of the others, each over its
content (the gcd of its Lagrange weights) and each column, built when a
search asks for it, over its own.  A Phase-I simplex decides the box rows
with a column-major fraction-free pivot (Edmonds 1967, Bareiss 1968) on
integers over one common denominator, its cost weighting each artificial by
its row's content, so it pivots as on the unscaled rows; it keeps a
dictionary (Chvátal 1983) that stores no basic column, nor the slack of a
row whose artificial is basic, and gains columns without a restart.  One
scan (_scan) finds the least degree, upward from a lower bound, on those
box rows or, at eps > 0 for a function fixed by a mirror, on half the rows
and columns; the one exit from the LP, it re-checks in integers on the
function's rows each witness and Farkas certificate it returns, and it
refuses an LP over a size cap before building it.  classify_deg2, the
catalogue of every function of degree <= 2, is re-exported from catalogue.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, NamedTuple

from .catalogue import FamilyKind, FamilyTag, classify_deg2  # noqa: F401 (polydeg.classify_deg2 is public)
from .symfun import SymPartialFn, isomorphs

RationalLike = Fraction | int | str


class PolyV(NamedTuple("PolyV", [("coeffs", tuple[Fraction, ...])])):
    """Weight profile in the binomial basis: coeffs = (c_0, ..., c_d)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, coeffs: tuple[RationalLike, ...]) -> PolyV:
        if not coeffs:
            raise ValueError("need at least the constant coefficient c_0")
        if not all(isinstance(c, Fraction) for c in coeffs):
            coeffs = tuple(Fraction(c) for c in coeffs)
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return ", ".join(f"c{k}={c}" for k, c in enumerate(self.coeffs))


class FeasibilityResult(NamedTuple):
    """Verdict of a degree-d fit, with a witness profile when feasible."""

    feasible: bool
    witness: PolyV | None


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
        if (b == "0" and r * v > p * L) or (b == "1" and r * v < (r - p) * L):
            return False
    return True


def _pivot(cols: list[list[int]], col: list[int], r: int, D: int) -> int:
    """Fraction-free pivot on p = col[r] > 0 of the columns cols over D: p
    is the new D, and row i != r of column a becomes (p·a[i] - a[r]·col[i])
    // D, exact as every entry is a minor.  The simplex, its one caller,
    pivots on a positive entry, picked by its ratio test.  col, now D·e_r,
    is the caller's to drop.  Returns p."""
    p = col[r]
    for a in cols:
        b = a[r]
        if b:
            a[:] = [(p * x - b * y) // D for x, y in zip(a, col)]
            a[r] = b
        elif p != D:
            a[:] = [p * x // D for x in a]
    return p


class _FeasibleBox:
    """Phase-I simplex for rows·t <= rhs on an integer dictionary that takes
    its columns one at a time: add_column keeps the basis, which stays
    Phase-I feasible, and run() resumes Bland's rule from it, returning t
    over one denominator, or None, which farkas() then certifies.

    t = y⁺ - y⁻ with y⁺, y⁻ >= 0 and rows·y⁺ - rows·y⁻ + slack = rhs; rows
    with rhs < 0 are sign-flipped and given an artificial, which counts as
    feasible while basic at level 0.  Bland scans y⁺ (0..nf-1), y⁻
    (nf..2nf-1), the slacks and the artificials, renumbered as nf grows.  A
    basic column is D·e_r, so only nonbasic ones are stored: a y pair while
    neither half is basic (as y⁺) and a nonbasic slack.  Neither is the
    slack of a row i whose artificial is basic (always in row i, as it never
    re-enters): its column is -D·e_i, never improving, so its slot is False.
    A leaving artificial i writes that column out as it pivots, -D_old on
    row i and col off it; a leaving y or slack takes the entering slot (-col
    off row r, the old D on it, negated for a y⁻), so a cold solve (all
    columns, then run) pivots as the full tableau.  A new column a is
    D·B⁻¹(flips⊙a) = sum_i a_i·T(slack_i), T(slack_i) being the slack's
    stored column, D·e_r while it is basic in row r, or -D·e_i.  Row i may
    be a row of the system divided by a factor g_i > 0 (weights, all 1 if
    None), so its slack and artificial are those of the system over g_i: the
    Phase-I cost sum_i g_i·(artificial i) is the system's own sum, so every
    reduced cost sign, ratio (by cross-multiplication) and tie, and hence
    every Bland pivot, is the system's, as under a positive column factor.
    That cost is entry m of every column a and of rhs, sum_r g_r·a[r] over
    the rows r whose artificial is basic (-g_i·D for a False slot); _pivot
    updates it as a row, and a leaving artificial i's column gets col[m] -
    p·g_i."""

    def __init__(self, rhs: list[int], weights: list[int] | None = None) -> None:
        m, self.rhs = len(rhs), [abs(b) for b in rhs]
        self.cost = [(1 if weights is None else weights[i]) if b < 0 else 0 for i, b in enumerate(rhs)]
        self.rhs.append(sum(map(mul, self.cost, self.rhs)))
        # slot j < nf holds the y pair j, slot nf + i the slack of row i
        self.slots: list[list[int] | bool | None] = [None if b >= 0 else False for b in rhs]
        self.basis = [m + i if b < 0 else i for i, b in enumerate(rhs)]  # artificials keep the row order
        self.nf, self.D, self.pivots, self.arts = 0, 1, 0, sum(b < 0 for b in rhs)

    def add_column(self, a: list[int]) -> None:
        nf, m, D = self.nf, len(self.basis), self.D
        col = [D * a[j - 2 * nf] if 2 * nf <= j < 2 * nf + m else 0 for j in self.basis] + [0]  # basic slacks: D·e_r
        for i, (v, slack) in enumerate(zip(a, self.slots[nf:])):
            if v and slack is False:  # -D·e_i, cost -g_i·D
                col[i] -= D * v
                col[m] -= self.cost[i] * D * v
            elif v and slack is not None:
                col = [x + v * y for x, y in zip(col, slack)]
        self.slots.insert(nf, col)
        self.basis = [j + (j >= nf) + (j >= 2 * nf) for j in self.basis]
        self.nf += 1

    def run(self) -> tuple[list[int], int] | None:
        nf, m, rhs, slots, basis = self.nf, len(self.basis), self.rhs, self.slots, self.basis
        art_base = 2 * nf + m
        order = [(j, 1) for j in range(nf)] + [(j, -1) for j in range(nf)] + [(nf + i, 1) for i in range(m)]
        while self.arts:
            for enter, (s, sign) in enumerate(order):  # Bland: smallest improving column index
                a = slots[s]
                if a and sign * a[m] > 0:
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
            old, D_old = basis[leave], self.D
            self.D = _pivot([a for a in slots if a] + [rhs], col, leave, self.D)
            self.pivots += 1
            basis[leave] = enter
            if old >= art_base:  # its row's slack, -D_old·e_leave until this pivot, is stored
                self.arts -= 1
                col[leave], col[m] = -D_old, col[m] - self.D * self.cost[leave]
                slots[nf + leave] = col
            else:  # the leaving column, stored as y⁺ for a y⁻
                sign = -1 if nf <= old < 2 * nf else 1
                slots[old if old < nf else old - nf] = back = [-sign * v for v in col]
                back[leave] = sign * D_old

        if rhs[m]:  # the weighted sum of the artificials, each >= 0
            return None
        value = {j: rhs[r] for r, j in enumerate(basis)}
        return [value.get(j, 0) - value.get(nf + j, 0) for j in range(nf)], self.D

    def farkas(self) -> list[int]:
        """After an infeasible run, integers λ >= 0, λ·rows = 0 (both halves of
        a y pair cost >= 0), λ·rhs < 0 (Chvátal 1983, ch. 9): λ_i = -T(slack_i)
        on the cost row, D times slack i's reduced cost."""
        m = len(self.basis)
        return [0 if slack is None else g * self.D if slack is False else -slack[m]
                for slack, g in zip(self.slots[self.nf :], self.cost)]


def _is_farkas(lam: list[int], columns: list[list[int]], rhs: list[int]) -> bool:
    """Exact check that integers lam >= 0 have lam·rows = 0 (rows given by
    columns) and lam·rhs < 0, so 0 = lam·rows·t <= lam·rhs < 0 has no t."""
    return (len(lam) == len(rhs) and all(type(v) is int and v >= 0 for v in lam)
            and all(sum(map(mul, lam, a)) == 0 for a in columns) and sum(map(mul, lam, rhs)) < 0)


# _scan refuses with ValueError, before it builds them, an LP of more than
# MAX_LP_SIZE box weights × free columns to its top degree × 64-bit words of
# q·D, which bounds the scale of every box row's bounds (each row is over its
# content), and a pinned block of more than MAX_BLOCK_SIZE pinned weights² ×
# weights, whose Lagrange weights it would extrapolate.  On a 2-core x86 VM,
# MAJ:42 at eps = 1/8 (43 × 43) takes 2.1 s end to end, and "*"*44 + 957
# random 0/1, whose LP fits (D = 1), 30 s in degree and 76 s in least_degree
# with the block cap lifted: its right-hand sides' q·b reach 1,206 bits.
MAX_LP_SIZE = 2000
MAX_BLOCK_SIZE = 32_000_000


class _Reduction:
    """f within eps = p/q: each weight bounds q times the profile value a·c =
    sum_k c_k C(w, k) to integers [lo, hi]; the npin w_i with lo = hi = v_i
    (defined, at eps = 0, so q = 1) are pinned, the others boxes.  Below
    npin a fit is the pinned values' interpolant (fit).  At or above it the
    free c_N fix the others: at a box weight x, q·D·(a·c) = sum_N
    q·(D·C(x, N) - sum_i Λ[x][i]·C(w_i, N))·c_N + q·sum_i Λ[x][i]·v_i, D =
    det C(w_i, j), i, j < npin, where by Cramer's rule the Λ[x][i] =
    D·ℓ_i(x) (ℓ_i the pins' Lagrange basis) are integers.  The ℓ_i sum to 1,
    so the Λ[x][i] sum to D and their gcd g_x divides D and the whole row.
    The table (lagrange, one per (f, eps)) holds the row over g_x: g_x, D/g_x
    and Λ[x][i]/g_x.  Column N, built when a search first asks, is the
    column of c_N over its content h_N, and b(x) = sum_i (Λ[x][i]/g_x)·v_i;
    a solution u of the box rows gives c_N = u_N·h_N.  q·D bounds (D/g_x)·hi,
    not q·b, which far-off pins' Lagrange weights can make far longer."""

    def __init__(self, f: SymPartialFn, eps: Fraction) -> None:
        p, q = eps.numerator, eps.denominator
        bound_of = {"0": (0, p), "1": (q - p, q), "*": (0, q)}
        bounds = [bound_of[v] for v in f.values]
        self.f, self.eps, self.cols = f, eps, []
        self.pins = [(w, lo) for w, (lo, hi) in enumerate(bounds) if lo == hi]  # only at p = 0, so q = 1
        self.boxed = [w for w, (lo, hi) in enumerate(bounds) if lo != hi]
        self.boxes, self.npin = [bounds[w] for w in self.boxed], len(self.pins)

    @cached_property
    def fit(self) -> tuple[int, list[int] | None, int]:
        """(deg, V, L): the pinned values' interpolant p has degree deg (-1 if
        p = 0) and, if q·p stays in every box (one evaluation per box weight),
        binomial coefficients c_k = Δᵏp(0) = V[k] / L, else V is None.
        Newton's divided differences over the pinned weights (Stoer and
        Bulirsch, §2.1), each level integers over one denominator E; the j-th
        Newton term has degree j, so deg is the last nonzero one's index."""
        ws, level, E = [w for w, _ in self.pins], [v for _, v in self.pins], 1
        newton = [(v, 1) for v in level[:1]]  # Newton's coefficients, each over its level's E
        for j in range(1, self.npin):
            gaps = [ws[i + j] - ws[i] for i in range(len(level) - 1)]
            G = lcm(*gaps)
            level = [(b - a) * (G // g) for a, b, g in zip(level, level[1:], gaps)]
            h = gcd(E * G, *level)
            level, E = [v // h for v in level] if h > 1 else level, E * G // h
            newton.append((level[0], E))
        deg = max((j for j, (a, _) in enumerate(newton) if a), default=-1)
        L = lcm(*(e for _, e in newton[: deg + 1]))
        A = [a * (L // e) for a, e in newton[: deg + 1]]

        def value(x: int) -> int:  # L·p(x), by Horner on the Newton form
            P = 0
            for j in range(deg, -1, -1):
                P = P * (x - ws[j]) + A[j]
            return P

        q = self.eps.denominator
        if not all(lo * L <= q * value(w) <= hi * L for w, (lo, hi) in zip(self.boxed, self.boxes)):
            return deg, None, L
        return deg, _differences([value(x) for x in range(deg + 1)]), L

    @cached_property
    def D(self) -> int:
        """det C(w_i, j), i, j < npin: Vandermonde over prod j!, by leading minors."""
        D, ws = 1, [w for w, _ in self.pins]
        for j, v in enumerate(ws):
            D = D * prod(v - u for u in ws[:j]) // factorial(j)
        return D

    @cached_property
    def lagrange(self) -> list[tuple[int, int, list[int]]]:
        """(g_x, D/g_x, Λ[x][·]/g_x) at each box weight x: Λ[x][i] = D·ω(x) /
        ((x - w_i)·ω'(w_i)), ω(x) = prod_i (x - w_i), an exact division, the
        quotient an integer, and g_x = gcd(D, Λ[x][·]), 1 with no pin."""
        ws = [w for w, _ in self.pins]
        slopes = [prod(w - u for u in ws if u != w) for w in ws]  # ω'(w_i)
        table = []
        for x in self.boxed:
            D_omega = self.D * prod(x - w for w in ws)
            row = [D_omega // ((x - w) * s) for w, s in zip(ws, slopes)]
            g = gcd(self.D, *row)
            table.append((g, self.D // g, [v // g for v in row]))
        return table

    def column(self, k: int) -> list[int]:  # of c_(npin+k), on the box rows; C(x, N) with no pin
        while len(self.cols) <= k:
            N = self.npin + len(self.cols)
            at_pins = [comb(w, N) for w, _ in self.pins]
            col = ([Dg * comb(x, N) - sum(map(mul, row, at_pins)) for x, (_, Dg, row) in zip(self.boxed, self.lagrange)]
                   if at_pins else [comb(x, N) for x in self.boxed])
            h = gcd(*col)
            self.cols.append([v // h for v in col] if h > 1 else col)
        return self.cols[k]

    @cached_property
    def b(self) -> list[int]:  # b(x) at each box weight x
        return [sum(l for l, (_, v) in zip(row, self.pins) if v) for _, _, row in self.lagrange]

    def box_rhs(self) -> list[int]:
        # (D/g)·lo <= col·u + q·b <= (D/g)·hi: col·u <= (D/g)·hi - q·b, -col·u <= q·b - (D/g)·lo
        q = self.eps.denominator
        return [v for (lo, hi), (_, Dg, _), b in zip(self.boxes, self.lagrange, self.b)
                for v in (Dg * hi - q * b, q * b - Dg * lo)]

    def box_weights(self) -> list[int]:  # the factor g_x each box row was divided by
        return [g for g, _, _ in self.lagrange for _ in (0, 1)]

    def box_column(self, k: int) -> list[int]:  # of c_(npin+k) in the box rows
        return [v for x in self.column(k) for v in (x, -x)]


@lru_cache(maxsize=4)
def _reduce(f: SymPartialFn, eps: Fraction) -> _Reduction:
    """The one reduction of (f, eps), shared by degree and the lp_feasible
    call after it; it grows as their searches ask for columns, with the same
    integers whichever asks first."""
    return _Reduction(f, eps)


def _differences(V: list[int]) -> list[int]:
    """Δᵏ V(0) for each k, from the values V(0), V(1), ..., in place."""
    for k in range(len(V) - 1):
        V[k + 1 :] = [b - a for a, b in zip(V[k:], V[k + 1 :])]
    return V


def _witness(red: _Reduction, V: list[int], den: int, d: int) -> FeasibilityResult:
    """The degree-d profile c_k = V[k] / den (0 past V), re-checked: an
    unsound witness, from the interpolant or the simplex, raises
    RuntimeError."""
    # from a list, sized exactly: a tuple built from a generator may keep spare slots, and every answer keeps it
    witness = PolyV(tuple([Fraction(v, den) for v in V] + [Fraction(0)] * (d + 1 - len(V))))
    if not check_representation(witness, red.f, red.eps):
        raise RuntimeError(f"unsound witness for {red.f} at eps = {red.eps}")
    return FeasibilityResult(True, witness)


def _scan(red: _Reduction, new_box: Callable[[], _FeasibleBox], columns: Iterable[tuple[int, list[int]]], lo: int,
          top: int, witness: Callable[[list[int], int, int], tuple[list[int], int]],
          unfold: Callable[[list[int]], list[int]]) -> tuple[int, FeasibilityResult | None]:
    """Unless red's size refuses it (see MAX_LP_SIZE), one dictionary,
    new_box(), gains the (degree, column) pairs, ascending to top, and
    runs from degree lo to the first feasible one.  Returns the degree d it
    stopped at with that run's witness, or with None at n after an
    infeasible run (interpolation fits there) or one past the last pair.
    Everything it returns is re-checked on f's rows: the witness, whose
    coefficients over one denominator witness(t, Dt, d) gives from the run's
    (t, Dt), and the last infeasible run's Farkas λ, unfold(λ) on red's box
    rows, for every degree below d (feasibility is monotone in d)."""
    npin, n = red.npin, red.f.n
    if npin * npin * (n + 1) > MAX_BLOCK_SIZE:
        raise ValueError(f"refused: a block of {npin} pinned weights at n = {n} exceeds "
                         f"polydeg.MAX_BLOCK_SIZE = {MAX_BLOCK_SIZE}")
    boxes, free, words = len(red.boxes), top + 1 - npin, 1 + (red.eps.denominator * red.D).bit_length() // 64
    if boxes * free * words > MAX_LP_SIZE:
        size = f"{boxes} box weights × {free} free columns" + (f" × {words} words of q·D" if words > 1 else "")
        raise ValueError(f"refused: the degree LP on {size} exceeds polydeg.MAX_LP_SIZE = {MAX_LP_SIZE}")
    box, lam, result = new_box(), None, None
    for d, a in columns:
        if d == n and lam is not None:
            break
        box.add_column(a)
        if d >= lo:
            solved = box.run()
            if solved is not None:
                result = _witness(red, *witness(*solved, d), d)
                break
            lam = box.farkas()
    else:
        d += 1
    if d > n:
        raise RuntimeError(f"phase-I simplex found no degree-n fit of {red.f}")
    if lam is not None and not _is_farkas(unfold(lam), [red.box_column(k) for k in range(d - npin)], red.box_rhs()):
        raise RuntimeError(f"simplex produced an unsound infeasibility certificate for {red.f} at degree {d - 1}")
    return d, result


def _search(red: _Reduction, lo: int, top: int) -> tuple[int, FeasibilityResult | None]:
    """The least feasible degree d in [lo, top] of red, or top + 1 if none,
    with the result at d (None where d = n follows an infeasible run).  The
    pinned values' interpolant, of degree deg, is the one fit below npin and,
    where it fits, the answer at max(lo, deg): above npin it is t = 0, which
    a first dictionary returns.  At d = 0 with nothing pinned (eps > 0) the
    one column is constant, so the box rows bound q·c_0 to [max lo, min hi]:
    if that holds a point, its low end, where the first pivot of a cold run
    stops, is the answer.  Else _scan takes the box column of each degree
    from npin to top, and checks what it returns."""
    npin, q = red.npin, red.eps.denominator
    deg, V, L = red.fit
    d = max(lo, deg)
    if d <= top and V is not None:
        return d, _witness(red, V, L, d)
    if d == npin == 0:
        c0 = max(lo for lo, _ in red.boxes)
        if c0 <= min(hi for _, hi in red.boxes):
            return 0, _witness(red, [c0], q, 0)
    if npin > top:  # no free column, and no interpolant of degree <= top fits
        return top + 1, FeasibilityResult(False, None)

    def witness(t: list[int], Dt: int, d: int) -> tuple[list[int], int]:
        # E = q·D·Dt times the fit at weights 0..d, differenced: c_k = Δᵏ(·)(0) / E
        pinned, E, rows = dict(red.pins), q * red.D * Dt, zip(red.lagrange, red.b, zip(*map(red.column, range(len(t)))))
        boxed = (g * (q * Dt * b + sum(map(mul, row, t))) for (g, _, _), b, row in rows)  # per box weight, ascending
        return _differences([E * pinned[x] if x in pinned else next(boxed) for x in range(d + 1)]), E

    d, result = _scan(red, lambda: _FeasibleBox(red.box_rhs(), red.box_weights()),
                      ((k, red.box_column(k - npin)) for k in range(npin, top + 1)), lo, top, witness, lambda lam: lam)
    return d, FeasibilityResult(False, None) if d > top else result


def lp_feasible(f: SymPartialFn, eps: RationalLike, d: int) -> FeasibilityResult:
    """Decide, exactly, whether some degree-<=d profile fits f within eps.

    With eps = p/q, each weight bounds q times the profile value to integers
    [0, p] where f is 0, [q-p, q] where f is 1 and [0, q] where f is
    undefined; box row x is scaled by q·D/g_x, g_x its content, and the
    simplex's cost by g_x, so it decides as on the rational system (see
    _Reduction, _FeasibleBox).  This is the search from d to d on the
    shared reduction of (f, eps): one check of the pinned values'
    interpolant, or one cold run whose witness or Farkas certificate is
    re-checked; an unsound one raises, and an LP over MAX_LP_SIZE is refused
    with ValueError before it is built.
    """
    eps = _as_eps(eps)
    if not 0 <= d <= f.n:
        raise ValueError(f"degree bound must satisfy 0 <= d <= n={f.n}, got {d}")
    return _search(_reduce(f, eps), d, d)[1]


def _unfold(lam: list[int], n: int, odd: int) -> list[int]:
    """A half λ on f's box rows: row (w, side) also lands on (n - w, side ^ odd)."""
    full = lam + [0] * (2 * n + 2 - len(lam))
    for i, v in enumerate(lam):
        full[2 * (n - i // 2) + (i % 2 ^ odd)] += v
    return full


def _half_search(red: _Reduction, lo: int, odd: int) -> int:
    """The least degree of red.f, fixed by a mirror, at eps > 0 and 0 < lo <
    n: _scan on the rows w <= n/2 over fits averaged with their mirror image,
    of no larger degree (Minsky and Papert 1969): sum_j t_j·s_j, s_j(w) =
    C(w, j)·C(n-w, j), of degree 2j, if f(n-w) = f(w) (odd = 0), or 1/2 +
    sum_j t_j·(n-2w)·s_j, of degree 2j+1, if f(n-w) = ¬f(w) (odd = 1).  lo
    has that parity (sign changes pair up about n/2).  _scan checks the
    witness (c_k = Δᵏp(0)) and the last infeasible λ, unfolded, on f's rows."""
    n, q, half = red.f.n, red.eps.denominator, range(red.f.n // 2 + 1)

    def basis(j: int, w: int) -> int:  # s_j(w), times 2(n - 2w) if odd
        return (2 * (n - 2 * w) if odd else 1) * comb(w, j) * comb(n - w, j)

    def witness(t: list[int], Dt: int, d: int) -> tuple[list[int], int]:  # (1 + odd)·Dt times p at 0..d, differenced
        V = [odd * Dt + sum(v * basis(i, w) for i, v in enumerate(t)) for w in range(d + 1)]
        return _differences(V), (1 + odd) * Dt

    columns = ((d, [v for w in half for v in (q * basis(j, w), -q * basis(j, w))])
               for j, d in enumerate(range(odd, n + 1, 2)))
    # (2hi - q, q - 2lo) bound 2q·(p - 1/2) if odd; sized as the full search to n: no cheaper per entry
    return _scan(red, lambda: _FeasibleBox([2 * v + (-q, q)[i % 2] if odd else v
                                            for i, v in enumerate(red.box_rhs()[: 2 * len(half)])]),
                 columns, lo, n, witness, lambda lam: _unfold(lam, n, odd))[0]


def least_degree(f: SymPartialFn, eps: RationalLike = 0) -> tuple[int, FeasibilityResult]:
    """Least d with a feasible degree-d profile, with lp_feasible(f, eps, d),
    whose one check or cold run gives the canonical witness on the
    reduction degree left in _reduce's cache."""
    d = degree(f, eps)
    return d, lp_feasible(f, eps, d)


def degree(f: SymPartialFn, eps: RationalLike = 0) -> int:
    """Least d with a feasible degree-d profile, from an exact lower bound
    lo: lo if it is 0 (a constant fits) or n (interpolation fits), else on
    the shared reduction of (f, eps), by the half search if f is fixed by a
    mirror at eps > 0, or by the search from lo to n; _scan, under both,
    checks the two sides of the answer and refuses an LP over MAX_LP_SIZE."""
    # if q fits f within eps < 1/2, q - 1/2 changes sign strictly between
    # each value change, so it has that many roots
    eps, lo = _as_eps(eps), len(f.value_changes)
    if lo in (0, f.n):
        return lo
    red, mirrors = _reduce(f, eps), (isomorphs(f)[1::2] if eps else [])  # reverse, reverse_complement
    return _half_search(red, lo, mirrors.index(f)) if f in mirrors else _search(red, lo, f.n)[0]


def qe_lower_bound(f: SymPartialFn) -> int:
    """Query lower bound ceil(degree(f, 0) / 2) from the profile-degree of the
    acceptance probability of any exact algorithm."""
    return (degree(f, 0) + 1) // 2
