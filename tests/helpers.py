"""Shared test utilities: strategies and independent reference oracles."""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, prod
from typing import NamedTuple

import hypothesis.strategies as st

from symquery import PolyV, SymPartialFn, algos, check_representation, from_string, polydeg
from symquery.polydeg import FamilyKind, FamilyTag, FeasibilityResult
from symquery.symfun import TRANSFORMS, family_f1, family_f2, family_f3, family_f4, isomorphs


def fn_strings(min_n: int = 1, max_n: int = 8):
    """Random weight-vector strings over 0/1/*."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(st.sampled_from("01*"), min_size=n + 1, max_size=n + 1).map(
            "".join
        )
    )


def sym_fns(min_n: int = 1, max_n: int = 8):
    return fn_strings(min_n, max_n).map(from_string)


def interpolation_profile(f: SymPartialFn) -> PolyV:
    """Independent feasibility oracle at degree n: triangular interpolation of
    the defined values (zero at undefined weights).

    Because C(w, k) vanishes for k > w and C(w, w) = 1, the coefficients are
    determined by forward substitution, and the profile reproduces a 0/1
    target at every weight, hence lies in [0, 1] everywhere.
    """
    targets = [
        Fraction(1) if v == "1" else Fraction(0) for v in f.values
    ]
    coeffs: list[Fraction] = []
    for w in range(f.n + 1):
        acc = sum((coeffs[k] * comb(w, k) for k in range(w)), Fraction(0))
        coeffs.append(targets[w] - acc)
    return PolyV(tuple(coeffs))


def _pivot_rows(rows: list[list[int]], r: int, c: int, D: int, sign: int = 1) -> int:
    """Row-major fraction-free pivot on sign·rows[r][c] of rows / D, where
    sign = -1 pivots on the negated column c; returns the new D, |rows[r][c]|."""
    if sign * rows[r][c] < 0:
        rows[r] = [-v for v in rows[r]]
    prow = rows[r]
    p = sign * prow[c]
    for i, row in enumerate(rows):
        f = sign * row[c]
        if i != r and f:
            rows[i] = [(p * a - f * b) // D for a, b in zip(row, prow)]
        elif i != r and p != D:
            rows[i] = [p * a // D for a in row]
    return p


def full_tableau_feasible_box(rows: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """Reference for polydeg._FeasibleBox: the same Phase-I simplex, Bland's
    rule over the virtual columns y⁺, y⁻, slacks, artificials in that order,
    on a row-major tableau that stores every y⁺ and slack column, basic or
    not (each y⁻ is read as -y⁺ through a sign; artificials never re-enter).
    Returns the numerators t of rows·t <= rhs over one denominator D, or
    None when infeasible."""
    m = len(rows)
    nf = len(rows[0]) if m else 0
    art_base = 2 * nf + m
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i in range(m):
        flip = -1 if rhs[i] < 0 else 1
        row = [flip * a for a in rows[i]] + [0] * m + [abs(rhs[i])]
        row[nf + i] = flip
        tableau.append(row)
        basis.append(art_base + i if flip < 0 else 2 * nf + i)

    D = 1
    while True:
        art_rows = [r for r in range(m) if basis[r] >= art_base]
        if not art_rows:
            break
        in_basis = set(basis)
        enter = -1
        for j in range(art_base):
            if j in in_basis:
                continue
            c, sign = (j, 1) if j < nf else (j - nf, -1 if j < 2 * nf else 1)
            if sign * sum(tableau[r][c] for r in art_rows) > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for r in range(m):
            a = sign * tableau[r][c]
            if a > 0:
                if leave >= 0:
                    cross = tableau[r][-1] * sign * tableau[leave][c] - tableau[leave][-1] * a
                if leave < 0 or cross < 0 or (cross == 0 and basis[r] < basis[leave]):
                    leave = r
        D = _pivot_rows(tableau, leave, c, D, sign)
        basis[leave] = enter

    if any(tableau[r][-1] for r in range(m) if basis[r] >= art_base):
        return None
    t = [0] * nf
    for r, j in enumerate(basis):
        if j < nf:
            t[j] += tableau[r][-1]
        elif j < 2 * nf:
            t[j - nf] -= tableau[r][-1]
    return t, D


def pivoting_bareiss_det(matrix: list[list[int]]) -> int:
    """Reference determinant for identities.binom_det and
    polydeg._Reduction.D, for any square matrix: the general Bareiss
    elimination, updating each whole trailing block, with a row-swap search
    on a zero pivot.  Fraction-free; all intermediate divisions are exact."""
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


def plane_partitions(a: int, b: int, c: int) -> int:
    """MacMahon's count of plane partitions in an a x b x c box, a, b, c >= 0:
    the product of (i+j+l-1)/(i+j+l-2) over the box's cells, telescoped along
    its longest side a to (a+i+j-1)/(i+j-1)."""
    a, b, c = sorted((a, b, c), reverse=True)
    cells = [(i, j) for i in range(1, b + 1) for j in range(1, c + 1)]
    return prod(a + i + j - 1 for i, j in cells) // prod(i + j - 1 for i, j in cells)


def set_rule_d_complexity(f: SymPartialFn) -> int:
    """Reference for classical.d_complexity: the minimax over count pairs
    whose value its closed form reads off, deciding "one value left in
    [a, n-b]" from the set of values of the domain weights in that range."""
    n = f.n
    memo: dict[tuple[int, int], int] = {}

    def cost(a: int, b: int) -> int:
        if (a, b) not in memo:
            seen = {f.values[w] for w in f.domain_weights if a <= w <= n - b}
            memo[a, b] = 0 if len(seen) <= 1 else 1 + max(cost(a + 1, b), cost(a, b + 1))
        return memo[a, b]

    return cost(0, 0)


def tree_search_depth(f: SymPartialFn) -> int:
    """Independent deterministic-query-complexity oracle: full minimax over
    index-choice decision trees, memoized on exact partial assignments.

    Makes no use of the symmetry reduction; exponential in n, for n <= 6.
    """
    n = f.n
    values = f.values
    promised = set(f.domain_weights)
    memo: dict[tuple[int | None, ...], int] = {}

    def depth(assign: tuple[int | None, ...]) -> int:
        if assign in memo:
            return memo[assign]
        ones = sum(1 for v in assign if v == 1)
        free = sum(1 for v in assign if v is None)
        seen = {values[w] for w in range(ones, ones + free + 1) if w in promised}
        if len(seen) <= 1:
            memo[assign] = 0
            return 0
        best = None
        for i, v in enumerate(assign):
            if v is not None:
                continue
            zero = depth(assign[:i] + (0,) + assign[i + 1 :])
            one = depth(assign[:i] + (1,) + assign[i + 1 :])
            cost = 1 + max(zero, one)
            if best is None or cost < best:
                best = cost
        memo[assign] = best
        return best

    return depth((None,) * n)


def binary_search_least_degree(f: SymPartialFn, eps) -> tuple[int, FeasibilityResult | None]:
    """Reference for polydeg.least_degree and degree: binary search on
    [lo, n] from the sign-change lower bound, every probe a public
    lp_feasible call on its own reduction; returns the least d with the
    result of its probe."""
    eps = Fraction(eps)
    defined = [v for v in f.values if v != "*"]
    lo, hi = sum(u != v for u, v in zip(defined, defined[1:])), f.n
    best = None
    while lo <= hi:
        d = (lo + hi) // 2
        result = polydeg.lp_feasible(f, eps, d)
        if result.feasible:
            hi, best = d - 1, result
        else:
            lo = d + 1
    return lo, best


def registered(alg: str, params: dict, field: str):
    """ALGORITHMS[alg].<field> (family or budget) at params, passed in the
    entry's parameter order; a missing parameter raises ValueError."""
    entry = algos.ALGORITHMS[alg]
    missing = [p for p in entry.params if p not in params]
    if missing:
        raise ValueError(f"{alg} needs parameters {entry.params}, missing {missing}")
    return getattr(entry, field)(*(params[p] for p in entry.params))


def exact_law(outcomes: tuple[int, tuple]) -> list[tuple[object, Fraction]]:
    """An outcome list of algos.xquery_outcomes or algos.grover_outcomes,
    (den, ((outcome, numerator), ...)), as (outcome, Fraction) pairs."""
    den, listed = outcomes
    return [(o, Fraction(p, den)) for o, p in listed]


def pairwise_xquery_law(x: str) -> list[tuple[tuple[int, int], Fraction]]:
    """Reference for algos.xquery_outcomes, read by exact_law, derived per
    pair: P(0,0) = ((m - 2t)/m)^2 at weight t; each differing pair carries
    4/m^2."""
    m = len(x)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    t = x.count("1")
    out: list[tuple[tuple[int, int], Fraction]] = []
    p_flat = Fraction((m - 2 * t) ** 2, m * m)
    if p_flat:
        out.append(((0, 0), p_flat))
    p_pair = Fraction(4, m * m)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if x[i - 1] != x[j - 1]:
                out.append(((i, j), p_pair))
    return out


def indexwise_grover1_law(x: str) -> list[tuple[int, Fraction]]:
    """Reference for algos.grover_outcomes, read by exact_law, derived per
    index: the amplitude on index i is (2s/n - (-1)^{x_i}) / sqrt(n),
    s = n - 2|x|."""
    n = len(x)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = x.count("1")
    mean2 = Fraction(2 * (n - 2 * t), n)
    out: list[tuple[int, Fraction]] = []
    for i in range(1, n + 1):
        sign = -1 if x[i - 1] == "1" else 1
        amp = mean2 - sign
        p = amp * amp / n
        if p:
            out.append((i, p))
    return out


# The Fraction weight-class law that algos._law replaced, kept as its
# reference: (output, queries used) -> (probability, branches).
Mass = tuple[Fraction, int]


def fraction_xquery_weight_law(t: int, m: int) -> tuple[Mass, Mass]:
    """Reference for algos.xquery_weight_law: the flat outcome, one branch
    of probability ((m - 2t)/m)^2, and the t(m - t) differing pairs, 4/m^2
    each."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    pairs = t * (m - t)
    return (Fraction((m - 2 * t) ** 2, m * m), 1), (Fraction(4 * pairs, m * m), pairs)


def fraction_grover1_weight_law(t: int, n: int) -> tuple[Mass, Mass]:
    """Reference for algos.grover1_weight_law: the mass on the t 1-positions
    and on the n - t 0-positions, each position's amplitude being
    (2s/n -+ 1)/sqrt(n) with s = n - 2t."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mean2 = Fraction(2 * (n - 2 * t), n)
    return (t * (mean2 + 1) ** 2 / n, t), ((n - t) * (mean2 - 1) ** 2 / n, n - t)


def fraction_law(step: algos.Step, t: int, used: int) -> dict[tuple[object, int], Mass]:
    """Reference for algos._law, in Fractions: the law of `step` on every
    input of weight t, after `used` queries, in one pass down its chain."""
    if not isinstance(step, tuple):
        return {(step, used): (Fraction(1), 1)}
    law: dict[tuple[object, int], Mass] = {}
    reach, paths = None, 1  # the chain's mass so far; None while it is certain
    while True:
        if type(step) is algos.Pair:
            used += 1
            (p0, c0), (p1, c1) = fraction_xquery_weight_law(t, step.length)
            leaf, nxt, terms = step.flat, step.pair, ("flat", "differing pair")
            t -= 1
        else:
            used += 1 if step.one is algos.OUTCOME else 2
            (p0, c0), (p1, c1) = fraction_grover1_weight_law(t + step.ones, step.length)
            leaf, nxt, terms = step.one, step.zero, ("1-position", "0-position")
        if p0:
            law[terms[0] if leaf is algos.OUTCOME else leaf, used] = (p0, c0) if reach is None else (reach * p0, paths * c0)
        if not p1:
            return law
        if reach is not None:
            p1, c1 = reach * p1, paths * c1
        if not isinstance(nxt, tuple):
            law[terms[1] if nxt is algos.OUTCOME else nxt, used] = p1, c1
            return law
        step, reach, paths = nxt, p1, c1


class EagerReduction(NamedTuple):
    npin: int
    cols: list[list[int]]  # the free columns npin..top
    b: list[int]
    D: int


def eager_reduce(f: SymPartialFn, eps, top: int) -> EagerReduction:
    """Reference for polydeg._Reduction's closed form: Gauss–Jordan on the
    pinned equalities over every column c_0..c_top at once, with the
    simplex's fraction-free pivot, the box rows carried along as non-pivot
    rows.  Pinned row i ends as D·c_i + sum_k cols[k][i]·c_(npin+k) = b[i];
    at box weight x, cols[k] holds _Reduction.column(k)[x] and b the negated
    q·b(x), and D, the last pivot, is det C(w_i, j) once top >= npin - 1."""
    eps = Fraction(eps)
    p, q = eps.numerator, eps.denominator
    bound_of = {"0": (0, p), "1": (q - p, q), "*": (0, q)}
    bounds = [bound_of[v] for v in f.values]
    pinned = [w for w, (lo, hi) in enumerate(bounds) if lo == hi]
    boxed = [w for w, (lo, hi) in enumerate(bounds) if lo != hi]
    cols = [[comb(w, k) for w in pinned] + [q * comb(w, k) for w in boxed] for k in range(top + 1)]
    b, D = [bounds[w][0] for w in pinned] + [0] * len(boxed), 1
    for c in range(min(top + 1, len(pinned))):
        D = polydeg._pivot(cols[c + 1 :] + [b], cols[c], c, D)
    return EagerReduction(len(pinned), cols[len(pinned) :], b, D)


def content_free(columns: list[list[int]], g: list[int]) -> list[list[int]]:
    """Reference for polydeg._Reduction's columns, from unscaled ones on the
    box rows (eager_reduce's): entry x over the row's content g[x], each
    division checked exact, then each column over its own content."""
    out = []
    for col in columns:
        assert all(v % gx == 0 for v, gx in zip(col, g))
        col = [v // gx for v, gx in zip(col, g)]
        h = gcd(*col) or 1
        out.append([v // h for v in col])
    return out


def eager_fit(f: SymPartialFn, d: int) -> FeasibilityResult:
    """Reference for the eps = 0 verdict at d below the pinned count, read off
    the eager reduction up to n as the search read it: a degree-d fit of the
    pinned values exists iff b[d+1:npin] = 0; it is c_i = b[i] / D, checked."""
    red = eager_reduce(f, 0, f.n)
    if any(red.b[d + 1 : red.npin]):
        return FeasibilityResult(False, None)
    witness = PolyV(tuple(Fraction(red.b[i], red.D) for i in range(d + 1)))
    return FeasibilityResult(True, witness) if check_representation(witness, f, 0) else FeasibilityResult(False, None)


def candidate_classify(f: SymPartialFn) -> FamilyTag | None:
    """Reference for polydeg.classify_deg2: every catalogue member at f's n,
    built and compared with each orbit member, first member then first
    transform."""
    n, orbit = f.n, isomorphs(f)
    if len({v for v in f.values if v != "*"}) <= 1:
        return FamilyTag(FamilyKind.CONSTANT_OR_EMPTY, None, TRANSFORMS[0])
    candidates = [(FamilyKind.DEG1_F1NN, None, family_f1(n, n))]
    candidates += [(FamilyKind.F1, k, family_f1(n, k)) for k in range(n // 2, n)]
    candidates += [(FamilyKind.F2, k, family_f2(n, k)) for k in range(n // 2, n)]
    candidates += [(FamilyKind.F3, l, family_f3(n, l)) for l in range(n // 2, (n + 1) // 2 + 1)]
    candidates += [(FamilyKind.F4, None, family_f4(n))] * (n % 2)
    for kind, param, target in candidates:
        for t, g in zip(TRANSFORMS, orbit):
            if g == target:
                return FamilyTag(kind, param, t)
    return None
