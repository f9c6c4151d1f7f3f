"""Exact query algorithms: one plan per algorithm, walked per input to list
its branches and per weight class to verify it.

Two one-query subroutines power everything:

* the spread/recombine test that either reports the flat outcome (0,0),
  possible only off balance, or exhibits an index pair (i, j) with
  x_i != x_j;
* a single inversion-about-uniform iteration from the uniform state, whose
  measured index is certainly a 1-position at weight n/4 and certainly a
  0-position at weight 3n/4.

Each has one closed-form outcome law per weight, an integer numerator per
side over a fixed denominator (m^2 for the pair test, n^3 for the search);
the law on one input, over the same denominator, shares each side's
numerator equally among its outcomes, which symmetry makes equally likely.
Each registry entry describes its algorithm once, as a plan: a small tree
of pair tests on the bits padded with zeros, searches on the bits padded
with zeros then ones (which may read the reported bit), and a first read
of x_1 (which may complement the rest), whose leaves are an output bit or
the subroutine's outcome itself.  The plan is walked two ways.  Per input,
it lists every measurement branch of one execution (an AlgorithmRun) with
its path, probability, output and query count; it multiplies the per-input
laws' integers along the path and rounds each branch's numerator over
denominator to a float once.  Per weight class, it gives the exact law of
(output, queries used) in integers, each mass a numerator over the product
of the denominators of the steps on its path, with the number of branches
behind each pair: the plan reads explicit bits and calls the subroutines,
so the law depends only on the weight of the input and, where the plan
reads x_1 first, on x_1.  ``verify_exact`` certifies the whole domain from
these laws, once per class, in time polynomial in n, and builds a Fraction
only to print a failing branch.
``run`` is the only per-input walk: it reads the same law's branch count
to refuse an input before listing its branches, and the positional names
(``dj(n, k, x)``, ...) and ``simulate_domain``, the exponential reference
that replays every promised input, all go through it; tests check that the
two walks agree.  The bare subroutines are checked against output
contracts that name the outcomes allowed at each weight, as a decision
algorithm's promise names its answer.  The dense circuits
(``xquery_state``, ``grover1_state``, on ``qsim`` and numpy) serve only
the tests, as the closed forms' reference.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .symfun import (
    FLIP,
    MAX_ENUM_N,
    MAX_FAMILY_N,
    TRANSFORMS,
    SymPartialFn,
    domain_inputs,
    family_dj,
    family_dw,
    family_f1,
    family_f2,
    family_f3,
    family_f4,
    isomorphs,
)

PROB_SUM_TOL = 1e-9


class UnsupportedParameters(ValueError):
    """No implemented padding reduction applies to these parameters."""


class BranchTrace(NamedTuple):
    """One measurement branch: outcome path, its probability, the final
    output (a bit, or an index/pair for the bare subroutines), and how many
    oracle queries the branch consumed."""

    path: tuple[str, ...]
    probability: float
    output: int | tuple[int, int]
    queries_used: int


class AlgorithmRun(NamedTuple("AlgorithmRun", [("x", str), ("branches", tuple[BranchTrace, ...])])):
    """All branches of one algorithm execution on input x."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, x: str, branches: tuple[BranchTrace, ...]) -> AlgorithmRun:
        total = sum(b.probability for b in branches)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")
        return super().__new__(cls, x, branches)

    @property
    def outputs(self) -> set[int | tuple[int, int]]:
        return {b.output for b in self.branches}

    @property
    def max_queries(self) -> int:
        return max(b.queries_used for b in self.branches)


class VerificationReport(NamedTuple):
    """Outcome of replaying an algorithm over an entire promise domain."""

    function: str
    inputs_checked: int
    all_exact: bool
    worst_case_queries: int
    failures: tuple[tuple[str, str], ...]


def _check_bits(x: str, n: int) -> None:
    if len(x) != n:
        raise ValueError(f"input length {len(x)} does not match n={n}")
    if any(ch not in "01" for ch in x):
        raise ValueError(f"input must be over 0/1, got {x!r}")


# ---------------------------------------------------------------------------
# Circuits for the two one-query subroutines, the tests' dense reference;
# they import numpy and qsim when called
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def xquery_unitaries(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Spread and recombine maps for the one-query pair test on m bits.

    Basis pairs (i, j) with i in 0..m and workspace j in 0..m.  The spread
    map sends (0,0) to the uniform superposition of (i,0); the recombine map
    sends each (i,0) to ((0,0) + sum_{j>i} (i,j) - sum_{j<i} (j,i)) / sqrt(m),
    completed to a full unitary on the untouched columns.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    width = m + 1
    dim = width * width
    import numpy as np

    from . import qsim

    idx = lambda i, j: i * width + j

    uniform = np.zeros(dim)
    for i in range(1, m + 1):
        uniform[idx(i, 0)] = 1.0 / math.sqrt(m)
    u1 = qsim.householder_map(dim, idx(0, 0), uniform)

    s = 1.0 / math.sqrt(m)
    columns: dict[int, np.ndarray] = {}
    for i in range(1, m + 1):
        col = np.zeros(dim)
        col[idx(0, 0)] = s
        for j in range(i + 1, m + 1):
            col[idx(i, j)] = s
        for j in range(1, i):
            col[idx(j, i)] = -s
        columns[idx(i, 0)] = col
    u2 = qsim.complete_unitary(dim, columns)

    for u in (u1, u2):
        dev = qsim.unitary_deviation(u)
        if dev > qsim.UNITARY_TOL:
            raise RuntimeError(f"constructed map off unitary by {dev:.3e}")
    return u1, u2


def xquery_state(x: str) -> qsim.QState:
    """Post-circuit state of the pair test on input x (one oracle call)."""
    from . import qsim

    m = len(x)
    u1, u2 = xquery_unitaries(m)
    state = qsim.basis_state(m, m + 1, 0, 0)
    state = qsim.apply_map(state, u1, assume_unitary=True)
    state = qsim.apply_oracle(state, x)
    return qsim.apply_map(state, u2, assume_unitary=True)


@lru_cache(maxsize=4)
def grover_unitaries(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform preparation over indices 1..n and the post-oracle reflection
    (inversion about the uniform state, globally sign-flipped)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    dim = n + 1
    import numpy as np

    from . import qsim

    uniform = np.zeros(dim)
    uniform[1:] = 1.0 / math.sqrt(n)
    w = qsim.householder_map(dim, 1, uniform)
    z1 = np.eye(dim)
    z1[1, 1] = -1.0
    reflect = -(w @ z1 @ w.T)
    for u in (w, reflect):
        dev = qsim.unitary_deviation(u)
        if dev > qsim.UNITARY_TOL:
            raise RuntimeError(f"constructed map off unitary by {dev:.3e}")
    return w, reflect


def grover1_state(x: str) -> qsim.QState:
    """State after one inversion-about-uniform iteration on input x."""
    from . import qsim

    n = len(x)
    w, reflect = grover_unitaries(n)
    state = qsim.basis_state(n, 1, 1, 0)
    state = qsim.apply_map(state, w, assume_unitary=True)
    state = qsim.apply_oracle(state, x)
    return qsim.apply_map(state, reflect, assume_unitary=True)


# One side of a subroutine's law at one weight: the numerator of its mass
# over the law's denominator, and how many branches share that mass.
Side = tuple[int, int]


def xquery_weight_law(t: int, m: int) -> tuple[int, Side, Side]:
    """Pair-test law on every m-bit input of weight t, over the denominator
    m^2: the flat outcome, one branch of mass (m - 2t)^2, and the t(m - t)
    differing pairs, 4 each."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    pairs = t * (m - t)
    return m * m, ((m - 2 * t) ** 2, 1), (4 * pairs, pairs)


def grover1_weight_law(t: int, n: int) -> tuple[int, Side, Side]:
    """One-iteration search law on every n-bit input of weight t, over the
    denominator n^3: the mass t(3n - 4t)^2 on the t 1-positions and
    (n - t)(n - 4t)^2 on the n - t 0-positions, each position's amplitude
    being (2s/n -+ 1)/sqrt(n) with s = n - 2t."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n**3, (t * (3 * n - 4 * t) ** 2, t), ((n - t) * (n - 4 * t) ** 2, n - t)


@lru_cache(maxsize=65536)
def xquery_outcomes(x: str) -> tuple[int, tuple[tuple[tuple[int, int], int], ...]]:
    """The pair test's outcome law on x over the weight law's denominator,
    in measurement order: the flat outcome (0,0) with the flat mass if it
    is nonzero, then each differing pair (i, j), i < j, with 4."""
    den, (flat, _), (mass, pairs) = xquery_weight_law(x.count("1"), len(x))
    other = {bit: [j for j, b in enumerate(x, 1) if b != bit] for bit in "01"}  # opposite-bit positions
    share = mass and mass // pairs  # no pair differs when pairs = 0
    listed = tuple(((i, j), share) for i, bit in enumerate(x, 1) for j in other[bit][bisect(other[bit], i):])
    return den, (((0, 0), flat),) + listed if flat else listed


@lru_cache(maxsize=65536)
def grover_outcomes(x: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The one-iteration search's index law on x over the weight law's
    denominator: each 1-position, and each 0-position, with its side's
    mass over its side's count; indices of probability 0 are left out."""
    den, *sides = grover1_weight_law(x.count("1"), len(x))
    share = {bit: mass and mass // count for bit, (mass, count) in zip("10", sides)}
    return den, tuple((i, share[bit]) for i, bit in enumerate(x, 1) if share[bit])


# ---------------------------------------------------------------------------
# Plans: every algorithm instance, described once
# ---------------------------------------------------------------------------

# A plan is a tree of steps.  A leaf is an output bit, or OUTCOME: the bare
# subroutines output the outcome they measure.  A node is one of the tuples
# below.  Of a Pair's or a Search's children only the second (after a
# differing pair, or a 0 read) may be a node, so below a ReadFirst root a
# plan is a chain.
OUTCOME = None


class Pair(NamedTuple):
    """The pair test on the bits padded with zeros to `length`.  The leaf
    `flat` follows the outcome (0,0); `pair` follows a differing pair and
    runs on the padded bits without it."""

    length: int
    flat: Step
    pair: Step


class Search(NamedTuple):
    """One search on the bits padded with zeros, then `ones` ones, to
    `length`.  Unless its leaves are OUTCOME it reads the reported position
    (a second query), and the leaf `one` or the step `zero` follows on the
    unpadded bits."""

    length: int
    ones: int
    one: Step
    zero: Step


class ReadFirst(NamedTuple):
    """Read x_1; `one` or `zero` follows on x_2..x_n, complemented when
    x_1 = 1 and `complement` is set.  Only a plan's root reads x_1."""

    one: Step
    zero: Step
    complement: bool = False


Step = int | None | Pair | Search | ReadFirst


def _check_dj(n: int, k: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"dj needs even n >= 2, got n={n}")
    if not 0 <= k < n // 2:
        raise ValueError(f"dj needs 0 <= k < n/2, got k={k}")


def _check_odd(alg: str, n: int, least: int) -> None:
    if n < least or n % 2 == 0:
        raise ValueError(f"{alg} needs odd n >= {least}, got n={n}")


def _check_quarter(alg: str, n: int) -> None:
    if n % 4:
        raise ValueError(f"{alg} needs n divisible by 4, got n={n}")
    if n < 4:
        raise ValueError(f"{alg} needs n >= 4, got n={n}")


def _xquery_plan(m: int) -> Step:
    """One query on m bits; outputs (0,0) only off balance, otherwise a
    differing index pair."""
    return Pair(m, OUTCOME, OUTCOME)


def _dj_plan(n: int, k: int) -> Step:
    """Balanced-weight detection with at most k+1 queries (n even, k < n/2).

    Rounds of the pair test: the flat outcome settles the answer with 0, a
    pair removes the two differing positions and the next round runs on the
    rest; a pair in the final round settles 1.  Inputs off the promise are
    run as-is and may produce either output.
    """
    _check_dj(n, k)
    plan: Step = 1
    for r in range(k, -1, -1):
        plan = Pair(n - 2 * r, 0, plan)
    return plan


def _dhw_plan(n: int, k: int) -> Step:
    """Distinguish weight 0 from weight k >= ceil(n/2) with a single query,
    padding 2k-n zeros so weight k becomes balanced."""
    if not (n + 1) // 2 <= k <= n:
        raise ValueError(f"dhw needs ceil(n/2) <= k <= n, got k={k} with n={n}")
    if k < 1:
        raise ValueError(f"dhw needs k >= 1, got k={k}")
    return Pair(2 * k, 0, 1)


def _f1_plan(n: int) -> Step:
    """Two queries for the odd-n promise {0, floor(n/2)}: read x_1; a one
    settles 1, otherwise run the one-query weight test on the rest."""
    _check_odd("f1", n, 3)
    return ReadFirst(1, _dhw_plan(n - 1, n // 2))


def _f3_plan(n: int) -> Step:
    """Two queries for the odd-n promise {0, n, ceil(n/2)}: read x_1, then
    run balanced detection (x_1 = 1) or the one-query weight test (x_1 = 0)
    on the remaining n-1 bits."""
    _check_odd("f3", n, 3)
    return ReadFirst(_dj_plan(n - 1, 0), _dhw_plan(n - 1, (n + 1) // 2))


def _grover1_plan(n: int) -> Step:
    """One search iteration; outputs the measured index (1-based)."""
    return Search(n, 0, OUTCOME, OUTCOME)


def _dw1_plan(n: int) -> Step:
    """Two queries separating weight n/4 from 3n/4 (n divisible by 4):
    search once, read the reported position, answer its negation."""
    _check_quarter("dw1", n)
    return Search(n, 0, 0, 1)


def _dw2_plan(n: int) -> Step:
    """Two queries separating weight 0 from n/4 (n divisible by 4):
    search once, read the reported position, answer the bit itself."""
    _check_quarter("dw2", n)
    return Search(n, 0, 1, 0)


def _dw_padding(n: int, k: int, l: int) -> tuple[int, int]:
    """Padded length and number of padded ones of the dw reduction: zeros
    then ones are appended, reaching dw1's instance when k > 0 and dw2's
    when k = 0, after the promise's own range rule."""
    family_dw(n, k, l)
    if k > 0 and 3 * k < n and 3 * l >= 2 * n + k and l >= 3 * k and (l - k) % 2 == 0:
        return 2 * (l - k), (l - 3 * k) // 2
    if k == 0 and 4 * l >= n and l < n // 2:
        return 4 * l, 0
    raise UnsupportedParameters(f"no two-query padding reduction for n={n}, k={k}, l={l}")


def _dw_plan(n: int, k: int, l: int) -> Step:
    """Two-query weight discrimination k-vs-l via padding, where a reduction
    exists.

    Supported: 0 < k < n/3 with l >= max((2n+k)/3, 3k) and l-k even (pad
    (3l-k)/2 - n zeros and (l-3k)/2 ones, reaching the quarter/three-quarter
    instance on 2(l-k) bits); or k = 0 with n/4 <= l < floor(n/2) (pad
    4l - n zeros).  Raises UnsupportedParameters otherwise.
    """
    length, ones = _dw_padding(n, k, l)
    return (_dw1_plan if k else _dw2_plan)(length)._replace(ones=ones)


def _f2_plan(n: int, k: int) -> Step:
    """At most four queries for the promise {0, k, k+1} with n/4 <= k < n.

    Two probe rounds over zero-padded copies: search on 4k bits and read the
    reported position (a one settles 1; at weight k this is certain), then
    search on 4(k+1) bits and answer the bit read there (exact at weight
    k+1, all zeros at weight 0).  Padded positions read as constant 0 and
    still cost a query.
    """
    if not 0 < k < n or 4 * k < n:
        raise ValueError(f"f2 needs n/4 <= k < n with k >= 1, got k={k}, n={n}")
    return Search(4 * k, 0, 1, Search(4 * (k + 1), 0, 1, 0))


def _f4_plan(n: int) -> Step:
    """At most five queries for the odd-n promise {0, n, floor(n/2),
    ceil(n/2)}: read x_1, then solve the two-adjacent-weights problem on the
    rest (complemented when x_1 = 1)."""
    _check_odd("f4", n, 5)
    rest = _f2_plan(n - 1, n // 2)
    return ReadFirst(rest, rest, complement=True)


# ---------------------------------------------------------------------------
# The two walks of a plan: per input, and per weight class
# ---------------------------------------------------------------------------


def _flip(x: str) -> str:
    return x.translate(FLIP)


def _branches(step: Step, x: str, path: tuple[str, ...], num: int, den: int, used: int, out: list[BranchTrace]) -> None:
    """Append to `out` every branch of `step` on the bits x, reached along
    `path` with probability num / den after `used` queries: each step
    multiplies in its outcome's numerator and its law's denominator, and a
    branch rounds num / den to a float once."""
    if not isinstance(step, tuple):
        out.append(BranchTrace(path, num / den, step, used))
    elif type(step) is ReadFirst:
        one = x[0] == "1"
        rest = _flip(x[1:]) if one and step.complement else x[1:]
        _branches(step.one if one else step.zero, rest, path + (f"x1={x[0]}",), num, den, used + 1, out)
    elif type(step) is Pair:
        bits = x + "0" * (step.length - len(x))
        s, outcomes = xquery_outcomes(bits)
        den *= s
        for (i, j), p in outcomes:
            nxt = step.flat if (i, j) == (0, 0) else step.pair
            here = path + (f"xq:{i},{j}",)
            if isinstance(nxt, tuple):
                _branches(nxt, bits[: i - 1] + bits[i : j - 1] + bits[j:], here, num * p, den, used + 1, out)
            else:
                out.append(BranchTrace(here, num * p / den, (i, j) if nxt is OUTCOME else nxt, used + 1))
    else:
        bits = x + "0" * (step.length - len(x) - step.ones) + "1" * step.ones
        s, outcomes = grover_outcomes(bits)
        den *= s
        for i, p in outcomes:
            if step.one is OUTCOME:
                out.append(BranchTrace(path + (f"grover:{i}",), num * p / den, i, used + 1))
                continue
            bit = bits[i - 1]
            nxt = step.one if bit == "1" else step.zero
            _branches(nxt, x, path + (f"grover:{i}", f"x{i}={bit}"), num * p, den, used + 2, out)


# (output, queries used) -> (numerator, denominator, branches): the mass of
# the branches that end so on every input of one class is numerator /
# denominator; zero-probability branches are left out.  Steps run in
# sequence multiply their numerators, their denominators and their branch
# counts, so the entries come in chain order and each one's denominator
# divides the next one's.
Law = dict[tuple[object, int], tuple[int, int, int]]


def _law(step: Step, t: int, used: int) -> Law:
    """The law of `step` on every input of weight t, after `used` queries,
    in one pass down its chain, in integers: each entry's numerator is the
    chain's reach numerator times its side's, over the denominators of the
    steps so far.  A bare subroutine's outcomes are named in its contract's
    terms."""
    if not isinstance(step, tuple):
        return {(step, used): (1, 1, 1)}
    law: Law = {}
    reach, den, paths = 1, 1, 1  # the chain's mass so far, reach / den, over `paths` branches
    while True:
        if type(step) is Pair:
            used += 1
            s, (p0, c0), (p1, c1) = xquery_weight_law(t, step.length)
            leaf, nxt, terms = step.flat, step.pair, ("flat", "differing pair")
            t -= 1
        else:
            used += 1 if step.one is OUTCOME else 2
            s, (p0, c0), (p1, c1) = grover1_weight_law(t + step.ones, step.length)
            leaf, nxt, terms = step.one, step.zero, ("1-position", "0-position")
        den *= s
        if p0:
            law[terms[0] if leaf is OUTCOME else leaf, used] = reach * p0, den, paths * c0
        if not p1:
            return law
        reach, paths = reach * p1, paths * c1
        if not isinstance(nxt, tuple):
            law[terms[1] if nxt is OUTCOME else nxt, used] = reach, den, paths
            return law
        step = nxt


# Per-class laws of one algorithm at input weight t: a list of (prefix, law),
# where prefix is the bits the class fixes at the front of the input.
Classes = list[tuple[str, Law]]


def _classes(plan: Step, n: int, t: int) -> Classes:
    """The whole weight class t, or, when the plan reads x_1 first, its
    subclasses x_1 = 1 and x_1 = 0, each law taking the weight of what its
    side runs on; reading x_1 costs a query.  A subclass with no inputs is
    skipped."""
    if type(plan) is not ReadFirst:
        return [("", _law(plan, t, 0))]
    classes: Classes = []
    if t > 0:
        classes.append(("1", _law(plan.one, n - t if plan.complement else t - 1, 1)))
    if t < n:
        classes.append(("0", _law(plan.zero, t, 1)))
    return classes


# ---------------------------------------------------------------------------
# Running and exactness verification
# ---------------------------------------------------------------------------

# Most branches run lists; the count is read from the input's class law
# before any subroutine runs.
MAX_RUN_BRANCHES = 100_000


def _instance(alg: str, params: Mapping[str, int], what: str) -> tuple[Algorithm, list[int], Step]:
    """The registry entry, its parameter values in order, and the plan, whose
    builder checks the algorithm's own rule once n above MAX_FAMILY_N (`what`
    naming the refusal) and a subroutine's n below 1 are refused."""
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}")
    entry = ALGORITHMS[alg]
    missing = [p for p in entry.params if p not in params]
    if missing:
        raise ValueError(f"{alg} needs parameters {entry.params}, missing {missing}")
    if params["n"] > MAX_FAMILY_N:
        raise ValueError(f"{what} is capped at n={MAX_FAMILY_N}, got n={params['n']}")
    if entry.contract is not None and params["n"] < 1:
        raise ValueError(f"{alg} contract needs n >= 1, got n={params['n']}")
    args = [params[p] for p in entry.params]
    return entry, args, entry.plan(*args)


def run(alg: str, params: Mapping[str, int], x: str) -> AlgorithmRun:
    """Every branch of one execution on x.  Refuses n above MAX_FAMILY_N,
    and an input whose class law (the one verify_exact certifies) counts
    more than MAX_RUN_BRANCHES branches, before any subroutine runs."""
    _, _, plan = _instance(alg, params, "run")
    n = params["n"]
    _check_bits(x, n)
    (law,) = [law for prefix, law in _classes(plan, n, x.count("1")) if x.startswith(prefix)]
    if sum(count for *_, count in law.values()) > MAX_RUN_BRANCHES:
        raise ValueError(
            f"run is capped at {MAX_RUN_BRANCHES} branches, and {alg} may list more "
            f"on an input of weight {x.count('1')}; verify checks the whole domain instead"
        )
    out: list[BranchTrace] = []
    _branches(plan, x, (), 1, 1, 0, out)
    return AlgorithmRun(x, tuple(out))


# What an algorithm is checked against: its name, and the outputs allowed at
# each weight of its domain.
Contract = tuple[str, dict[int, frozenset]]


def _check_request(alg: str, params: Mapping[str, int], transform: str) -> tuple[Step, SymPartialFn | None, Contract]:
    """The instance's plan, then what it is checked against: for a decision
    algorithm, its promise under `transform` and that function's value at
    each weight it defines; for a subroutine, no function and its output
    contract, which takes no transform."""
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    entry, args, plan = _instance(alg, params, "verification")
    if entry.family is not None:
        f = isomorphs(entry.family(*args))[TRANSFORMS.index(transform)]
        return plan, f, (str(f), {w: frozenset({int(v)}) for w, v in enumerate(f.values) if v != "*"})
    if transform != "identity":
        raise ValueError(f"{alg} is checked against its output contract, which takes no transform")
    return plan, None, entry.contract(*args)


def _xquery_contract(m: int) -> Contract:
    """The flat outcome may appear only off balance.  The law has no
    same-bit pair: a pair's amplitude is the difference of its two phases."""
    allowed = {t: frozenset({"differing pair"} if 2 * t == m else {"flat", "differing pair"}) for t in range(m + 1)}
    return f"xquery-contract:m={m}", allowed


def _grover1_contract(n: int) -> Contract:
    """The reported index is a 1-position at weight n/4 and a 0-position at
    weight 3n/4."""
    _check_quarter("grover1 contract", n)
    return f"grover1-contract:n={n}", {n // 4: frozenset({"1-position"}), 3 * n // 4: frozenset({"0-position"})}


def _expected(allowed: frozenset) -> str:
    return " or ".join(sorted(map(str, allowed)))


def verify_exact(alg: str, params: Mapping[str, int], transform: str = "identity") -> VerificationReport:
    """Certify an algorithm's exactness on every promised input.

    A decision algorithm is checked against its promise function.
    ``transform`` runs the algorithm through the orbit wrapper (inputs
    complemented and/or outputs negated) and verifies it against the
    correspondingly transformed function.  The bare subroutines xquery and
    grover1 are verified against their output contracts instead, and refuse
    a transform.

    No input is simulated: the algorithm's plan is walked once per class of
    inputs that share a weight (and, where the plan reads it first, x_1),
    giving the class's exact law of (output, queries used), whose
    probabilities must total exactly 1.  A failure names one input of its
    class.  Instances with n above MAX_FAMILY_N are refused.
    """
    plan, _, (function, allowed) = _check_request(alg, params, transform)
    return _certify(function, _weight_classes(plan, params["n"], allowed, transform))


# One certified class: an input it contains, how many inputs it has, the
# exact law they share, and the outputs allowed on them.
_Class = tuple[str, int, Law, frozenset]


def _class_input(n: int, t: int, prefix: str) -> str:
    ones = t - prefix.count("1")
    return prefix + "1" * ones + "0" * (n - len(prefix) - ones)


def _weight_classes(plan: Step, n: int, allowed: dict[int, frozenset], transform: str) -> Iterator[_Class]:
    flip, negate = transform in TRANSFORMS[1::2], transform in TRANSFORMS[2:]
    for w, want in allowed.items():
        t = n - w if flip else w  # the weight the algorithm sees
        for prefix, law in _classes(plan, n, t):
            x = _class_input(n, t, prefix)
            count = math.comb(n - len(prefix), t - prefix.count("1"))
            if negate:
                law = {(1 - out, used): mass for (out, used), mass in law.items()}
            yield _flip(x) if flip else x, count, law, want


def _certify(function: str, classes: Iterable[_Class]) -> VerificationReport:
    """Check each class's law totals exactly 1 and its outputs are allowed.
    The total is one running sum T / P along the chain: an entry num / d
    whose d the running P divides makes T <- T·(d / P) + num, P <- d, each a
    product of a big integer by a step's small denominator; any other entry
    is added over P·d.  A Fraction is built only for a failure's text."""
    failures: list[tuple[str, str]] = []
    worst = 0
    checked = 0
    for x, count, law, allowed in classes:
        total, den = 0, 1
        for num, d, _ in law.values():
            scale, rest = divmod(d, den)
            total, den = (total * d + num * den, den * d) if rest else (total * scale + num, d)
        if total != den:
            from fractions import Fraction

            raise RuntimeError(f"branch probabilities sum to {Fraction(total, den)}, not 1, on the class of {x}")
        for (out, used), (num, d, _) in law.items():
            worst = max(worst, used)
            if out not in allowed:
                from fractions import Fraction

                failures.append(
                    (x, f"weight-class branch output={out} expected={_expected(allowed)} (prob {Fraction(num, d)})")
                )
        checked += count
    return VerificationReport(function, checked, not failures, worst, tuple(failures))


def simulate_domain(
    alg: str, params: Mapping[str, int], transform: str = "identity"
) -> VerificationReport:
    """Reference for verify_exact: replay every promised input through
    ``run`` (integers along each path, one float per branch) and check
    every branch (a subroutine's named in its contract's terms).  A failing
    input keeps one failure: its first wrong branch and how many more there
    are.  Exponential in n: refuses n above MAX_ENUM_N, and an input
    ``run`` refuses."""
    _, f, (function, allowed) = _check_request(alg, params, transform)
    n = params["n"]
    if n > MAX_ENUM_N:
        raise ValueError(f"input enumeration capped at n={MAX_ENUM_N}, got n={n}")
    flip, negate = transform in TRANSFORMS[1::2], transform in TRANSFORMS[2:]
    if f is None:
        inputs = (x for t in allowed for x in _weight_inputs(n, t))
    else:
        inputs = domain_inputs(f)
    failures: list[tuple[str, str]] = []
    worst = 0
    checked = 0
    for x in inputs:
        want = allowed[x.count("1")]
        first, wrong = "", 0
        for br in run(alg, params, _flip(x) if flip else x).branches:
            if f is None:
                out = _contract_term(x, br.output)
            else:
                out = 1 - br.output if negate else br.output
            worst = max(worst, br.queries_used)
            if out not in want:
                wrong += 1
                first = first or f"path={' ; '.join(br.path)} output={out} expected={_expected(want)}"
        if wrong:
            failures.append((x, first + (f", and {wrong - 1} more" if wrong > 1 else "")))
        checked += 1
    return VerificationReport(function, checked, not failures, worst, tuple(failures))


def _weight_inputs(n: int, t: int) -> Iterator[str]:
    for ones in itertools.combinations(range(n), t):
        yield "".join("1" if i in ones else "0" for i in range(n))


def _contract_term(x: str, out: int | tuple[int, int]) -> str:
    if isinstance(out, int):
        return f"{x[out - 1]}-position"
    i, j = out
    if (i, j) == (0, 0):
        return "flat"
    return "differing pair" if x[i - 1] != x[j - 1] else "same-bit pair"


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class Algorithm(NamedTuple):
    """One algorithm id.  Every callable takes the parameter values alone,
    positionally, in the order of `params`; ``run`` runs it on an input."""

    params: tuple[str, ...]
    plan: Callable[..., Step]  # (*params) -> the instance's plan; checks the parameters
    family: Callable[..., SymPartialFn] | None  # the promise; None for a subroutine
    budget: Callable[..., int]  # (*params) -> declared worst-case queries
    contract: Callable[..., Contract] | None = None  # a subroutine's (*params) -> output contract


# In the order `symquery families` lists them.
ALGORITHMS: dict[str, Algorithm] = {
    "xquery": Algorithm(("n",), _xquery_plan, None, lambda n: 1, _xquery_contract),
    "dj": Algorithm(("n", "k"), _dj_plan, family_dj, lambda n, k: k + 1),
    "dhw": Algorithm(("n", "k"), _dhw_plan, family_f1, lambda n, k: 1),
    "f1": Algorithm(("n",), _f1_plan, lambda n: family_f1(n, n // 2), lambda n: 2),
    "f3": Algorithm(("n",), _f3_plan, lambda n: family_f3(n, (n + 1) // 2), lambda n: 2),
    "grover1": Algorithm(("n",), _grover1_plan, None, lambda n: 1, _grover1_contract),
    "dw1": Algorithm(("n",), _dw1_plan, lambda n: family_dw(n, n // 4, 3 * n // 4), lambda n: 2),
    "dw2": Algorithm(("n",), _dw2_plan, lambda n: family_dw(n, 0, n // 4), lambda n: 2),
    "dw": Algorithm(("n", "k", "l"), _dw_plan, family_dw, lambda n, k, l: 2),
    "f2": Algorithm(("n", "k"), _f2_plan, family_f2, lambda n, k: 4),
    "f4": Algorithm(("n",), _f4_plan, family_f4, lambda n: 5),
}

# Each id as a function, (*params, x) -> run(id, params, x), under run's caps.
def _positional(alg: str, *args: int | str) -> AlgorithmRun:
    *values, x = args
    names = ALGORITHMS[alg].params
    if len(values) != len(names):
        raise TypeError(f"{alg} takes {', '.join(names)} and an input, got {len(args)} arguments")
    return run(alg, dict(zip(names, values)), x)


xquery, dj, dhw, f1, f3, grover1, dw1, dw2, dw_general, f2, f4 = (partial(_positional, alg) for alg in ALGORITHMS)
