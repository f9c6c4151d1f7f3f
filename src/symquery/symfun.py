"""Symmetric partial Boolean functions stored as weight-indexed value strings.

A function on n-bit strings that only depends on the Hamming weight |x| is
represented by the length-(n+1) string of its values at weights 0..n, each
character being 0, 1, or ``*`` (undefined, i.e. outside the promise): the
word the paper writes and every command prints.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import Iterator, NamedTuple

MAX_ENUM_N = 30  # input enumeration lists 2^n strings, so it stays at desk scale
# Largest n a family or literal spec may name, the size `verify` and `run`
# admit; it is checked before the n + 1 values are built.  verify's slowest
# instance, dj at k = n/2 - 1, takes 0.7-0.8 s end to end at n = 1000 on a
# 2-core x86 VM.
MAX_FAMILY_N = 1000

# Swaps 0 and 1 and passes * through: it negates input bits and output values alike.
FLIP = str.maketrans("01", "10")


class SymPartialFn(NamedTuple("SymPartialFn", [("n", int), ("values", str)])):
    """A weight-promise problem on n-bit inputs.

    ``values`` is the string over ``0/1/*`` that ``str(f)`` prints:
    ``values[w]`` is the required output on inputs of weight w, and ``*``
    marks weights outside the promise.  Instances are immutable and safe to
    share.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, n: int, values: str) -> SymPartialFn:
        if n < 1:
            raise ValueError(f"input length must be >= 1, got n={n}")
        if not isinstance(values, str) or values.strip("01*"):
            raise ValueError("values must be a string over 0/1/*")
        if len(values) != n + 1:
            raise ValueError(f"need {n + 1} weight entries for n={n}, got {len(values)}")
        return super().__new__(cls, n, values)

    def __str__(self) -> str:
        return self.values

    @property
    def domain_weights(self) -> tuple[int, ...]:
        """Weights where the function is defined."""
        return _defined(self.values)[0]

    @property
    def value_changes(self) -> tuple[tuple[int, int], ...]:
        """Adjacent defined weights u < v (undefined ones skipped) where the
        value differs."""
        return _defined(self.values)[1]


@lru_cache
def _defined(values: str) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(domain_weights, value_changes) of a values string, built once per
    string: a request reads them in degree, classify_deg2 and d_complexity."""
    ws = tuple(w for w, v in enumerate(values) if v != "*")
    return ws, tuple((u, v) for u, v in zip(ws, ws[1:]) if values[u] != values[v])


# The four functions equal to f up to input/output negation (variable
# permutations are already quotiented out by the weight-vector form).  The
# index is a bit code: bit 0 reverses the weight vector, which complements
# the input, and bit 1 negates the output.
TRANSFORMS = ("identity", "reverse", "complement", "reverse_complement")


def reverse_fn(f: SymPartialFn) -> SymPartialFn:
    """Reverse the weight vector; equals precomposition with bitwise negation."""
    return SymPartialFn(f.n, f.values[::-1])


def complement_fn(f: SymPartialFn) -> SymPartialFn:
    """Negate the output, leaving undefined weights undefined."""
    return SymPartialFn(f.n, f.values.translate(FLIP))


def isomorphs(f: SymPartialFn) -> list[SymPartialFn]:
    """The orbit [f, reverse, complement, reverse of complement], in the
    order of ``TRANSFORMS`` (duplicates possible for symmetric vectors)."""
    c = complement_fn(f)
    return [f, reverse_fn(f), c, reverse_fn(c)]


def is_isomorphic(f: SymPartialFn, g: SymPartialFn) -> bool:
    """Exact vector equality of g with some member of f's orbit."""
    if f.n != g.n:
        raise ValueError(f"length mismatch: n={f.n} vs n={g.n}")
    return g in isomorphs(f)


def value_at_weight(f: SymPartialFn, w: int) -> str:
    if not 0 <= w <= f.n:
        raise ValueError(f"weight {w} out of range 0..{f.n}")
    return f.values[w]


def domain_inputs(f: SymPartialFn) -> Iterator[str]:
    """All promised inputs as bitstrings, in lexicographic order."""
    if f.n > MAX_ENUM_N:
        raise ValueError(f"input enumeration capped at n={MAX_ENUM_N}, got n={f.n}")
    defined = set(f.domain_weights)
    for bits in itertools.product("01", repeat=f.n):
        if bits.count("1") in defined:
            yield "".join(bits)


def domain_size(f: SymPartialFn) -> int:
    """Number of promised inputs: sum of C(n, w) over defined weights."""
    return sum(math.comb(f.n, w) for w in f.domain_weights)


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def _promise(n: int, zeros: list[int], ones: list[int]) -> SymPartialFn:
    """0 at the weights zeros, 1 at the weights ones, undefined elsewhere."""
    vals = ["*"] * (n + 1)
    for value, weights in (("0", zeros), ("1", ones)):
        for w in weights:
            vals[w] = value
    return SymPartialFn(n, "".join(vals))


def family_dj(n: int, k: int) -> SymPartialFn:
    """Balanced-vs-extreme promise: 1 at weight n/2, 0 at weights <= k or >= n-k."""
    if n < 2 or n % 2:
        raise ValueError(f"DJ needs even n >= 2, got n={n}")
    if not 0 <= k < n // 2:
        raise ValueError(f"DJ needs 0 <= k < n/2, got k={k} with n={n}")
    return _promise(n, [*range(k + 1), *range(n - k, n + 1)], [n // 2])


def family_f1(n: int, k: int) -> SymPartialFn:
    """0 at weight 0, 1 at weight k."""
    if not 0 < k <= n:
        raise ValueError(f"F1 needs 0 < k <= n, got k={k} with n={n}")
    return _promise(n, [0], [k])


def family_f2(n: int, k: int) -> SymPartialFn:
    """0 at weight 0, 1 at weights k and k+1."""
    if not 0 < k < n:
        raise ValueError(f"F2 needs 0 < k < n, got k={k} with n={n}")
    return _promise(n, [0], [k, k + 1])


def family_f3(n: int, l: int) -> SymPartialFn:
    """0 at weights 0 and n, 1 at weight l."""
    if not 0 < l < n:
        raise ValueError(f"F3 needs 0 < l < n, got l={l} with n={n}")
    return _promise(n, [0, n], [l])


def family_f4(n: int) -> SymPartialFn:
    """0 at weights 0 and n, 1 at the middle weight(s) floor(n/2), ceil(n/2).

    For even n this coincides with family_f3(n, n/2).
    """
    if n <= 1:
        raise ValueError(f"F4 needs n > 1, got n={n}")
    return _promise(n, [0, n], [n // 2, (n + 1) // 2])


def family_dw(n: int, k: int, l: int) -> SymPartialFn:
    """Two-weight discrimination: 0 at weight k, 1 at weight l."""
    if not 0 <= k < l <= n:
        raise ValueError(f"DW needs 0 <= k < l <= n, got k={k}, l={l} with n={n}")
    return _promise(n, [k], [l])


def family_named(name: str, n: int, k: int | None = None) -> SymPartialFn:
    """Total symmetric functions: OR, AND, PARITY, MAJ, EXACT, THRESHOLD."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    name = name.upper()
    if name in ("EXACT", "THRESHOLD"):
        if k is None or not 0 <= k <= n:
            raise ValueError(f"{name} needs 0 <= k <= n, got k={k} with n={n}")
    elif k is not None:
        raise ValueError(f"{name} takes no k parameter")
    table = {
        "OR": lambda w: w >= 1,
        "AND": lambda w: w == n,
        "PARITY": lambda w: w % 2 == 1,
        "MAJ": lambda w: 2 * w > n,
        "EXACT": lambda w: w == k,
        "THRESHOLD": lambda w: w >= k,
    }
    if name not in table:
        raise ValueError(f"unknown named family {name!r}")
    pred = table[name]
    return SymPartialFn(n, "".join("1" if pred(w) else "0" for w in range(n + 1)))


_LITERAL_RE = re.compile(r"[01*]{2,}")

# family name -> (parameter names, constructor, description)
FAMILIES = {
    "DJ": (("n", "k"), family_dj, "even n, 0 <= k < n/2: 1 at weight n/2, 0 at weights <= k or >= n-k"),
    "F1": (("n", "k"), family_f1, "0 < k <= n: 0 at weight 0, 1 at weight k"),
    "F2": (("n", "k"), family_f2, "0 < k < n: 0 at weight 0, 1 at weights k and k+1"),
    "F3": (("n", "l"), family_f3, "0 < l < n: 0 at weights 0 and n, 1 at weight l"),
    "F4": (("n",), family_f4, "n > 1: 0 at weights 0 and n, 1 at the middle weight(s)"),
    "DW": (("n", "k", "l"), family_dw, "0 <= k < l <= n: 0 at weight k, 1 at weight l"),
    "EXACT": (("n", "k"), lambda n, k: family_named("EXACT", n, k), "total: 1 iff weight = k"),
    "THRESHOLD": (("n", "k"), lambda n, k: family_named("THRESHOLD", n, k), "total: 1 iff weight >= k"),
    "OR": (("n",), lambda n: family_named("OR", n), "total: 1 iff weight >= 1"),
    "AND": (("n",), lambda n: family_named("AND", n), "total: 1 iff weight = n"),
    "PARITY": (("n",), lambda n: family_named("PARITY", n), "total: 1 iff weight odd"),
    "MAJ": (("n",), lambda n: family_named("MAJ", n), "total: 1 iff weight > n/2"),
}


def from_string(spec: str) -> SymPartialFn:
    """Parse a function spec: a literal vector over {0,1,*} of length >= 2,
    or a family expression such as ``DJ:8,1``, ``F3:5,3``, ``OR:4``.
    """
    s = spec.strip()
    if _LITERAL_RE.fullmatch(s):
        if len(s) - 1 > MAX_FAMILY_N:
            raise ValueError(f"literal specs are capped at n={MAX_FAMILY_N}, got n={len(s) - 1}")
        return SymPartialFn(len(s) - 1, s)
    if ":" in s:
        name, _, argstr = s.partition(":")
        name = name.strip().upper()
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r} in {spec!r}")
        params, ctor, _ = FAMILIES[name]
        parts = [p.strip() for p in argstr.split(",")] if argstr.strip() else []
        if len(parts) != len(params):
            raise ValueError(f"{name} takes {len(params)} parameter(s), got {len(parts)} in {spec!r}")
        try:
            args = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"non-integer parameter in {spec!r}") from None
        if args and args[0] > MAX_FAMILY_N:
            raise ValueError(f"family specs are capped at n={MAX_FAMILY_N}, got n={args[0]} in {spec!r}")
        return ctor(*args)
    raise ValueError(
        f"cannot parse function spec {spec!r}: expected a string over 0/1/* "
        f"of length >= 2 or NAME:params"
    )
