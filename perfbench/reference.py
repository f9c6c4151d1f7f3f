"""The benchmark's own reference answers, written without symquery.

Every verdict the timed loop collects is checked here, after the timed
phase: function vectors, promise domains and query budgets come from the
definitions in the paper; degree witnesses are re-evaluated exactly; the
verdict one degree below is cross-checked with a float LP (scipy HiGHS)
wherever its margin is decisive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

TRANSFORMS = ("identity", "reverse", "complement", "reverse_complement")
# algorithm id -> its CLI parameters, in flag order
PARAMS = {"xquery": ("n",), "dj": ("n", "k"), "dhw": ("n", "k"), "f1": ("n",), "f3": ("n",), "grover1": ("n",),
          "dw1": ("n",), "dw2": ("n",), "dw": ("n", "k", "l"), "f2": ("n", "k"), "f4": ("n",)}
ALGORITHMS = tuple(PARAMS)
SUBROUTINES = ("xquery", "grover1")

# HiGHS margin bands: above DECIDES_INFEASIBLE the float LP proves the
# exact "infeasible" verdict; below DECIDES_FEASIBLE it contradicts it.
DECIDES_INFEASIBLE = 1e-6
DECIDES_FEASIBLE = 1e-9


def _vector(n: int, zeros, ones) -> str:
    v = ["*"] * (n + 1)
    for w in zeros:
        v[w] = "0"
    for w in ones:
        v[w] = "1"
    return "".join(v)


def family_vector(spec: str) -> str:
    """Value vector of a literal or NAME:params spec, from the definitions."""
    if ":" not in spec:
        return spec
    name, _, argstr = spec.partition(":")
    a = [int(p) for p in argstr.split(",")]
    n = a[0]
    if name == "DJ":
        k = a[1]
        return _vector(n, [w for w in range(n + 1) if w <= k or w >= n - k], [n // 2])
    if name == "F1":
        return _vector(n, [0], [a[1]])
    if name == "F2":
        return _vector(n, [0], [a[1], a[1] + 1])
    if name == "F3":
        return _vector(n, [0, n], [a[1]])
    if name == "F4":
        return _vector(n, [0, n], [n // 2, (n + 1) // 2])
    if name == "DW":
        return _vector(n, [a[1]], [a[2]])
    total = {
        "OR": lambda w: w >= 1,
        "AND": lambda w: w == n,
        "PARITY": lambda w: w % 2 == 1,
        "MAJ": lambda w: 2 * w > n,
        "EXACT": lambda w: w == a[1],
        "THRESHOLD": lambda w: w >= a[1],
    }[name]
    return "".join("1" if total(w) else "0" for w in range(n + 1))


def transform_vector(v: str, transform: str) -> str:
    if transform in ("complement", "reverse_complement"):
        v = v.translate(str.maketrans("01", "10"))
    if transform in ("reverse", "reverse_complement"):
        v = v[::-1]
    return v


def algorithm_vector(alg: str, p: dict) -> str:
    """The promise function a decision algorithm claims to compute."""
    n = p["n"]
    return family_vector({
        "dj": f"DJ:{n},{p.get('k')}",
        "dhw": f"F1:{n},{p.get('k')}",
        "f1": f"F1:{n},{n // 2}",
        "f3": f"F3:{n},{(n + 1) // 2}",
        "dw1": f"DW:{n},{n // 4},{3 * n // 4}",
        "dw2": f"DW:{n},0,{n // 4}",
        "dw": f"DW:{n},{p.get('k')},{p.get('l')}",
        "f2": f"F2:{n},{p.get('k')}",
        "f4": f"F4:{n}",
    }[alg])


_BUDGET = {"xquery": 1, "grover1": 1, "dhw": 1, "f1": 2, "f3": 2, "dw1": 2, "dw2": 2, "dw": 2, "f2": 4, "f4": 5}


def query_budget(alg: str, p: dict) -> int:
    """Worst-case query counts claimed for each algorithm (dj: k+1)."""
    return p["k"] + 1 if alg == "dj" else _BUDGET[alg]


def domain_size(alg: str, p: dict, transform: str = "identity") -> int:
    n = p["n"]
    if alg == "xquery":
        return 2**n
    if alg == "grover1":
        return math.comb(n, n // 4) + math.comb(n, 3 * n // 4)
    v = transform_vector(algorithm_vector(alg, p), transform)
    return sum(math.comb(n, w) for w, ch in enumerate(v) if ch != "*")


def dw_supported(n: int, k: int, l: int) -> bool:
    """The two padding reductions of the general two-weight algorithm."""
    quarter = 0 < k and 3 * k < n and 3 * l >= 2 * n + k and l >= 3 * k and (l - k) % 2 == 0
    return quarter or (k == 0 and 4 * l >= n and l < n // 2)


def _bounds(ch: str, eps: Fraction) -> tuple[Fraction, Fraction]:
    return {"0": (Fraction(0), eps), "1": (1 - eps, Fraction(1)), "*": (Fraction(0), Fraction(1))}[ch]


def witness_fits(coeffs, vector: str, eps: Fraction) -> bool:
    """Exact check that sum_k c_k C(w, k) lies in the box of every weight."""
    for w, ch in enumerate(vector):
        lo, hi = _bounds(ch, eps)
        if not lo <= sum(c * math.comb(w, k) for k, c in enumerate(coeffs)) <= hi:
            return False
    return True


def highs_margin(vector: str, eps: Fraction, d: int) -> float | None:
    """Least s >= 0 such that a degree-<=d polynomial stays within s of every
    weight's box, by HiGHS in a Chebyshev basis; None if HiGHS gives up."""
    import numpy as np
    from scipy.optimize import linprog

    n = len(vector) - 1
    x = (2 * np.arange(n + 1) - n) / n
    v = np.polynomial.chebyshev.chebvander(x, d)
    lo, hi = zip(*(_bounds(ch, eps) for ch in vector))
    ones = np.ones((n + 1, 1))
    a_ub = np.block([[v, -ones], [-v, -ones]])
    b_ub = np.concatenate([np.array(hi, dtype=float), -np.array(lo, dtype=float)])
    cost = np.zeros(d + 2)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1) + [(0, None)], method="highs")
    return float(res.fun) if res.status == 0 else None


def d_complexity(vector: str) -> int:
    """Deterministic minimax over (ones seen, zeros seen)."""
    n = len(vector) - 1

    @lru_cache(maxsize=None)
    def cost(ones: int, zeros: int) -> int:
        alive = set(vector[ones : n - zeros + 1]) - {"*"}
        return 0 if len(alive) <= 1 else 1 + max(cost(ones + 1, zeros), cost(ones, zeros + 1))

    return cost(0, 0)


def catalogue_vector(kind: str, param, n: int) -> str | None:
    """The degree-<=2 catalogue member a classify tag names."""
    if kind == "deg1-f1nn":
        return family_vector(f"F1:{n},{n}")
    if kind in ("F1", "F2", "F3"):
        return family_vector(f"{kind}:{n},{param}")
    if kind == "F4":
        return family_vector(f"F4:{n}")
    return None
