"""Independent check of both degree verdicts against a float LP (scipy HiGHS).

For a random f and eps, degree(f, eps) = d claims that no degree-(d-1) profile
fits (infeasible) and that a degree-d one does (feasible).  HiGHS minimizes the
largest box violation s over all profiles of a given degree: s = 0 exactly
when the exact LP is feasible.  A verdict counts as decided when s > 1e-6
(infeasible) or s < 1e-9 (feasible); cases in between are skipped and counted.
"""

import random
from fractions import Fraction
from math import comb

from scipy.optimize import linprog

from symquery import degree, from_string, lp_feasible

EPSILONS = (Fraction(0), Fraction(1, 8), Fraction(1, 4))
CASES = 200
INFEASIBLE_ABOVE = 1e-6
FEASIBLE_BELOW = 1e-9


def largest_violation(f, eps: Fraction, d: int) -> float:
    """min over degree-d profiles q of max_w (distance of q(w) outside its box)."""
    e = float(eps)
    a_ub, b_ub = [], []
    for w, v in enumerate(f.values):
        lo, hi = {"0": (0.0, e), "1": (1.0 - e, 1.0)}.get(v, (0.0, 1.0))
        row = [comb(w, k) for k in range(d + 1)]
        a_ub += [row + [-1], [-x for x in row] + [-1]]  # q(w) - s <= hi, -q(w) - s <= -lo
        b_ub += [hi, -lo]
    res = linprog([0] * (d + 1) + [1], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * (d + 1) + [(0, None)], method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_degree_verdicts_agree_with_highs():
    rng = random.Random(20261018)
    checked, undecided, disagreements = 0, [], []
    for i in range(CASES):
        n = rng.randint(1, 10)
        spec = "".join(rng.choice("01*") for _ in range(n + 1))
        eps = EPSILONS[i % len(EPSILONS)]
        f = from_string(spec)
        d = degree(f, eps)
        claims = [(d, True)] + ([(d - 1, False)] if d > 0 else [])
        for k, feasible in claims:
            assert lp_feasible(f, eps, k).feasible is feasible
            s = largest_violation(f, eps, k)
            if FEASIBLE_BELOW <= s <= INFEASIBLE_ABOVE:
                undecided.append((spec, str(eps), k, s))
                continue
            checked += 1
            if (s < FEASIBLE_BELOW) is not feasible:
                disagreements.append((spec, str(eps), k, feasible, s))
    assert disagreements == []
    assert len(undecided) <= CASES // 20, undecided
    assert checked >= 300  # about 200 feasible and 150 infeasible verdicts
