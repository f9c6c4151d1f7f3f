"""Deterministic decision-tree query complexity for weight-promise functions.

Any deterministic strategy on a weight-symmetric promise can be analysed by
the counts of 1- and 0-answers seen so far: the adversary's best responses
depend only on those counts, and any index choice is equivalent under the
symmetric promise.  The minimax recursion over count pairs is therefore
exact, and far smaller than the space of index-choice trees.
"""

from __future__ import annotations

from .symfun import MAX_ENUM_N, SymPartialFn


def d_complexity(f: SymPartialFn) -> int:
    """Worst-case deterministic query count to decide f on its promise.

    cost(a, b), after a answers of 1 and b answers of 0, is zero once every
    still-consistent promised weight in [a, n-b] shares one value (or none
    remains), and otherwise 1 plus the worse of the two answer branches.
    Weights outside the promise never constrain termination.  The promised
    weights in [a, n-b] are a run of the sorted domain, so "one value" reads
    off two prefix counts in O(1): of domain weights below each weight, and
    of value changes along the domain.
    """
    if f.n > MAX_ENUM_N:
        raise ValueError(f"d_complexity capped at n={MAX_ENUM_N}, got n={f.n}")
    n = f.n
    values = f.values
    below = [0]  # below[w]: domain weights < w
    for v in values:
        below.append(below[-1] + v.defined)
    domain = [values[w] for w in f.domain_weights]
    changes = [0]  # changes[j]: value changes among domain[0..j]
    for u, v in zip(domain, domain[1:]):
        changes.append(changes[-1] + (u is not v))
    memo: dict[tuple[int, int], int] = {}

    def cost(a: int, b: int) -> int:
        key = (a, b)
        if key in memo:
            return memo[key]
        i, j = below[a], below[n - b + 1]  # the run domain[i:j]
        if j <= i or changes[j - 1] == changes[i]:
            result = 0
        else:
            result = 1 + max(cost(a + 1, b), cost(a, b + 1))
        memo[key] = result
        return result

    return cost(0, 0)
