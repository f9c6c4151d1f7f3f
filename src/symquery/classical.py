"""Deterministic decision-tree query complexity for weight-promise functions.

On a weight-symmetric promise only the counts of 1- and 0-answers matter:
any index choice is equivalent, and after a ones and b zeros the consistent
weights are the interval [a, n-b].  The adversary game on that interval has
a closed form in the value changes of f (Buhrman and de Wolf, "Complexity
measures and decision tree complexity: a survey", TCS 2002).
"""

from __future__ import annotations

from .symfun import SymPartialFn


def d_complexity(f: SymPartialFn) -> int:
    """Worst-case deterministic query count to decide f on its promise:
    n + 1 - g, g the least gap v - u over f.value_changes, or 0 if f has none.

    Each answer shrinks the consistent interval [a, n-b] by one, and f is
    settled exactly when the interval holds no value change.  The adversary
    keeps the change (u, v) of gap g inside until the interval is [u, v],
    after n - g answers; a shorter interval holds no change, so one more
    query settles it.
    """
    return f.n + 1 - min((v - u for u, v in f.value_changes), default=f.n + 1)
