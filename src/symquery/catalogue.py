"""The complete catalogue of symmetric promise problems of degree <= 2.

classify_deg2 names the family, its parameter and the orbit transform of a
weight vector of degree <= 2 (the paper's characterization: F1..F4 and the
degree-1 orbit), by matching the few weights such a vector defines; it
solves no LP.  polydeg re-exports it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .symfun import TRANSFORMS, SymPartialFn, isomorphs


class FamilyKind(Enum):
    CONSTANT_OR_EMPTY = "constant-or-empty"
    DEG1_F1NN = "deg1-f1nn"
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"


class FamilyTag(NamedTuple):
    """Catalogue match: which low-degree family, with which parameter, under
    which orbit transform."""

    kind: FamilyKind
    param: int | None
    transform: str

    def __str__(self) -> str:
        param = "" if self.param is None else f"({self.param})"
        return f"{self.kind.value}{param} via {self.transform}"


def classify_deg2(f: SymPartialFn) -> FamilyTag | None:
    """Match f against the complete catalogue of degree <= 2 promise families.

    Returns CONSTANT_OR_EMPTY when the defined values admit a constant fit
    (degree 0), DEG1_F1NN for the unique degree-1 orbit, a family tag with
    parameter for the degree-2 catalogue, and None otherwise.  The parameter
    ranges are k in [floor(n/2), n-1] for F1/F2 and l in
    [floor(n/2), ceil(n/2)] for F3; for even n the F4 vector equals
    F3(n/2) and is reported as F3.  No family defines more than four
    weights, so each orbit member's defined weights are matched as they
    stand; the tag is the first family above (parameters ascending), then
    the first transform.
    """
    if f.n <= 1:
        raise ValueError(f"classification needs n > 1, got n={f.n}")
    if not f.value_changes:
        return FamilyTag(FamilyKind.CONSTANT_OR_EMPTY, None, TRANSFORMS[0])
    if len(f.domain_weights) > 4:
        return None
    n, found = f.n, []
    for t, (transform, g) in enumerate(zip(TRANSFORMS, isomorphs(f))):
        ws, values = g.domain_weights, g.values.replace("*", "")
        k = ws[1]
        catalogue = ((FamilyKind.DEG1_F1NN, None, (0, n), "01", True),  # (kind, param, weights, values, in range)
                     (FamilyKind.F1, k, (0, k), "01", n // 2 <= k < n),
                     (FamilyKind.F2, k, (0, k, k + 1), "011", n // 2 <= k),
                     (FamilyKind.F3, k, (0, k, n), "010", n // 2 <= k <= (n + 1) // 2),
                     (FamilyKind.F4, None, (0, n // 2, n // 2 + 1, n), "0110", n % 2 == 1))
        found += [(i, param or 0, t, FamilyTag(kind, param, transform)) for i, (kind, param, weights, shape, ok)
                  in enumerate(catalogue) if ok and ws == weights and values == shape]
    return min(found)[3] if found else None
