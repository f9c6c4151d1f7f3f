"""Dense state-vector simulation of the indexed phase-oracle query model.

States live on basis pairs (i, j) with i in 0..n selecting the oracle index
(i = 0 is never phased) and j in 0..m-1 a workspace label.  A query flips the
sign of every (i, j) amplitude with x_i = 1; unitaries are supplied as dense
matrices over the flattened basis and checked for column orthonormality.

Importing the module loads nothing beyond the standard library: each function
imports numpy when called, so a program that imports ``qsim`` but makes no
dense call (the benchmark client, an install without numpy) never loads it.
"""

from __future__ import annotations

from typing import NamedTuple

UNITARY_TOL = 1e-9  # max |U†U - I| entry accepted by apply_map
NORM_TOL = 1e-9  # allowed state normalization drift
PRUNE_TOL = 1e-12  # measurement outcomes below this are dropped

OutcomeDistribution = list[tuple[tuple[int, int], float]]


class QState(NamedTuple("QState", [("n", int), ("m", int), ("amplitudes", "np.ndarray")])):
    """Normalized amplitudes over pairs (i, j), flattened as i*m + j.

    The amplitude array is copied on construction and marked read-only, so
    states are immutable values.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks too

    def __new__(cls, n: int, m: int, amplitudes: np.ndarray) -> QState:
        import numpy as np

        amp = np.array(amplitudes, dtype=complex, copy=True)
        dim = (n + 1) * m
        if amp.shape != (dim,):
            raise ValueError(f"need {dim} amplitudes for n={n}, m={m}")
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} drifted beyond {NORM_TOL}")
        amp.setflags(write=False)
        return super().__new__(cls, n, m, amp)

    @property
    def dim(self) -> int:
        return (self.n + 1) * self.m

    def index(self, i: int, j: int) -> int:
        if not (0 <= i <= self.n and 0 <= j < self.m):
            raise ValueError(f"basis pair ({i},{j}) out of range")
        return i * self.m + j

    def amplitude(self, i: int, j: int) -> complex:
        return complex(self.amplitudes[self.index(i, j)])


def basis_state(n: int, m: int, i: int = 0, j: int = 0) -> QState:
    import numpy as np

    amp = np.zeros((n + 1) * m, dtype=complex)
    amp[i * m + j] = 1.0
    return QState(n, m, amp)


def _bit_signs(x: str, n: int) -> np.ndarray:
    import numpy as np

    if len(x) != n:
        raise ValueError(f"input length {len(x)} does not match n={n}")
    signs = np.ones(n + 1)
    for i, ch in enumerate(x, start=1):
        if ch == "1":
            signs[i] = -1.0
        elif ch != "0":
            raise ValueError(f"input must be over 0/1, got {x!r}")
    return signs


def apply_oracle(state: QState, x: str) -> QState:
    """One query: multiply each (i, j) amplitude, i >= 1, by (-1)^{x_i}."""
    signs = _bit_signs(x, state.n)
    amp = state.amplitudes.reshape(state.n + 1, state.m) * signs[:, None]
    return QState(state.n, state.m, amp.reshape(-1))


def unitary_deviation(u: np.ndarray) -> float:
    """Largest entry of |U†U - I|."""
    import numpy as np

    d = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


def apply_map(state: QState, u: np.ndarray, *, assume_unitary: bool = False) -> QState:
    """Left-multiply the state by u.

    Rejects maps whose columns fail orthonormality beyond UNITARY_TOL, unless
    the caller vouches for a matrix already validated at construction time.
    """
    import numpy as np

    u = np.asarray(u, dtype=complex)
    if u.shape != (state.dim, state.dim):
        raise ValueError(f"map shape {u.shape} does not match dimension {state.dim}")
    if not assume_unitary:
        dev = unitary_deviation(u)
        if dev > UNITARY_TOL:
            raise ValueError(f"map is not unitary: max deviation {dev:.3e}")
    return QState(state.n, state.m, u @ state.amplitudes)


def measure(state: QState) -> OutcomeDistribution:
    """Born-rule distribution over basis pairs, in index order, with
    outcomes below PRUNE_TOL dropped."""
    import numpy as np

    probs = np.abs(state.amplitudes) ** 2
    out: OutcomeDistribution = []
    m = state.m
    for flat, p in enumerate(probs):
        if p >= PRUNE_TOL:
            out.append(((flat // m, flat % m), float(p)))
    return out


# ---------------------------------------------------------------------------
# Unitary construction helpers
# ---------------------------------------------------------------------------


def householder_map(dim: int, source: int, target: np.ndarray) -> np.ndarray:
    """Real orthogonal reflection sending basis column ``source`` to the real
    unit vector ``target`` (identity when they already coincide)."""
    import numpy as np

    target = np.asarray(target, dtype=float)
    if target.shape != (dim,):
        raise ValueError("target vector has wrong dimension")
    if abs(float(target @ target) - 1.0) > 1e-12:
        raise ValueError("target vector must be normalized")
    w = np.zeros(dim)
    w[source] = 1.0
    w -= target
    nw = float(w @ w)
    if nw < 1e-24:
        return np.eye(dim)
    return np.eye(dim) - (2.0 / nw) * np.outer(w, w)


def complete_unitary(dim: int, columns: dict[int, np.ndarray]) -> np.ndarray:
    """Extend prescribed orthonormal columns to a full unitary.

    The unspecified columns are filled with an orthonormal basis of the
    orthogonal complement, taken from the SVD of the residual projector, so
    the completion is deterministic.
    """
    import numpy as np

    u = np.zeros((dim, dim), dtype=complex)
    fixed = sorted(columns)
    v = np.column_stack([np.asarray(columns[c], dtype=complex) for c in fixed])
    gram_dev = float(np.max(np.abs(v.conj().T @ v - np.eye(len(fixed)))))
    if gram_dev > UNITARY_TOL:
        raise ValueError(f"prescribed columns are not orthonormal: {gram_dev:.3e}")
    proj = np.eye(dim) - v @ v.conj().T
    basis, singulars, _ = np.linalg.svd(proj)
    complement = [basis[:, idx] for idx in range(dim) if singulars[idx] > 0.5]
    if len(complement) != dim - len(fixed):
        raise RuntimeError("complement dimension mismatch in unitary completion")
    for c in fixed:
        u[:, c] = columns[c]
    free = (c for c in range(dim) if c not in columns)
    for c, vec in zip(free, complement):
        u[:, c] = vec
    return u
