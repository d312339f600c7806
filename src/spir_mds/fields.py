"""Exact linear algebra over prime fields F_q.

The kernels work on plain ``numpy`` integer arrays reduced mod q and
never modify their inputs.  Elimination uses first-nonzero pivoting in
fixed column order, so every decode transcript is reproducible run to
run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, SingularSystem


def is_prime(n: int) -> bool:
    """Trial-division primality test; parameters here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _as_field_array(arr, q: int) -> np.ndarray:
    return np.array(arr, dtype=np.int64) % q


def _inverses(values: np.ndarray, q: int) -> np.ndarray:
    """Inverses mod q of nonzero ``values``: values ** (q - 2) (Fermat), by
    square-and-multiply over the exponent's bits after the leading one
    (at q = 2 every nonzero value is 1, its own inverse)."""
    out = values
    for bit in bin(q - 2)[3:]:
        out = out * out % q
        if bit == "1":
            out = out * values % q
    return out


def row_reduce(arr: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms mod q of a stack of matrices (..., rows,
    cols), and each matrix's pivot columns as flags (..., cols): among a
    matrix's first j columns, as many pivots as their rank.

    Step r pivots each matrix that is not yet reduced at the first column
    with a nonzero entry in rows r on, on the first such row.
    """
    a = _as_field_array(arr, q)
    *lead, rows, cols = a.shape
    a = a.reshape(math.prod(lead), rows, cols)
    batch = np.arange(len(a))
    pivots = np.zeros((len(a), cols), dtype=bool)
    for r in range(min(rows, cols)):
        nonzero = a[:, r:] != 0
        live = nonzero.any(axis=1)
        c = live.argmax(axis=1)
        found = live[batch, c]
        if not found.any():
            break
        # a reduced matrix, zero from row r on, scales a zero row to zero
        p = r + nonzero[batch, :, c].argmax(axis=1)
        top = a[batch, p]
        a[batch, p] = a[:, r]
        top = top * (_inverses(top[batch, c], q) * found)[:, None] % q
        a -= a[batch, :, c][:, :, None] * top[:, None]
        a %= q
        a[:, r] = top
        pivots[batch, c] |= found
    return a.reshape(tuple(lead) + (rows, cols)), pivots.reshape(tuple(lead) + (cols,))


def rref(arr: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod q of one matrix and its pivot column
    list (``row_reduce`` of a stack of one)."""
    a, pivots = row_reduce(arr, q)
    return a, np.flatnonzero(pivots).tolist()


def rank_of(arr: np.ndarray, q: int) -> int:
    return len(rref(arr, q)[1])


def invert(a: np.ndarray, q: int) -> np.ndarray:
    a = _as_field_array(a, q)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix is {a.shape}, not square")
    eye = np.eye(n, dtype=np.int64)
    aug = np.concatenate([a, eye], axis=1)
    red, pivots = rref(aug, q)
    if len(pivots) < n or pivots != list(range(n)):
        raise SingularSystem(f"matrix of rank {len(pivots)} has no inverse")
    return red[:, n:] % q
