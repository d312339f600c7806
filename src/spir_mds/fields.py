"""Exact linear algebra over prime fields F_q.

The kernels work on plain ``numpy`` integer arrays reduced mod q and
never modify their inputs.  Elimination uses first-nonzero pivoting in
fixed column order, so every decode transcript is reproducible run to
run.
"""

from __future__ import annotations

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


def add_reduced(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a = (a + b) mod q in place, for int64 a and b already reduced mod q:
    as uint64, a + b - q wraps past every field element exactly when a + b < q,
    so their unsigned minimum is the reduced sum, without an int64 remainder."""
    a += b
    total = a.view(np.uint64)
    np.minimum(total, total - np.uint64(q), out=total)
    return a


def _as_field_array(arr, q: int) -> np.ndarray:
    return np.array(arr, dtype=np.int64) % q


def rref(arr: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod q; returns (matrix, pivot column list).

    Pivot choice is the first row with a nonzero entry in the current
    column, scanning columns left to right; deterministic by design.
    """
    a = _as_field_array(arr, q)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = (a[r] * pow(int(a[r, c]), q - 2, q)) % q
        for rr in range(rows):
            if rr != r and a[rr, c] != 0:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % q
        pivots.append(c)
        r += 1
    return a, pivots


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
