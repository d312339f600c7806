"""Exact arithmetic and linear algebra over prime fields F_q.

Two layers live here.  The array layer works on plain ``numpy`` integer
arrays reduced mod q and is what the protocol and audit code call in hot
paths.  The object layer (:class:`FieldElement`, :class:`FieldMatrix`)
wraps the same kernels behind value types with field-consistency checks.

All operations are pure; matrices are write-protected after construction.
Elimination uses first-nonzero pivoting in fixed column order, so every
decode transcript is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DivisionByZero, FieldMismatch, InvalidParams, SingularSystem


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


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_q, represented by its modulus."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParams(f"modulus {self.q} is not prime")

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.q, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1 % self.q, self)

    def inv(self, value: int) -> int:
        """Inverse of an integer representative, as an integer."""
        value %= self.q
        if value == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.q}")
        return pow(value, self.q - 2, self.q)

    def reduce(self, arr) -> np.ndarray:
        return np.asarray(arr, dtype=np.int64) % self.q


@dataclass(frozen=True)
class FieldElement:
    """Canonical representative in [0, q) of a residue mod q."""

    value: int
    field: PrimeField

    def __post_init__(self):
        if not 0 <= self.value < self.field.q:
            object.__setattr__(self, "value", self.value % self.field.q)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.q != self.field.q:
                raise FieldMismatch(f"mixed moduli {self.field.q} and {other.field.q}")
            return other
        if isinstance(other, (int, np.integer)):
            return self.field.element(int(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + other.value) % self.field.q, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - other.value) % self.field.q, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value * other.value) % self.field.q, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement((-self.value) % self.field.q, self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"F{self.field.q}({self.value})"


# ---------------------------------------------------------------------------
# Array kernels (int64 arrays reduced mod q)
# ---------------------------------------------------------------------------

def _as_field_array(arr, q: int) -> np.ndarray:
    out = np.array(arr, dtype=np.int64) % q
    return out


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


def solve(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Solve a square system a @ x = b mod q; raises SingularSystem."""
    a = _as_field_array(a, q)
    b = _as_field_array(b, q)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"system matrix is {a.shape}, not square")
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != {n}")
    aug = np.concatenate([a, b.reshape(n, -1)], axis=1)
    red, pivots = rref(aug, q)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularSystem(f"rank {sum(1 for p in pivots if p < n)} < {n}")
    x = red[:n, n:] % q
    return x.reshape(b.shape)


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


def matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % q


# ---------------------------------------------------------------------------
# Matrix value type
# ---------------------------------------------------------------------------

class FieldMatrix:
    """Immutable matrix over one prime field."""

    __slots__ = ("field", "array")

    def __init__(self, field: PrimeField, array):
        arr = _as_field_array(array, field.q)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-d data, got shape {arr.shape}")
        arr.flags.writeable = False
        self.field = field
        self.array = arr

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Iterable[Sequence[int]]) -> "FieldMatrix":
        return cls(field, [list(r) for r in rows])

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        """Row-major tuple of the entries as field elements."""
        return tuple(FieldElement(int(v), self.field) for v in self.array.ravel())

    def _check_same_field(self, other: "FieldMatrix"):
        if self.field.q != other.field.q:
            raise FieldMismatch(f"mixed moduli {self.field.q} and {other.field.q}")

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.array.shape} @ {other.array.shape}")
        return FieldMatrix(self.field, matmul(self.array, other.array, self.field.q))

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.array.shape != other.array.shape:
            raise DimensionMismatch(f"{self.array.shape} + {other.array.shape}")
        return FieldMatrix(self.field, self.array + other.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field.q == other.field.q and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.field.q, self.array.tobytes(), self.array.shape))

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self.array.T)

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j]

    def rank(self) -> int:
        return rank_of(self.array, self.field.q)

    def inverse(self) -> "FieldMatrix":
        return FieldMatrix(self.field, invert(self.array, self.field.q))

    def __repr__(self) -> str:
        return f"FieldMatrix(q={self.field.q}, {self.array.tolist()})"


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def solve_linear_system(a: FieldMatrix, b: Sequence) -> tuple[FieldElement, ...]:
    """Solve a @ x = b for a nonsingular square FieldMatrix."""
    vals = np.array([int(v) for v in b], dtype=np.int64)
    x = solve(a.array, vals, a.field.q)
    return tuple(FieldElement(int(v), a.field) for v in x)


def rank(a: FieldMatrix) -> int:
    return a.rank()
