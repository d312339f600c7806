"""(n, m) MDS storage layer.

A database of k files is striped across n nodes so that any m node
shares recover everything.  Any full-row-rank generator is accepted;
``build_generator`` and ``find_decodable_generator`` return systematic
ones.  Layout conventions used throughout:

* File ``k`` (1-based) is a matrix of shape ``(stripes*(n-m), m)``;
  within a stripe, entry ``(j, i)`` is the j-th symbol of the i-th
  systematic piece, the one a systematic generator's node ``i`` holds.
* Node vectors are laid out stripe-major, then file-major, then row:
  index ``(s*k_files + (k-1))*(n-m) + (j-1)`` holds the (stripe s,
  file k, row j) slot.
* Node and file indices are 1-based at API boundaries, 0-based inside
  arrays; this is the single place the mapping is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from . import fields
from .errors import BadShareCount, DimensionMismatch, FieldTooSmall, InvalidParams

_MDS_BATCH = 1 << 12  # column choices per elimination of ``is_mds``


def require_int(name: str, value, low: Optional[int] = None) -> int:
    """``value`` if it is an int (not a bool) of at least ``low``, else InvalidParams."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidParams(f"{name} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class StorageParams:
    """Shape of one storage instance.

    q: prime field modulus
    n: number of storage nodes
    m: code dimension (any m shares reconstruct the database)
    k: number of files
    stripes: independent (n-m) x m blocks per file
    """

    q: int
    n: int
    m: int
    k: int
    stripes: int = 1

    def __post_init__(self):
        for name in ("q", "n", "m", "k", "stripes"):
            require_int(name, getattr(self, name))
        if not 1 <= self.m < self.n:
            raise InvalidParams(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.k < 1:
            raise InvalidParams(f"need k >= 1 files, got {self.k}")
        if self.stripes < 1:
            raise InvalidParams(f"need stripes >= 1, got {self.stripes}")
        # The upload, n*stripes*m*query_len symbols, is a round's largest
        # array (the database and the shares are no larger); numpy cannot
        # address an int64 array of 2**63 bytes at all.
        if self.n * self.stripes * self.m * self.query_len * 8 >= 2**63:
            raise InvalidParams(
                f"(n, m, k, stripes)={self.n, self.m, self.k, self.stripes} is too large: "
                "a round's arrays exceed 2**63 bytes"
            )
        # Longest int64 sums of a round: a node's query_len-term answer plus
        # blinding, and decode's n*m-term solve.  Also bounds is_prime's work.
        if max(self.query_len, self.n * self.m) * (self.q - 1) ** 2 + (self.q - 1) >= 2**63:
            raise InvalidParams(f"q={self.q} is too large for (n, m, k)={self.n, self.m, self.k}: int64 overflow")
        if not fields.is_prime(self.q):
            raise InvalidParams(f"q={self.q} is not prime")

    @property
    def rows_per_stripe(self) -> int:
        return self.n - self.m

    @property
    def file_rows(self) -> int:
        return self.stripes * (self.n - self.m)

    @property
    def file_len(self) -> int:
        """Symbols per file: stripes * (n-m) * m."""
        return self.stripes * (self.n - self.m) * self.m

    @property
    def node_len(self) -> int:
        """Symbols stored per node."""
        return self.stripes * self.k * (self.n - self.m)

    @property
    def query_len(self) -> int:
        """Length of one query vector (per stripe): (n-m) * k."""
        return (self.n - self.m) * self.k


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """m x n generator of the storage code over F_q, of full row rank; any
    such generator is accepted, systematic [ I | P ] or not.

    ``array`` is stored as a write-protected int64 copy reduced mod q.
    """

    q: int
    array: np.ndarray

    def __post_init__(self):
        if not fields.is_prime(self.q):
            raise InvalidParams(f"modulus {self.q} is not prime")
        arr = np.array(self.array, dtype=np.int64) % self.q
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-d data, got shape {arr.shape}")
        rank = fields.rank_of(arr, self.q)
        if rank < arr.shape[0]:
            raise InvalidParams(f"generator of {arr.shape[0]} rows has row rank {rank}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def m(self) -> int:
        return self.array.shape[0]

    @property
    def n(self) -> int:
        return self.array.shape[1]

    def column(self, node_index: int) -> np.ndarray:
        """Generator column for a 1-based node index."""
        return self.array[:, node_index - 1]

    def __eq__(self, other):
        if not isinstance(other, GeneratorMatrix):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.q, self.array.tobytes(), self.array.shape))


def require_fit(params: StorageParams, g: GeneratorMatrix) -> None:
    """DimensionMismatch unless ``g`` is an (m, n) generator over F_q of ``params``."""
    if (g.m, g.n, g.q) != (params.m, params.n, params.q):
        raise DimensionMismatch(
            f"generator is ({g.m},{g.n}) over F_{g.q}, params want ({params.m},{params.n}) over F_{params.q}"
        )


def _cauchy_parity(q: int, m: int, n: int) -> np.ndarray:
    # Row tags 0..m-1 and column tags m..n-1 are distinct mod q whenever
    # q >= n, so every denominator x_i - y_j is nonzero and every square
    # submatrix of the block is itself Cauchy, hence nonsingular.
    p = np.zeros((m, n - m), dtype=np.int64)
    for i in range(m):
        for j in range(n - m):
            p[i, j] = pow((i - (m + j)) % q, q - 2, q)
    return p


@lru_cache(maxsize=None)
def build_generator(params: StorageParams) -> GeneratorMatrix:
    """Build the systematic generator: repetition for m=1, Cauchy otherwise.

    Raises FieldTooSmall when m >= 2 and q < n, where the Cauchy block
    cannot be formed.  The MDS property is re-verified before returning.
    """
    m, n = params.m, params.n
    if m == 1:
        arr = np.ones((1, n), dtype=np.int64)
    else:
        if params.q < n:
            raise FieldTooSmall(
                f"q={params.q} < n={params.n}: cannot place {n} distinct field elements"
            )
        arr = np.concatenate(
            [np.eye(m, dtype=np.int64), _cauchy_parity(params.q, m, n)], axis=1
        )
    g = GeneratorMatrix(params.q, arr)
    assert is_mds(g), "constructed generator failed MDS verification"
    return g


def is_mds(g: GeneratorMatrix) -> bool:
    """Exhaustively check that every choice of m columns has rank m, the
    m x m blocks eliminated as one stack per batch of column choices."""
    choices = combinations(range(g.n), g.m)
    while batch := list(islice(choices, _MDS_BATCH)):
        if not (fields.row_reduce(g.array[:, batch].swapaxes(0, 1), g.q)[1].sum(axis=-1) == g.m).all():
            return False
    return True


@dataclass(frozen=True, eq=False)
class Database:
    """k files over F_q, each a (stripes*(n-m)) x m matrix; leading axes of
    ``files`` are points, a batch of databases the served round serves at once."""

    params: StorageParams
    files: np.ndarray  # shape (..., k, stripes*(n-m), m)

    def __post_init__(self):
        p = self.params
        arr = np.asarray(self.files, dtype=np.int64) % p.q
        if arr.shape[-3:] != (p.k, p.file_rows, p.m):
            raise DimensionMismatch(
                f"files shape {arr.shape} != {(p.k, p.file_rows, p.m)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "files", arr)

    @classmethod
    def zeros(cls, params: StorageParams) -> "Database":
        return cls(params, np.zeros((params.k, params.file_rows, params.m), dtype=np.int64))

    @classmethod
    def random(cls, params: StorageParams, rng: np.random.Generator) -> "Database":
        shape = (params.k, params.file_rows, params.m)
        return cls(params, rng.integers(0, params.q, size=shape, dtype=np.int64))

    def file(self, k: int) -> np.ndarray:
        """File matrix for 1-based file index k."""
        return self.files[..., k - 1, :, :]

    def slot_matrix(self) -> np.ndarray:
        """All (stripe, file, row) slots as rows, in node-vector order."""
        p = self.params
        lead = self.files.shape[:-3]
        # (..., k, stripes, n-m, m) -> (..., stripes, k, n-m, m) -> (..., slots, m)
        return (
            self.files.reshape(lead + (p.k, p.stripes, p.rows_per_stripe, p.m))
            .swapaxes(-4, -3)
            .reshape(lead + (p.node_len, p.m))
        )

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.files, other.files)


@dataclass(frozen=True, eq=False)
class NodeData:
    """Coded share held by one node (1-based node_index)."""

    node_index: int
    values: np.ndarray  # (..., node_len)

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        if not isinstance(other, NodeData):
            return NotImplemented
        return self.node_index == other.node_index and np.array_equal(self.values, other.values)


def encode(db: Database, g: GeneratorMatrix) -> tuple[NodeData, ...]:
    """Encode the database into n node shares.

    Node n's slot value is the inner product of generator column n with
    the m systematic symbols of that slot (the raw symbol at node n <= m of
    a systematic generator).  Shares keep the database's leading point axes.
    """
    p = db.params
    require_fit(p, g)
    shares = (g.array.T @ db.slot_matrix().swapaxes(-1, -2)) % p.q  # (..., n, slots)
    return tuple(NodeData(i + 1, shares[..., i, :]) for i in range(p.n))


def reconstruct(params: StorageParams, shares: Sequence[NodeData], g: GeneratorMatrix) -> Database:
    """Rebuild the database from any m distinct node shares."""
    require_fit(params, g)
    if len(shares) != params.m:
        raise BadShareCount(f"need exactly m={params.m} shares, got {len(shares)}")
    idx = [s.node_index for s in shares]
    if len(set(idx)) != len(idx):
        raise BadShareCount(f"duplicate node indices in {idx}")
    if not all(1 <= i <= params.n for i in idx):
        raise BadShareCount(f"node indices out of range in {idx}")
    for s in shares:
        if s.values.shape != (params.node_len,):
            raise DimensionMismatch(
                f"share from node {s.node_index} has length {s.values.shape}, want {params.node_len}"
            )
    cols = g.array[:, [i - 1 for i in idx]]  # m x m
    inv = fields.invert(cols, params.q)
    stacked = np.stack([s.values for s in shares], axis=1)  # (slots, m) = W @ cols
    slots = (stacked @ inv) % params.q  # node-vector order, as slot_matrix lays it out
    files = slots.reshape(params.stripes, params.k, params.rows_per_stripe, params.m).swapaxes(0, 1)
    return Database(params, files.reshape(params.k, params.file_rows, params.m))
