"""Single-round symmetric private retrieval over the coded storage layer.

One round, for a requested file ``theta``:

* The user draws ``m`` uniform mask vectors per stripe and sends each
  node ``m`` query vectors; selected (node, vector) pairs additionally
  carry a unit vector that points at one row of the requested file.
* Every node returns one inner product per query vector, blinded by a
  coded share of the node-shared randomness matrix ``S``.
* The user solves one linear system per stripe whose unknowns are the
  m^2 masked products ``X[i][t] = <U_t, D_i> + S[i][t]`` plus the
  (n-m)*m symbols of the requested file.

Unit placement comes in two regimes.  With few parity nodes
(``n - m <= m``) every file row rides on a systematic node, staggered
cyclically so each node sees the same number of raised vectors.  With
many parity nodes (``n - m > m``) the first ``beta = (n-m) mod m`` rows
stay on systematic nodes and the remaining rows are fetched from parity
nodes in groups of m, every node of a group raising the same vector;
the last ``beta`` parity nodes receive plain masks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import fields
from .errors import (
    DimensionMismatch,
    FieldTooSmall,
    InvalidParams,
    SingularSystem,
    TooFewFiles,
)
from .storage import GeneratorMatrix, NodeData, StorageParams, build_generator, is_mds, require_fit, require_int

# Disjoint seed domains so user, node, and database randomness never collide
# even when callers reuse one literal seed value.
USER_SEED_DOMAIN = 1
NODE_SEED_DOMAIN = 2
DB_SEED_DOMAIN = 3

RANDOMNESS_MODES = ("full", "zeroed", "partial")


def user_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([USER_SEED_DOMAIN, require_int("user seed", seed, low=0)])


def node_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([NODE_SEED_DOMAIN, require_int("node seed", seed, low=0)])


def db_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([DB_SEED_DOMAIN, require_int("database seed", seed, low=0)])


@dataclass(frozen=True)
class QueryPlan:
    """Which (node, vector) pairs carry a unit, and for which file row.

    ``unit_rows[node-1][t-1]`` is the 1-based file row riding on query
    vector t at that node, or None for a plain mask vector.
    """

    case: str  # "case1" (n-m <= m) or "case2" (n-m > m)
    alpha: int
    beta: int
    n: int
    m: int
    unit_rows: tuple[tuple[Optional[int], ...], ...]

    def units(self):
        """Iterate (node_index, t, row) over all placements."""
        for node0, per_vec in enumerate(self.unit_rows):
            for t0, row in enumerate(per_vec):
                if row is not None:
                    yield node0 + 1, t0 + 1, row

    @property
    def unit_count(self) -> int:
        return sum(1 for _ in self.units())


def _staggered_vector_index(i: int, s: int, m: int) -> int:
    # Row s at systematic node i rides vector ((i + s - 2) mod m) + 1,
    # wrapping so node m's last unit lands back on vector 1.
    return ((i + s - 2) % m) + 1


@lru_cache(maxsize=None)
def make_query_plan(params: StorageParams) -> QueryPlan:
    """Unit placement table for these parameters (theta-independent)."""
    if params.k < 2:
        raise TooFewFiles(
            f"symmetric retrieval needs k >= 2 files, got k={params.k}"
        )
    n, m = params.n, params.m
    parity_rows = n - m
    rows: list[list[Optional[int]]] = [[None] * m for _ in range(n)]
    if parity_rows <= m:
        case, alpha, beta = "case1", 0, parity_rows
        for i in range(1, m + 1):
            for s in range(1, parity_rows + 1):
                rows[i - 1][_staggered_vector_index(i, s, m) - 1] = s
    else:
        case = "case2"
        beta = parity_rows % m
        alpha = (parity_rows - beta) // m
        for i in range(1, m + 1):
            for s in range(1, beta + 1):
                rows[i - 1][_staggered_vector_index(i, s, m) - 1] = s
        for grp in range(1, alpha + 1):
            for offset in range(1, m + 1):
                node = grp * m + offset
                for t in range(1, m + 1):
                    rows[node - 1][t - 1] = beta + (grp - 1) * m + t
    plan = QueryPlan(case, alpha, beta, n, m, tuple(tuple(r) for r in rows))
    assert plan.unit_count == parity_rows * m
    return plan


@lru_cache(maxsize=None)
def _unit_index(params: StorageParams) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of every unit symbol of index 1, over all stripes, into
    the (n, stripes, m, query_len) per-node queries and the (stripes, m,
    query_len) masks each raises by one; index theta's sit (theta-1)*(n-m)
    further on.  The one source of unit placement for queries and checks."""
    node0, t0, row0 = np.array(list(zip(*make_query_plan(params).units())), dtype=np.int64) - 1
    stripe = np.arange(params.stripes)[:, None]
    shape = (params.n, params.stripes, params.m, params.query_len)
    index = (
        np.ravel_multi_index((node0, stripe, t0, row0), shape).ravel(),
        np.ravel_multi_index((stripe, t0, row0), shape[1:]).ravel(),
    )
    for arr in index:
        arr.flags.writeable = False
    return index


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Mask vectors and the per-node queries derived from them."""

    theta: int
    u: np.ndarray  # (..., stripes, m, query_len) uniform masks
    per_node: np.ndarray  # (..., n, stripes, m, query_len)

    def node_query(self, node_index: int) -> np.ndarray:
        return self.per_node[..., node_index - 1, :, :, :]

    def __eq__(self, other):
        if not isinstance(other, QuerySet):
            return NotImplemented
        return (
            self.theta == other.theta
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.per_node, other.per_node)
        )


def free_randomness(params: StorageParams, mode: str, partial_count: Optional[int] = None) -> int:
    """Free symbols J of the nodes' shared randomness under ``mode``: all
    stripes*m^2 of them ('full', the secrecy floor), none ('zeroed') or the
    first ``partial_count`` ('partial').  The one reader of a mode and a
    count: a bad mode, or a count that is no integer under any mode, is refused."""
    total = params.stripes * params.m * params.m
    if mode not in RANDOMNESS_MODES:
        raise InvalidParams(f"unknown randomness mode {mode!r}")
    if mode != "partial":
        if partial_count is not None:  # unread, but a count is an integer under every mode
            require_int("partial randomness count", partial_count)
        return total if mode == "full" else 0
    count = require_int("partial randomness count", partial_count, low=0)
    if count > total:
        raise InvalidParams(f"partial randomness count must be <= {total}, got {count}")
    return count


@dataclass(frozen=True, eq=False)
class CommonRandomness:
    """Node-shared m x m uniform matrix per stripe, hidden from the user."""

    values: np.ndarray  # (..., stripes, m, m); values[..., s, i-1, t-1] blinds X[i][t]
    drawn: int = field(init=False)  # symbols drawn per point: J by ``partial``, else all

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "drawn", int(np.prod(arr.shape[-3:])))

    @classmethod
    def partial(cls, params: StorageParams, free_symbols: int, rng: np.random.Generator) -> "CommonRandomness":
        """Only the first ``free_symbols`` entries (row-major) are random."""
        free_symbols = free_randomness(params, "partial", free_symbols)
        flat = np.zeros(params.stripes * params.m * params.m, dtype=np.int64)
        flat[:free_symbols] = rng.integers(0, params.q, size=free_symbols, dtype=np.int64)
        shared = cls(flat.reshape(params.stripes, params.m, params.m))
        object.__setattr__(shared, "drawn", free_symbols)
        return shared

    def __eq__(self, other):
        if not isinstance(other, CommonRandomness):
            return NotImplemented
        return self.drawn == other.drawn and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class AnswerSet:
    """One field element per (node, stripe, query vector)."""

    per_node: np.ndarray  # (n, stripes, m)

    def __eq__(self, other):
        if not isinstance(other, AnswerSet):
            return NotImplemented
        return np.array_equal(self.per_node, other.per_node)


@dataclass(frozen=True, eq=False)
class Transcript:
    """User-side record of one complete round."""

    params: StorageParams
    generator: GeneratorMatrix
    theta: int
    query_set: QuerySet
    answer_set: AnswerSet
    decoded_file: np.ndarray
    download_count: int
    randomness_count: int


def gen_queries(
    params: StorageParams,
    g: GeneratorMatrix,
    theta: int,
    user_seed: int = 0,
    *,
    u_override: Optional[np.ndarray] = None,
) -> QuerySet:
    """Draw the mask vectors and attach unit vectors per the plan.

    ``u_override`` pins the masks to given values; its leading axes are
    points, and the queries of every point are built at once.
    """
    if not 1 <= require_int("theta", theta) <= params.k:
        raise InvalidParams(f"theta={theta} not in [1, {params.k}]")
    require_fit(params, g)
    shape = (params.stripes, params.m, params.query_len)
    if u_override is not None:
        u = np.asarray(u_override, dtype=np.int64) % params.q
        if u.shape[-3:] != shape:
            raise DimensionMismatch(f"u_override shape {u.shape} != {shape}")
    else:
        u = user_rng(user_seed).integers(0, params.q, size=shape, dtype=np.int64)
    query_index, mask_index = _unit_index(params)
    offset = (theta - 1) * params.rows_per_stripe
    lead = u.shape[:-3]
    per_node = np.empty(lead + (params.n,) + shape, dtype=np.int64)
    per_node[...] = u[..., None, :, :, :]
    raised = (u.reshape(lead + (-1,)).take(mask_index + offset, axis=-1) + 1) % params.q
    per_node.reshape(lead + (-1,))[..., query_index + offset] = raised
    return QuerySet(theta, u, per_node)


def gen_answer(
    node_index: int,
    query: np.ndarray,
    d: NodeData,
    s: CommonRandomness,
    g: GeneratorMatrix,
) -> np.ndarray:
    """Answers of one node: inner products plus coded blinding.

    The signature is the isolation contract: a node sees its index, its
    own query, its own share, and the shared randomness, nothing else.
    Leading axes of all three are points, answered at once.
    """
    query = np.asarray(query, dtype=np.int64)
    *_, stripes, m, qlen = query.shape
    if d.values.shape[-1] != stripes * qlen:
        raise DimensionMismatch(
            f"node {node_index}: share length {d.values.shape[-1]} != stripes*query_len {stripes * qlen}"
        )
    out = np.einsum("...stq,...sq->...st", query, d.values.reshape(d.values.shape[:-1] + (stripes, qlen)))
    out = out + (g.column(node_index) @ s.values) % g.q  # coded blinding, broadcast over point axes
    out %= g.q
    return out


@lru_cache(maxsize=None)
def decode_system(params: StorageParams, g: GeneratorMatrix) -> np.ndarray:
    """The n*m x n*m coefficient matrix tying answers to unknowns, read off
    the generator alike for every node: equation (node j, vector t) is
    sum_i g[i, j] * (X[i][t] + W[r][i]), the W term only where the plan
    raises file row r at (j, t).

    Equation order is node-major then vector index; unknown order is the
    m^2 masked products (column-major) followed by the (n-m)*m file
    symbols (row-major).  The matrix is theta-independent: changing
    theta only relabels which file block the unit offsets point into.
    """
    require_fit(params, g)
    n, m = params.n, params.m
    # Unknowns as n blocks of m: block t-1 holds X[.][t], block m+r-1 holds W[r][.].
    a = np.zeros((n, m, n, m), dtype=np.int64)
    vec = np.arange(m)
    a[:, vec, vec, :] = g.array.T[:, None, :]
    for node, t, row in make_query_plan(params).units():
        a[node - 1, t - 1, m + row - 1, :] = g.array[:, node - 1]
    a = a.reshape(n * m, n * m)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def decode_matrix_inverse(params: StorageParams, g: GeneratorMatrix) -> np.ndarray:
    """Exact inverse of the decode system; SingularSystem means a bad plan."""
    inv = fields.invert(decode_system(params, g), params.q)
    inv.flags.writeable = False
    return inv


def decode(
    params: StorageParams,
    g: GeneratorMatrix,
    theta: int,
    query_set: QuerySet,
    answer_set: AnswerSet,
) -> np.ndarray:
    """Recover file theta from the full answer set.

    Returns the (stripes*(n-m), m) file matrix.  The query set is
    cross-checked against the plan so a corrupted transcript fails loud.
    """
    if query_set.theta != theta:
        raise InvalidParams(f"query set was built for theta={query_set.theta}, not {theta}")
    shape = (params.stripes, params.m, params.query_len)
    u = np.asarray(query_set.u)
    per_node = np.asarray(query_set.per_node)
    if u.shape != shape or per_node.shape != (params.n,) + shape:
        raise InvalidParams(f"query shapes {u.shape}, {per_node.shape} do not match {params}")
    answers = np.asarray(answer_set.per_node)
    if answers.shape != (params.n, params.stripes, params.m) or not np.can_cast(answers.dtype, np.int64):
        raise InvalidParams(f"answers of shape {answers.shape} and dtype {answers.dtype} do not match {params}")
    if u.min() < 0 or u.max() >= params.q:  # served masks are reduced already
        u = u % params.q
    # q >= 2, so each unit symbol differs from its mask: the queries equal
    # masks plus units iff they differ from the masks in exactly as many
    # places as there are units, and hold mask plus one at every unit.
    query_index, mask_index = _unit_index(params)
    offset = (theta - 1) * params.rows_per_stripe
    if np.count_nonzero(per_node != u) != query_index.size or not np.array_equal(
        per_node.take(query_index + offset), (u.take(mask_index + offset) + 1) % params.q
    ):
        raise InvalidParams("per-node queries inconsistent with masks and plan")
    return solve(params, g, answers)


def solve(params: StorageParams, g: GeneratorMatrix, answers: np.ndarray) -> np.ndarray:
    """The file symbols that answers (..., n, stripes, m) decode to, as
    (..., file_rows, m): per stripe, the file-symbol rows of the decode
    system's inverse applied to the n*m answers in equation order.
    Linear, so leading axes of points are solved at once."""
    w_rows = decode_matrix_inverse(params, g)[params.m * params.m :]
    answers = np.asarray(answers)
    lead = answers.shape[:-3]
    b = np.swapaxes(answers, -3, -2).reshape(lead + (params.stripes, params.n * params.m))
    return ((b @ w_rows.T) % params.q).reshape(lead + (params.file_rows, params.m))


_SEARCH_BUDGET = 1 << 20


@lru_cache(maxsize=None)
def find_decodable_generator(params: StorageParams) -> GeneratorMatrix:
    """Deterministic generator search for fields below the Cauchy threshold.

    Tries the standard construction first.  Otherwise scans all parity
    blocks in lexicographic order and returns the first MDS one; if no
    MDS code exists at this field size (possible: four pairwise
    independent columns cannot fit in F_2^2), it falls back to the first
    block whose retrieval system is invertible, which is all the
    protocol itself requires.
    """
    try:
        return build_generator(params)
    except FieldTooSmall:
        pass
    m, n, q = params.m, params.n, params.q
    width = m * (n - m)
    space = q ** width
    if space > _SEARCH_BUDGET:
        raise FieldTooSmall(
            f"generator search space {q}^{width} exceeds budget for q={q} < n={n}"
        )
    eye = np.eye(m, dtype=np.int64)
    fallback = None
    for idx in range(space):
        digits = np.array(
            [(idx // q ** (width - 1 - pos)) % q for pos in range(width)], dtype=np.int64
        )
        parity = digits.reshape(m, n - m)
        # Any zero parity column kills both MDS and decode-solvability.
        if np.any(np.all(parity == 0, axis=0)):
            continue
        g = GeneratorMatrix(q, np.concatenate([eye, parity], axis=1))
        if is_mds(g):
            return g
        if fallback is None and _decode_solvable(params, g):
            fallback = g
    if fallback is not None:
        return fallback
    raise FieldTooSmall(f"no workable systematic generator exists for {params}")


def _decode_solvable(params: StorageParams, g: GeneratorMatrix) -> bool:
    try:
        decode_matrix_inverse(params, g)
    except SingularSystem:
        return False
    return True


def generator_for(params: StorageParams, mode: str = "cauchy") -> GeneratorMatrix:
    """Generator selection used by the harness: 'cauchy' or 'search'."""
    if mode == "cauchy":
        return build_generator(params)
    if mode == "search":
        return find_decodable_generator(params)
    raise InvalidParams(f"unknown generator mode {mode!r}")
