"""Exact privacy auditing by exhaustive enumeration.

The auditor enumerates every (database, mask, shared-randomness)
assignment, each uniform and independent, runs the scheme over the
whole universe, and decides independence by integer counting: X and Y
are independent iff ``total * count(x, y) == count(x) * count(y)`` for
every cell, which needs no tolerance and no floating point.

Three checks are offered:

* user privacy: the requested index vs one node's view
  (query, answer, share, shared randomness), per node;
* database privacy: the non-requested files vs the user's view
  (all answers, the query scheme, the requested index);
* correctness: the decoder returns the requested file at every point.

Both privacy verdicts are exact certificates that need no cross
product.  Every index sweeps the same universe, so the index is uniform
and user privacy holds iff the per-index count tables are equal.  Those
tables are counted on the (mask, database) grid alone: S is a digit of
the node's view and, for a fixed S, each answer symbol (ip + blind[S])
mod q is a bijection of the mask side ip, so the per-index view tables
are equal iff the per-index (query, ip, share) tables are.  Database
privacy is counted on the same grid, once per blinding coset: S is
hidden from the user, and as it sweeps the randomness axis its coded
share blind[S] covers the span V of the blinding equally often, so two
answers in one coset ip + V are seen equally often with every database.
Each cell is keyed by its coset's least member, a subset of the full
view keys in the same order.  Every database is enumerated, so the other
files are uniform and database privacy holds iff each view is seen with
every value of them, all with one count; the first view cell that is
not names the witness (``_short_block``).  Decoding is linear, so
correctness decodes the two sides apart into (ip_w[u, c] + blind_w[S])
mod q, right everywhere iff blind_w is one value b over S (checked once)
and ip_w is (file - b) mod q on the grid.  No check sweeps the
randomness axis.  A witness is the first broken cell among the keys
already counted, and its counts are scaled back to the full (mask,
database, randomness) grid.

Enumeration is vectorized in chunks for speed, but every audit run
re-derives 32 sampled points, with every index, through the served round
(a fresh ``network.SimNetwork`` per point at the audited params) and
insists they agree, so the fast path cannot drift from the audited
implementation.  Universes above the ceiling fall back to a seeded Monte
Carlo mode reported as statistical (chi-square screen), never as exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import fields, network, protocol
from .errors import DecodeFailure, InvalidParams, UniverseTooLarge
from .protocol import CommonRandomness, GeneratorMatrix, unit_mask
from .storage import Database, StorageParams

DEFAULT_UNIVERSE_CEILING = 1 << 24
MC_SIGNIFICANCE = 1e-6
AUDIT_SEED_DOMAIN = 4

_CHUNK_TARGET = 1 << 22  # max elements per (mask, db, randomness) plane
_SELFCHECK_POINTS = 32  # per-run cross-validation against the scalar protocol path
_KEY_BITS = 62

RANDOMNESS_MODES = ("full", "zeroed", "partial")


def enumerate_assignments(q: int, digits: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop`` of the lexicographic enumeration of F_q^digits."""
    return _digit_rows(np.arange(start, stop, dtype=np.int64), q, digits)


def _digit_rows(ids, q: int, digits: int) -> np.ndarray:
    """Base-q digit rows of ``ids`` (first digit most significant): the
    inverse of ``pack_digits`` for ids below q**digits."""
    ids = np.array(ids, dtype=np.int64)
    out = np.empty(ids.shape + (digits,), dtype=np.int64)
    for pos in range(digits - 1, -1, -1):
        out[..., pos] = ids % q
        ids //= q
    return out


def pack_digits(rows: np.ndarray, q: int) -> np.ndarray:
    """Fold base-q digit rows into integers (first digit most significant).

    Raises UniverseTooLarge when the packed values could leave int64.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if q ** rows.shape[-1] >= 1 << 63:
        raise UniverseTooLarge(f"{rows.shape[-1]} base-{q} digits do not pack into int64")
    out = np.zeros(rows.shape[:-1], dtype=np.int64)
    for pos in range(rows.shape[-1]):
        out = out * q + rows[..., pos]
    return out


def unpack_digits(value: int, q: int, digits: int) -> list[int]:
    return _digit_rows(value, q, digits).tolist()


@dataclass(frozen=True)
class Universe:
    """The enumerated probability space of one audit.

    ``randomness_mode`` shrinks the shared-randomness axis (the leakage
    experiment), ``mask_mode='zeroed'`` removes the user's masks (the
    deliberately broken scheme used to show the auditor catches leaks).
    """

    params: StorageParams
    randomness_mode: str = "full"
    partial_count: Optional[int] = None
    mask_mode: str = "full"

    def __post_init__(self):
        if self.randomness_mode not in RANDOMNESS_MODES:
            raise InvalidParams(f"unknown randomness mode {self.randomness_mode!r}")
        if self.randomness_mode == "partial":
            if self.partial_count is None or not 0 <= self.partial_count <= self.s_digits:
                raise InvalidParams(
                    f"partial mode needs a count in [0, {self.s_digits}], got {self.partial_count}"
                )
        if self.mask_mode not in ("full", "zeroed"):
            raise InvalidParams(f"unknown mask mode {self.mask_mode!r}")

    @property
    def db_digits(self) -> int:
        return self.params.k * self.params.file_len

    @property
    def u_digits(self) -> int:
        return self.params.stripes * self.params.m * self.params.query_len

    @property
    def s_digits(self) -> int:
        return self.params.stripes * self.params.m * self.params.m

    @property
    def s_free(self) -> int:
        if self.randomness_mode == "full":
            return self.s_digits
        if self.randomness_mode == "zeroed":
            return 0
        return self.partial_count

    @property
    def u_free(self) -> int:
        return self.u_digits if self.mask_mode == "full" else 0

    @property
    def n_db(self) -> int:
        return self.params.q ** self.db_digits

    @property
    def n_u(self) -> int:
        return self.params.q ** self.u_free

    @property
    def n_s(self) -> int:
        return self.params.q ** self.s_free

    @property
    def exponent(self) -> int:
        """Free q-ary digits of a point: the size is q ** exponent."""
        return self.db_digits + self.u_free + self.s_free

    @property
    def size(self) -> int:
        return self.params.q ** self.exponent

    def exceeds(self, ceiling: int) -> bool:
        # q >= 2, so size >= 2**exponent > ceiling once the exponent passes
        # the ceiling's bit length; no power is formed for a huge universe
        return self.exponent > ceiling.bit_length() or self.size > ceiling

    def require_within(self, ceiling: int):
        if self.exceeds(ceiling):
            huge = self.exponent > ceiling.bit_length()
            shown = f"{self.params.q}**{self.exponent}" if huge else self.size
            raise UniverseTooLarge(
                f"universe has {shown} points, ceiling is {ceiling}; "
                "rerun with a Monte Carlo sample budget for a statistical check"
            )

    def u_rows(self) -> np.ndarray:
        if self.mask_mode == "zeroed":
            return np.zeros((1, self.u_digits), dtype=np.int64)
        return enumerate_assignments(self.params.q, self.u_digits, 0, self.n_u)

    def s_rows(self) -> np.ndarray:
        """All shared-randomness assignments; fixed digits are zero."""
        rows = np.zeros((self.n_s, self.s_digits), dtype=np.int64)
        if self.s_free:
            rows[:, : self.s_free] = enumerate_assignments(self.params.q, self.s_free, 0, self.n_s)
        return rows

    def db_row_chunks(self, max_rows: int) -> Iterator[tuple[int, np.ndarray]]:
        for start in range(0, self.n_db, max_rows):
            stop = min(start + max_rows, self.n_db)
            yield start, enumerate_assignments(self.params.q, self.db_digits, start, stop)


@dataclass
class DistributionCounter:
    """Integer joint/marginal tables with an exact independence test.

    This is the reference engine: the vectorized sweeps below implement
    the same product rule on arrays and are checked against it in tests.
    """

    joint: dict = field(default_factory=dict)
    left: dict = field(default_factory=dict)
    right: dict = field(default_factory=dict)
    total: int = 0

    def add(self, x, y, count: int = 1):
        self.joint[(x, y)] = self.joint.get((x, y), 0) + count
        self.left[x] = self.left.get(x, 0) + count
        self.right[y] = self.right.get(y, 0) + count
        self.total += count

    def check_independent(self) -> tuple[bool, Optional[tuple]]:
        """Exact product-rule test; returns (verdict, violating cell or None).

        Observed cells are cross-multiplied directly.  A structural zero
        (x seen, y seen, pair never seen) also violates the rule, and is
        detected by each x's support failing to cover the whole right
        mass, which avoids the full |X| x |Y| sweep.
        """
        support_mass: dict = {}
        for (x, y), c in self.joint.items():
            if c * self.total != self.left[x] * self.right[y]:
                return False, (x, y)
            support_mass[x] = support_mass.get(x, 0) + self.right[y]
        for x, mass in support_mass.items():
            if mass != self.total:
                seen = {y for (xx, y) in self.joint if xx == x}
                missing = next(y for y in self.right if y not in seen)
                return False, (x, missing)
        return True, None


@dataclass(frozen=True)
class IndependenceCheck:
    """Verdict of one independence (or correctness) question."""

    name: str
    independent: bool
    exact: bool
    universe_size: int
    witness: Optional[dict] = None
    conditional_equal: Optional[bool] = None
    p_value: Optional[float] = None


@dataclass(frozen=True)
class AuditReport:
    """All verdicts of one audit invocation."""

    params: StorageParams
    randomness_mode: str
    checks: tuple[IndependenceCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.independent for c in self.checks)

    def failed_checks(self) -> list[IndependenceCheck]:
        return [c for c in self.checks if not c.independent]


# ---------------------------------------------------------------------------
# Vectorized count tables
# ---------------------------------------------------------------------------

def _merge_runs(parts: list[tuple[np.ndarray, np.ndarray]]):
    """Merge sorted (values, counts) tables into sorted distinct values and
    summed counts; ``where`` gives each input entry's merged position."""
    vals = np.concatenate([v for v, _ in parts])
    order = np.argsort(vals, kind="stable")  # parts are sorted runs: a merge
    vals = vals[order]
    new_run = np.concatenate(([True], vals[1:] != vals[:-1]))
    starts = np.flatnonzero(new_run)
    counts = np.concatenate([c for _, c in parts])[order]
    where = np.empty(len(vals), dtype=np.int64)
    where[order] = np.cumsum(new_run) - 1
    return vals[starts], np.add.reduceat(counts, starts), where


def merge_count_tables(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge (values, counts) tables from disjoint partitions.

    Associative and commutative, so chunked sweeps can count partitions
    separately and combine; counts for repeated values are summed.
    """
    if len(parts) == 1:
        return parts[0]
    vals, counts, _ = _merge_runs(parts)
    return vals, counts


def _require_key_bits(*radixes: int):
    """Refuse a view tuple whose packed key, one digit per radix, could
    leave the exact-mode budget of ``_KEY_BITS`` bits."""
    bits = sum(int(np.ceil(np.log2(max(2, r)))) for r in radixes)
    if bits > _KEY_BITS:
        raise UniverseTooLarge(f"view tuple needs {bits} packed bits; exceeds exact-mode budget")


class Violation(NamedTuple):
    """A cell (x, y) that breaks the product rule, with its four counts."""

    x: int
    y: int
    joint: int
    left: int
    right: int
    total: int

    def counts(self) -> dict:
        return {"joint": self.joint, "left": self.left, "right": self.right, "total": self.total}


def _short_block(keys: np.ndarray, counts: np.ndarray, right_radix: int) -> Optional[Violation]:
    """The first packed (left*right_radix + right) cell whose count times
    ``right_radix`` is not its left value's count, or None.

    ``keys`` are sorted and distinct, so each left value x is one run.
    None certifies the product rule on any table: every cell of x then
    holds left(x) / right_radix, so x is seen with all right_radix values,
    each with that count, and right = total / right_radix everywhere.  On
    a uniform right marginal, as for the enumerated W̄, right = total /
    right_radix for every value, so the product rule at a cell reads
    count * right_radix == left(x): the named cell is the first that
    breaks it, with its four counts.
    """
    if int(counts.max()) * right_radix >= 1 << 63:
        raise UniverseTooLarge(f"count products exceed int64 exact arithmetic (radix {right_radix})")
    left_keys = keys // right_radix
    starts = np.flatnonzero(np.concatenate(([True], left_keys[1:] != left_keys[:-1])))
    left = np.repeat(np.add.reduceat(counts, starts), np.diff(starts, append=len(keys)))
    bad = counts * right_radix != left
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    total = int(counts.sum())
    x, y = divmod(int(keys[i]), right_radix)
    return Violation(x, y, int(counts[i]), int(left[i]), total // right_radix, total)


# ---------------------------------------------------------------------------
# Batched enumeration context
# ---------------------------------------------------------------------------

def _table_rows(rows: np.ndarray, q: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """What a per-row table of (R, J) digit rows is built over: all q^J
    words, indexed by each row's packed word, when that alphabet is no
    larger than R; else the rows themselves, with no index."""
    digits = rows.shape[-1]
    if q ** digits <= rows.shape[0]:
        return enumerate_assignments(q, digits, 0, q ** digits), pack_digits(rows, q)
    return rows, None


class _BatchContext:
    """Precomputed tables for sweeping the universe in vectorized chunks.

    Every answer digit splits into a mask side and a randomness side: at
    grid point (mask u, database c, randomness s) the answer of (node,
    stripe, vector t) is ``(ip[u, c] + blind[s]) % q``, where ``ip`` is the
    inner product of the query (mask plus unit) with the node's share and
    ``blind`` the node's coded share of S.  Mask rows, randomness rows,
    blinding digits and packed per-node queries are derived once;
    database rows stream through in chunks.
    """

    def __init__(self, params: StorageParams, g: GeneratorMatrix, universe: Universe):
        self.params = params
        self.g = g
        self.universe = universe
        self.q = params.q
        self.u_rows = universe.u_rows()
        self.s_rows = universe.s_rows()
        self.n_u = self.u_rows.shape[0]
        self.n_s = self.s_rows.shape[0]
        self.a_digits_node = params.stripes * params.m
        self.a_digits_all = params.n * self.a_digits_node
        self.u_mats = self.u_rows.reshape(self.n_u, params.stripes, params.m, params.query_len)

        # blind[s_idx, node0, stripe, t0]
        s_mats = self.s_rows.reshape(self.n_s, params.stripes, params.m, params.m)
        self.blind = np.einsum("xsit,in->xnst", s_mats, g.array) % self.q

        # packed per-node query values, per theta: (k, n, n_u)
        self.qpack = np.empty((params.k, params.n, self.n_u), dtype=np.int64)
        for theta in range(1, params.k + 1):
            for node in range(1, params.n + 1):
                mask = unit_mask(params, theta, node)
                qdig = (self.u_mats + mask[None, None, :, :]) % self.q
                self.qpack[theta - 1, node - 1] = pack_digits(
                    qdig.reshape(self.n_u, universe.u_digits), self.q
                )
        self._chunk_rows = max(1, _CHUNK_TARGET // max(1, self.n_u * self.n_s))

    def db_chunks(self) -> Iterator[dict]:
        for _, rows in self.universe.db_row_chunks(self._chunk_rows):
            yield self.chunk(rows)

    def chunk(self, rows: np.ndarray) -> dict:
        """Files, node shares and theta-free mask products of database rows."""
        p = self.params
        c = rows.shape[0]
        files = rows.reshape(c, p.k, p.file_rows, p.m)
        # slot order: stripe-major, file-major, row-minor (node layout)
        slots = (
            files.reshape(c, p.k, p.stripes, p.rows_per_stripe, p.m)
            .transpose(0, 2, 1, 3, 4)
            .reshape(c * p.node_len, p.m)
        )
        shares = (slots @ self.g.array) % self.q  # (c*node_len, n)
        data = shares.reshape(c, p.stripes, p.query_len, p.n).transpose(3, 0, 1, 2)
        mask_ip = np.empty((self.n_u, c, p.n, p.stripes, p.m), dtype=np.int64)
        for stripe in range(p.stripes):
            masks = self.u_mats[:, stripe].reshape(self.n_u * p.m, p.query_len)
            prod = masks @ data[:, :, stripe].reshape(p.n * c, p.query_len).T
            mask_ip[:, :, :, stripe] = (
                (prod % self.q).reshape(self.n_u, p.m, p.n, c).transpose(0, 3, 2, 1)
            )
        return {"count": c, "files": files, "data": data, "mask_ip": mask_ip}

    def answer_parts(self, chunk: dict, theta: int) -> np.ndarray:
        """Mask side ``ip`` (n_u, c, n, stripes, m) of every answer digit for
        index theta; the randomness side is ``self.blind``."""
        node0, t0, row0 = protocol._unit_positions(self.params)
        col = (theta - 1) * self.params.rows_per_stripe + row0
        units = chunk["data"][node0, :, :, col]  # (units, c, stripes)
        ip = chunk["mask_ip"].copy()
        ip[:, :, node0, :, t0] = (ip[:, :, node0, :, t0] + units[:, None]) % self.q
        return ip

    def selfcheck(self, seed: int = 0):
        """Re-derive sampled grid points through the served round.

        Each point gets its own SimNetwork at the audited params and each
        (point, index) its own gen_queries and exchange; then, per index,
        raises unless all served queries and answers equal the batched
        ones.  The sampled databases form one chunk, which goes through the
        same batched path as a sweep.  Nothing is decoded here, so a wrong
        decoder reaches the correctness verdict instead of raising.
        """
        p = self.params
        rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
        n_pts = min(_SELFCHECK_POINTS, self.universe.n_db * self.n_u * self.n_s)
        db_ids = rng.integers(0, self.universe.n_db, size=n_pts)
        u_ids = rng.integers(0, self.n_u, size=n_pts)
        s_ids = rng.integers(0, self.n_s, size=n_pts)
        chunk = self.chunk(_digit_rows(db_ids, self.q, self.universe.db_digits))
        served = []  # (queries, answers) as served, point-major, index-minor
        for i, (u_i, s_i) in enumerate(zip(u_ids, s_ids)):
            net, u_val = _point_network(p, self.g, chunk["files"][i], self.u_rows[u_i], self.s_rows[s_i])
            for theta in range(1, p.k + 1):
                qs = protocol.gen_queries(p, self.g, theta, u_override=u_val)
                served.append((qs.per_node, net.exchange(qs).per_node))
        for theta in range(1, p.k + 1):
            queries, answers = map(np.stack, zip(*served[theta - 1 :: p.k]))
            queries = queries.reshape(n_pts, p.n, self.universe.u_digits)
            if not np.array_equal(pack_digits(queries, self.q), self.qpack[theta - 1][:, u_ids].T):
                raise AssertionError("batched query pack disagrees with gen_queries")
            ip = self.answer_parts(chunk, theta)
            if not np.array_equal(answers, (ip[u_ids, np.arange(n_pts)] + self.blind[s_ids]) % self.q):
                raise AssertionError("batched answers disagree with gen_answer")


def _point_network(params: StorageParams, g: GeneratorMatrix, files, u_row, s_row):
    """The network on one universe point's database and shared randomness,
    and the point's masks shaped for ``gen_queries``."""
    db = Database(params, np.reshape(files, (params.k, params.file_rows, params.m)))
    s = CommonRandomness(s_row.reshape(params.stripes, params.m, params.m))
    net = network.SimNetwork(params, db, g, randomness=s)
    return net, u_row.reshape(params.stripes, params.m, params.query_len)


# ---------------------------------------------------------------------------
# Exact audits
# ---------------------------------------------------------------------------

def audit_user_privacy(
    params: StorageParams,
    g: GeneratorMatrix,
    *,
    ceiling: int = DEFAULT_UNIVERSE_CEILING,
    mask_mode: str = "full",
    samples: Optional[int] = None,
    seed: int = 0,
) -> AuditReport:
    """Per node: is the index independent of (query, answer, share, S)?

    The index is modeled uniform; the report carries both the exact
    product-rule verdict and the per-index conditional-table comparison,
    which agree by construction.
    """
    require_samples(samples)
    universe = Universe(params, mask_mode=mask_mode)
    if universe.exceeds(ceiling):
        if samples is None:
            universe.require_within(ceiling)
        return _mc_user_privacy(params, g, universe, samples, seed)
    ctx = _BatchContext(params, g, universe)
    ctx.selfcheck(seed)
    q = params.q
    d_digits = params.node_len
    _require_key_bits(q ** universe.u_digits, q ** ctx.a_digits_node, q ** d_digits)
    a_radix = q ** ctx.a_digits_node
    d_radix = q ** d_digits
    # parts[node0][theta-1]: one (values, counts) table per chunk
    parts = [[[] for _ in range(params.k)] for _ in range(params.n)]
    for chunk in ctx.db_chunks():
        c = chunk["count"]
        dpack = pack_digits(chunk["data"].reshape(params.n, c, d_digits), q)  # (n, c)
        for theta in range(1, params.k + 1):
            ip = ctx.answer_parts(chunk, theta)
            for node0 in range(params.n):
                # grid key (query*a_radix + ip)*d_radix + share over (u, c)
                key = pack_digits(ip[:, :, node0].reshape(ctx.n_u, c, -1), q)
                key += ctx.qpack[theta - 1, node0][:, None] * a_radix
                key *= d_radix
                key += dpack[node0]
                parts[node0][theta - 1].append(np.unique(key.ravel(), return_counts=True))
    checks = []
    for node in range(1, params.n + 1):
        tables = [merge_count_tables(t) for t in parts[node - 1]]
        (vals, counts), *rest = tables
        # S is a view digit and, for fixed s, answer = (ip + blind[s]) % q is
        # a bijection of ip, so the per-theta view tables are equal iff these
        # grid tables are; theta is uniform, so that certifies the product
        # rule, and the witness is read off the same tables
        conditional = all(np.array_equal(v, vals) and np.array_equal(t, counts) for v, t in rest)
        checks.append(
            IndependenceCheck(
                name=f"user_privacy_node_{node}",
                independent=conditional,
                exact=True,
                universe_size=universe.size,
                witness=None if conditional else _user_witness(ctx, tables, node),
                conditional_equal=conditional,
            )
        )
    return AuditReport(params, universe.randomness_mode, tuple(checks))


def _user_witness(ctx: _BatchContext, tables: list, node: int) -> dict:
    """The first cell of the node's view (query, answer, share, S), in
    (theta, view key) order, that breaks the product rule.

    ``tables`` are the per-theta grid tables of (query, ip, share).  For a
    fixed s the view cell (query, (ip + blind[s]) % q, share, s) is seen as
    often as its grid cell, so it breaks the rule (theta is uniform: k *
    count != right) exactly when the grid cell does.
    """
    p = ctx.params
    q = ctx.q
    a_radix = q ** ctx.a_digits_node
    d_radix = q ** p.node_len
    _, right, where = _merge_runs(tables)
    cuts = np.cumsum([len(vals) for vals, _ in tables])[:-1]
    for theta, ((vals, counts), idx) in enumerate(zip(tables, np.split(where, cuts)), 1):
        rc = right[idx]
        bad = counts * p.k != rc
        if bad.any():
            break
    query = vals // (a_radix * d_radix)
    mine = bad & (query == query[bad][0])  # keys are sorted: the least query
    left = int(counts.sum()) * ctx.n_s
    counts, rc = counts[mine], rc[mine]
    ip = vals[mine] // d_radix % a_radix
    share = vals[mine] % d_radix
    # a broken cell's least answer is the least member of its coset ip + V
    blind = ctx.blind[:, node - 1].reshape(ctx.n_s, -1)
    answers = _coset_keys(_digit_rows(ip, q, ctx.a_digits_node), *_blinding_span(ctx, blind), q)
    tied = answers == answers.min()
    tied &= share == share[tied].min()
    answer = unpack_digits(int(answers[tied][0]), q, ctx.a_digits_node)
    # the least s that turns the mask side of a tied cell into the answer
    ip_of_s = pack_digits((np.array(answer) - blind) % q, q)
    s_idx = int(np.argmax(np.isin(ip_of_s, ip[tied])))
    i = int(np.flatnonzero(tied & (ip == ip_of_s[s_idx]))[0])
    return {
        "theta": theta,
        "node": node,
        "query": unpack_digits(int(query[mine][0]), q, ctx.universe.u_digits),
        "answers": answer,
        "node_data": unpack_digits(int(share[i]), q, p.node_len),
        "shared_randomness": ctx.s_rows[s_idx].tolist(),
        "counts": {"joint": int(counts[i]), "left": left, "right": int(rc[i]), "total": p.k * left},
    }


def audit_db_privacy(
    params: StorageParams,
    g: GeneratorMatrix,
    *,
    randomness_mode: str = "full",
    partial_count: Optional[int] = None,
    ceiling: int = DEFAULT_UNIVERSE_CEILING,
    samples: Optional[int] = None,
    seed: int = 0,
) -> AuditReport:
    """Are the non-requested files independent of the user's whole view?

    The view is (all answers, the query scheme, the requested index); the
    masks determine the complete query scheme (every node receives some
    plain mask vector, so the map between them is a bijection) and stand
    in for it in the counted tuple.
    """
    require_samples(samples)
    universe = Universe(params, randomness_mode=randomness_mode, partial_count=partial_count)
    if universe.exceeds(ceiling):
        if samples is None:
            universe.require_within(ceiling)
        return _mc_db_privacy(params, g, universe, samples, seed, ceiling)
    ctx = _BatchContext(params, g, universe)
    ctx.selfcheck(seed)
    q = params.q
    wbar_digits = (params.k - 1) * params.file_len
    _require_key_bits(q ** ctx.a_digits_all, ctx.n_u, params.k, q ** wbar_digits)
    w_radix = q ** wbar_digits
    # the generator has full row rank, so as s sweeps the randomness rows
    # blind[s] hits each point of the blinding span V once: each (u, c) cell
    # is seen once with every answer of its coset ip + V (module docstring)
    basis, pivots = _blinding_span(ctx, ctx.blind.reshape(ctx.n_s, -1))
    u_ids = np.arange(ctx.n_u, dtype=np.int64)[:, None]
    parts = []
    for chunk in ctx.db_chunks():
        c = chunk["count"]
        # theta is a key digit, so the per-theta key sets are disjoint and
        # one count over all of them needs no merge
        key = np.empty((params.k, ctx.n_u, c), dtype=np.int64)
        for theta in range(1, params.k + 1):
            ip = ctx.answer_parts(chunk, theta)
            apack = _coset_keys(ip.reshape(ctx.n_u, c, -1), basis, pivots, q)
            others = np.delete(chunk["files"], theta - 1, axis=1).reshape(c, wbar_digits)
            wbar = pack_digits(others, q)  # (c,)
            # view key ((answer*n_u + u)*k + theta-1)*w_radix + wbar
            np.multiply(apack, ctx.n_u * params.k * w_radix, out=key[theta - 1])
            key[theta - 1] += (u_ids * params.k + (theta - 1)) * w_radix + wbar
        parts.append(np.unique(key.ravel(), return_counts=True))
    keys, counts = merge_count_tables(parts)
    cell = _short_block(keys, counts, w_radix)
    if cell is not None:  # the cell's counts over the full (u, c, s) grid
        cell = cell._replace(right=cell.right * ctx.n_s, total=cell.total * ctx.n_s)
    check = IndependenceCheck(
        name="db_privacy",
        independent=cell is None,
        exact=True,
        universe_size=universe.size,
        witness=None if cell is None else _db_witness(ctx, cell, wbar_digits),
    )
    return AuditReport(params, universe.randomness_mode, (check,))


def _blinding_span(ctx: _BatchContext, blind: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduced basis of the blinding span V and its pivot columns.

    V holds the randomness sides ``blind[s]`` of answers: ``blind`` is
    (n_s, J), all nodes' columns or one node's.  The randomness rows are a
    coordinate subspace and ``blind`` is linear in s, so V is spanned by
    the images of the free unit vectors.
    """
    free = ctx.universe.s_free
    units = blind[ctx.q ** np.arange(free - 1, -1, -1)]  # rows of the unit vectors
    basis, pivots = fields.rref(units, ctx.q)
    return basis[: len(pivots)], pivots


def _coset_keys(rows: np.ndarray, basis: np.ndarray, pivots: list[int], q: int) -> np.ndarray:
    """Packed lexicographically least member of each coset ``row + V``.

    ``rows`` is (..., J) and ``basis`` V's reduced row-echelon basis, so
    ``row - row[pivots] @ basis`` is zero at the pivots: any other member
    of the coset is larger at its first nonzero coefficient's pivot and
    equal before it.  Packing keeps that order, the first digit being the
    most significant.  The reduction runs over ``_table_rows``.
    """
    words, index = _table_rows(rows.reshape(-1, rows.shape[-1]), q)
    keys = pack_digits((words - words[:, pivots] @ basis) % q, q)
    return (keys if index is None else keys[index]).reshape(rows.shape[:-1])


def _db_witness(ctx: _BatchContext, cell: Violation, wbar_digits: int) -> dict:
    p = ctx.params
    q = p.q
    rest = cell.x
    theta = int(rest % p.k) + 1
    rest //= p.k
    u_idx = int(rest % ctx.n_u)
    a_val = int(rest // ctx.n_u)
    return {
        "theta": theta,
        "answers": unpack_digits(a_val, q, ctx.a_digits_all),
        "masks": ctx.u_rows[u_idx].tolist(),
        "other_files": unpack_digits(cell.y, q, wbar_digits),
        "counts": cell.counts(),
    }


def leak_experiment(
    params: StorageParams,
    g: GeneratorMatrix,
    randomness_mode: str,
    *,
    partial_count: Optional[int] = None,
    ceiling: int = DEFAULT_UNIVERSE_CEILING,
    samples: Optional[int] = None,
    seed: int = 0,
) -> AuditReport:
    """Database-privacy audit with the shared randomness curtailed.

    ``full`` reproduces the ordinary audit; ``zeroed`` removes the
    blinding entirely (the product rule must then fail); ``partial``
    leaves only the first ``partial_count`` symbols random.  Decoding is
    unaffected by the mode; the blinding cancels out of the solve.
    """
    return audit_db_privacy(
        params,
        g,
        randomness_mode=randomness_mode,
        partial_count=partial_count,
        ceiling=ceiling,
        samples=samples,
        seed=seed,
    )


def audit_correctness(
    params: StorageParams,
    g: GeneratorMatrix,
    *,
    ceiling: int = DEFAULT_UNIVERSE_CEILING,
) -> bool:
    """True iff decoding returns the requested file at every universe
    point, for every requested index."""
    universe = Universe(params)
    universe.require_within(ceiling)
    ctx = _BatchContext(params, g, universe)
    ctx.selfcheck()
    q = params.q
    eqs = params.n * params.m
    inv = protocol.decode_matrix_inverse(params, g)
    w_rows = inv[params.m * params.m :, :]  # ((n-m)*m, n*m) per stripe
    # decoding is linear, so it maps the two sides of each answer apart;
    # both sides are reduced, so the n*m-term sums stay inside int64
    blind = ctx.blind.transpose(0, 2, 1, 3).reshape(ctx.n_s, params.stripes, eqs)
    blind_w = (blind @ w_rows.T) % q  # (n_s, stripes, w_pos)
    # right at every (u, c, s) iff the blinding cancels, blind_w[s] == b for
    # every s, and ip_w, itself reduced, is (file - b) % q at every (u, c)
    if not (blind_w == blind_w[0]).all():
        return False
    for chunk in ctx.db_chunks():
        c = chunk["count"]
        for theta in range(1, params.k + 1):
            ip = ctx.answer_parts(chunk, theta)
            ip = ip.transpose(0, 1, 3, 2, 4).reshape(ctx.n_u, c, params.stripes, eqs)
            ip_w = (ip @ w_rows.T) % q  # (n_u, c, stripes, w_pos)
            expected = chunk["files"][:, theta - 1].reshape(c, params.stripes, -1)
            if not (ip_w == (expected - blind_w[0]) % q).all():
                return False
    return True


# ---------------------------------------------------------------------------
# Monte Carlo fallback (statistical, never exact)
# ---------------------------------------------------------------------------

def mc_correctness(
    params: StorageParams,
    g: GeneratorMatrix,
    samples: int,
    seed: int = 0,
) -> bool:
    """Sampled rounds for universes beyond the exact ceiling: False as
    soon as one sampled point fails to decode some requested file."""
    require_samples(samples)
    for net, u_val in _mc_networks(g, Universe(params), samples, seed):
        for theta in range(1, params.k + 1):
            try:
                net.serve(protocol.gen_queries(params, g, theta, u_override=u_val))
            except DecodeFailure:
                return False
    return True


def require_samples(samples: Optional[int]):
    """Reject a Monte Carlo sample count below 1, whose verdict would be vacuous."""
    if samples is not None and samples < 1:
        raise InvalidParams(f"a Monte Carlo audit needs at least one sample, got {samples}")


def _mc_networks(g: GeneratorMatrix, universe: Universe, samples: int, seed: int):
    """Seeded uniform universe points, each as its network and masks
    (see ``_point_network``)."""
    p = universe.params
    if samples * (universe.db_digits + universe.u_digits + universe.s_digits) * 8 >= 1 << 63:
        raise UniverseTooLarge(f"{samples} sampled points exceed 2**63 bytes of int64 digits")
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
    q = p.q
    db = rng.integers(0, q, size=(samples, universe.db_digits), dtype=np.int64)
    if universe.mask_mode == "zeroed":
        u = np.zeros((samples, universe.u_digits), dtype=np.int64)
    else:
        u = rng.integers(0, q, size=(samples, universe.u_digits), dtype=np.int64)
    s = np.zeros((samples, universe.s_digits), dtype=np.int64)
    if universe.s_free:
        s[:, : universe.s_free] = rng.integers(0, q, size=(samples, universe.s_free), dtype=np.int64)
    for point in zip(db, u, s):
        yield _point_network(p, g, *point)


def _chi2_p(counter: DistributionCounter) -> float:
    """Chi-square p-value for one contingency table."""
    # scipy.stats is about a second of start-up; only this screen needs it
    from scipy.stats import chi2

    n = counter.total
    stat = 0.0
    observed_e = 0.0
    for (x, y), o in counter.joint.items():
        e = counter.left[x] * counter.right[y] / n
        stat += (o - e) ** 2 / e
        observed_e += e
    # cells never observed contribute their expectation
    stat += n - observed_e
    dof = max(1, (len(counter.left) - 1) * (len(counter.right) - 1))
    return float(chi2.sf(stat, dof))


def _chi2_flag(
    tables: Iterable[tuple[str, DistributionCounter]],
) -> tuple[bool, float, Optional[str]]:
    """Chi-square screen over a family of view projections.

    The full view tuple is nearly unique per sample on large alphabets,
    where the chi-square statistic has no power; dependence surfacing in
    any deterministic projection of the view implies dependence in the
    joint, so every projection is screened and the smallest p decides.
    Still a screen, not a verdict; hence always labeled statistical.
    """
    worst_p = 1.0
    worst_name = None
    for name, counter in tables:
        p = _chi2_p(counter)
        if p < worst_p:
            worst_p, worst_name = p, name
    ok = worst_p >= MC_SIGNIFICANCE
    return ok, worst_p, (None if ok else worst_name)


def _mc_user_privacy(params, g, universe, samples, seed) -> AuditReport:
    projections = ("view", "query", "answer", "share", "randomness")
    tables = [{name: DistributionCounter() for name in projections} for _ in range(params.n)]
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed, 1])
    thetas = rng.integers(1, params.k + 1, size=samples)
    for theta, (net, u_val) in zip(thetas.tolist(), _mc_networks(g, universe, samples, seed)):
        qs = protocol.gen_queries(params, g, theta, u_override=u_val)
        answers = net.exchange(qs).per_node
        # byte views of int64 digit arrays: exact keys at any length
        s_key = net.nodes[0].randomness.values.tobytes()
        for node in range(1, params.n + 1):
            q_key = qs.node_query(node).tobytes()
            a_key = answers[node - 1].tobytes()
            d_key = net.nodes[node - 1].data.values.tobytes()
            t = tables[node - 1]
            t["view"].add(theta, (q_key, a_key, d_key, s_key))
            t["query"].add(theta, q_key)
            t["answer"].add(theta, a_key)
            t["share"].add(theta, d_key)
            t["randomness"].add(theta, s_key)
    checks = []
    for node in range(1, params.n + 1):
        ok, p_value, culprit = _chi2_flag(tables[node - 1].items())
        witness = None if ok else {"projection": culprit, "p_value": p_value}
        checks.append(
            IndependenceCheck(
                name=f"user_privacy_node_{node}",
                independent=ok,
                exact=False,
                universe_size=samples,
                witness=witness,
                p_value=p_value,
            )
        )
    return AuditReport(params, universe.randomness_mode, tuple(checks))


def _mc_db_privacy(params, g, universe, samples, seed, ceiling) -> AuditReport:
    wbar_digits = (params.k - 1) * params.file_len
    # one table per (answer digit, other-file digit) pair, fed once per
    # sample: refuse before building any when that work passes the ceiling,
    # never below the default, as a tiny ceiling is how a screen is forced
    pairs = params.n * params.stripes * params.m * wbar_digits
    budget = max(ceiling, DEFAULT_UNIVERSE_CEILING)
    if pairs * samples > budget:
        raise UniverseTooLarge(
            f"Monte Carlo database screen needs {pairs} pairwise tables x {samples} samples, "
            f"ceiling is {budget}"
        )
    view = DistributionCounter()
    answers, others = [], []
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed, 2])
    thetas = rng.integers(1, params.k + 1, size=samples)
    for theta, (net, u_val) in zip(thetas.tolist(), _mc_networks(g, universe, samples, seed)):
        a_digits = net.exchange(protocol.gen_queries(params, g, theta, u_override=u_val)).per_node.ravel()
        other = np.delete(net.db.files, theta - 1, axis=0).ravel()
        view.add((theta, a_digits.tobytes(), u_val.tobytes()), other.tobytes())
        answers.append(a_digits)
        others.append(other)

    def tables():
        # built and screened one at a time, so only one pairwise table is held
        yield "view", view
        w_cols = np.array(others).T.tolist()
        for pos, a_col in enumerate(np.array(answers).T.tolist()):
            for w_pos, w_col in enumerate(w_cols):
                counter = DistributionCounter()
                for a_val, w_val in zip(a_col, w_col):
                    counter.add(a_val, w_val)
                yield f"answer_{pos}_vs_other_{w_pos}", counter

    ok, p_value, culprit = _chi2_flag(tables())
    witness = None if ok else {"projection": culprit, "p_value": p_value}
    check = IndependenceCheck(
        name="db_privacy",
        independent=ok,
        exact=False,
        universe_size=samples,
        witness=witness,
        p_value=p_value,
    )
    return AuditReport(params, universe.randomness_mode, (check,))
