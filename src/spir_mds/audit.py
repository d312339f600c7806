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

Enumeration is vectorized in chunks for speed, but every audit run
re-derives a sample of its batched transcripts through the ordinary
single-call protocol functions and insists they agree, so the fast path
cannot drift from the audited implementation.  Universes above the
ceiling fall back to a seeded Monte Carlo mode that is reported as
statistical (chi-square screen), never as exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
from scipy.stats import chi2

from . import protocol, storage
from .errors import InvalidParams, UniverseTooLarge
from .protocol import CommonRandomness, GeneratorMatrix, make_query_plan, unit_mask
from .storage import Database, StorageParams

DEFAULT_UNIVERSE_CEILING = 1 << 24
DEFAULT_MC_SAMPLES = 20_000
MC_SIGNIFICANCE = 1e-6
AUDIT_SEED_DOMAIN = 4

_CHUNK_TARGET = 1 << 22  # max elements per (mask, db, randomness) plane
_SELFCHECK_POINTS = 32  # per-run cross-validation against the scalar protocol path
_KEY_BITS = 62

RANDOMNESS_MODES = ("full", "zeroed", "partial")


def enumerate_assignments(q: int, digits: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop`` of the lexicographic enumeration of F_q^digits."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, digits), dtype=np.int64)
    for pos in range(digits):
        out[:, pos] = (idx // q ** (digits - 1 - pos)) % q
    return out


def pack_digits(rows: np.ndarray, q: int) -> np.ndarray:
    """Fold base-q digit rows into integers (first digit most significant)."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(rows.shape[:-1], dtype=np.int64)
    for pos in range(rows.shape[-1]):
        out = out * q + rows[..., pos]
    return out


def unpack_digits(value: int, q: int, digits: int) -> list[int]:
    out = [0] * digits
    for pos in range(digits - 1, -1, -1):
        out[pos] = value % q
        value //= q
    return out


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
    def size(self) -> int:
        return self.n_db * self.n_u * self.n_s

    def require_within(self, ceiling: int):
        if self.size > ceiling:
            raise UniverseTooLarge(
                f"universe has {self.size} points, ceiling is {ceiling}; "
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
    Partition counts merged with :meth:`merge` equal single-pass counts.
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

    def merge(self, other: "DistributionCounter"):
        for (x, y), c in other.joint.items():
            self.joint[(x, y)] = self.joint.get((x, y), 0) + c
        for x, c in other.left.items():
            self.left[x] = self.left.get(x, 0) + c
        for y, c in other.right.items():
            self.right[y] = self.right.get(y, 0) + c
        self.total += other.total

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
        return all(c.independent and c.conditional_equal is not False for c in self.checks)

    def failed_checks(self) -> list[IndependenceCheck]:
        return [c for c in self.checks if not c.independent or c.conditional_equal is False]


# ---------------------------------------------------------------------------
# Vectorized count tables
# ---------------------------------------------------------------------------

def merge_count_tables(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge (values, counts) tables from disjoint partitions.

    Associative and commutative, so chunked sweeps can count partitions
    separately and combine; counts for repeated values are summed.
    """
    if len(parts) == 1:
        return parts[0]
    vals = np.concatenate([v for v, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    uniq, inverse = np.unique(vals, return_inverse=True)
    out = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(out, inverse, counts)
    return uniq, out


def _guard_products(total: int, max_count: int):
    # all cross products must stay inside int64
    if total * max_count >= 1 << _KEY_BITS:
        raise UniverseTooLarge(
            f"count products exceed {_KEY_BITS}-bit exact arithmetic (total={total})"
        )


def _tables_independent(
    tables: dict[int, tuple[np.ndarray, np.ndarray]]
) -> tuple[bool, Optional[tuple]]:
    """Product-rule check for a small left alphabet (per-label tables).

    Returns (verdict, (x, y) violating cell or None).  Identical rule to
    DistributionCounter.check_independent, computed on arrays.
    """
    right_vals, right_counts = merge_count_tables(list(tables.values()))
    total = int(right_counts.sum())
    _guard_products(total, int(right_counts.max(initial=0)))
    for x, (vals, counts) in tables.items():
        left = int(counts.sum())
        idx = np.searchsorted(right_vals, vals)
        rc = right_counts[idx]
        bad = counts * total != left * rc
        if bad.any():
            i = int(np.argmax(bad))
            return False, (x, int(vals[i]))
        if int(rc.sum()) != total:
            # structural zero: some y never co-occurs with this x
            present = np.zeros(len(right_vals), dtype=bool)
            present[idx] = True
            missing = right_vals[~present][0]
            return False, (x, int(missing))
    return True, None


def _pairs_independent(
    keys: np.ndarray, counts: np.ndarray, right_radix: int
) -> tuple[bool, Optional[tuple]]:
    """Product-rule check for packed (left*right_radix + right) cells."""
    left_keys = keys // right_radix
    right_keys = keys % right_radix
    total = int(counts.sum())
    left_vals, left_inv = np.unique(left_keys, return_inverse=True)
    left_counts = np.zeros(len(left_vals), dtype=np.int64)
    np.add.at(left_counts, left_inv, counts)
    right_vals, right_inv = np.unique(right_keys, return_inverse=True)
    right_counts = np.zeros(len(right_vals), dtype=np.int64)
    np.add.at(right_counts, right_inv, counts)
    _guard_products(total, int(max(left_counts.max(), right_counts.max())))
    bad = counts * total != left_counts[left_inv] * right_counts[right_inv]
    if bad.any():
        i = int(np.argmax(bad))
        return False, (int(left_keys[i]), int(right_keys[i]))
    # structural zeros: keys are sorted, so left groups are contiguous
    starts = np.flatnonzero(np.diff(left_inv, prepend=-1))
    mass = np.add.reduceat(right_counts[right_inv], starts)
    short = np.flatnonzero(mass != total)
    if short.size:
        x = int(left_vals[left_inv[starts[short[0]]]])
        group = right_keys[left_keys == x]
        present = np.isin(right_vals, group)
        y = int(right_vals[~present][0])
        return False, (x, y)
    return True, None


# ---------------------------------------------------------------------------
# Batched enumeration context
# ---------------------------------------------------------------------------

class _BatchContext:
    """Precomputed tables for sweeping the universe in vectorized chunks.

    Mask rows, randomness rows, blinding terms, and packed per-node
    queries are derived once; database rows stream through in chunks.
    """

    def __init__(self, params: StorageParams, g: GeneratorMatrix, universe: Universe):
        self.params = params
        self.g = g
        self.universe = universe
        self.q = params.q
        self.plan = make_query_plan(params)
        self.u_rows = universe.u_rows()
        self.s_rows = universe.s_rows()
        self.n_u = self.u_rows.shape[0]
        self.n_s = self.s_rows.shape[0]
        self.a_digits_node = params.stripes * params.m
        self.a_digits_all = params.n * self.a_digits_node

        # blinding[s_idx, stripe, node0, t0]
        s_mats = self.s_rows.reshape(self.n_s, params.stripes, params.m, params.m)
        self.blinding = np.einsum("xsit,in->xsnt", s_mats, g.matrix.array) % self.q

        # packed per-node query values, per theta: (k, n, n_u)
        self.qpack = np.empty((params.k, params.n, self.n_u), dtype=np.int64)
        u_mats = self.u_rows.reshape(self.n_u, params.stripes, params.m, params.query_len)
        for theta in range(1, params.k + 1):
            for node in range(1, params.n + 1):
                mask = unit_mask(params, theta, node)
                qdig = (u_mats + mask[None, None, :, :]) % self.q
                self.qpack[theta - 1, node - 1] = pack_digits(
                    qdig.reshape(self.n_u, universe.u_digits), self.q
                )
        self._chunk_rows = max(1, _CHUNK_TARGET // max(1, self.n_u * self.n_s))

    def key_bits(self, *radixes: int) -> int:
        bits = 0
        for r in radixes:
            bits += int(np.ceil(np.log2(max(2, r))))
        return bits

    def db_chunks(self) -> Iterator[dict]:
        """Stream database chunks with node shares and packed views."""
        p = self.params
        for start, rows in self.universe.db_row_chunks(self._chunk_rows):
            c = rows.shape[0]
            files = rows.reshape(c, p.k, p.file_rows, p.m)
            # slot order: stripe-major, file-major, row-minor (node layout)
            slots = (
                files.reshape(c, p.k, p.stripes, p.rows_per_stripe, p.m)
                .transpose(0, 2, 1, 3, 4)
                .reshape(c * p.node_len, p.m)
            )
            shares = (slots @ self.g.matrix.array) % self.q  # (c*node_len, n)
            node_vals = shares.reshape(c, p.node_len, p.n).transpose(2, 0, 1)  # (n, c, node_len)
            yield {
                "start": start,
                "count": c,
                "rows": rows,
                "files": files,
                "node_values": node_vals,
            }

    def answer_plane(self, chunk: dict, theta: int, node: int, stripe: int, t: int) -> np.ndarray:
        """Answers of one (node, stripe, vector) over the (u, db, s) grid."""
        p = self.params
        qlen = p.query_len
        u_block = self.u_rows.reshape(self.n_u, p.stripes, p.m, qlen)[:, stripe, t - 1, :]
        d_slice = chunk["node_values"][node - 1][:, stripe * qlen : (stripe + 1) * qlen]
        ip = u_block @ d_slice.T  # (n_u, c)
        row = self.plan.unit_row(node, t)
        if row is not None:
            pos = (theta - 1) * p.rows_per_stripe + (row - 1)
            ip = ip + d_slice[:, pos][None, :]
        blind = self.blinding[:, stripe, node - 1, t - 1]  # (n_s,)
        return (ip[:, :, None] + blind[None, None, :]) % self.q

    def node_answer_pack(self, chunk: dict, theta: int, node: int) -> np.ndarray:
        """Packed (stripes*m)-digit answers of one node over the grid."""
        p = self.params
        out = np.zeros((self.n_u, chunk["count"], self.n_s), dtype=np.int64)
        for stripe in range(p.stripes):
            for t in range(1, p.m + 1):
                out = out * self.q + self.answer_plane(chunk, theta, node, stripe, t)
        return out

    def selfcheck(self, seed: int = 0):
        """Re-derive sampled grid points through the scalar protocol path.

        Raises if the vectorized sweep ever disagrees with gen_queries /
        encode / gen_answer on the same assignment.
        """
        p = self.params
        rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
        n_pts = min(_SELFCHECK_POINTS, self.universe.n_db * self.n_u * self.n_s)
        db_ids = rng.integers(0, self.universe.n_db, size=n_pts)
        u_ids = rng.integers(0, self.n_u, size=n_pts)
        s_ids = rng.integers(0, self.n_s, size=n_pts)
        for db_i, u_i, s_i in zip(db_ids, u_ids, s_ids):
            row = enumerate_assignments(self.q, self.universe.db_digits, db_i, db_i + 1)[0]
            db = Database(p, row.reshape(p.k, p.file_rows, p.m))
            nodes = storage.encode(db, self.g)
            u_val = self.u_rows[u_i].reshape(p.stripes, p.m, p.query_len)
            s_val = CommonRandomness(self.s_rows[s_i].reshape(p.stripes, p.m, p.m))
            chunk = {
                "count": 1,
                "node_values": np.stack([nd.values for nd in nodes])[:, None, :],
            }
            for theta in range(1, p.k + 1):
                qs = protocol.gen_queries(p, self.g, theta, u_override=u_val)
                expect_qpack = pack_digits(
                    qs.per_node.reshape(p.n, self.universe.u_digits), self.q
                )
                for node in range(1, p.n + 1):
                    if expect_qpack[node - 1] != self.qpack[theta - 1, node - 1, u_i]:
                        raise AssertionError("batched query pack disagrees with gen_queries")
                    ans = protocol.gen_answer(node, qs.node_query(node), nodes[node - 1], s_val, self.g)
                    got = pack_digits(ans.reshape(1, -1), self.q)[0]
                    batched = 0
                    for stripe in range(p.stripes):
                        for t in range(1, p.m + 1):
                            plane = self.answer_plane(chunk, theta, node, stripe, t)
                            batched = batched * self.q + int(plane[u_i, 0, s_i])
                    if got != batched:
                        raise AssertionError("batched answers disagree with gen_answer")


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
    product-rule verdict and the per-index conditional-table comparison.
    """
    universe = Universe(params, mask_mode=mask_mode)
    if universe.size > ceiling:
        if samples is None:
            universe.require_within(ceiling)
        return _mc_user_privacy(params, g, universe, samples, seed)
    ctx = _BatchContext(params, g, universe)
    ctx.selfcheck(seed)
    q = params.q
    d_digits = params.node_len
    bits = ctx.key_bits(
        q ** universe.u_digits, q ** ctx.a_digits_node, q ** d_digits, ctx.n_s
    )
    if bits > _KEY_BITS:
        raise UniverseTooLarge(f"view tuple needs {bits} packed bits; exceeds exact-mode budget")
    a_radix = q ** ctx.a_digits_node
    d_radix = q ** d_digits
    checks = []
    for node in range(1, params.n + 1):
        parts: list[list] = [[] for _ in range(params.k)]
        for chunk in ctx.db_chunks():
            dpack = pack_digits(chunk["node_values"][node - 1], q)  # (c,)
            for theta in range(1, params.k + 1):
                apack = ctx.node_answer_pack(chunk, theta, node)  # (n_u, c, n_s)
                key = ctx.qpack[theta - 1, node - 1][:, None, None] * a_radix + apack
                key = key * d_radix + dpack[None, :, None]
                key = key * ctx.n_s + np.arange(ctx.n_s, dtype=np.int64)[None, None, :]
                vals, counts = np.unique(key.ravel(), return_counts=True)
                parts[theta - 1].append((vals, counts))
        tables = {
            theta: merge_count_tables(parts[theta - 1]) for theta in range(1, params.k + 1)
        }
        ok, cell = _tables_independent(tables)
        first = tables[1]
        conditional = all(
            np.array_equal(tables[t][0], first[0]) and np.array_equal(tables[t][1], first[1])
            for t in range(2, params.k + 1)
        )
        witness = None
        if not ok:
            witness = _user_witness(ctx, tables, cell, node)
        checks.append(
            IndependenceCheck(
                name=f"user_privacy_node_{node}",
                independent=ok,
                exact=True,
                universe_size=universe.size,
                witness=witness,
                conditional_equal=conditional,
            )
        )
    return AuditReport(params, universe.randomness_mode, tuple(checks))


def _table_cell_counts(tables: dict, x, y) -> tuple[int, int, int, int]:
    joint = 0
    left = 0
    right = 0
    total = 0
    for label, (vals, counts) in tables.items():
        sub = int(counts.sum())
        total += sub
        if label == x:
            left = sub
        pos = np.searchsorted(vals, y)
        if pos < len(vals) and vals[pos] == y:
            right += int(counts[pos])
            if label == x:
                joint = int(counts[pos])
    return joint, left, right, total


def _user_witness(ctx: _BatchContext, tables: dict, cell, node: int) -> dict:
    theta, key = cell
    p = ctx.params
    q = p.q
    rest = key
    s_idx = rest % ctx.n_s
    rest //= ctx.n_s
    d_val = rest % (q ** p.node_len)
    rest //= q ** p.node_len
    a_val = rest % (q ** ctx.a_digits_node)
    q_val = rest // (q ** ctx.a_digits_node)
    joint, left, right, total = _table_cell_counts(tables, theta, key)
    return {
        "theta": theta,
        "node": node,
        "query": unpack_digits(int(q_val), q, ctx.universe.u_digits),
        "answers": unpack_digits(int(a_val), q, ctx.a_digits_node),
        "node_data": unpack_digits(int(d_val), q, p.node_len),
        "shared_randomness": ctx.s_rows[int(s_idx)].tolist(),
        "counts": {"joint": joint, "left": left, "right": right, "total": total},
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
    universe = Universe(params, randomness_mode=randomness_mode, partial_count=partial_count)
    if universe.size > ceiling:
        if samples is None:
            universe.require_within(ceiling)
        return _mc_db_privacy(params, g, universe, samples, seed)
    ctx = _BatchContext(params, g, universe)
    ctx.selfcheck(seed)
    q = params.q
    wbar_digits = (params.k - 1) * params.file_len
    bits = ctx.key_bits(q ** ctx.a_digits_all, ctx.n_u, params.k, q ** wbar_digits)
    if bits > _KEY_BITS:
        raise UniverseTooLarge(f"view tuple needs {bits} packed bits; exceeds exact-mode budget")
    w_radix = q ** wbar_digits
    parts = []
    for chunk in ctx.db_chunks():
        c = chunk["count"]
        for theta in range(1, params.k + 1):
            apack = np.zeros((ctx.n_u, c, ctx.n_s), dtype=np.int64)
            for node in range(1, params.n + 1):
                for stripe in range(params.stripes):
                    for t in range(1, params.m + 1):
                        apack = apack * q + ctx.answer_plane(chunk, theta, node, stripe, t)
            others = np.delete(chunk["files"], theta - 1, axis=1).reshape(c, wbar_digits)
            wbar = pack_digits(others, q)  # (c,)
            view = apack * ctx.n_u + np.arange(ctx.n_u, dtype=np.int64)[:, None, None]
            view = view * params.k + (theta - 1)
            key = view * w_radix + wbar[None, :, None]
            parts.append(np.unique(key.ravel(), return_counts=True))
    keys, counts = merge_count_tables(parts)
    ok, cell = _pairs_independent(keys, counts, w_radix)
    witness = None
    if not ok:
        witness = _db_witness(ctx, keys, counts, cell, w_radix, wbar_digits)
    check = IndependenceCheck(
        name="db_privacy",
        independent=ok,
        exact=True,
        universe_size=universe.size,
        witness=witness,
    )
    return AuditReport(params, universe.randomness_mode, (check,))


def _db_witness(
    ctx: _BatchContext,
    keys: np.ndarray,
    counts: np.ndarray,
    cell,
    w_radix: int,
    wbar_digits: int,
) -> dict:
    view, wbar = cell
    p = ctx.params
    q = p.q
    rest = view
    theta = int(rest % p.k) + 1
    rest //= p.k
    u_idx = int(rest % ctx.n_u)
    a_val = int(rest // ctx.n_u)
    left_keys = keys // w_radix
    right_keys = keys % w_radix
    joint_mask = (left_keys == view) & (right_keys == wbar)
    joint = int(counts[joint_mask].sum())
    left = int(counts[left_keys == view].sum())
    right = int(counts[right_keys == wbar].sum())
    total = int(counts.sum())
    return {
        "theta": theta,
        "answers": unpack_digits(a_val, q, ctx.a_digits_all),
        "masks": ctx.u_rows[u_idx].tolist(),
        "other_files": unpack_digits(int(wbar), q, wbar_digits),
        "counts": {"joint": joint, "left": left, "right": right, "total": total},
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
    inv = protocol.decode_matrix_inverse(params, g)
    w_rows = inv[params.m * params.m :, :]  # ((n-m)*m, n*m) per stripe
    for chunk in ctx.db_chunks():
        for theta in range(1, params.k + 1):
            planes = {}
            for node in range(1, params.n + 1):
                for stripe in range(params.stripes):
                    for t in range(1, params.m + 1):
                        planes[(stripe, node, t)] = ctx.answer_plane(chunk, theta, node, stripe, t)
            expected = chunk["files"][:, theta - 1].reshape(
                chunk["count"], params.stripes, params.rows_per_stripe, params.m
            )
            for stripe in range(params.stripes):
                for w_pos in range(params.rows_per_stripe * params.m):
                    acc = np.zeros((ctx.n_u, chunk["count"], ctx.n_s), dtype=np.int64)
                    for node in range(1, params.n + 1):
                        for t in range(1, params.m + 1):
                            coef = int(w_rows[w_pos, (node - 1) * params.m + (t - 1)])
                            if coef:
                                acc += coef * planes[(stripe, node, t)]
                    acc %= q
                    row, col = divmod(w_pos, params.m)
                    want = expected[:, stripe, row, col]  # (c,)
                    if not np.array_equal(acc, np.broadcast_to(want[None, :, None], acc.shape)):
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
    """Sampled decode trials for universes beyond the exact ceiling."""
    universe = Universe(params)
    db_rows, u_rows, s_rows = _mc_points(universe, samples, seed)
    for i in range(samples):
        for theta in range(1, params.k + 1):
            db, _, qs, answers = _mc_transcribe(params, g, db_rows[i], u_rows[i], s_rows[i], theta)
            decoded = protocol.decode(params, g, theta, qs, protocol.AnswerSet(np.stack(answers)))
            if not np.array_equal(decoded, db.file(theta)):
                return False
    return True


def _mc_points(universe: Universe, samples: int, seed: int):
    p = universe.params
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
    return db, u, s


def _chi2_p(counter: DistributionCounter) -> float:
    """Chi-square p-value for one contingency table."""
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


def _chi2_flag(tables: dict[str, DistributionCounter]) -> tuple[bool, float, Optional[str]]:
    """Chi-square screen over a family of view projections.

    The full view tuple is nearly unique per sample on large alphabets,
    where the chi-square statistic has no power; dependence surfacing in
    any deterministic projection of the view implies dependence in the
    joint, so every projection is screened and the smallest p decides.
    Still a screen, not a verdict; hence always labeled statistical.
    """
    worst_p = 1.0
    worst_name = None
    for name, counter in tables.items():
        p = _chi2_p(counter)
        if p < worst_p:
            worst_p, worst_name = p, name
    ok = worst_p >= MC_SIGNIFICANCE
    return ok, worst_p, (None if ok else worst_name)


def _mc_transcribe(params, g, db_row, u_row, s_row, theta):
    """One sampled point through the ordinary protocol functions."""
    db = Database(params, db_row.reshape(params.k, params.file_rows, params.m))
    nodes = storage.encode(db, g)
    u_val = u_row.reshape(params.stripes, params.m, params.query_len)
    s_val = CommonRandomness(s_row.reshape(params.stripes, params.m, params.m))
    qs = protocol.gen_queries(params, g, theta, u_override=u_val)
    answers = [
        protocol.gen_answer(node, qs.node_query(node), nodes[node - 1], s_val, g)
        for node in range(1, params.n + 1)
    ]
    return db, nodes, qs, answers


def _mc_user_privacy(params, g, universe, samples, seed) -> AuditReport:
    q = params.q
    db_rows, u_rows, s_rows = _mc_points(universe, samples, seed)
    projections = ("view", "query", "answer", "share", "randomness")
    tables = [{name: DistributionCounter() for name in projections} for _ in range(params.n)]
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed, 1])
    thetas = rng.integers(1, params.k + 1, size=samples)
    for i in range(samples):
        theta = int(thetas[i])
        _, nodes, qs, answers = _mc_transcribe(params, g, db_rows[i], u_rows[i], s_rows[i], theta)
        s_key = int(pack_digits(s_rows[i].reshape(1, -1), q)[0])
        for node in range(1, params.n + 1):
            q_key = int(pack_digits(qs.node_query(node).reshape(1, -1), q)[0])
            a_key = int(pack_digits(answers[node - 1].reshape(1, -1), q)[0])
            d_key = int(pack_digits(nodes[node - 1].values.reshape(1, -1), q)[0])
            t = tables[node - 1]
            t["view"].add(theta, (q_key, a_key, d_key, s_key))
            t["query"].add(theta, q_key)
            t["answer"].add(theta, a_key)
            t["share"].add(theta, d_key)
            t["randomness"].add(theta, s_key)
    checks = []
    for node in range(1, params.n + 1):
        ok, p_value, culprit = _chi2_flag(tables[node - 1])
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


def _mc_db_privacy(params, g, universe, samples, seed) -> AuditReport:
    q = params.q
    db_rows, u_rows, s_rows = _mc_points(universe, samples, seed)
    wbar_digits = (params.k - 1) * params.file_len
    tables: dict[str, DistributionCounter] = {"view": DistributionCounter()}
    for pos in range(params.n * params.stripes * params.m):
        for w_pos in range(wbar_digits):
            tables[f"answer_{pos}_vs_other_{w_pos}"] = DistributionCounter()
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed, 2])
    thetas = rng.integers(1, params.k + 1, size=samples)
    for i in range(samples):
        theta = int(thetas[i])
        db, _, _, answers = _mc_transcribe(params, g, db_rows[i], u_rows[i], s_rows[i], theta)
        others = np.delete(db.files, theta - 1, axis=0).ravel()
        a_digits = np.concatenate([a.ravel() for a in answers])
        view = (
            theta,
            int(pack_digits(a_digits.reshape(1, -1), q)[0]),
            int(pack_digits(u_rows[i].reshape(1, -1), q)[0]),
        )
        tables["view"].add(view, int(pack_digits(others.reshape(1, -1), q)[0]))
        for pos, a_val in enumerate(a_digits.tolist()):
            for w_pos, w_val in enumerate(others.tolist()):
                tables[f"answer_{pos}_vs_other_{w_pos}"].add(a_val, w_val)
    ok, p_value, culprit = _chi2_flag(tables)
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
