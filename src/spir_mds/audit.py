"""Exact privacy auditing: linear certificates and rank gaps first,
then exhaustive enumeration.

The universe is every (database, mask, shared-randomness) assignment,
each uniform and independent.  The enumerator runs the scheme over the
whole universe and decides independence by integer counting: X and Y
are independent iff ``total * count(x, y) == count(x) * count(y)`` for
every cell, which needs no tolerance and no floating point.

Before it sweeps, each exact check reads the scheme's linear structure.
An answer is ``ip(u, c) + blind(s)``: the mask side ``ip`` is the served
round's answer at zero shared randomness, affine in the masks u and
linear in the database c, and the randomness side ``blind`` the node's
coded share of S, linear in S.  So the mask side at the basis chunk (the
masks 0, e_1, ..., e_U at the unit databases) and the randomness side at
the unit S rows fix every answer, and three certificates read them:

* correctness: decoding cancels the randomness side of every unit S row
  and returns the requested file on the basis chunk;
* database privacy: every randomness digit is free, the blinding span V
  has one dimension per digit and decoding is right, so V and the
  requested file's columns fill the answer space, and every answer is
  uniform whatever the other files are (the blinding argument of the
  achievability proof);
* user privacy: with full masks, each packed query row is a permutation
  of all queries, and on the basis chunk the mask side is the inner
  product of the query with the node's share, so the view has the same
  law for every index.

A certificate that passes returns the report the enumerator would.  A
correctness or user-privacy certificate that fails (zeroed masks, a
model that does not decode) leaves the check to the enumerator below,
which names the witness.

Database privacy, the other files W̄ vs the user's view (all answers,
the query scheme, the requested index), never sweeps.  Where its
certificate fails, each (mask, index) pair is read off the basis chunk:
at mask u and index theta the answers are M c + blind(s)
(``_BatchContext.mask_matrices``), and blind(s) hits each point of V
once, so for fixed W̄ they are uniform on a coset of the span of V and
M_theta, the requested file's columns.  The pair leaks iff r_own <
r_full, the ranks modulo V of M_theta and of M (Sun and Jafar's blinding
argument); no leaking pair is an exact pass.  A sweep would key its
cells by (least member of the coset ip + V, mask id, theta, W̄): the
answers at c = 0 are V, so the zero key is least and every pair has
it, and a leaking pair breaks its cell (0, u, theta, 0) first.  So the
first leaking pair in (mask id, index) order names the sweep's first
broken cell, with counts joint = q^(file_len - r_own), left =
q^(db_digits - r_full), total = k * universe size and right = total /
q^((k - 1) * file_len).

The enumerator offers two checks:

* user privacy: the requested index vs one node's view
  (query, answer, share, shared randomness), per node;
* correctness: the decoder returns the requested file at every point.

User privacy is an exact certificate that needs no cross product.
Every index sweeps the same universe, so the index is uniform and user
privacy holds iff the per-index count tables are equal.  Those tables
are counted on the (mask, database) grid alone: S is a digit of the
node's view and, for a fixed S, each answer symbol (ip + blind[S]) mod q
is a bijection of the mask side ip, so the per-index view tables are
equal iff the per-index (query, ip, share) tables are.  Decoding is
linear, so correctness decodes the two sides apart into (ip_w[u, c] +
blind_w[S]) mod q, right everywhere iff blind_w is one value b over S
(checked once) and ip_w is (file - b) mod q on the grid.  No check
sweeps the randomness axis.  A witness is the first broken cell among
the keys already counted, and its counts are scaled back to the full
(mask, database, randomness) grid.

``run_audit`` is the one entry point: it runs the named checks, and
checks on one universe share one context.  The sweeps' chunks, the
basis chunk and the packed queries ``qpack`` are served rounds: one
``network.SimNetwork`` over the chunk's databases, and per index one
``gen_queries`` and one exchange over its masks, with zero shared
randomness.  The tables (the enumerated mask and randomness rows, the
blinding digits ``blind`` and ``qpack``) are built on first read, so a
passing correctness or database-privacy certificate enumerates no mask
and packs no query.  ``blind`` is the one table not served.  So before
any verdict, each audited universe serves 32 sampled points, drawn by id
on each axis, with their randomness and every index, through one
network (``_BatchContext.selfcheck``), and ``_BatchContext.link`` raises
unless the basis chunk's bilinear expansion plus ``blind`` at the unit S
rows reproduces them: that ties ``blind`` and the assumed affinity to
the served round.  Universes above the ceiling fall back to a seeded
Monte Carlo mode reported as statistical (chi-square screen), never as
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from . import fields, network, protocol
from .errors import DecodeFailure, InvalidParams, UniverseTooLarge
from .protocol import CommonRandomness
from .storage import Database, GeneratorMatrix, StorageParams

DEFAULT_UNIVERSE_CEILING = 1 << 24
MC_SIGNIFICANCE = 1e-6
AUDIT_SEED_DOMAIN = 4

_CHUNK_TARGET = 1 << 22  # max elements per (mask, db, randomness) plane
_SELFCHECK_POINTS = 32  # per audited universe: cross-validation against the served round
_RANK_BATCH, _RANK_BATCH_MAX = 4, 1 << 10  # first and largest mask batch of the rank gap
_KEY_BITS = 62
_INT64_MAX = (1 << 63) - 1

RANDOMNESS_MODES = ("full", "zeroed", "partial")
CHECKS = ("correctness", "user-privacy", "db-privacy")


def enumerate_assignments(q: int, digits: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop`` of the lexicographic enumeration of F_q^digits."""
    return _digit_rows(np.arange(start, stop, dtype=np.int64), q, digits)


@lru_cache(maxsize=None)
def _unit_ids(q: int, digits: int) -> np.ndarray:
    """Enumeration ids of the unit rows e_1, ..., e_digits of F_q^digits,
    which are also the place values q**(digits-1), ..., q, 1 of a packed row
    (read-only: one array per (q, digits) is shared).

    Raises UniverseTooLarge unless q**digits < 2**63, so that every packed
    row fits int64; no power of q past int64 is formed.
    """
    values = [1]
    for _ in range(digits):
        if values[-1] > _INT64_MAX // q:
            raise UniverseTooLarge(f"{digits} base-{q} digits do not pack into int64")
        values.append(values[-1] * q)
    ids = np.array(values[-2::-1], dtype=np.int64)
    ids.flags.writeable = False
    return ids


def _digit_rows(ids, q: int, digits: int) -> np.ndarray:
    """Base-q digit rows of ``ids`` (first digit most significant): the
    inverse of ``pack_digits`` for ids below q**digits."""
    return np.asarray(ids, dtype=np.int64)[..., None] // _unit_ids(q, digits) % q


def _free_rows(ids, q: int, free: int, digits: int) -> np.ndarray:
    """Digit rows of ``ids`` on the first ``free`` of ``digits`` digits;
    the fixed digits after them are zero."""
    rows = np.zeros(np.shape(ids) + (digits,), dtype=np.int64)
    rows[..., :free] = _digit_rows(ids, q, free)
    return rows


def pack_digits(rows: np.ndarray, q: int) -> np.ndarray:
    """Fold base-q digit rows into integers (first digit most significant).

    Raises UniverseTooLarge when the packed values could leave int64.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ _unit_ids(q, rows.shape[-1])


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

    def require_enumerable(self):
        """Refuse an exact audit whose database, mask or randomness axis has
        2**63 rows or more: its enumeration ids would leave int64."""
        for axis, free in (("database", self.db_digits), ("mask", self.u_free), ("randomness", self.s_free)):
            if self.params.q ** free > _INT64_MAX:
                raise UniverseTooLarge(
                    f"the {axis} axis has {self.params.q}**{free} rows; exact enumeration ids need fewer than 2**63"
                )

    def u_rows(self) -> np.ndarray:
        """All mask assignments; under zeroed masks, the one zero row."""
        return _free_rows(np.arange(self.n_u), self.params.q, self.u_free, self.u_digits)

    def s_rows(self) -> np.ndarray:
        """All shared-randomness assignments; fixed digits are zero."""
        return _free_rows(np.arange(self.n_s), self.params.q, self.s_free, self.s_digits)

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
    bits = sum((max(2, r) - 1).bit_length() for r in radixes)  # ceil(log2 r), exact on any int
    if bits > _KEY_BITS:
        raise UniverseTooLarge(f"view tuple needs {bits} packed bits; exceeds exact-mode budget")


# ---------------------------------------------------------------------------
# Batched enumeration context
# ---------------------------------------------------------------------------

class _BatchContext:
    """Tables for sweeping the universe in vectorized chunks.

    Every answer digit splits into a mask side and a randomness side: at
    grid point (mask u, database c, randomness s) the answer of (node,
    stripe, vector t) is ``(ip[u, c] + blind[s]) % q``, where ``ip`` is the
    served round's answer with zero shared randomness and ``blind`` the
    node's coded share of S.  Chunks, ``basis`` and ``qpack`` are served
    rounds; ``blind`` is the one batched table, and ``link`` ties it and
    the basis's linearity to the selfcheck's served points.  The
    enumerated mask and randomness rows, ``blind`` and ``qpack`` are built
    on first read, and database rows stream through in chunks.
    """

    def __init__(self, params: StorageParams, g: GeneratorMatrix, universe: Universe):
        self.params = params
        self.g = g
        self.universe = universe
        self.q = params.q
        self.n_u = universe.n_u
        self.n_s = universe.n_s
        self.a_digits_node = params.stripes * params.m
        self.a_digits_all = params.n * self.a_digits_node
        self._chunk_rows = max(1, _CHUNK_TARGET // max(1, self.n_u * self.n_s))
        self._served = None  # the selfcheck's points and served answers

    @cached_property
    def u_rows(self) -> np.ndarray:
        return self.universe.u_rows()

    @cached_property
    def s_rows(self) -> np.ndarray:
        return self.universe.s_rows()

    @cached_property
    def blind(self) -> np.ndarray:
        """blind[s_idx, node0, stripe, t0] over the enumerated randomness rows."""
        p = self.params
        s_mats = self.s_rows.reshape(self.n_s, p.stripes, p.m, p.m)
        return np.einsum("xsit,in->xnst", s_mats, self.g.array) % self.q

    @cached_property
    def qpack(self) -> np.ndarray:
        """Packed per-node queries (k, n, n_u) that gen_queries builds at the
        enumerated masks."""
        p = self.params
        u = self.u_rows.reshape(self.n_u, p.stripes, p.m, p.query_len)
        queries = [protocol.gen_queries(p, self.g, theta, u_override=u).per_node for theta in range(1, p.k + 1)]
        return pack_digits(np.stack(queries).reshape(p.k, self.n_u, p.n, -1), self.q).swapaxes(1, 2)

    def db_chunks(self) -> Iterator[dict]:
        for _, rows in self.universe.db_row_chunks(self._chunk_rows):
            yield self.chunk(rows[None], self.u_rows[:, None])

    def chunk(self, rows: np.ndarray, u_rows: np.ndarray) -> dict:
        """The served round at database rows and mask rows, with zero shared
        randomness: the files and node shares of the rows and the answers
        ``ip`` (k, *lead, n, stripes, m) per index theta, the mask side of
        every answer digit.

        The leading axes of ``rows`` and ``u_rows`` broadcast to ``lead``
        in the served round: (masks, 1) mask rows against (1, c) database
        rows give the (masks, c) grid a sweep reads.  ``files`` (c, k,
        file_rows, m) and ``data`` (n, c, stripes, query_len) hold the
        database rows given, their leading axes flattened.
        """
        p = self.params
        net, ip = _served_answers(p, self.g, rows, u_rows, np.zeros(self.universe.s_digits, dtype=np.int64))
        return {
            "count": math.prod(rows.shape[:-1]),
            "files": net.db.files.reshape((-1,) + net.db.files.shape[-3:]),
            "data": np.stack([h.data.values for h in net.nodes]).reshape(p.n, -1, p.stripes, p.query_len),
            "ip": ip,
        }

    @cached_property
    def basis(self) -> dict:
        """The chunk of the unit databases at the masks {0, e_1, ..., e_U}:
        (U + 1) * db_digits rows that fix the mask side everywhere, as it is
        affine in the mask and linear in the database."""
        u = self.universe.u_digits
        masks = np.eye(u + 1, u, -1, dtype=np.int64)
        return self.chunk(np.eye(self.universe.db_digits, dtype=np.int64)[None], masks[:, None])

    def answer_parts(self, chunk: dict, theta: int) -> np.ndarray:
        """Mask side ``ip`` (*lead, n, stripes, m) of every answer digit for
        index theta; the randomness side is ``self.blind``."""
        return chunk["ip"][theta - 1]

    def selfcheck(self, seed: int = 0):
        """Serve sampled universe points, with their randomness, for ``link``.

        The points are drawn by id on each axis, and their digit rows made
        from the ids.  One SimNetwork at the audited params holds the
        sampled points' databases and randomness on its leading axis, and
        each index gets one gen_queries and one exchange over all the
        points' masks.  Nothing is compared or decoded here: ``link``
        compares the served answers, and a wrong decoder reaches the
        correctness verdict instead of raising.
        """
        p, q, universe = self.params, self.q, self.universe
        rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
        n_pts = min(_SELFCHECK_POINTS, universe.n_db * self.n_u * self.n_s)
        db_ids = rng.integers(0, universe.n_db, size=n_pts)
        u_ids = rng.integers(0, self.n_u, size=n_pts)
        s_ids = rng.integers(0, self.n_s, size=n_pts)
        db_rows = _digit_rows(db_ids, q, universe.db_digits)
        u_rows = _free_rows(u_ids, q, universe.u_free, universe.u_digits)
        s_rows = _free_rows(s_ids, q, universe.s_free, universe.s_digits)
        self._served = (db_rows, u_rows, s_rows, _served_answers(p, self.g, db_rows, u_rows, s_rows)[1])

    def mask_matrices(self, u_rows: np.ndarray) -> np.ndarray:
        """(k, masks, db_digits, answer digits): per index, the mask side of
        each mask row at the unit databases, the matrix that maps a
        database to the mask side.  It is read off the basis chunk by
        bilinear expansion: affine in the mask, each row is ip(0) plus
        u_i * (ip(e_i) - ip(0)) summed over the mask digits i."""
        q = self.q
        ip = np.stack([self.answer_parts(self.basis, theta) for theta in range(1, self.params.k + 1)])
        ip = ip.reshape(ip.shape[:3] + (-1,))  # (k, U + 1, db_digits, answer digits)
        return (ip[:, 0, None] + np.einsum("pi,kidx->kpdx", u_rows, (ip[:, 1:] - ip[:, :1]) % q)) % q

    def link(self):
        """Raise unless the selfcheck's served answers equal, index by
        index, the mask side that the basis chunk predicts plus the
        blinding that the unit randomness rows of ``blind`` predict.

        The certificates, the rank gap and the sweeps read served rounds
        at zero randomness and add ``blind``; the certificates and the
        rank gap also extend the basis by bilinear expansion.  This ties
        both to the served round at the selfcheck's points.  ``run_audit``
        calls it once per context, before any verdict; a context whose
        selfcheck has not run has no served answers to compare.
        """
        if self._served is None:
            return
        db_rows, u_rows, s_rows, served = self._served
        q, free = self.q, self.universe.s_free
        mask_side = np.einsum("pd,kpdx->kpx", db_rows, self.mask_matrices(u_rows))
        blind = (s_rows[:, :free] @ self.blind[_unit_ids(q, free)].reshape(free, self.a_digits_all)) % q
        served = served.reshape(served.shape[:2] + (-1,))  # (k, points, answer digits)
        if not all(np.array_equal((answers - ip) % q, blind) for answers, ip in zip(served, mask_side)):
            raise AssertionError("basis points disagree with gen_answer")


def _point_network(params: StorageParams, g: GeneratorMatrix, db_rows, u_rows, s_rows):
    """The network on universe points' databases and shared randomness, and
    the points' masks shaped for ``gen_queries``.  Each argument is digit
    rows of one point, or of many along leading axes that broadcast."""
    db = Database(params, db_rows.reshape(db_rows.shape[:-1] + (params.k, params.file_rows, params.m)))
    s = CommonRandomness(s_rows.reshape(s_rows.shape[:-1] + (params.stripes, params.m, params.m)))
    net = network.SimNetwork(params, db, g, randomness=s)
    return net, u_rows.reshape(u_rows.shape[:-1] + (params.stripes, params.m, params.query_len))


def _served_answers(params: StorageParams, g: GeneratorMatrix, db_rows, u_rows, s_rows):
    """The points' network (``_point_network``) and its answers (k, *lead,
    n, stripes, m): per index, one gen_queries and one exchange."""
    net, u_val = _point_network(params, g, db_rows, u_rows, s_rows)
    queries = (protocol.gen_queries(params, g, theta, u_override=u_val) for theta in range(1, params.k + 1))
    return net, np.stack([net.exchange(qs).per_node for qs in queries])


# ---------------------------------------------------------------------------
# Exact cores: each sweeps its context's universe and returns its verdicts
# ---------------------------------------------------------------------------

def _user_privacy(ctx: _BatchContext) -> tuple[IndependenceCheck, ...]:
    """Per node: is the index independent of (query, answer, share, S)?

    The index is modeled uniform; each check carries both the exact
    product-rule verdict and the per-index conditional-table comparison,
    which agree by construction.
    """
    params, universe = ctx.params, ctx.universe
    q = params.q
    d_digits = params.node_len
    _require_key_bits(q ** universe.u_digits, q ** ctx.a_digits_node, q ** d_digits)
    if _user_privacy_certificate(ctx):
        return tuple(
            IndependenceCheck(f"user_privacy_node_{node}", True, True, universe.size, conditional_equal=True)
            for node in range(1, params.n + 1)
        )
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
    return tuple(checks)


def _user_privacy_certificate(ctx: _BatchContext) -> bool:
    """Certificate: with full masks, each node's query is uniform for
    every index and its mask side is the inner product of that query with
    the node's share.

    Every packed query row ``qpack[theta-1, node]`` must be a permutation
    of the q^U queries, and on the basis chunk the mask side must equal
    the inner product of the basis masks' queries, read off ``qpack``,
    with the shares.  Both sides are affine in the mask and linear in the
    database, so the equality holds at every grid point; then each node's
    (query, ip, share) is one function of a (query, share) pair whose law
    is the same for every index, and the per-index tables are equal.
    """
    universe, p, q = ctx.universe, ctx.params, ctx.q
    if universe.mask_mode != "full" or not (np.sort(ctx.qpack, axis=-1) == np.arange(ctx.n_u)).all():
        return False
    ids = np.concatenate(([0], _unit_ids(q, universe.u_digits)))
    queries = _digit_rows(ctx.qpack[:, :, ids], q, universe.u_digits)
    queries = queries.reshape(p.k, p.n, len(ids), p.stripes, p.m, p.query_len)
    for theta in range(1, p.k + 1):
        expected = np.einsum("nbstl,njsl->bjnst", queries[theta - 1], ctx.basis["data"]) % q
        if not np.array_equal(ctx.answer_parts(ctx.basis, theta), expected):
            return False
    return True


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


def _db_privacy(ctx: _BatchContext) -> tuple[IndependenceCheck]:
    """Are the non-requested files independent of the user's whole view?

    The view is (all answers, the query scheme, the requested index); the
    masks determine the complete query scheme (every node receives some
    plain mask vector, so the map between them is a bijection) and stand
    in for it.  Decided by the certificate, or else by the rank gaps of
    the (mask, index) pairs in mask id order, in growing batches; the
    first pair that leaks names the witness (module docstring).
    """
    p, q, universe = ctx.params, ctx.q, ctx.universe
    if _db_privacy_certificate(ctx):
        return (IndependenceCheck("db_privacy", True, True, universe.size),)
    start, size = 0, _RANK_BATCH
    while start < ctx.n_u:
        u_rows = _free_rows(np.arange(start, min(ctx.n_u, start + size)), q, universe.u_free, universe.u_digits)
        r_own, r_full = _rank_gaps(ctx, u_rows)
        leaks = np.flatnonzero(r_own < r_full)  # in (mask, index) order
        if leaks.size:
            u_idx, theta = np.unravel_index(leaks[0], r_own.shape)
            wbar_digits = (p.k - 1) * p.file_len
            total = p.k * universe.size
            witness = {
                "theta": int(theta) + 1,
                "answers": [0] * ctx.a_digits_all,
                "masks": u_rows[u_idx].tolist(),
                "other_files": [0] * wbar_digits,
                "counts": {
                    "joint": q ** (p.file_len - int(r_own[u_idx, theta])),
                    "left": q ** (universe.db_digits - int(r_full[u_idx, theta])),
                    "right": total // q ** wbar_digits,
                    "total": total,
                },
            }
            return (IndependenceCheck("db_privacy", False, True, universe.size, witness=witness),)
        start, size = start + size, min(2 * size, _RANK_BATCH_MAX)
    return (IndependenceCheck("db_privacy", True, True, universe.size),)


def _rank_gaps(ctx: _BatchContext, u_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (masks, k), modulo the blinding span V, of the requested
    file's columns of ``mask_matrices`` and of all its columns, at each
    mask row and index: the pair leaks exactly where they differ.  Each
    column is reduced to its coset's least member; one elimination of
    them, the requested file's first, counts both ranks by its pivots.
    """
    p = ctx.params
    span = _blinding_span(ctx, ctx.blind.reshape(ctx.n_s, -1))
    matrices = _least_members(ctx.mask_matrices(u_rows), *span, ctx.q)  # (k, masks, db_digits, answers)
    # the database digits file by file, from the requested one on
    cols = np.stack([np.roll(m, -theta * p.file_len, axis=1) for theta, m in enumerate(matrices)], axis=1)
    _, found = fields.row_reduce(cols.swapaxes(-1, -2), ctx.q)
    return found[..., : p.file_len].sum(axis=-1), found.sum(axis=-1)


def _db_privacy_certificate(ctx: _BatchContext) -> bool:
    """Certificate: under full randomness the blinding span V and the
    requested file's columns fill the whole answer space.

    Every randomness digit is free and V has dimension s_digits, one per
    digit.  Where decoding is right (``_decodes_on_the_basis``) it returns
    the requested file and vanishes on V, so the file's columns are
    independent modulo V and add file_len dimensions: s_digits + file_len
    = stripes * n * m, every answer digit.  So at each mask and index the
    answers are uniform whatever the other files are, and the product
    rule holds.
    """
    universe = ctx.universe
    if universe.s_free != universe.s_digits:
        return False
    span, _ = _blinding_span(ctx, ctx.blind.reshape(ctx.n_s, -1))
    return len(span) == universe.s_digits and _decodes_on_the_basis(ctx)


def _blinding_span(ctx: _BatchContext, blind: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduced basis of the blinding span V and its pivot columns.

    V holds the randomness sides ``blind[s]`` of answers: ``blind`` is
    (n_s, J), all nodes' columns or one node's.  The randomness rows are a
    coordinate subspace and ``blind`` is linear in s, so V is spanned by
    the images of the free unit vectors.
    """
    basis, pivots = fields.rref(blind[_unit_ids(ctx.q, ctx.universe.s_free)], ctx.q)
    return basis[: len(pivots)], pivots


def _least_members(rows: np.ndarray, basis: np.ndarray, pivots: list[int], q: int) -> np.ndarray:
    """Lexicographically least member of each coset ``row + V``.

    ``rows`` is (..., J) and ``basis`` V's reduced row-echelon basis, so
    ``row - row[pivots] @ basis`` is zero at the pivots: any other member
    of the coset is larger at its first nonzero coefficient's pivot and
    equal before it.  An empty span leaves each row as it is.
    """
    return (rows - rows[..., pivots] @ basis) % q


def _coset_keys(rows: np.ndarray, basis: np.ndarray, pivots: list[int], q: int) -> np.ndarray:
    """Packed ``_least_members``; packing keeps their order, the first
    digit being the most significant."""
    return pack_digits(_least_members(rows, basis, pivots, q), q)


def _correctness(ctx: _BatchContext) -> tuple[IndependenceCheck]:
    ok = _decodes_on_the_basis(ctx) or _decodes_everywhere(ctx)
    return (IndependenceCheck("correctness", ok, True, ctx.universe.size),)


def _decodes_on_the_basis(ctx: _BatchContext) -> bool:
    """Certificate: decoding cancels the randomness side of the unit
    randomness rows and returns the requested file on the basis chunk.

    The randomness side is linear in S, and the mask side affine in the
    masks and linear in the database, so this holds iff decoding returns
    the requested file at every universe point.
    """
    units = _decoded_blinding(ctx, ctx.blind[_unit_ids(ctx.q, ctx.universe.s_free)])
    return not units.any() and _mask_sides_decode(ctx, [ctx.basis], 0)


def _decodes_everywhere(ctx: _BatchContext) -> bool:
    """True iff decoding returns the requested file at every universe
    point, for every requested index."""
    # decoding is linear, so it maps the two sides of each answer apart:
    # right at every (u, c, s) iff the blinding cancels, blind_w[s] == b for
    # every s, and ip_w is (file - b) % q at every (u, c)
    blind_w = _decoded_blinding(ctx, ctx.blind)
    return bool((blind_w == blind_w[0]).all()) and _mask_sides_decode(ctx, ctx.db_chunks(), blind_w[0])


def _w_rows(ctx: _BatchContext) -> np.ndarray:
    """The decoder's file-symbol rows, ((n-m)*m, n*m) per stripe."""
    return protocol.decode_matrix_inverse(ctx.params, ctx.g)[ctx.params.m * ctx.params.m :]


def _decoded_blinding(ctx: _BatchContext, blind: np.ndarray) -> np.ndarray:
    """(rows, stripes, w_pos): the file symbols decoded from randomness
    sides ``blind`` (rows, n, stripes, m)."""
    p = ctx.params
    # both sides are reduced, so the n*m-term sums stay inside int64
    blind = blind.transpose(0, 2, 1, 3).reshape(len(blind), p.stripes, p.n * p.m)
    return (blind @ _w_rows(ctx).T) % p.q


def _mask_sides_decode(ctx: _BatchContext, chunks: Iterable[dict], offset) -> bool:
    """True iff every chunk's mask side decodes, for every index, to the
    requested file minus ``offset`` (stripes, w_pos)."""
    p = ctx.params
    w_rows = _w_rows(ctx)
    for chunk in chunks:
        c = chunk["count"]
        for theta in range(1, p.k + 1):
            ip = ctx.answer_parts(chunk, theta)
            ip = ip.transpose(0, 1, 3, 2, 4).reshape(len(ip), c, p.stripes, p.n * p.m)
            ip_w = (ip @ w_rows.T) % p.q  # (masks, c, stripes, w_pos)
            expected = chunk["files"][:, theta - 1].reshape(c, p.stripes, -1)
            if not (ip_w == (expected - offset) % p.q).all():
                return False
    return True


# ---------------------------------------------------------------------------
# Monte Carlo fallback (statistical, never exact)
# ---------------------------------------------------------------------------

def _mc_correctness(g, universe, samples, seed, ceiling) -> tuple[IndependenceCheck]:
    """Sampled rounds: fails as soon as one sampled point does not decode
    some requested file."""
    p = universe.params
    ok = True
    try:
        for net, u_val in _mc_networks(g, universe, samples, seed):
            for theta in range(1, p.k + 1):
                net.serve(protocol.gen_queries(p, g, theta, u_override=u_val))
    except DecodeFailure:
        ok = False
    return (IndependenceCheck("correctness", ok, False, samples),)


def _mc_networks(g: GeneratorMatrix, universe: Universe, samples: int, seed: int):
    """Seeded uniform universe points, each as its network and masks
    (see ``_point_network``); an oversized sample is refused on the call."""
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
    return (_point_network(p, g, *point) for point in zip(db, u, s))


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


def _mc_user_privacy(g, universe, samples, seed, ceiling) -> tuple[IndependenceCheck, ...]:
    params = universe.params
    projections = ("view", "query", "answer", "share", "randomness")
    tables = [{name: DistributionCounter() for name in projections} for _ in range(params.n)]
    networks = _mc_networks(g, universe, samples, seed)
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed, 1])
    thetas = rng.integers(1, params.k + 1, size=samples)
    for theta, (net, u_val) in zip(thetas.tolist(), networks):
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
    return tuple(checks)


def _mc_db_privacy(g, universe, samples, seed, ceiling) -> tuple[IndependenceCheck]:
    params = universe.params
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
    networks = _mc_networks(g, universe, samples, seed)
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed, 2])
    thetas = rng.integers(1, params.k + 1, size=samples)
    for theta, (net, u_val) in zip(thetas.tolist(), networks):
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
    return (check,)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# check name: (exact core on a context, Monte Carlo core on g, universe,
# samples, seed and ceiling); only the database screen reads the ceiling
_CORES = {
    "correctness": (_correctness, _mc_correctness),
    "user-privacy": (_user_privacy, _mc_user_privacy),
    "db-privacy": (_db_privacy, _mc_db_privacy),
}


def run_audit(
    params: StorageParams,
    g: GeneratorMatrix,
    checks: Iterable[str] = CHECKS,
    *,
    randomness_mode: str = "full",
    partial_count: Optional[int] = None,
    mask_mode: str = "full",
    ceiling: int = DEFAULT_UNIVERSE_CEILING,
    samples: Optional[int] = None,
    seed: int = 0,
) -> AuditReport:
    """Run the named checks, in ``CHECKS`` order.

    Correctness audits the plain universe, user privacy the one with
    ``mask_mode`` and database privacy the one with ``randomness_mode``
    (and ``partial_count``).  A check whose universe is within the ceiling
    is exact, and checks on one universe share its context and its one
    selfcheck.  Above the ceiling a check is a seeded Monte Carlo screen
    when ``samples`` is given, and refused with UniverseTooLarge otherwise.
    Arguments and modes are refused before any work, and so is an exact
    check with an axis of 2**63 rows or more.
    """
    if samples is not None and samples < 1:  # an empty sample would pass vacuously
        raise InvalidParams(f"a Monte Carlo audit needs at least one sample, got {samples}")
    selected = list(checks)
    if not selected or not set(selected) <= set(CHECKS):  # so would an empty selection
        raise InvalidParams(f"checks must be a non-empty subset of {CHECKS}, got {selected}")
    universes = {
        "correctness": Universe(params),
        "user-privacy": Universe(params, mask_mode=mask_mode),
        "db-privacy": Universe(params, randomness_mode, partial_count),
    }
    order = [c for c in CHECKS if c in selected]
    for name in order:
        if not universes[name].exceeds(ceiling):
            universes[name].require_enumerable()
    contexts: dict[Universe, _BatchContext] = {}
    found: list[IndependenceCheck] = []
    for name in order:
        universe = universes[name]
        exact, sampled = _CORES[name]
        if not universe.exceeds(ceiling):
            if universe not in contexts:
                contexts[universe] = ctx = _BatchContext(params, g, universe)
                ctx.selfcheck(seed)
                ctx.link()
            found += exact(contexts[universe])
        elif samples is None:
            universe.require_within(ceiling)
        else:
            found += sampled(g, universe, samples, seed, ceiling)
    return AuditReport(params, randomness_mode, tuple(found))


def audit_user_privacy(
    params: StorageParams, g: GeneratorMatrix, *, ceiling: int = DEFAULT_UNIVERSE_CEILING,
    mask_mode: str = "full", samples: Optional[int] = None, seed: int = 0,
) -> AuditReport:
    """``run_audit`` with the user-privacy check alone."""
    return run_audit(
        params, g, ("user-privacy",), mask_mode=mask_mode, ceiling=ceiling, samples=samples, seed=seed
    )


def audit_db_privacy(
    params: StorageParams, g: GeneratorMatrix, *, randomness_mode: str = "full",
    partial_count: Optional[int] = None, ceiling: int = DEFAULT_UNIVERSE_CEILING,
    samples: Optional[int] = None, seed: int = 0,
) -> AuditReport:
    """``run_audit`` with the database-privacy check alone."""
    return run_audit(
        params, g, ("db-privacy",), randomness_mode=randomness_mode, partial_count=partial_count,
        ceiling=ceiling, samples=samples, seed=seed,
    )


def leak_experiment(
    params: StorageParams, g: GeneratorMatrix, randomness_mode: str, *,
    partial_count: Optional[int] = None, ceiling: int = DEFAULT_UNIVERSE_CEILING,
    samples: Optional[int] = None, seed: int = 0,
) -> AuditReport:
    """Database-privacy audit with the shared randomness curtailed.

    ``full`` reproduces the ordinary audit; ``zeroed`` removes the
    blinding entirely (the product rule must then fail); ``partial``
    leaves only the first ``partial_count`` symbols random.  Decoding is
    unaffected by the mode; the blinding cancels out of the solve.
    """
    return audit_db_privacy(
        params, g, randomness_mode=randomness_mode, partial_count=partial_count,
        ceiling=ceiling, samples=samples, seed=seed,
    )


def audit_correctness(params: StorageParams, g: GeneratorMatrix, *, ceiling: int = DEFAULT_UNIVERSE_CEILING) -> bool:
    """True iff the exact correctness check passes."""
    return run_audit(params, g, ("correctness",), ceiling=ceiling).all_passed


def mc_correctness(params: StorageParams, g: GeneratorMatrix, samples: int, seed: int = 0) -> bool:
    """True iff the Monte Carlo correctness screen passes (every universe
    has a digit, so it exceeds a zero ceiling)."""
    return run_audit(params, g, ("correctness",), ceiling=0, samples=samples, seed=seed).all_passed
