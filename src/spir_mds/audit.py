"""Exact privacy auditing by linear certificates and rank gaps; no check
sweeps the universe.

The universe is every (database, mask, shared-randomness) assignment,
each uniform and independent.  X and Y are independent over it iff
``total * count(x, y) == count(x) * count(y)`` for every cell, and each
exact verdict below decides that product rule with integers alone,
without enumerating a point.

Each check reads one answer model.  A node answers <own query, own
share> plus its coded share of S, and every query is the mask plus a
fixed pattern, Q(u) = Q(0) + u.  So at mask u, database c and randomness
s an answer is ``ip(0, c) + <u, share of c> + blind(s)``: ``ip(0)`` is the
basis chunk (the round served at mask 0 and the unit databases, with zero
randomness), linear in c, and ``blind`` the nodes' coded share of S,
linear in s.  The mask's term is the coded share of S[s, i, t] = <U_{s,t},
D_{i,s}>, so it lies in the blinding span V (Sun and Jafar's blinding
argument), and the model computes it from the files and the generator:

* correctness: the user's decoder, ``protocol.solve``, kills V and returns
  the requested file on the basis chunk; as every mask's term lies in V,
  this holds iff decoding is right at every universe point;
* user privacy, the index vs one node's view (query, answer, share, S):
  the answer depends only on the node's own query, its share and S, so
  the index is hidden iff the query has the same law for every index.
  The basis's mask side must be the inner product of its query with the
  share, and with full masks ``gen_queries`` at the unit masks must give
  Q(e_i) - Q(0) = e_i: a one-time pad, uniform for every index; else
  AssertionError.  With zeroed masks the query is the pattern P = Q(0)
  itself, and a node is private iff every index has the same pattern.
  Otherwise the first view cell, in (index, view) order, that breaks the
  product rule is index 1's, with query P_1 and zero answer, share and S,
  seen at every database whose share is zero: joint = q^(db_digits - rank
  of the node's share map), right = joint times the number of indices
  whose pattern is P_1, left = the universe size and total = k * left;
* database privacy, the other files W̄ vs the user's view (all answers,
  the query scheme, the requested index): with every randomness digit
  free, V of one dimension per digit and decoding right, V and the
  requested file's columns fill the answer space, and every answer is
  uniform whatever W̄ is.  Where that certificate fails, at mask u and
  index theta the answers are M c + blind(s) (``mask_matrices``), and
  blind(s) hits each point of V once, so for fixed W̄ they are uniform on
  a coset of the span of V and M_theta, the requested file's columns.
  The pair leaks iff r_own < r_full, the ranks modulo V of M_theta and of
  M (one elimination, V's generators first); under full randomness each
  mask's M is mask 0's modulo V, so mask 0 decides.  Were cells keyed by
  (least member of the coset ip + V, mask id, theta, W̄), the zero key
  would be least and every pair would have it, so the first leaking pair
  in (mask id, index) order names the first broken cell, (0, u, theta,
  0), with joint = q^(file_len - r_own), left = q^(db_digits - r_full),
  total = k * universe size and right = total / q^((k - 1) * file_len).

The references these verdicts are tested against (per-point oracles,
full-grid counts, the bilinear expansion of a basis served at every unit
mask, the least-member rank gaps) live in the test files, not here.

``run_audit`` is the one entry point.  Its exact checks share one
context, the code's answer model, and each brings the universe it audits.
Before any verdict the context serves 32 sampled points, every digit
uniform, through one network, and ``_BatchContext.link`` raises unless
the served queries are Q(0) plus the mask and the served answers the
model's: that ties ``blind``, the mask's term and the model to the
served round.  No exact check forms an id past int64 or a table that
grows with an axis, so any universe within the ceiling is decided
exactly; above it a check falls back to a seeded Monte Carlo mode
reported as statistical (a chi-square screen, which can miss a leak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import fields, network, protocol
from .errors import DecodeFailure, InvalidParams, UniverseTooLarge
from .protocol import CommonRandomness
from .storage import Database, GeneratorMatrix, StorageParams, require_int

DEFAULT_UNIVERSE_CEILING = 1 << 24
MC_SIGNIFICANCE = 1e-6
AUDIT_SEED_DOMAIN = 4

_LINK_POINTS = 32  # the link's sampled points, drawn once per audit call
_RANK_BATCH, _RANK_BATCH_BYTES = 4, 64 << 20  # rank-gap batches: the first's masks, any's bytes (one mask may pass)

CHECKS = ("correctness", "user-privacy", "db-privacy")


def _digit_rows(ids, q: int, digits: int) -> np.ndarray:
    """Base-q digit rows of ``ids`` (first digit most significant), for
    ids below q**digits: one divide by q per digit, least significant
    first."""
    rest = np.asarray(ids, dtype=np.int64)
    rows = np.empty(rest.shape + (digits,), dtype=np.int64)
    for d in reversed(range(digits)):
        rest, rows[..., d] = np.divmod(rest, q)
    return rows


def _free_rows(ids, q: int, free: int, digits: int) -> np.ndarray:
    """Digit rows of ``ids`` on the first ``free`` of ``digits`` digits;
    the fixed digits after them are zero."""
    rows = np.zeros(np.shape(ids) + (digits,), dtype=np.int64)
    rows[..., :free] = _digit_rows(ids, q, free)
    return rows


def _random_rows(rng, count: int, universe: Universe) -> list[np.ndarray]:
    """``count`` uniform database, mask and randomness digit rows of the
    universe, drawn in that order; fixed digits are zero."""
    axes = [(universe.db_digits,) * 2, (universe.u_free, universe.u_digits), (universe.s_free, universe.s_digits)]
    rows = [np.zeros((count, digits), dtype=np.int64) for _, digits in axes]
    for row, (free, _) in zip(rows, axes):
        row[:, :free] = rng.integers(0, universe.params.q, size=(count, free), dtype=np.int64)
    return rows


def _einsum_mod(spec: str, a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``np.einsum(spec, a, b) % q`` for operands reduced mod q, where the
    contracted axis is ``a``'s last.  It is summed in blocks of at most
    (2**63 - q) // (q - 1)**2 terms, so a block's sum plus the reduced sum
    of the blocks before it stays inside int64."""
    step = (2**63 - q) // (q - 1) ** 2
    a_sub, b_sub = spec.split("->")[0].split(",")
    b_axis = b_sub.index(a_sub[-1])
    for lo in range(0, max(a.shape[-1], 1), step):  # one empty block for an empty axis
        part = np.einsum(spec, a[..., lo : lo + step], b[(slice(None),) * b_axis + (slice(lo, lo + step),)])
        if lo:
            part += out
        out = part % q
    return out


def _mask_term(params: StorageParams, u_rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(masks, c, n, stripes, m): the mask's term <u, slots> of the answer
    model, for ``slots`` (masks or 1, c, stripes, query_len, n) coded by g:
    the coded share of S[s, i, t] = <U_{s,t}, D_{i,s}>, a point of V."""
    u = u_rows.reshape(-1, params.stripes, params.m, params.query_len)
    return _einsum_mod("pstl,pcslj->pcjst", u, slots, params.q)


@dataclass(frozen=True)
class Universe:
    """The probability space of one audit.

    ``randomness_mode`` shrinks the shared-randomness axis (the leakage
    experiment), ``mask_mode='zeroed'`` removes the user's masks (the
    deliberately broken scheme used to show the auditor catches leaks).
    """

    params: StorageParams
    randomness_mode: str = "full"
    partial_count: Optional[int] = None
    mask_mode: str = "full"

    def __post_init__(self):
        # refuses a bad randomness mode or count
        protocol.free_randomness(self.params, self.randomness_mode, self.partial_count)
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
        return protocol.free_randomness(self.params, self.randomness_mode, self.partial_count)

    @property
    def u_free(self) -> int:
        return self.u_digits if self.mask_mode == "full" else 0

    @property
    def n_u(self) -> int:
        return self.params.q ** self.u_free

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
            # no size is formed, and a long ceiling is named by its bit length
            shown = ceiling if ceiling.bit_length() <= 64 else f"a {ceiling.bit_length()}-bit number"
            raise UniverseTooLarge(
                f"universe has {self.params.q}**{self.exponent} points, ceiling is {shown}; "
                "a larger ceiling decides it exactly; a Monte Carlo sample budget only screens and can miss a leak"
            )


@dataclass
class DistributionCounter:
    """Integer joint/marginal tables with an exact independence test.

    The Monte Carlo screens count their samples in it, and the tests'
    per-point oracles count whole universes in it.
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
# Audit context: the code's answer model, its basis chunk and its link
# ---------------------------------------------------------------------------

class _BatchContext:
    """The answer model of one code (params, g): every exact check of a
    ``run_audit`` call reads it, each in the universe it audits.

    At point (mask u, database c, randomness s) the answer of (node,
    stripe, vector t) is ``(ip[u, c] + blind[s]) % q``: ``ip``, the mask
    side, is the answer with zero shared randomness, and ``blind[s]`` the
    node's coded share of S, linear in s.  The checks read ``basis``, the
    chunk served at mask 0, ``mask_matrices``, its extension to any mask,
    and ``blind``; ``link`` applies the model at served points.  Each part
    is built once, on first read, and none depends on a universe.
    """

    def __init__(self, params: StorageParams, g: GeneratorMatrix):
        self.params = params
        self.g = g
        self.q = params.q
        self.a_digits_node = params.stripes * params.m
        self.a_digits_all = params.n * self.a_digits_node

    @cached_property
    def blind(self) -> np.ndarray:
        """blind[i, node0, stripe, t0]: the randomness side at the unit S
        rows.  It is linear in S, so these rows fix it at every S and span
        V; a universe's free digits are the first ``s_free``, whose rows
        span its randomness sides."""
        p = self.params
        s_mats = np.eye(Universe(p).s_digits, dtype=np.int64).reshape(-1, p.stripes, p.m, p.m)
        return np.einsum("xsit,in->xnst", s_mats, self.g.array) % self.q

    def chunk(self, rows: np.ndarray, u_rows: np.ndarray) -> dict:
        """The served round at database rows and mask rows, with zero shared
        randomness: the files and node shares of the rows, the per-node
        queries (k, *mask lead, n, stripes, m, query_len) served at the
        masks, and the answers ``ip`` (k, *lead, n, stripes, m) per index
        theta, the mask side of every answer digit.

        The leading axes of ``rows`` and ``u_rows`` broadcast to ``lead``
        in the served round: (masks, 1) mask rows against (1, c) database
        rows give the (masks, c) grid.  ``files`` (c, k, file_rows, m) and
        ``data`` (n, c, stripes, query_len) hold the database rows given,
        their leading axes flattened.
        """
        p = self.params
        zero = np.zeros(Universe(p).s_digits, dtype=np.int64)
        net, queries, ip = _serve_round(p, self.g, rows, u_rows, zero)
        return {
            "files": net.db.files.reshape((-1,) + net.db.files.shape[-3:]),
            "data": np.stack([h.data.values for h in net.nodes]).reshape(p.n, -1, p.stripes, p.query_len),
            "queries": queries,
            "ip": ip,
        }

    @cached_property
    def basis(self) -> dict:
        """The chunk of the unit databases at mask 0: db_digits rows that fix
        the mask side at mask 0, as it is linear in the database."""
        full = Universe(self.params)
        zero = np.zeros((1, 1, full.u_digits), dtype=np.int64)
        return self.chunk(np.eye(full.db_digits, dtype=np.int64)[None], zero)

    @cached_property
    def coded(self) -> np.ndarray:
        """coded[c, stripe, l, node0]: slot l of the stripe at unit database
        c, coded by ``g`` from the basis's files, not read off the shares."""
        p = self.params
        slots = Database(p, self.basis["files"]).slot_matrix() @ self.g.array % self.q
        return slots.reshape(-1, p.stripes, p.query_len, p.n)

    def answer_parts(self, chunk: dict, theta: int) -> np.ndarray:
        """Mask side ``ip`` (*lead, n, stripes, m) of every answer digit for
        index theta; the randomness side is ``self.blind``."""
        return chunk["ip"][theta - 1]

    @cached_property
    def ip_at_0(self) -> np.ndarray:
        """(k, db_digits, n, stripes, m): ip(0), the basis's mask side."""
        return np.stack([self.answer_parts(self.basis, theta)[0] for theta in range(1, self.params.k + 1)])

    @cached_property
    def decodes(self) -> bool:
        """``protocol.solve`` cancels the randomness side of the unit S rows
        and returns the requested file on the basis chunk, for every index.

        Decoding is linear and kills V, and every mask's term lies in V
        (``mask_matrices``), so this holds iff decoding returns the
        requested file at every point of the plain universe.
        """
        p, basis = self.params, self.basis
        return not protocol.solve(p, self.g, self.blind).any() and all(
            (protocol.solve(p, self.g, self.answer_parts(basis, theta)) == basis["files"][:, theta - 1]).all()
            for theta in range(1, p.k + 1)
        )

    def mask_matrices(self, u_rows: np.ndarray) -> np.ndarray:
        """(k, masks, db_digits, answer digits): per index, the mask side of
        each mask row at the unit databases, the matrix that maps a
        database to the mask side.  It is the answer model: ip(0) plus the
        mask's term (``_mask_term``) on the unit databases' coded slots."""
        p = self.params
        term = _mask_term(p, u_rows, self.coded[None])  # (masks, db_digits, n, stripes, m)
        return ((self.ip_at_0[:, None] + term) % self.q).reshape(p.k, len(u_rows), len(self.coded), -1)

    def link(self, seed: int = 0):
        """Raise unless 32 sampled points, served, are the model's.

        Each digit of a point (database, mask, randomness) is uniform, in
        every universe.  One SimNetwork serves the points, one gen_queries
        per index and one exchange; its queries must be, index by index,
        the basis query at mask 0 plus the point's mask, and its answers,
        as served, ip(0) on the point's database plus ``_mask_term`` on its
        coded slots plus ``blind`` on its randomness.  That ties the basis
        chunk and the model, which every check reads, to the served round.
        Nothing is decoded: a wrong decoder reaches the correctness verdict.
        """
        p, q = self.params, self.q
        rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
        db_rows, u_rows, s_rows = _random_rows(rng, _LINK_POINTS, Universe(p))
        _, queries, served = _serve_round(p, self.g, db_rows, u_rows, s_rows)
        at_zero = self.basis["queries"][:, 0]  # (k, 1, n, stripes, m, query_len)
        if not np.array_equal(queries, (at_zero + u_rows.reshape(-1, 1, p.stripes, p.m, p.query_len)) % q):
            raise AssertionError("served queries are not the basis query at mask 0 plus the mask")
        ip = _einsum_mod("pd,kd...->kp...", db_rows, self.ip_at_0, q)  # (k, points, n, stripes, m)
        term = _mask_term(p, u_rows, _einsum_mod("pd,d...->p...", db_rows, self.coded, q)[:, None])[:, 0]
        blind = _einsum_mod("pi,i...->p...", s_rows, self.blind, q)
        predicted = (ip + term + blind) % q
        if not np.array_equal(served, predicted):  # as served: no cast, no broadcast
            raise AssertionError("basis points disagree with gen_answer")


def _point_network(params: StorageParams, g: GeneratorMatrix, db_rows, u_rows, s_rows):
    """The network on universe points' databases and shared randomness, and
    the points' masks shaped for ``gen_queries``.  Each argument is digit
    rows of one point, or of many along leading axes that broadcast."""
    db = Database(params, db_rows.reshape(db_rows.shape[:-1] + (params.k, params.file_rows, params.m)))
    s = CommonRandomness(s_rows.reshape(s_rows.shape[:-1] + (params.stripes, params.m, params.m)))
    net = network.SimNetwork(params, db, g, randomness=s)
    return net, u_rows.reshape(u_rows.shape[:-1] + (params.stripes, params.m, params.query_len))


def _serve_round(params: StorageParams, g: GeneratorMatrix, db_rows, u_rows, s_rows):
    """The points' network (``_point_network``), the per-node queries
    (k, *mask lead, n, stripes, m, query_len) and the answers (k, *lead, n,
    stripes, m) it served: per index one gen_queries, and one exchange."""
    net, u_val = _point_network(params, g, db_rows, u_rows, s_rows)
    thetas = range(1, params.k + 1)
    queries = np.stack([protocol.gen_queries(params, g, theta, u_override=u_val).per_node for theta in thetas])
    return net, queries, net.exchange(queries).per_node


# ---------------------------------------------------------------------------
# Exact cores: each reads the context's model in the universe it audits
# ---------------------------------------------------------------------------

def _user_privacy(ctx: _BatchContext, universe: Universe) -> tuple[IndependenceCheck, ...]:
    """Per node: is the index independent of (query, answer, share, S)?

    The index is modeled uniform.  The node's answer is the inner product
    of its query with its share plus the blinding, which depends on S
    alone, so the index is hidden iff the query has the same law for every
    index: with full masks a one-time pad, with zeroed masks the same unit
    pattern (module docstring).  Each check carries both the product-rule
    verdict and the per-index conditional-table comparison, which agree:
    the index is uniform.  A basis chunk off that model raises.
    """
    p, q, basis, u = ctx.params, ctx.q, ctx.basis, universe.u_digits
    queries = basis["queries"].reshape(p.k, p.n, p.stripes, p.m, p.query_len)  # at mask 0
    inner = np.einsum("knstl,njsl->kjnst", queries, basis["data"]) % q
    if not np.array_equal(ctx.ip_at_0, inner):
        raise AssertionError("basis answers are not the queries' inner products with the shares")
    queries = queries.reshape(p.k, p.n, u)
    if universe.mask_mode == "full":
        units = np.eye(u, dtype=np.int64)
        for theta in range(1, p.k + 1):  # Q(e_i) - Q(0), served one index at a time
            at_units = protocol.gen_queries(p, ctx.g, theta, u_override=units.reshape(u, p.stripes, p.m, p.query_len))
            if not ((at_units.per_node.reshape(u, p.n, u) - queries[theta - 1]) % q == units[:, None]).all():
                raise AssertionError("basis queries are not the mask plus a fixed pattern")
        return tuple(
            IndependenceCheck(f"user_privacy_node_{node}", True, True, universe.size, conditional_equal=True)
            for node in range(1, p.n + 1)
        )
    checks = []
    for node in range(1, p.n + 1):
        patterns = queries[:, node - 1]  # (k, U): the query at mask 0 per index
        same = int((patterns == patterns[0]).all(axis=-1).sum())
        witness = None
        if same != p.k:
            shares = basis["data"][node - 1].reshape(universe.db_digits, -1)
            joint = q ** (universe.db_digits - fields.rank_of(shares, q))
            witness = {
                "theta": 1,
                "node": node,
                "query": patterns[0].tolist(),
                "answers": [0] * ctx.a_digits_node,
                "node_data": [0] * p.node_len,
                "shared_randomness": [0] * universe.s_digits,
                "counts": {
                    "joint": joint, "left": universe.size, "right": same * joint, "total": p.k * universe.size,
                },
            }
        checks.append(
            IndependenceCheck(
                f"user_privacy_node_{node}", witness is None, True, universe.size,
                witness=witness, conditional_equal=witness is None,
            )
        )
    return tuple(checks)


def _db_privacy(ctx: _BatchContext, universe: Universe) -> tuple[IndependenceCheck]:
    """Are the non-requested files independent of the user's whole view?

    The view is (all answers, the query scheme, the requested index); the
    masks determine the complete query scheme (every node receives some
    plain mask vector, so the map between them is a bijection) and stand
    in for it.  Decided by the certificate, or else by the rank gaps of
    the (mask, index) pairs in mask id order, in batches that double from
    ``_RANK_BATCH`` masks within ``_RANK_BATCH_BYTES``, of mask 0 alone
    under full randomness; the first pair that leaks names the witness
    (module docstring), whatever the batch sizes.
    """
    p, q = ctx.params, ctx.q
    if _db_privacy_certificate(ctx, universe):
        return (IndependenceCheck("db_privacy", True, True, universe.size),)
    masks = 1 if universe.s_free == universe.s_digits else universe.n_u
    fit = max(1, _RANK_BATCH_BYTES // (8 * p.k * ctx.a_digits_all * (universe.s_free + universe.db_digits)))
    start, size = 0, min(_RANK_BATCH, fit)
    while start < masks:
        u_rows = _free_rows(np.arange(start, min(masks, start + size)), q, universe.u_free, universe.u_digits)
        r_own, r_full = _rank_gaps(ctx, universe.s_free, u_rows)
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
        start, size = start + size, min(2 * size, fit)
    return (IndependenceCheck("db_privacy", True, True, universe.size),)


def _rank_gaps(ctx: _BatchContext, free: int, u_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (masks, k), modulo the blinding span V of the first ``free``
    randomness digits, of the requested file's columns of ``mask_matrices``
    and of all its columns, at each mask row and index: the pair leaks
    exactly where they differ.  One elimination reads V's generators
    (``blind[:free]``) first, then the database digits file by file from
    the requested one: pivots past V count both."""
    p, matrices = ctx.params, ctx.mask_matrices(u_rows)  # (k, masks, db_digits, answers)
    span = np.broadcast_to(ctx.blind[:free].reshape(free, ctx.a_digits_all), (len(u_rows), free, ctx.a_digits_all))
    cols = [np.concatenate([span, np.roll(m, -theta * p.file_len, axis=1)], axis=1) for theta, m in enumerate(matrices)]
    _, found = fields.row_reduce(np.stack(cols, axis=1).swapaxes(-1, -2), ctx.q)
    return found[..., free : free + p.file_len].sum(axis=-1), found[..., free:].sum(axis=-1)


def _db_privacy_certificate(ctx: _BatchContext, universe: Universe) -> bool:
    """Certificate: under full randomness the blinding span V and the
    requested file's columns fill the whole answer space.

    V, spanned by ``blind``, must have rank s_digits, one per randomness
    digit.  Where decoding is right (``_BatchContext.decodes``) it returns
    the requested file and vanishes on V, so the file's columns add
    file_len dimensions modulo V: s_digits + file_len = stripes * n * m,
    every answer digit.  So at each mask and index the answers are uniform
    whatever the other files are, and the product rule holds.
    """
    if universe.s_free != universe.s_digits:
        return False
    return fields.rank_of(ctx.blind.reshape(universe.s_digits, -1), ctx.q) == universe.s_digits and ctx.decodes


def _correctness(ctx: _BatchContext, universe: Universe) -> tuple[IndependenceCheck]:
    return (IndependenceCheck("correctness", ctx.decodes, True, universe.size),)


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
    rows = _random_rows(np.random.default_rng([AUDIT_SEED_DOMAIN, seed]), samples, universe)
    return (_point_network(p, g, *point) for point in zip(*rows))


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
        answers = net.exchange(qs.per_node).per_node
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
        checks.append(IndependenceCheck(f"user_privacy_node_{node}", ok, False, samples, witness, p_value=p_value))
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
        a_digits = net.exchange(protocol.gen_queries(params, g, theta, u_override=u_val).per_node).per_node.ravel()
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
    return (IndependenceCheck("db_privacy", ok, False, samples, witness, p_value=p_value),)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# check name: (exact core on the context and the check's universe, Monte
# Carlo core on g, universe, samples, seed, ceiling); only the database screen reads it
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
    is exact, and the exact checks share one context, the code's answer
    model, built and linked on the first of them and read by each in its
    own universe.  Above the ceiling a check is a seeded Monte Carlo screen
    when ``samples`` is given, and refused with UniverseTooLarge otherwise.
    Arguments and modes are refused before any work; within the ceiling
    no size is refused, as no exact check forms an id past int64.
    """
    protocol.make_query_plan(params)  # refuses k < 2
    require_int("seed", seed, low=0)
    require_int("ceiling", ceiling)
    if samples is not None and require_int("samples", samples) < 1:  # an empty sample would pass vacuously
        raise InvalidParams(f"a Monte Carlo audit needs at least one sample, got {samples}")
    selected = list(checks)
    if not selected or not set(selected) <= set(CHECKS):  # so would an empty selection
        raise InvalidParams(f"checks must be a non-empty subset of {CHECKS}, got {selected}")
    universes = {
        "correctness": Universe(params),
        "user-privacy": Universe(params, mask_mode=mask_mode),
        "db-privacy": Universe(params, randomness_mode, partial_count),
    }
    ctx: Optional[_BatchContext] = None
    found: list[IndependenceCheck] = []
    for name in [c for c in CHECKS if c in selected]:
        universe = universes[name]
        exact, sampled = _CORES[name]
        if not universe.exceeds(ceiling):
            if ctx is None:
                ctx = _BatchContext(params, g)
                ctx.link(seed)
            found += exact(ctx, universe)
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
