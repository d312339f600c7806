import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spir_mds import protocol
from spir_mds.audit import run_audit
from spir_mds.errors import DecodeFailure, InvalidParams
from spir_mds.network import NodeHandler, SimNetwork, make_randomness
from spir_mds.protocol import CommonRandomness
from spir_mds.storage import Database, NodeData, StorageParams, build_generator


class LoggingNode(NodeHandler):
    """Adversarial handler that records everything it is ever shown."""

    __slots__ = ("observed_queries",)

    def __init__(self, *args):
        super().__init__(*args)
        self.observed_queries = []

    def answer(self, query):
        self.observed_queries.append(np.array(query))
        return super().answer(query)


def test_node_handlers_are_isolated():
    p = StorageParams(q=3, n=3, m=2, k=2)
    g = build_generator(p)
    db = Database.random(p, np.random.default_rng(2))
    net = SimNetwork(p, db, g, node_seed=1)
    spy = LoggingNode(1, net.nodes[0].data, net.nodes[0].randomness, g)
    net.nodes[0] = spy
    tr = net.run(theta=1, user_seed=3)
    # the spy saw exactly one message per round: its own query, nothing else
    assert len(spy.observed_queries) == 1
    assert np.array_equal(spy.observed_queries[0], tr.query_set.node_query(1))
    qs = protocol.gen_queries(p, g, 2, user_seed=4)
    assert net.serve(qs).query_set is qs
    assert len(spy.observed_queries) == 2
    assert np.array_equal(spy.observed_queries[1], qs.node_query(1))
    # a handler's whole state is its index, share, randomness, and the
    # public code: slots leave nowhere to stash another node's view
    assert NodeHandler.__slots__ == ("node_index", "data", "randomness", "generator")
    with pytest.raises(AttributeError):
        net.nodes[1].database = db  # no __dict__ to smuggle state into


def test_node_shares_are_read_only_and_disjoint():
    p = StorageParams(q=5, n=4, m=2, k=2, stripes=2)
    net = SimNetwork(p, Database.random(p, np.random.default_rng(3)), build_generator(p))
    shares = [h.data.values for h in net.nodes]
    for i, values in enumerate(shares):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0
        # a view's base would hand the node every share encoded with its own
        assert values.base is None
        assert not np.shares_memory(values, net.db.files)
        assert not any(np.shares_memory(values, other) for other in shares[i + 1 :])


def test_decode_failure_on_tampered_node():
    p = StorageParams(q=3, n=3, m=2, k=2)
    g = build_generator(p)
    db = Database.random(p, np.random.default_rng(6))
    net = SimNetwork(p, db, g, node_seed=2)
    honest = net.nodes[2]
    corrupted = NodeData(3, (honest.data.values + 1) % p.q)
    net.nodes[2] = NodeHandler(3, corrupted, honest.randomness, g)
    qs = protocol.gen_queries(p, g, 1, user_seed=0)
    # exchange only collects: the tampered answers come back undecoded
    answers = net.exchange(qs.per_node)
    assert answers.per_node.shape == (p.n, p.stripes, p.m)
    with pytest.raises(DecodeFailure):
        net.serve(qs)
    with pytest.raises(DecodeFailure):
        net.run(theta=1, user_seed=0)


def test_missing_answer_fails_loud():
    p = StorageParams(q=3, n=3, m=2, k=2)
    g = build_generator(p)
    net = SimNetwork(p, Database.random(p, np.random.default_rng(6)), g)
    del net.nodes[1]
    with pytest.raises(DecodeFailure, match="answers missing"):
        net.run(theta=1)


def test_make_randomness_modes():
    p = StorageParams(q=5, n=4, m=2, k=2)
    full = make_randomness(p, "full", node_seed=3)
    zeroed = make_randomness(p, "zeroed", node_seed=3)
    part = make_randomness(p, "partial", node_seed=3, partial_count=2)
    assert full.values.shape == (1, 2, 2)
    assert np.all(zeroed.values == 0)
    flat = part.values.ravel()
    assert np.all(flat[2:] == 0)


@pytest.mark.parametrize("q", [2, 3, 101, 1_000_003])
def test_full_randomness_is_the_shaped_draw(q):
    # the flat draw of make_randomness gives the numbers a (stripes, m, m)
    # draw from the same generator gives, so transcripts keep their bytes
    p = StorageParams(q=q, n=5, m=2, k=2, stripes=3)
    shaped = protocol.node_rng(7).integers(0, q, size=(p.stripes, p.m, p.m), dtype=np.int64)
    assert np.array_equal(make_randomness(p, "full", node_seed=7).values, shaped)


@pytest.mark.parametrize(
    "mode,count,refusal",
    [
        ("partial", True, "partial randomness count must be an integer, got True"),
        ("partial", 2.5, "partial randomness count must be an integer, got 2.5"),
        ("full", 2.5, "partial randomness count must be an integer, got 2.5"),
        ("partial", None, "partial randomness count must be an integer, got None"),
        ("partial", -1, "partial randomness count must be >= 0, got -1"),
        ("partial", 5, "partial randomness count must be <= 4, got 5"),
        ("half", None, "unknown randomness mode 'half'"),
    ],
)
def test_bad_randomness_is_refused_alike_by_run_and_audit(mode, count, refusal):
    p = StorageParams(q=3, n=3, m=2, k=2)
    g = build_generator(p)
    for call in (
        lambda: protocol.free_randomness(p, mode, count),
        lambda: make_randomness(p, mode, 0, count),
        lambda: run_audit(p, g, ("correctness",), randomness_mode=mode, partial_count=count),
    ):
        with pytest.raises(InvalidParams) as refused:
            call()
        assert str(refused.value) == refusal
    assert protocol.free_randomness(p, "partial", 4) == 4


def test_zeroed_randomness_still_decodes():
    p = StorageParams(q=2, n=3, m=2, k=2)
    g = protocol.find_decodable_generator(p)
    db = Database.random(p, np.random.default_rng(8))
    net = SimNetwork(p, db, g, randomness=make_randomness(p, "zeroed", node_seed=0))
    tr = net.run(theta=2, user_seed=1)
    assert np.array_equal(tr.decoded_file, db.file(2))


def test_randomness_defaults_to_full_draw_from_node_seed():
    p = StorageParams(q=5, n=4, m=2, k=2, stripes=2)
    g = build_generator(p)
    db = Database.random(p, np.random.default_rng(1))
    drawn = SimNetwork(p, db, g, node_seed=9)
    given = SimNetwork(p, db, g, randomness=make_randomness(p, "full", node_seed=9))
    assert drawn.nodes[0].randomness == given.nodes[0].randomness
    assert all(h.randomness is drawn.nodes[0].randomness for h in drawn.nodes)
    tr = drawn.run(2, user_seed=3)
    assert tr.answer_set == given.run(2, user_seed=3).answer_set
    assert tr.randomness_count == p.stripes * p.m * p.m


# small instances: one stripe, two stripes, and case 2 (n - m > m)
BATCH_PARAMS = [
    StorageParams(q=3, n=3, m=2, k=2),
    StorageParams(q=3, n=3, m=2, k=2, stripes=2),
    StorageParams(q=2, n=3, m=1, k=3, stripes=2),
    StorageParams(q=5, n=5, m=2, k=2),
]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    p=st.sampled_from(BATCH_PARAMS),
    batch=st.integers(1, 4),
    batched=st.sets(st.sampled_from(("db", "s", "u")), min_size=1),
    masks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_round_equals_stacked_single_rounds(p, batch, batched, masks, seed):
    """One network over B points serves every point's queries and answers
    exactly as B single-point networks do, stacked on a leading axis.  Of
    the database, randomness and masks, those not in ``batched`` are one
    value shared by every point and broadcast against the others.  And
    databases and randomness on a (1, B) lead against masks on (masks, 1)
    serve the outer-product grid: the answers at (i, j) are the single
    round of mask i at point j."""
    g = build_generator(p)
    rng = np.random.default_rng(seed)

    def draw(name, shape):
        return rng.integers(0, p.q, size=((batch,) if name in batched else ()) + shape)

    def at(name, arr, b):
        return arr[b] if name in batched else arr

    files = draw("db", (p.k, p.file_rows, p.m))
    s = draw("s", (p.stripes, p.m, p.m))
    u = draw("u", (p.stripes, p.m, p.query_len))
    net = SimNetwork(p, Database(p, files), g, randomness=CommonRandomness(s))
    singles = [
        SimNetwork(p, Database(p, at("db", files, b)), g, randomness=CommonRandomness(at("s", s, b)))
        for b in range(batch)
    ]
    for theta in range(1, p.k + 1):
        qs = protocol.gen_queries(p, g, theta, u_override=u)
        single_qs = [protocol.gen_queries(p, g, theta, u_override=at("u", u, b)) for b in range(batch)]
        expected = np.stack([one.per_node for one in single_qs]) if "u" in batched else single_qs[0].per_node
        assert np.array_equal(qs.per_node, expected)
        answers = net.exchange(qs.per_node).per_node
        single_answers = [single.exchange(one.per_node).per_node for single, one in zip(singles, single_qs)]
        assert np.array_equal(answers, np.stack(single_answers))
        # serve is one round: a batch of queries or answers is refused, not decoded
        if "u" in batched:
            with pytest.raises(InvalidParams):
                singles[0].serve(qs)
        with pytest.raises(InvalidParams):
            net.serve(qs)

    grid_files = rng.integers(0, p.q, size=(1, batch, p.k, p.file_rows, p.m))
    grid_s = rng.integers(0, p.q, size=(1, batch, p.stripes, p.m, p.m))
    grid_u = rng.integers(0, p.q, size=(masks, 1, p.stripes, p.m, p.query_len))
    grid = SimNetwork(p, Database(p, grid_files), g, randomness=CommonRandomness(grid_s))
    columns = [
        SimNetwork(p, Database(p, grid_files[0, j]), g, randomness=CommonRandomness(grid_s[0, j]))
        for j in range(batch)
    ]
    for theta in range(1, p.k + 1):
        answers = grid.exchange(protocol.gen_queries(p, g, theta, u_override=grid_u).per_node).per_node
        assert answers.shape == (masks, batch, p.n, p.stripes, p.m)
        for i, j in np.ndindex(masks, batch):
            single = columns[j].exchange(protocol.gen_queries(p, g, theta, u_override=grid_u[i, 0]).per_node)
            assert np.array_equal(answers[i, j], single.per_node)


@pytest.mark.parametrize("p", BATCH_PARAMS, ids=str)
def test_solve_of_a_batched_round_is_decode_at_each_point(p):
    """``solve`` of one round served over a batch of databases and
    randomness equals ``decode`` of each point's own round, and the file
    stored there."""
    g = build_generator(p)
    rng = np.random.default_rng(5)
    batch = 6
    db = Database(p, rng.integers(0, p.q, size=(batch, p.k, p.file_rows, p.m)))
    s = CommonRandomness(rng.integers(0, p.q, size=(batch, p.stripes, p.m, p.m)))
    net = SimNetwork(p, db, g, randomness=s)
    u = rng.integers(0, p.q, size=(batch, p.stripes, p.m, p.query_len))
    for theta in range(1, p.k + 1):
        qs = protocol.gen_queries(p, g, theta, u_override=u)
        answers = net.exchange(qs.per_node).per_node
        solved = protocol.solve(p, g, answers)
        assert solved.shape == (batch, p.file_rows, p.m)
        for b in range(batch):
            point = protocol.QuerySet(theta, qs.u[b], qs.per_node[b])
            decoded = protocol.decode(p, g, theta, point, protocol.AnswerSet(answers[b]))
            assert np.array_equal(solved[b], decoded)
            assert np.array_equal(solved[b], db.file(theta)[b])
