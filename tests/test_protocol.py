from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import reference_queries, reference_unit_mask
from spir_mds import fields, protocol, rates
from spir_mds.cli import main
from spir_mds.errors import DimensionMismatch, InvalidParams, SingularSystem, TooFewFiles
from spir_mds.protocol import (
    AnswerSet,
    CommonRandomness,
    decode,
    decode_system,
    find_decodable_generator,
    free_randomness,
    gen_answer,
    gen_queries,
    QuerySet,
    _unit_index,
    db_rng,
    make_query_plan,
    node_rng,
    user_rng,
)
from spir_mds.network import SimNetwork, make_randomness
from spir_mds.storage import (
    Database,
    GeneratorMatrix,
    NodeData,
    StorageParams,
    build_generator,
    encode,
    is_mds,
    reconstruct,
)


def full_randomness(params, rng):
    """The shared S with every symbol drawn from ``rng``."""
    return CommonRandomness.partial(params, free_randomness(params, "full"), rng)


def check_plan_shape(params):
    """Structural oracle for any plan: counts and coverage, not values."""
    plan = make_query_plan(params)
    n, m = params.n, params.m
    parity_rows = n - m
    # one unit per requested-file symbol per stripe
    assert plan.unit_count == parity_rows * m
    # a node never carries the same row twice
    for node in range(1, n + 1):
        rows = [r for r in plan.unit_rows[node - 1] if r is not None]
        assert len(rows) == len(set(rows))
    # every row is raised at exactly m nodes (one equation per unknown symbol)
    cover = {}
    for _, _, row in plan.units():
        cover[row] = cover.get(row, 0) + 1
    assert cover == {row: m for row in range(1, parity_rows + 1)}
    # each vector index keeps exactly m plain equations for the masked column
    for t in range(1, m + 1):
        plain = sum(1 for node in range(1, n + 1) if plan.unit_rows[node - 1][t - 1] is None)
        assert plain == m
    return plan


class TestQueryPlan:
    def test_case1_4_2(self):
        plan = check_plan_shape(StorageParams(q=5, n=4, m=2, k=2))
        assert plan.case == "case1"
        # staggered: node 1 raises rows 1,2 on vectors 1,2; node 2 wraps
        assert plan.unit_rows[0] == (1, 2)
        assert plan.unit_rows[1] == (2, 1)
        assert plan.unit_rows[2] == (None, None)
        assert plan.unit_rows[3] == (None, None)
        # each vector index carries units at exactly n-m systematic nodes
        for t in range(1, 3):
            carriers = [node for node in (1, 2) if plan.unit_rows[node - 1][t - 1] is not None]
            assert len(carriers) == 2

    def test_case1_3_2(self):
        plan = check_plan_shape(StorageParams(q=3, n=3, m=2, k=2))
        assert plan.case == "case1"
        assert plan.unit_rows[0] == (1, None)
        assert plan.unit_rows[1] == (None, 1)
        assert plan.unit_rows[2] == (None, None)

    def test_case2_4_1(self):
        plan = check_plan_shape(StorageParams(q=2, n=4, m=1, k=2))
        assert plan.case == "case2"
        assert (plan.alpha, plan.beta) == (3, 0)
        # systematic node all-plain; parity nodes 2..4 carry rows 1..3
        assert plan.unit_rows[0] == (None,)
        assert plan.unit_rows[1] == (1,)
        assert plan.unit_rows[2] == (2,)
        assert plan.unit_rows[3] == (3,)

    def test_case2_5_2(self):
        plan = check_plan_shape(StorageParams(q=5, n=5, m=2, k=2))
        assert plan.case == "case2"
        assert (plan.alpha, plan.beta) == (1, 1)
        # row 1 stays systematic (staggered); group {3,4} raises rows 2,3
        assert plan.unit_rows[0] == (1, None)
        assert plan.unit_rows[1] == (None, 1)
        assert plan.unit_rows[2] == (2, 3)
        assert plan.unit_rows[3] == (2, 3)
        assert plan.unit_rows[4] == (None, None)

    def test_too_few_files(self):
        with pytest.raises(TooFewFiles):
            make_query_plan(StorageParams(q=5, n=4, m=2, k=1))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), m=st.integers(1, 8))
    def test_structure_over_shapes(self, n, m):
        if m >= n:
            return
        check_plan_shape(StorageParams(q=11, n=n, m=m, k=2))


class TestGenQueries:
    def test_zero_masks_theta1(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        zero = np.zeros((1, 2, p.query_len), dtype=np.int64)
        qs = gen_queries(p, g, theta=1, u_override=zero)
        e1 = [1, 0]  # file 1, row 1 within the (n-m)*k layout
        assert qs.per_node[0, 0].tolist() == [e1, [0, 0]]
        assert qs.per_node[1, 0].tolist() == [[0, 0], e1]
        assert qs.per_node[2, 0].tolist() == [[0, 0], [0, 0]]

    def test_zero_masks_theta2_offsets_into_second_file(self):
        p = StorageParams(q=2, n=2, m=1, k=2)
        g = build_generator(p)
        zero = np.zeros((1, 1, 2), dtype=np.int64)
        qs = gen_queries(p, g, theta=2, u_override=zero)
        assert qs.per_node[0, 0].tolist() == [[0, 1]]  # file 2's single row
        assert qs.per_node[1, 0].tolist() == [[0, 0]]

    def test_translation_of_masks(self):
        # per-node queries differ from the masks by a fixed 0/1 pattern:
        # the map masks -> queries is a translation, hence a bijection
        p = StorageParams(q=5, n=5, m=2, k=3, stripes=2)
        g = build_generator(p)
        for theta in (1, 2, 3):
            qs = gen_queries(p, g, theta, user_seed=9)
            for node in range(1, p.n + 1):
                delta = (qs.per_node[node - 1] - qs.u) % p.q
                expected = reference_unit_mask(p, theta, node)
                assert np.array_equal(delta, np.broadcast_to(expected, delta.shape))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8),
        m=st.integers(1, 7),
        k=st.integers(2, 4),
        stripes=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(n=4, m=2, k=3, stripes=2, seed=0)  # n-m <= m
    @example(n=7, m=2, k=3, stripes=2, seed=0)  # n-m > m
    @example(n=4, m=1, k=2, stripes=3, seed=0)  # m = 1
    def test_matches_reference_construction(self, n, m, k, stripes, seed):
        if m >= n:
            return
        p = StorageParams(q=11, n=n, m=m, k=k, stripes=stripes)
        g = build_generator(p)
        for theta in range(1, k + 1):
            qs = gen_queries(p, g, theta, user_seed=seed)
            assert np.array_equal(qs.per_node, reference_queries(p, theta, qs.u))

    def test_bad_theta(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        with pytest.raises(InvalidParams):
            gen_queries(p, g, theta=3)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2, 4), (1, 3, 4), (1, 2, 5), (3, 1, 2, 3)], ids=str)
    def test_masks_of_the_wrong_trailing_shape_are_refused(self, shape):
        p = StorageParams(q=5, n=4, m=2, k=2)  # masks are (stripes, m, query_len) = (1, 2, 4)
        with pytest.raises(DimensionMismatch, match=r"u_override shape .* != \(1, 2, 4\)"):
            gen_queries(p, build_generator(p), 1, u_override=np.zeros(shape, dtype=np.int64))

    def test_seed_determinism(self):
        p = StorageParams(q=5, n=4, m=2, k=2)
        g = build_generator(p)
        a = gen_queries(p, g, 1, user_seed=4)
        b = gen_queries(p, g, 1, user_seed=4)
        assert a == b

    @pytest.mark.parametrize("theta", [True, 1.5, "2"], ids=repr)
    def test_theta_that_is_no_integer_is_refused(self, theta):
        p = StorageParams(q=5, n=4, m=2, k=2)
        g = build_generator(p)
        net = SimNetwork(p, Database.random(p, np.random.default_rng(0)), g)
        for call in (lambda: gen_queries(p, g, theta), lambda: net.run(theta)):
            with pytest.raises(InvalidParams, match=f"theta must be an integer, got {theta!r}"):
                call()


@pytest.mark.parametrize("make", [user_rng, node_rng, db_rng])
@pytest.mark.parametrize(
    "seed,refusal", [(-1, "must be >= 0, got -1"), (2.5, "must be an integer, got 2.5"), (True, "got True")]
)
def test_seed_domains_refuse_a_bad_seed(make, seed, refusal):
    with pytest.raises(InvalidParams, match=refusal):
        make(seed)


class TestCommonRandomness:
    def test_drawn_counts_the_symbols_drawn_per_point(self):
        p = StorageParams(q=5, n=4, m=2, k=2, stripes=2)
        total = p.stripes * p.m * p.m
        assert CommonRandomness(np.zeros((3, p.stripes, p.m, p.m))).drawn == total
        for count in (0, 3, total):
            assert CommonRandomness.partial(p, count, np.random.default_rng(1)).drawn == count
        with pytest.raises(TypeError):
            CommonRandomness(np.zeros((p.stripes, p.m, p.m)), drawn=0)
        # equal values drawn in different numbers give different rate reports
        assert make_randomness(p, "zeroed", 0) != CommonRandomness(np.zeros((p.stripes, p.m, p.m)))
        assert make_randomness(p, "partial", 0, total) == make_randomness(p, "full", 0)


class TestUnitIndex:
    """The cached flat unit index that gen_queries scatters with and
    decode checks with."""

    @pytest.mark.parametrize(
        "p, case",
        [
            (StorageParams(q=5, n=4, m=2, k=3, stripes=2), "case1"),
            (StorageParams(q=7, n=7, m=2, k=3, stripes=2), "case2"),
        ],
        ids=["case1", "case2"],
    )
    def test_read_only_and_gives_reference_queries(self, p, case):
        assert make_query_plan(p).case == case
        u = np.random.default_rng(1).integers(0, p.q, size=(p.stripes, p.m, p.query_len))
        query_index, mask_index = _unit_index(p)
        for index in (query_index, mask_index):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 0
        for theta in (1, p.k):
            offset = (theta - 1) * p.rows_per_stripe
            per_node = np.stack([u] * p.n)
            per_node.put(query_index + offset, (u.take(mask_index + offset) + 1) % p.q)
            assert np.array_equal(per_node, reference_queries(p, theta, u))


def blinding_answers(p, g, s):
    """(stripes, n, m) answers of every node on a zero database with zero
    masks: with nothing to read, each answer is its blinding term alone."""
    nodes = encode(Database.zeros(p), g)
    qs = gen_queries(p, g, 1, u_override=np.zeros((p.stripes, p.m, p.query_len), dtype=np.int64))
    answers = [gen_answer(i, qs.node_query(i), nodes[i - 1], s, g) for i in range(1, p.n + 1)]
    return np.stack(answers, axis=1)


class TestBlindingAnswers:
    def test_zero(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        out = blinding_answers(p, g, make_randomness(p, "zeroed", 0))
        assert np.all(out == 0)

    def test_repetition_adds_same_symbol(self):
        p = StorageParams(q=5, n=3, m=1, k=2)
        g = build_generator(p)
        s = CommonRandomness(np.array([[[4]]]))
        out = blinding_answers(p, g, s)
        assert np.all(out == 4)

    def test_parity_node_combines_columns(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        rng = np.random.default_rng(0)
        s = full_randomness(p, rng)
        out = blinding_answers(p, g, s)
        parity = g.column(3)
        for t in range(p.m):
            want = (parity[0] * s.values[0, 0, t] + parity[1] * s.values[0, 1, t]) % 3
            assert out[0, 2, t] == want
        # systematic node i just adds S[i][t]
        assert np.array_equal(out[0, 0], s.values[0, 0])
        assert np.array_equal(out[0, 1], s.values[0, 1])


    @pytest.mark.parametrize("length", [0, 3, 5, 8])
    def test_share_of_the_wrong_length_is_refused(self, length):
        p = StorageParams(q=5, n=4, m=2, k=2)  # a share is stripes * query_len = 4 symbols
        g = build_generator(p)
        qs = gen_queries(p, g, 1)
        share = NodeData(2, np.zeros(length, dtype=np.int64))
        with pytest.raises(DimensionMismatch, match=f"node 2: share length {length} != stripes\\*query_len 4"):
            gen_answer(2, qs.node_query(2), share, make_randomness(p, "full", 0), g)


class TestGenAnswer:
    def test_zero_mask_zero_randomness_reads_raw_symbols(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        db = Database.random(p, np.random.default_rng(2))
        nodes = encode(db, g)
        zero_u = np.zeros((1, 2, p.query_len), dtype=np.int64)
        qs = gen_queries(p, g, 1, u_override=zero_u)
        s0 = make_randomness(p, "zeroed", 0)
        ans1 = gen_answer(1, qs.node_query(1), nodes[0], s0, g)
        # node 1 raises file-1 row 1 on vector 1; vector 2 is plain zero
        assert ans1[0, 0] == db.file(1)[0, 0]
        assert ans1[0, 1] == 0

    def test_zero_mask_systematic_answer_is_blinding(self):
        p = StorageParams(q=5, n=4, m=2, k=2)
        g = build_generator(p)
        db = Database.zeros(p)
        nodes = encode(db, g)
        zero_u = np.zeros((1, 2, p.query_len), dtype=np.int64)
        qs = gen_queries(p, g, 1, u_override=zero_u)
        s = full_randomness(p, np.random.default_rng(8))
        for i in (1, 2):
            ans = gen_answer(i, qs.node_query(i), nodes[i - 1], s, g)
            # zero database: only the blinding S[i][t] remains
            assert np.array_equal(ans[0], s.values[0, i - 1])

    def test_parity_answer_is_coded_masked_products(self):
        # parity answers must equal the code applied to the masked
        # products X[i][t] = <U_t, D_i> + S[i][t] (plus coded file rows
        # where a unit rides), expanded here symbol by symbol
        p = StorageParams(q=5, n=5, m=2, k=2)  # case 2 exercises the unit term
        g = build_generator(p)
        rng = np.random.default_rng(11)
        db = Database.random(p, rng)
        nodes = encode(db, g)
        s = full_randomness(p, rng)
        theta = 2
        qs = gen_queries(p, g, theta, user_seed=5)
        plan = make_query_plan(p)
        for node in range(p.m + 1, p.n + 1):
            ans = gen_answer(node, qs.node_query(node), nodes[node - 1], s, g)
            col = g.column(node)
            for t in range(1, p.m + 1):
                x_col = [
                    (qs.u[0, t - 1] @ nodes[i - 1].values + s.values[0, i - 1, t - 1]) % p.q
                    for i in range(1, p.m + 1)
                ]
                want = sum(col[i] * x_col[i] for i in range(p.m)) % p.q
                row = plan.unit_rows[node - 1][t - 1]
                if row is not None:
                    coded_row = (db.file(theta)[row - 1] @ col) % p.q
                    want = (want + coded_row) % p.q
                assert ans[0, t - 1] == want

    def test_superposition(self):
        # answers are linear in (share, randomness) for a fixed query
        p = StorageParams(q=5, n=4, m=2, k=2)
        g = build_generator(p)
        rng = np.random.default_rng(21)
        db1, db2 = Database.random(p, rng), Database.random(p, rng)
        n1, n2 = encode(db1, g), encode(db2, g)
        s1, s2 = full_randomness(p, rng), full_randomness(p, rng)
        s_sum = CommonRandomness((s1.values + s2.values) % p.q)
        qs = gen_queries(p, g, 1, user_seed=13)
        for node in range(1, p.n + 1):
            merged = type(n1[node - 1])(node, (n1[node - 1].values + n2[node - 1].values) % p.q)
            lhs = gen_answer(node, qs.node_query(node), merged, s_sum, g)
            rhs = (
                gen_answer(node, qs.node_query(node), n1[node - 1], s1, g)
                + gen_answer(node, qs.node_query(node), n2[node - 1], s2, g)
            ) % p.q
            assert np.array_equal(lhs, rhs)
            zero_share = type(n1[node - 1])(node, np.zeros_like(n1[node - 1].values))
            zeros = gen_answer(node, qs.node_query(node), zero_share, make_randomness(p, "zeroed", 0), g)
            assert np.all(zeros == 0)


class TestDecode:
    def test_zero_mask_zero_randomness(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        db = Database.random(p, np.random.default_rng(6))
        zero_u = np.zeros((1, 2, p.query_len), dtype=np.int64)
        net = SimNetwork(p, db, g, randomness=make_randomness(p, "zeroed", 0))
        tr = net.serve(gen_queries(p, g, 1, u_override=zero_u))
        assert np.array_equal(tr.decoded_file, db.file(1))

    @pytest.mark.parametrize("theta", [1, 2])
    def test_random_trials_3_3_2(self, theta):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        rng = np.random.default_rng(theta)
        for trial in range(200):
            db = Database.random(p, rng)
            tr = SimNetwork(p, db, g, node_seed=trial).run(theta, user_seed=trial)
            assert np.array_equal(tr.decoded_file, db.file(theta))

    def test_exhaustive_4_1_case2(self):
        # every (database, mask, randomness) assignment decodes exactly
        p = StorageParams(q=2, n=4, m=1, k=2)
        g = build_generator(p)
        db_digits, u_digits, s_digits = 6, 6, 1
        for db_idx in range(2 ** db_digits):
            db_bits = [(db_idx >> i) & 1 for i in range(db_digits)]
            db = Database(p, np.array(db_bits).reshape(2, 3, 1))
            for s_idx in range(2 ** s_digits):
                net = SimNetwork(p, db, g, randomness=CommonRandomness(np.array([[[s_idx]]])))
                for u_idx in range(2 ** u_digits):
                    u_bits = np.array([(u_idx >> i) & 1 for i in range(u_digits)])
                    for theta in (1, 2):
                        tr = net.serve(gen_queries(p, g, theta, u_override=u_bits.reshape(1, 1, 6)))
                        assert np.array_equal(tr.decoded_file, db.file(theta))

    def test_inconsistent_queries_rejected(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        db = Database.random(p, np.random.default_rng(1))
        tr = SimNetwork(p, db, g, node_seed=3).run(1, user_seed=2)
        tampered = type(tr.query_set)(
            tr.query_set.theta,
            tr.query_set.u,
            (tr.query_set.per_node + 1) % p.q,
        )
        with pytest.raises(InvalidParams):
            decode(p, g, 1, tampered, tr.answer_set)


DECODE_CHECK_PARAMS = [
    StorageParams(q=5, n=4, m=2, k=3, stripes=2),  # n-m <= m
    StorageParams(q=5, n=5, m=2, k=3, stripes=2),  # n-m > m
    StorageParams(q=3, n=3, m=1, k=2, stripes=2),  # m = 1
]


def _valid_round(p, theta=2):
    db = Database.random(p, np.random.default_rng(4))
    return SimNetwork(p, db, build_generator(p), node_seed=6).run(theta, user_seed=5)


def _tampered(qs, node0, stripe, t0, col, value):
    per_node = qs.per_node.copy()
    per_node[node0, stripe, t0, col] = value
    return QuerySet(qs.theta, qs.u, per_node)


class TestDecodeConsistencyCheck:
    """decode rejects every query set that is not masks plus the unit pattern."""

    @pytest.mark.parametrize("p", DECODE_CHECK_PARAMS, ids=repr)
    @pytest.mark.parametrize("inside_theta_block", [True, False])
    def test_single_symbol_off_the_units(self, p, inside_theta_block):
        tr = _valid_round(p)
        g = build_generator(p)
        theta = tr.theta
        block = range((theta - 1) * p.rows_per_stripe, theta * p.rows_per_stripe)
        cols = block if inside_theta_block else [c for c in range(p.query_len) if c not in block]
        for node in range(1, p.n + 1):
            mask = reference_unit_mask(p, theta, node)
            for t0 in range(p.m):
                for col in cols:
                    if mask[t0, col] == 0:
                        break
                else:
                    continue
                qs = tr.query_set
                bad = _tampered(qs, node - 1, p.stripes - 1, t0, col, (qs.u[-1, t0, col] + 1) % p.q)
                with pytest.raises(InvalidParams):
                    decode(p, g, theta, bad, tr.answer_set)
                return
        pytest.fail("no plain position found")

    @pytest.mark.parametrize("p", DECODE_CHECK_PARAMS, ids=repr)
    @pytest.mark.parametrize("shift", [0, 2])
    def test_single_symbol_at_a_unit(self, p, shift):
        # shift 0 drops the unit (one difference fewer); shift 2 keeps the
        # count of differences but puts the wrong value at the unit
        tr = _valid_round(p)
        g = build_generator(p)
        qs = tr.query_set
        for node in range(1, p.n + 1):
            t0s, cols = np.nonzero(reference_unit_mask(p, tr.theta, node))
            if t0s.size:
                t0, col = int(t0s[0]), int(cols[0])
                bad = _tampered(qs, node - 1, 0, t0, col, (qs.u[0, t0, col] + shift) % p.q)
                with pytest.raises(InvalidParams):
                    decode(p, g, tr.theta, bad, tr.answer_set)
                return
        pytest.fail("no unit found")

    @pytest.mark.parametrize("p", DECODE_CHECK_PARAMS, ids=repr)
    def test_wrong_shapes(self, p):
        tr = _valid_round(p)
        g = build_generator(p)
        qs = tr.query_set
        for per_node in (qs.per_node[:-1], qs.per_node[:, :1], qs.per_node[..., :-1]):
            with pytest.raises(InvalidParams):
                decode(p, g, tr.theta, QuerySet(qs.theta, qs.u, per_node), tr.answer_set)
        with pytest.raises(InvalidParams):
            decode(p, g, tr.theta, QuerySet(qs.theta, qs.u[:1, :, :], qs.per_node), tr.answer_set)

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda a: a.transpose(1, 0, 2),  # (stripes, n, m): decoded silently before
            lambda a: a.astype(np.float64),  # returned a float "file" before
            lambda a: a[:-1],
            lambda a: a[..., :1],
            lambda a: a.ravel(),
            lambda a: a[None],
        ],
        ids=["transposed", "float", "missing_node", "short_vectors", "flat", "extra_axis"],
    )
    def test_malformed_answer_sets(self, malformed):
        p = StorageParams(q=5, n=4, m=2, k=2, stripes=2)
        tr = _valid_round(p)
        g = build_generator(p)
        with pytest.raises(InvalidParams):
            decode(p, g, tr.theta, tr.query_set, AnswerSet(malformed(tr.answer_set.per_node)))

    def test_answers_that_do_not_cast_to_int64_are_refused(self):
        # uint64 answers at q near 2**30 decoded to a float64 file, not the stored one
        p = StorageParams(q=1_000_000_007, n=4, m=2, k=2)
        g = build_generator(p)
        db = Database.random(p, np.random.default_rng(4))
        qs = gen_queries(p, g, 1, user_seed=2)
        answers = SimNetwork(p, db, g).exchange(qs.per_node).per_node
        for dtype in (np.int64, np.int32):
            assert np.array_equal(decode(p, g, 1, qs, AnswerSet(answers.astype(dtype))), db.file(1))
        with pytest.raises(InvalidParams, match="dtype uint64"):
            decode(p, g, 1, qs, AnswerSet(answers.astype(np.uint64)))

    @pytest.mark.parametrize("p", DECODE_CHECK_PARAMS, ids=repr)
    def test_theta_mismatch(self, p):
        tr = _valid_round(p, theta=2)
        g = build_generator(p)
        with pytest.raises(InvalidParams):
            decode(p, g, 1, tr.query_set, tr.answer_set)
        relabelled = QuerySet(1, tr.query_set.u, tr.query_set.per_node)
        with pytest.raises(InvalidParams):
            decode(p, g, 1, relabelled, tr.answer_set)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        p=st.sampled_from(DECODE_CHECK_PARAMS),
        theta=st.integers(1, 2),
    )
    def test_unreduced_masks_accepted_as_by_dense_check(self, data, p, theta):
        # hand-built query sets: masks shifted by multiples of q, and the
        # queries optionally hit at one symbol; decode must accept exactly
        # the sets the dense (u + mask) % q comparison accepts
        g = build_generator(p)
        qs = gen_queries(p, g, theta, user_seed=data.draw(st.integers(0, 99)))
        shape = qs.u.shape
        lifts = data.draw(st.lists(st.integers(-3, 3), min_size=qs.u.size, max_size=qs.u.size))
        u = qs.u + p.q * np.array(lifts, dtype=np.int64).reshape(shape)
        per_node = qs.per_node.copy()
        if data.draw(st.booleans()):
            where = tuple(data.draw(st.integers(0, dim - 1)) for dim in per_node.shape)
            per_node[where] += data.draw(st.integers(-p.q, p.q))
        dense_accepts = np.array_equal(reference_queries(p, theta, u), per_node)
        answers = AnswerSet(np.zeros((p.n, p.stripes, p.m), dtype=np.int64))
        try:
            decode(p, g, theta, QuerySet(theta, u, per_node), answers)
            accepted = True
        except InvalidParams:
            accepted = False
        assert accepted == dense_accepts


def _boundary_primes(n, m, k):
    """Largest prime q the int64 bound admits, and the smallest it rejects."""
    span = max((n - m) * k, n * m)

    def fits(q):
        return span * (q - 1) ** 2 + (q - 1) < 2**63

    q = int(np.sqrt(2**63 / span))
    while fits(q + 1):
        q += 1
    while not fits(q):
        q -= 1
    admitted, rejected = q, q + 1
    while not fields.is_prime(admitted):
        admitted -= 1
    while not fields.is_prime(rejected):
        rejected += 1
    return admitted, rejected


class TestOverflowGuard:
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 5), m=st.integers(1, 4), k=st.integers(2, 6))
    @example(n=4, m=2, k=2)
    @example(n=4, m=2, k=50)
    def test_boundary(self, n, m, k):
        if m >= n:
            return
        admitted, rejected = _boundary_primes(n, m, k)
        p = StorageParams(q=admitted, n=n, m=m, k=k, stripes=2)
        db = Database.random(p, np.random.default_rng(n * 100 + k))
        net = SimNetwork(p, db, build_generator(p), node_seed=3)
        for theta in (1, k):
            tr = net.run(theta, user_seed=theta)
            assert np.array_equal(tr.decoded_file, db.file(theta))
        with pytest.raises(InvalidParams, match="overflow"):
            StorageParams(q=rejected, n=n, m=m, k=k)

    @pytest.mark.parametrize("q,k", [(2147483647, 50), (4294967291, 2)])
    def test_wraparound_instances_rejected(self, q, k):
        with pytest.raises(InvalidParams, match="overflow"):
            StorageParams(q=q, n=4, m=2, k=k)

    def test_cli_exit_codes_at_boundary(self, tmp_path, capsys):
        admitted, rejected = _boundary_primes(4, 2, 2)
        base = ["run", "--n", "4", "--m", "2", "--k", "2", "--theta", "2"]
        out = ["--out", str(tmp_path / "t.json"), "--rate-out", str(tmp_path / "r.json")]
        assert main(base + ["--q", str(admitted)] + out) == 0
        assert main(base + ["--q", str(rejected)] + out) == 2
        assert "overflow" in capsys.readouterr().err


class TestGenAnswerExplicitSum:
    """gen_answer against a per-(stripe, t) sum in Python integers: a
    transposed product or a wrapped int64 sum gives another symbol."""

    N, M, K = 4, 2, 2

    @pytest.mark.parametrize("stripes", [1, 3])
    @pytest.mark.parametrize("q", [2, 101, None], ids=["q2", "q101", "largest_admitted"])
    def test_matches_python_sum(self, stripes, q):
        q = q or _boundary_primes(self.N, self.M, self.K)[0]
        p = StorageParams(q=q, n=self.N, m=self.M, k=self.K, stripes=stripes)
        g = find_decodable_generator(p)
        rng = np.random.default_rng(stripes)
        shapes = [(stripes, p.m, p.query_len), (stripes * p.query_len,), (stripes, p.m, p.m)]
        draws = [[rng.integers(0, q, size=shape) for shape in shapes] for _ in range(3)]
        draws.append([np.full(shape, q - 1) for shape in shapes])  # the largest sums
        for query, share, s in draws:
            data = share.reshape(stripes, p.query_len).tolist()
            s_vals = s.tolist()
            for node in range(1, p.n + 1):
                col = g.column(node).tolist()
                want = [
                    [
                        (
                            sum(a * b for a, b in zip(query[st_, t].tolist(), data[st_]))
                            + sum(col[i] * s_vals[st_][i][t] for i in range(p.m))
                        ) % q
                        for t in range(p.m)
                    ]
                    for st_ in range(stripes)
                ]
                got = gen_answer(node, query, NodeData(node, share), CommonRandomness(s), g)
                assert got.tolist() == want


class TestRound:
    def test_transcript_accounting(self):
        p = StorageParams(q=5, n=4, m=2, k=3, stripes=2)
        db = Database.random(p, np.random.default_rng(5))
        tr = SimNetwork(p, db, build_generator(p), node_seed=1).run(2, user_seed=1)
        assert tr.download_count == p.stripes * p.n * p.m
        assert tr.randomness_count == p.stripes * p.m * p.m
        assert tr.decoded_file.shape == (p.file_rows, p.m)

    @pytest.mark.parametrize("mode,count", [("zeroed", None), ("partial", 3), ("partial", 8), ("full", None)])
    def test_rate_report_reads_the_drawn_count(self, mode, count):
        p = StorageParams(q=5, n=4, m=2, k=3, stripes=2)
        db = Database.random(p, np.random.default_rng(5))
        shared = make_randomness(p, mode, 1, count)
        tr = SimNetwork(p, db, build_generator(p), randomness=shared).run(2, user_seed=1)
        drawn = free_randomness(p, mode, count)
        assert tr.randomness_count == drawn
        report = rates.measure(tr)
        assert report.achieved_secrecy == Fraction(drawn, p.file_len)
        below = drawn < p.stripes * p.m * p.m  # the floor is stripes * m^2 symbols
        assert report.capacity == (0 if below else Fraction(p.n - p.m, p.n))
        assert report.at_capacity is not below

    def test_two_symbols_per_one_symbol_file(self):
        p = StorageParams(q=2, n=2, m=1, k=2)
        db = Database.random(p, np.random.default_rng(7))
        tr = SimNetwork(p, db, build_generator(p)).run(1)
        assert p.file_len == 1
        assert tr.download_count == 2

    def test_k1_rejected(self):
        p = StorageParams(q=2, n=2, m=1, k=1)
        db = Database.zeros(p)
        net = SimNetwork(p, db, build_generator(p))
        with pytest.raises(TooFewFiles):
            net.run(1)

    def test_decode_failure_detected(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        db = Database.random(p, np.random.default_rng(9))
        other = Database.random(p, np.random.default_rng(10))
        qs = gen_queries(p, g, 1, user_seed=0)
        s = make_randomness(p, "zeroed", 0)
        nodes = encode(db, g)
        wrong_nodes = encode(other, g)
        answers = np.stack(
            [
                gen_answer(i, qs.node_query(i), wrong_nodes[i - 1], s, g)
                for i in range(1, p.n + 1)
            ]
        )
        decoded = decode(p, g, 1, qs, AnswerSet(answers))
        assert np.array_equal(decoded, other.file(1))
        assert not np.array_equal(decoded, db.file(1))


class TestSolvability:
    GRID = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]

    @pytest.mark.parametrize("n,m", GRID)
    def test_decode_system_full_rank(self, n, m):
        from spir_mds.storage import smallest_admissible_prime

        q = smallest_admissible_prime(n, m)
        p = StorageParams(q=q, n=n, m=m, k=2)
        g = build_generator(p)
        a = decode_system(p, g)
        assert fields.rank_of(a, q) == p.n * p.m


class TestSubThresholdGenerators:
    def test_3_2_search_is_mds(self):
        from spir_mds.storage import is_mds

        p = StorageParams(q=2, n=3, m=2, k=2)
        g = find_decodable_generator(p)
        assert is_mds(g)

    def test_4_2_binary_search_is_decodable_not_mds(self):
        # four pairwise-independent columns cannot fit in F_2^2, so the
        # search must settle for a decodable non-MDS block
        from spir_mds.storage import is_mds

        p = StorageParams(q=2, n=4, m=2, k=2)
        g = find_decodable_generator(p)
        assert not is_mds(g)
        db = Database.random(p, np.random.default_rng(12))
        net = SimNetwork(p, db, g, node_seed=2)
        for theta in (1, 2):
            tr = net.run(theta, user_seed=1)
            assert np.array_equal(tr.decoded_file, db.file(theta))

    def test_search_is_deterministic(self):
        p = StorageParams(q=2, n=4, m=2, k=2)
        assert find_decodable_generator(p) == find_decodable_generator(p)


def reference_decode_system(params, g):
    """The decode system built entry by entry with nodes 1..m read as raw
    file columns and the rest through their generator column: right for a
    systematic generator only."""
    plan = make_query_plan(params)
    n, m = params.n, params.m
    x_col = lambda i, t: (t - 1) * m + (i - 1)
    w_col = lambda row, i: m * m + (row - 1) * m + (i - 1)
    a = np.zeros((n * m, n * m), dtype=np.int64)
    for node in range(1, n + 1):
        col = g.column(node)
        for t in range(1, m + 1):
            eq = (node - 1) * m + (t - 1)
            row = plan.unit_rows[node - 1][t - 1]
            if node <= m:
                a[eq, x_col(node, t)] = 1
                if row is not None:
                    a[eq, w_col(row, node)] = 1
            else:
                for i in range(1, m + 1):
                    a[eq, x_col(i, t)] = col[i - 1]
                    if row is not None:
                        a[eq, w_col(row, i)] = col[i - 1]
    return a % params.q


# (params, generator) pairs over both plan cases, m = 1 and stripes 1 and 2
SYSTEMATIC_GENERATORS = [
    (StorageParams(q=2, n=2, m=1, k=2), build_generator),
    (StorageParams(q=2, n=4, m=1, k=3, stripes=2), build_generator),
    (StorageParams(q=3, n=3, m=2, k=2), build_generator),
    (StorageParams(q=5, n=4, m=2, k=2, stripes=2), build_generator),
    (StorageParams(q=5, n=5, m=2, k=2), build_generator),
    (StorageParams(q=7, n=7, m=3, k=2, stripes=2), build_generator),
    (StorageParams(q=11, n=9, m=4, k=2), build_generator),
    (StorageParams(q=2, n=3, m=2, k=2), find_decodable_generator),
    (StorageParams(q=2, n=4, m=2, k=2, stripes=2), find_decodable_generator),
    (StorageParams(q=3, n=4, m=2, k=2), find_decodable_generator),
    (StorageParams(q=2, n=5, m=2, k=2), find_decodable_generator),
    (StorageParams(q=3, n=6, m=2, k=2, stripes=2), find_decodable_generator),
]


class TestDecodeSystemFromTheGenerator:
    @pytest.mark.parametrize(
        "p,build", SYSTEMATIC_GENERATORS, ids=[f"{p}-{b.__name__}" for p, b in SYSTEMATIC_GENERATORS]
    )
    def test_equals_the_entry_by_entry_system(self, p, build):
        g = build(p)
        a = decode_system(p, g)
        assert not a.flags.writeable
        assert np.array_equal(a, reference_decode_system(p, g))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 7), q=st.sampled_from([2, 3, 5, 7]), stripes=st.integers(1, 2))
    def test_equals_the_entry_by_entry_system_for_any_systematic_block(self, data, n, q, stripes):
        m = data.draw(st.integers(1, n - 1))
        p = StorageParams(q=q, n=n, m=m, k=2, stripes=stripes)
        parity = data.draw(st.lists(st.integers(0, q - 1), min_size=m * (n - m), max_size=m * (n - m)))
        g = GeneratorMatrix(q, np.concatenate([np.eye(m, dtype=np.int64), np.reshape(parity, (m, n - m))], axis=1))
        assert np.array_equal(decode_system(p, g), reference_decode_system(p, g))

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize(
        "p",
        [
            StorageParams(q=5, n=4, m=2, k=2),
            StorageParams(q=3, n=3, m=2, k=2),
            StorageParams(q=5, n=4, m=1, k=2),
            StorageParams(q=7, n=6, m=2, k=3, stripes=2),
            StorageParams(q=7, n=7, m=3, k=2),
        ],
        ids=str,
    )
    def test_every_mds_generator_of_the_code_decodes(self, p, data):
        a = np.reshape(data.draw(st.lists(st.integers(0, p.q - 1), min_size=p.m**2, max_size=p.m**2)), (p.m, p.m))
        assume(fields.rank_of(a, p.q) == p.m)
        # another MDS generator of the same code, systematic only when a = I
        g = GeneratorMatrix(p.q, a @ build_generator(p).array)
        assert is_mds(g)
        seed = data.draw(st.integers(0, 2**16))
        db = Database.random(p, db_rng(seed))
        net = SimNetwork(p, db, g, node_seed=seed)
        for theta in range(1, p.k + 1):
            tr = net.run(theta, user_seed=seed)
            assert np.array_equal(tr.decoded_file, db.file(theta))
            assert np.array_equal(protocol.solve(p, g, tr.answer_set.per_node), db.file(theta))

    def test_singular_system_stays_a_typed_refusal(self):
        # node 3 stores nothing, so its plain equations are all zero
        p = StorageParams(q=5, n=4, m=2, k=2)
        g = GeneratorMatrix(p.q, [[1, 0, 0, 1], [0, 1, 0, 1]])
        with pytest.raises(SingularSystem):
            protocol.decode_matrix_inverse(p, g)
        with pytest.raises(SingularSystem):
            SimNetwork(p, Database.zeros(p), g).run(1)


# generators that do not fit (q, n, m) = (5, 4, 2): another field, and one
# node too many or too few
FIT_PARAMS = StorageParams(q=5, n=4, m=2, k=2)
MISFITS = {
    "q7": build_generator(StorageParams(q=7, n=4, m=2, k=2)),
    "n5": build_generator(StorageParams(q=5, n=5, m=2, k=2)),
    "n3": build_generator(StorageParams(q=5, n=3, m=2, k=2)),
}
FIT_DB = Database.random(FIT_PARAMS, db_rng(4))
FIT_ROUND = SimNetwork(FIT_PARAMS, FIT_DB, build_generator(FIT_PARAMS), node_seed=4).run(1, user_seed=4)

# entry point: call with a misfit generator
FIT_ENTRY_POINTS = {
    "gen_queries": lambda g: gen_queries(FIT_PARAMS, g, 1),
    "encode": lambda g: encode(FIT_DB, g),
    "reconstruct": lambda g: reconstruct(FIT_PARAMS, encode(FIT_DB, build_generator(FIT_PARAMS))[:2], g),
    "solve": lambda g: protocol.solve(FIT_PARAMS, g, FIT_ROUND.answer_set.per_node),
    "decode": lambda g: decode(FIT_PARAMS, g, 1, FIT_ROUND.query_set, FIT_ROUND.answer_set),
    "decode_matrix_inverse": lambda g: protocol.decode_matrix_inverse(FIT_PARAMS, g),
    "decode_system": lambda g: decode_system(FIT_PARAMS, g),
}


class TestGeneratorFit:
    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    @pytest.mark.parametrize("entry", sorted(FIT_ENTRY_POINTS))
    def test_every_entry_point_refuses_a_misfit_alike(self, entry, misfit):
        g = MISFITS[misfit]
        want = f"generator is (2,{g.n}) over F_{g.q}, params want (2,4) over F_5"
        with pytest.raises(DimensionMismatch) as refusal:
            FIT_ENTRY_POINTS[entry](g)
        assert str(refusal.value) == want
