import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXHAUSTIVE_INSTANCES, generator_for_instance, reference_unit_mask
from spir_mds import audit as audit_mod
from spir_mds import cli, fields, jsonio, protocol, storage
from spir_mds.audit import (
    AUDIT_SEED_DOMAIN,
    CHECKS,
    AuditReport,
    DistributionCounter,
    IndependenceCheck,
    Universe,
    _LINK_POINTS,
    _BatchContext,
    _digit_rows,
    _einsum_mod,
    _free_rows,
    _rank_gaps,
    audit_correctness,
    audit_db_privacy,
    audit_user_privacy,
    leak_experiment,
    mc_correctness,
    run_audit,
)
from spir_mds.errors import InvalidParams, TooFewFiles, UniverseTooLarge
from spir_mds.network import NodeHandler, SimNetwork, make_randomness
from spir_mds.protocol import CommonRandomness
from spir_mds.storage import Database, GeneratorMatrix, StorageParams


def pack_digits(rows, q):
    """Fold base-q digit rows into ids, first digit most significant."""
    place_values = [q ** d for d in reversed(range(np.shape(rows)[-1]))]
    return np.asarray(rows, dtype=np.int64) @ np.array(place_values, dtype=np.int64)


def database_rows(universe):
    q = universe.params.q
    return _digit_rows(np.arange(q ** universe.db_digits), q, universe.db_digits)


def mask_rows(universe):
    return _free_rows(np.arange(universe.n_u), universe.params.q, universe.u_free, universe.u_digits)


def randomness_rows(universe):
    """All shared-randomness assignments; fixed digits are zero."""
    q = universe.params.q
    return _free_rows(np.arange(q ** universe.s_free), q, universe.s_free, universe.s_digits)


def blinding_table(ctx, universe):
    """(randomness rows, n, stripes, m): the randomness side at every row of
    ``randomness_rows``, extended linearly from ``ctx.blind``, its images of
    the unit rows, of which the universe's free ones are the first."""
    free = universe.s_free
    rows = randomness_rows(universe)[:, :free]
    table = rows @ ctx.blind[:free].reshape(free, ctx.a_digits_all) % ctx.q
    return table.reshape((len(rows),) + ctx.blind.shape[1:])


def grid_chunk(ctx, universe):
    """One served chunk over the universe's whole (mask, database) grid."""
    return ctx.chunk(database_rows(universe)[None], mask_rows(universe)[:, None])


def mixed_generator(params):
    """[[1, 1], [0, 1]] @ G: the same code, no node holding a raw file column."""
    return GeneratorMatrix(params.q, np.array([[1, 1], [0, 1]]) @ storage.build_generator(params).array)


class TestEnumeration:
    @pytest.mark.parametrize("q,digits", [(2, 62), (3, 39), (5, 3)])
    def test_digit_rows_invert_pack(self, q, digits):
        rows = np.random.default_rng(digits).integers(0, q, size=(2, 3, digits))
        rows[0, 0] = q - 1
        assert np.array_equal(_digit_rows(pack_digits(rows, q), q, digits), rows)

    @settings(max_examples=200)
    @given(q=st.sampled_from([2, 3, 5, 7, 101, 1000003, 2**31 - 1]), data=st.data())
    @example(q=2, data=None)
    @example(q=3, data=None)
    @example(q=1000003, data=None)
    def test_digit_rows_pack_roundtrip(self, q, data):
        # the widest rows that pack, whose largest id is q**widest - 1; an
        # example (data=None) takes the edge
        widest = max(d for d in range(64) if q ** d < 1 << 63)
        if data is None:
            digits, ids = widest, [0, 1, q ** widest - 1]
        else:
            digits = data.draw(st.integers(0, widest), label="digits")
            ids = data.draw(st.lists(st.integers(0, q ** digits - 1), min_size=1, max_size=6), label="ids")
        ids = np.array(ids, dtype=np.int64)
        assert np.array_equal(pack_digits(_digit_rows(ids, q, digits), q), ids)


class TestDistributionCounter:
    def test_product_distribution_is_independent(self):
        counter = DistributionCounter()
        for x in range(3):
            for y in range(4):
                counter.add(x, y, (x + 1) * (y + 2))
        # counts factor as f(x)*g(y), so the rule must hold everywhere
        ok, cell = counter.check_independent()
        assert ok and cell is None

    def test_dependent_with_witness(self):
        counter = DistributionCounter()
        counter.add(0, 0, 3)
        counter.add(1, 1, 3)
        ok, cell = counter.check_independent()
        assert not ok
        assert cell in {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_structural_zero_detected(self):
        counter = DistributionCounter()
        counter.add(0, 0, 1)
        counter.add(0, 1, 1)
        counter.add(1, 0, 2)  # y=1 never occurs with x=1
        ok, cell = counter.check_independent()
        assert not ok


def pointwise_user_privacy_counter(params, g, node):
    """Independent oracle: enumerate the universe one point at a time
    through the public protocol functions and count by hand."""
    universe = Universe(params)
    counter = DistributionCounter()
    q = params.q
    u_rows = mask_rows(universe)
    s_rows = randomness_rows(universe)
    for db_row in database_rows(universe):
        db = Database(params, db_row.reshape(params.k, params.file_rows, params.m))
        shares = storage.encode(db, g)
        for u_row in u_rows:
            u_val = u_row.reshape(params.stripes, params.m, params.query_len)
            for s_row in s_rows:
                s_val = CommonRandomness(
                    s_row.reshape(params.stripes, params.m, params.m)
                )
                for theta in range(1, params.k + 1):
                    qs = protocol.gen_queries(params, g, theta, u_override=u_val)
                    ans = protocol.gen_answer(
                        node, qs.node_query(node), shares[node - 1], s_val, g
                    )
                    view = (
                        int(pack_digits(qs.node_query(node).reshape(1, -1), q)[0]),
                        int(pack_digits(ans.reshape(1, -1), q)[0]),
                        int(pack_digits(shares[node - 1].values.reshape(1, -1), q)[0]),
                        int(pack_digits(s_row.reshape(1, -1), q)[0]),
                    )
                    counter.add(theta, view)
    return counter


def pointwise_db_privacy_counter(params, g, universe):
    """Independent oracle: serve every universe point through a SimNetwork
    and count (theta, all answers, masks) against the other files."""
    counter = DistributionCounter()
    queries = [
        (theta, u_row, protocol.gen_queries(
            params, g, theta, u_override=u_row.reshape(params.stripes, params.m, params.query_len)
        ))
        for u_row in mask_rows(universe)
        for theta in range(1, params.k + 1)
    ]
    for db_row in database_rows(universe):
        db = Database(params, db_row.reshape(params.k, params.file_rows, params.m))
        for s_row in randomness_rows(universe):
            s_val = CommonRandomness(s_row.reshape(params.stripes, params.m, params.m))
            net = SimNetwork(params, db, g, randomness=s_val)
            for theta, u_row, qs in queries:
                answers = net.exchange(qs.per_node).per_node.ravel()
                others = np.delete(db.files, theta - 1, axis=0).ravel()
                counter.add(
                    (theta, tuple(answers.tolist()), tuple(u_row.tolist())),
                    tuple(others.tolist()),
                )
    return counter


class TestExactAgainstPointwiseOracle:
    @pytest.mark.parametrize(
        "params",
        [StorageParams(q=2, n=2, m=1, k=2), StorageParams(q=2, n=3, m=2, k=2)],
        ids=["2-2-1", "2-3-2"],
    )
    def test_user_privacy_matches_slow_enumeration(self, params):
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g)
        for node in range(1, params.n + 1):
            oracle = pointwise_user_privacy_counter(params, g, node)
            ok, _ = oracle.check_independent()
            assert ok == report.checks[node - 1].independent
            assert oracle.total == params.k * Universe(params).size

    @pytest.mark.parametrize(
        "params",
        [StorageParams(q=2, n=2, m=1, k=2), StorageParams(q=2, n=3, m=2, k=2)],
        ids=["2-2-1", "2-3-2"],
    )
    def test_db_privacy_matches_slow_enumeration(self, params):
        # the audit counts one key per blinding coset on the (u, c) grid and
        # rescales the witness; the oracle counts every served round
        g = generator_for_instance(params)
        modes = [{}, {"randomness_mode": "zeroed"}] + [
            {"randomness_mode": "partial", "partial_count": j}
            for j in range(Universe(params).s_digits + 1)
        ]
        failing = 0
        for mode in modes:
            check = audit_db_privacy(params, g, **mode).checks[0]
            oracle = pointwise_db_privacy_counter(params, g, Universe(params, **mode))
            assert oracle.check_independent()[0] == check.independent, mode
            assert oracle.total == params.k * check.universe_size
            if check.independent:
                continue
            failing += 1
            w = check.witness
            x = (w["theta"], tuple(w["answers"]), tuple(w["masks"]))
            y = tuple(w["other_files"])
            assert w["counts"] == {
                "joint": oracle.joint.get((x, y), 0),
                "left": oracle.left[x],
                "right": oracle.right[y],
                "total": oracle.total,
            }, mode
        assert failing > 0  # the zeroed control at least

    def test_broken_scheme_matches_slow_enumeration(self):
        params = StorageParams(q=2, n=2, m=1, k=2)
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g, mask_mode="zeroed")
        assert not report.all_passed
        # the slow oracle agrees the raw-placement scheme leaks theta:
        # with masks pinned to zero the query IS the unit placement
        universe = Universe(params, mask_mode="zeroed")
        counter = DistributionCounter()
        q = params.q
        for db_row in database_rows(universe):
            db = Database(params, db_row.reshape(params.k, params.file_rows, params.m))
            shares = storage.encode(db, g)
            for s_row in randomness_rows(universe):
                s_val = CommonRandomness(s_row.reshape(params.stripes, params.m, params.m))
                for theta in range(1, params.k + 1):
                    qs = protocol.gen_queries(
                        params,
                        g,
                        theta,
                        u_override=np.zeros(
                            (params.stripes, params.m, params.query_len), dtype=np.int64
                        ),
                    )
                    ans = protocol.gen_answer(1, qs.node_query(1), shares[0], s_val, g)
                    view = (
                        int(pack_digits(qs.node_query(1).reshape(1, -1), q)[0]),
                        int(pack_digits(ans.reshape(1, -1), q)[0]),
                    )
                    counter.add(theta, view)
        ok, cell = counter.check_independent()
        assert not ok


class TestExhaustiveInstances:
    @pytest.mark.parametrize("params", EXHAUSTIVE_INSTANCES, ids=str)
    def test_user_privacy(self, params):
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g)
        assert len(report.checks) == params.n
        for check in report.checks:
            assert check.exact
            assert check.independent
            assert check.conditional_equal
            assert check.witness is None

    @pytest.mark.parametrize("mask_mode", ["full", "zeroed"])
    @pytest.mark.parametrize("params", EXHAUSTIVE_INSTANCES, ids=str)
    def test_user_verdict_is_conditional_equality(self, params, mask_mode):
        # every theta audits the same universe, so theta is uniform and the
        # product rule holds exactly when the per-theta tables are equal
        report = audit_user_privacy(params, generator_for_instance(params), mask_mode=mask_mode)
        for check in report.checks:
            assert check.independent == check.conditional_equal
            assert (check.witness is None) == check.independent
        assert report.all_passed == (mask_mode == "full")

    @pytest.mark.parametrize("params", EXHAUSTIVE_INSTANCES, ids=str)
    def test_db_privacy(self, params):
        g = generator_for_instance(params)
        report = audit_db_privacy(params, g)
        assert report.all_passed
        assert report.checks[0].exact

    @pytest.mark.parametrize("params", EXHAUSTIVE_INSTANCES, ids=str)
    def test_correctness(self, params):
        g = generator_for_instance(params)
        assert audit_correctness(params, g)

    @pytest.mark.parametrize("params", EXHAUSTIVE_INSTANCES, ids=str)
    def test_zeroed_randomness_leaks(self, params):
        g = generator_for_instance(params)
        report = leak_experiment(params, g, "zeroed")
        assert not report.all_passed
        witness = report.failed_checks()[0].witness
        assert witness is not None
        counts = witness["counts"]
        assert counts["joint"] * counts["total"] != counts["left"] * counts["right"]

    # the (n, m) grid at k=2 and q in {2, 3} wherever the universe fits
    # the ceiling; (4,2) only fits at q=2
    INVARIANT_GRID = [
        StorageParams(q=2, n=3, m=1, k=2),
        StorageParams(q=3, n=2, m=1, k=2),
        StorageParams(q=3, n=3, m=1, k=2),
        StorageParams(q=3, n=3, m=2, k=2),
        StorageParams(q=3, n=4, m=1, k=2),
    ]

    @pytest.mark.parametrize("params", INVARIANT_GRID, ids=str)
    def test_invariant_grid(self, params):
        g = generator_for_instance(params)
        assert audit_user_privacy(params, g).all_passed
        assert audit_db_privacy(params, g).all_passed
        assert audit_correctness(params, g)
        assert not leak_experiment(params, g, "zeroed").all_passed


class TestLeakModes:
    def test_full_mode_equals_plain_audit(self):
        params = StorageParams(q=2, n=2, m=1, k=2)
        g = generator_for_instance(params)
        assert leak_experiment(params, g, "full").all_passed

    def test_partial_extremes(self):
        params = StorageParams(q=2, n=3, m=2, k=2)
        g = generator_for_instance(params)
        total = params.stripes * params.m * params.m
        assert not leak_experiment(params, g, "partial", partial_count=0).all_passed
        assert leak_experiment(params, g, "partial", partial_count=total).all_passed

    def test_partial_sweep_reports_without_asserting(self):
        # intermediate budgets are reported, not predicted
        params = StorageParams(q=2, n=3, m=2, k=2)
        g = generator_for_instance(params)
        total = params.stripes * params.m * params.m
        verdicts = {
            j: leak_experiment(params, g, "partial", partial_count=j).all_passed
            for j in range(total + 1)
        }
        assert verdicts[0] is False and verdicts[total] is True

    def test_decoding_survives_zeroed_randomness(self):
        params = StorageParams(q=2, n=3, m=2, k=2)
        g = generator_for_instance(params)
        db = Database.random(params, np.random.default_rng(3))
        tr = SimNetwork(params, db, g, randomness=make_randomness(params, "zeroed", 0)).run(1, user_seed=1)
        assert np.array_equal(tr.decoded_file, db.file(1))


class TestCeilingAndMonteCarlo:
    def test_universe_too_large(self):
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        with pytest.raises(UniverseTooLarge):
            audit_db_privacy(params, g)
        with pytest.raises(UniverseTooLarge):
            audit_user_privacy(params, g)
        with pytest.raises(UniverseTooLarge):
            audit_correctness(params, g)

    @pytest.mark.parametrize(
        "ceiling,samples", [(audit_mod.DEFAULT_UNIVERSE_CEILING, None), (0, None), (0, 10)],
        ids=["within", "above", "above-monte-carlo"],
    )
    def test_one_file_is_refused_before_any_network(self, ceiling, samples, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(SimNetwork, "__init__", build)
        params = StorageParams(q=2, n=2, m=1, k=1)
        with pytest.raises(TooFewFiles, match="k >= 2"):
            run_audit(params, storage.build_generator(params), ceiling=ceiling, samples=samples)

    def test_tight_ceiling_rejects_small_instance(self):
        params = StorageParams(q=2, n=2, m=1, k=2)
        g = generator_for_instance(params)
        with pytest.raises(UniverseTooLarge):
            audit_user_privacy(params, g, ceiling=8)

    def test_monte_carlo_reports_statistical(self):
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        report = audit_db_privacy(params, g, samples=1500, seed=1)
        check = report.checks[0]
        assert not check.exact
        assert check.p_value is not None
        assert check.independent  # healthy scheme should not be flagged

    def test_monte_carlo_flags_broken_user_privacy(self):
        # raw unit placements pin the query to theta, which the screen
        # detects easily because the view clusters per index
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        report = audit_user_privacy(params, g, mask_mode="zeroed", samples=1500, seed=1)
        assert not report.all_passed
        flagged = report.failed_checks()
        assert flagged and all(c.p_value < 1e-6 for c in flagged)

    def test_monte_carlo_db_screen_is_weak_on_sparse_views(self):
        # at q=5 the conditional leak hides from marginal projections and
        # the full view is near-unique per sample; the screen stays quiet
        # and the result stays labeled statistical, never exact
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        report = leak_experiment(params, g, "zeroed", samples=1500, seed=1)
        check = report.checks[0]
        assert not check.exact
        assert check.p_value is not None

    def test_monte_carlo_flags_binary_zeroed_leak(self):
        # at q=2 the unmasked answer correlates with the other file even
        # marginally, so the sampled screen catches it
        params = StorageParams(q=2, n=2, m=1, k=2)
        g = storage.build_generator(params)
        report = leak_experiment(params, g, "zeroed", ceiling=4, samples=3000, seed=1)
        check = report.checks[0]
        assert not check.exact
        assert not check.independent
        assert check.p_value < 1e-6
        # and the healthy scheme is not flagged under the same forcing
        healthy = leak_experiment(params, g, "full", ceiling=4, samples=3000, seed=1)
        assert healthy.all_passed

    def test_monte_carlo_keys_past_int64(self):
        # 90-digit query and mask rows at q=7 do not fit a packed int64 key
        params = StorageParams(q=7, n=6, m=3, k=10)
        g = storage.build_generator(params)
        assert params.q ** Universe(params).u_digits >= 2 ** 63
        user = audit_user_privacy(params, g, samples=12, seed=3)
        assert len(user.checks) == params.n
        assert all(not c.exact for c in user.checks)
        db = audit_db_privacy(params, g, samples=4, seed=3)
        assert not db.checks[0].exact

    def test_monte_carlo_db_screen_budget_is_refused_before_any_sample(self, monkeypatch):
        # 32 pairwise tables x 600,000 samples is past the default ceiling
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        drawn = []
        monkeypatch.setattr(audit_mod, "_mc_networks", lambda *args: drawn.append(args))
        with pytest.raises(UniverseTooLarge, match="32 pairwise tables x 600000 samples"):
            run_audit(params, g, ("db-privacy",), samples=600_000)
        assert drawn == []

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_is_invalid(self, samples):
        # an empty sample would pass every screen vacuously
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        with pytest.raises(InvalidParams, match="at least one sample"):
            audit_user_privacy(params, g, samples=samples)
        with pytest.raises(InvalidParams, match="at least one sample"):
            audit_db_privacy(params, g, samples=samples)
        with pytest.raises(InvalidParams, match="at least one sample"):
            mc_correctness(params, g, samples)

    def test_monte_carlo_user_privacy(self):
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = storage.build_generator(params)
        report = audit_user_privacy(params, g, samples=800, seed=2)
        assert len(report.checks) == params.n
        assert all(not c.exact for c in report.checks)
        assert report.all_passed


class TestNonSystematicGenerator:
    """[[1, 1], [0, 1]] @ G is another MDS generator of the same code, with
    no node holding a raw file column: the audit decides it exactly."""

    @pytest.mark.parametrize(
        "params", [StorageParams(q=3, n=3, m=2, k=2), StorageParams(q=5, n=4, m=2, k=2)], ids=str
    )
    def test_every_check_passes_exactly(self, params):
        report = run_audit(params, mixed_generator(params), ceiling=2**200)
        nodes = [f"user_privacy_node_{j}" for j in range(1, params.n + 1)]
        assert [c.name for c in report.checks] == ["correctness", *nodes, "db_privacy"]
        assert report.all_passed
        assert all(c.exact for c in report.checks)


class TestSweepCannotGoVacuous:
    PARAMS = StorageParams(q=2, n=3, m=2, k=2)

    def test_flipped_answer_digit_fails_selfcheck(self, monkeypatch):
        real = _BatchContext.answer_parts

        def flipped(self, chunk, theta):
            ip = real(self, chunk, theta)
            ip = ip.copy()
            ip[..., 0, 0, 0] = (ip[..., 0, 0, 0] + 1) % self.q  # at every point of every chunk
            return ip

        monkeypatch.setattr(_BatchContext, "answer_parts", flipped)
        g = generator_for_instance(self.PARAMS)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            audit_user_privacy(self.PARAMS, g)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            audit_correctness(self.PARAMS, g)

    def test_wrong_decode_inverse_fails_correctness(self, monkeypatch):
        g = generator_for_instance(self.PARAMS)
        assert audit_correctness(self.PARAMS, g)
        inv = protocol.decode_matrix_inverse(self.PARAMS, g).copy()
        p = self.PARAMS
        inv[p.m * p.m, 0] = (inv[p.m * p.m, 0] + 1) % p.q  # first file-symbol row
        monkeypatch.setattr(protocol, "decode_matrix_inverse", lambda params, gen: inv)
        assert audit_correctness(self.PARAMS, g) is False

    def test_wrong_decode_inverse_fails_mc_correctness(self, monkeypatch):
        g = generator_for_instance(self.PARAMS)
        assert mc_correctness(self.PARAMS, g, 20, seed=1) is True
        inv = protocol.decode_matrix_inverse(self.PARAMS, g).copy()
        p = self.PARAMS
        inv[p.m * p.m, 0] = (inv[p.m * p.m, 0] + 1) % p.q  # first file-symbol row
        monkeypatch.setattr(protocol, "decode_matrix_inverse", lambda params, gen: inv)
        assert mc_correctness(self.PARAMS, g, 20, seed=1) is False


def link_rows(params, seed=0):
    """The (database, mask, randomness) digit rows the link samples, drawn
    as it draws them: in that order from one generator, every digit of
    the plain universe uniform, whatever universe a check audits."""
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
    universe = Universe(params)
    return [rng.integers(0, params.q, size=(_LINK_POINTS, digits))
            for digits in (universe.db_digits, universe.u_digits, universe.s_digits)]


def log_served_rounds(monkeypatch) -> list:
    """Log, in call order, each network built with its database, each
    query set gen_queries returns and each node answer with its query."""
    log = []
    spy(monkeypatch, SimNetwork, "__init__", log, lambda net, params, db, *_: ("network", db))
    spy(monkeypatch, NodeHandler, "answer", log, lambda handler, query: ("answer", handler.node_index, query))
    real = protocol.gen_queries

    def gen_queries(*args, **kwargs):
        log.append(("queries", real(*args, **kwargs)))
        return log[-1][1]

    monkeypatch.setattr(protocol, "gen_queries", gen_queries)
    return log


def assert_linked_rounds(log, params, seed=0):
    """One link's log: the round at the sampled points, then the basis
    round.  Each is one network whose database batch is its databases (the
    sampled ones, then the unit ones); then per index one gen_queries over
    its masks (the 32 sampled ones, then mask 0); then each node's one
    answer call, given its own query for every index and point."""
    sampled, masks, _ = link_rows(params, seed)
    units, zero = np.eye(sampled.shape[1], dtype=np.int64), np.zeros((1, masks.shape[1]), dtype=np.int64)
    per_round = 1 + params.k + params.n
    assert len(log) == 2 * per_round
    for rows, u_rows, ((kind, db), *rounds) in [(sampled, masks, log[:per_round]), (units, zero, log[per_round:])]:
        assert kind == "network"
        assert np.array_equal(db.files.reshape(len(rows), -1), rows)
        query_sets, answers = rounds[: params.k], rounds[params.k :]
        for theta, (kind, qs) in enumerate(query_sets, 1):
            assert kind == "queries" and qs.theta == theta
            assert np.array_equal(qs.u.reshape(len(u_rows), -1), u_rows)
        assert [entry[:2] for entry in answers] == [("answer", node) for node in range(1, params.n + 1)]
        for _, node, query in answers:
            for theta, (_, qs) in enumerate(query_sets, 1):
                assert np.array_equal(query[theta - 1], qs.per_node[..., node - 1, :, :, :])


def spy(monkeypatch, owner, name, log, record):
    """Wrap ``owner.name`` so each call appends ``record(*args)`` to ``log``."""
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        log.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


class TestSelfcheckServesEveryPoint:
    """The link runs the served round at every sampled point and index, and
    compares every one of them with the basis chunk and the blinding
    table."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    def test_one_network_over_every_point_and_one_round_per_index(self, monkeypatch):
        p = self.PARAMS
        ctx = _BatchContext(p, generator_for_instance(p))
        log = log_served_rounds(monkeypatch)
        ctx.link()
        assert_linked_rounds(log, p)

    @pytest.mark.parametrize("where", ["last_point", "last_theta"])
    def test_one_wrong_batched_answer_fails(self, monkeypatch, where):
        p = self.PARAMS
        real = _BatchContext.answer_parts

        def flipped(self, chunk, theta):
            ip = real(self, chunk, theta)
            ip = ip.copy()
            if where == "last_point":  # the basis's one mask at its last unit database
                ip[-1, -1, -1, -1, -1] += 1
            elif theta == p.k:
                ip[..., -1] += 1
            return ip % self.q

        monkeypatch.setattr(_BatchContext, "answer_parts", flipped)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            audit_user_privacy(p, generator_for_instance(p))

    @pytest.mark.parametrize("drift", ["fractional", "broadcastable_shape"])
    def test_served_answers_are_compared_as_served(self, monkeypatch, drift):
        # a store into an int64 buffer would floor the 0.5 away; the served
        # arrays must reach the comparison with their own dtype and shape,
        # while the blinding table they are compared with keeps its own
        real = SimNetwork.exchange

        def drifted(net, query_set):
            per_node = real(net, query_set).per_node
            return protocol.AnswerSet(per_node + 0.5 if drift == "fractional" else per_node[..., :1])

        monkeypatch.setattr(SimNetwork, "exchange", drifted)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            audit_user_privacy(self.PARAMS, generator_for_instance(self.PARAMS))


class TestOneContextPerCall:
    """run_audit builds at most one context, the code's answer model, and
    links it once, whatever universes its checks audit: one network over
    32 sampled points and one for the basis, in every call."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    def served_rounds(self, monkeypatch, audit):
        """The params of each context built while ``audit`` runs, each
        link's log of served rounds, and every network built."""
        contexts, linked = [], []
        spy(monkeypatch, _BatchContext, "__init__", contexts, lambda ctx, params, g: params)
        log = log_served_rounds(monkeypatch)
        real = _BatchContext.link

        def logged(ctx, seed=0):
            before = len(log)
            real(ctx, seed)
            linked.append(log[before:])

        monkeypatch.setattr(_BatchContext, "link", logged)
        audit()
        return contexts, linked, [entry for entry in log if entry[0] == "network"]

    def assert_one_linked_context(self, contexts, linked, networks):
        assert contexts == [self.PARAMS] and len(linked) == 1 and len(networks) == 2
        assert_linked_rounds(linked[0], self.PARAMS)

    @pytest.mark.parametrize(
        "argv",
        [(), ("--checks", "db-privacy"), ("--randomness", "zeroed"), ("--randomness", "partial=2")],
        ids=["default", "db-privacy", "zeroed", "partial2"],
    )
    def test_cli_audit(self, monkeypatch, tmp_path, argv):
        p = self.PARAMS
        argv = ["audit", "--q", str(p.q), "--n", str(p.n), "--m", str(p.m), "--k", str(p.k), *argv]
        self.assert_one_linked_context(
            *self.served_rounds(monkeypatch, lambda: cli.main([*argv, "--out", str(tmp_path / "audit.json")]))
        )

    @pytest.mark.parametrize(
        "audit",
        [
            audit_correctness,
            audit_user_privacy,
            lambda params, g: audit_user_privacy(params, g, mask_mode="zeroed"),
            audit_db_privacy,
            lambda params, g: leak_experiment(params, g, "zeroed"),
            lambda params, g: run_audit(params, g, mask_mode="zeroed", randomness_mode="partial", partial_count=1),
        ],
        ids=["correctness", "user_privacy", "user_privacy_zeroed_masks", "db_privacy", "leak_zeroed",
             "three_universes"],
    )
    def test_each_wrapper(self, monkeypatch, audit):
        g = generator_for_instance(self.PARAMS)
        self.assert_one_linked_context(*self.served_rounds(monkeypatch, lambda: audit(self.PARAMS, g)))

    @pytest.mark.parametrize(
        "checks,options",
        [(("db-privacy",), {"randomness_mode": "zeroed"}), (("user-privacy",), {"mask_mode": "zeroed"})],
        ids=["zeroed_randomness", "zeroed_masks"],
    )
    def test_link_samples_nonzero_randomness_and_masks(self, monkeypatch, checks, options):
        # a check's universe fixes digits at zero, but the link's points
        # draw every digit; only the basis is served at mask 0 with zero S
        built, real = [], SimNetwork.__init__

        def init(net, *args, **kwargs):
            real(net, *args, **kwargs)
            built.append(net)

        monkeypatch.setattr(SimNetwork, "__init__", init)
        log = log_served_rounds(monkeypatch)
        run_audit(self.PARAMS, generator_for_instance(self.PARAMS), checks, **options)
        randomness = [net.nodes[0].randomness.values.any() for net in built]
        masks = [entry[1].u.any() for entry in log if entry[0] == "queries"]
        assert randomness == [True, False]  # the sampled points, then the basis
        assert masks[: self.PARAMS.k] == [True] * self.PARAMS.k
        assert masks[self.PARAMS.k : 2 * self.PARAMS.k] == [False] * self.PARAMS.k

    @pytest.mark.parametrize(
        "checks,options,match",
        [
            ((), {}, "non-empty subset"),
            (("user_privacy",), {}, "non-empty subset"),
            (("correctness",), {"randomness_mode": "bogus"}, "unknown randomness mode"),
            (("correctness",), {"mask_mode": "bogus"}, "unknown mask mode"),
            (("correctness",), {"samples": 0}, "at least one sample"),
            (("correctness",), {"samples": 2.5}, "samples must be an integer, got 2.5"),
            (("correctness",), {"seed": -1}, "seed must be >= 0, got -1"),
            (("correctness",), {"seed": 1.5}, "seed must be an integer, got 1.5"),
            (("correctness",), {"seed": True}, "seed must be an integer, got True"),
            (("correctness",), {"ceiling": 2.5}, "ceiling must be an integer, got 2.5"),
        ],
        ids=["empty", "unknown", "randomness_mode", "mask_mode", "samples", "fractional_samples",
             "negative_seed", "fractional_seed", "bool_seed", "fractional_ceiling"],
    )
    def test_refused_before_any_work(self, monkeypatch, checks, options, match):
        g = generator_for_instance(self.PARAMS)

        def refused():
            with pytest.raises(InvalidParams, match=match):
                run_audit(self.PARAMS, g, checks, **options)

        assert self.served_rounds(monkeypatch, refused) == ([], [], [])


def full_grid_correctness(params, g):
    """Reference correctness: decode the mask and randomness sides apart and
    compare the decoded symbol with the file at every (u, c, s) point."""
    ctx, universe = _BatchContext(params, g), Universe(params)
    q, eqs, w_pos_count = params.q, params.n * params.m, params.rows_per_stripe * params.m
    w_rows = protocol.decode_matrix_inverse(params, g)[params.m * params.m :]
    blind_w = decoded_blinding(params, g)
    grid = grid_chunk(ctx, universe)
    c = len(grid["files"])
    for theta in range(1, params.k + 1):
        ip = ctx.answer_parts(grid, theta)
        ip = ip.transpose(0, 1, 3, 2, 4).reshape(universe.n_u, c, params.stripes, eqs)
        ip_w = (ip @ w_rows.T) % q
        expected = grid["files"][:, theta - 1].reshape(c, params.stripes, w_pos_count)
        for blind_s in blind_w:  # one randomness row at a time
            if not ((ip_w + blind_s) % q == expected).all():
                return False
    return True


def decoded_blinding(params, g):
    """(randomness rows, stripes, w_pos): the file symbols decoded from the
    randomness side at every randomness row."""
    ctx = _BatchContext(params, g)
    w_rows = protocol.decode_matrix_inverse(params, g)[params.m * params.m :]
    table = blinding_table(ctx, Universe(params))
    blind = table.transpose(0, 2, 1, 3).reshape(len(table), params.stripes, params.n * params.m)
    return (blind @ w_rows.T) % params.q


class TestCorrectnessOnTheGrid:
    """Correctness is decided on the (mask, database) grid after one check
    that the decoded blinding is a single value over the randomness axis;
    it agrees with the decode at every (u, c, s) point."""

    PARAMS = StorageParams(q=2, n=3, m=2, k=2)

    @pytest.mark.parametrize("params", EXHAUSTIVE_INSTANCES, ids=str)
    def test_agrees_with_every_point(self, params):
        g = generator_for_instance(params)
        assert audit_correctness(params, g) is full_grid_correctness(params, g) is True

    def blinding_cancels(self, g):
        blind_w = decoded_blinding(self.PARAMS, g)
        return bool((blind_w == blind_w[0]).all())

    def test_mask_side_flip_fails_with_cancelling_blinding(self, monkeypatch):
        real = _BatchContext.answer_parts

        def flipped(self, chunk, theta):
            ip = real(self, chunk, theta)
            ip = ip.copy()
            ip[:, :, 0, 0, 0] = (ip[:, :, 0, 0, 0] + 1) % self.q
            return ip

        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", flipped)
        g = generator_for_instance(self.PARAMS)
        assert self.blinding_cancels(g)
        assert audit_correctness(self.PARAMS, g) is full_grid_correctness(self.PARAMS, g) is False

    def test_wrong_inverse_fails_on_the_blinding(self, monkeypatch):
        g = generator_for_instance(self.PARAMS)
        p = self.PARAMS
        inv = protocol.decode_matrix_inverse(p, g).copy()
        inv[p.m * p.m, 0] = (inv[p.m * p.m, 0] + 1) % p.q  # first file-symbol row
        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
        monkeypatch.setattr(protocol, "decode_matrix_inverse", lambda params, gen: inv)
        assert not self.blinding_cancels(g)
        assert audit_correctness(p, g) is full_grid_correctness(p, g) is False

    def test_randomness_side_flip_fails_with_a_right_mask_side(self, monkeypatch):
        # only the blinding of the unit S rows moves, and so that of some
        # s > 0: the grid check alone would pass, since blind_w[0] and
        # every mask side are untouched
        real = _BatchContext.__init__

        def flipped(self, *args):
            real(self, *args)
            self.blind = self.blind.copy()
            self.blind[:, 0, 0, 0] = (self.blind[:, 0, 0, 0] + 1) % self.q

        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "__init__", flipped)
        g = generator_for_instance(self.PARAMS)
        assert not self.blinding_cancels(g)
        assert audit_correctness(self.PARAMS, g) is full_grid_correctness(self.PARAMS, g) is False

    @pytest.mark.parametrize("params", [PARAMS, StorageParams(q=3, n=3, m=2, k=2)], ids=str)
    def test_constant_nonzero_blinding_cancels_against_the_mask_side(self, monkeypatch, params):
        # move a fixed offset v from every mask side to the blinding of
        # every unit S row: there the answers, and so the decoded file, are
        # unchanged, but the decoded blinding is the nonzero constant v_w;
        # extended linearly, the blinding at S = 0 lacks v, so the grid
        # decode fails there
        offset = np.random.default_rng(3).integers(1, params.q, size=(params.n, params.stripes, params.m))
        real_init, real_parts = _BatchContext.__init__, _BatchContext.answer_parts

        def shifted_init(self, *args):
            real_init(self, *args)
            self.blind = (self.blind + offset) % self.q

        def shifted_parts(self, chunk, theta):
            return (real_parts(self, chunk, theta) - offset) % self.q

        monkeypatch.setattr(_BatchContext, "__init__", shifted_init)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted_parts)
        g = generator_for_instance(params)
        blind_w = decoded_blinding(params, g)
        units_w = blind_w[[params.q ** i for i in reversed(range(Universe(params).s_digits))]]
        assert (units_w == units_w[0]).all() and units_w[0].any()
        assert full_grid_correctness(params, g) is False
        # the shifted mask side is not linear in the database, so the
        # link refuses it before the certificate decides
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            audit_correctness(params, g)


def full_view_witness(ctx, universe, node):
    """Reference user-privacy witness: one node's view (query, answer,
    share, S) counted at every (u, c, s) point of the universe's grid, the
    first cell, in (theta, view) order, that breaks the product rule; None
    when no cell does.  A view is counted by its key, (query, answer, share)
    packed and then the randomness row's id, which orders as the tuple."""
    p, q = ctx.params, ctx.q
    grid = grid_chunk(ctx, universe)
    s_rows, blind = randomness_rows(universe), blinding_table(ctx, universe)
    n_s, n_u = len(s_rows), universe.n_u
    u_mats = mask_rows(universe).reshape(n_u, p.stripes, p.m, p.query_len)
    share = pack_digits(grid["data"][node - 1].reshape(len(grid["files"]), -1), q)
    a_radix, d_radix = q ** ctx.a_digits_node, q ** p.node_len
    keys = []
    for theta in range(1, p.k + 1):
        query = pack_digits(((u_mats + reference_unit_mask(p, theta, node)) % q).reshape(n_u, -1), q)
        answers = (ctx.answer_parts(grid, theta)[:, :, node - 1][:, :, None] + blind[:, node - 1]) % q
        answer = pack_digits(answers.reshape(answers.shape[:3] + (-1,)), q)  # (u, c, s)
        cell = (query[:, None, None] * a_radix + answer) * d_radix + share[:, None]
        keys.append((cell * n_s + np.arange(n_s)).ravel())  # S's id last
    views, right = np.unique(np.concatenate(keys), return_counts=True)
    left = keys[0].size
    total = p.k * left
    for theta, key in enumerate(keys, 1):
        vals, joint = np.unique(key, return_counts=True)
        rights = right[np.searchsorted(views, vals)]
        bad = np.flatnonzero(joint * total != left * rights)
        if bad.size:
            i = bad[0]
            view, s = divmod(int(vals[i]), n_s)
            view, node_data = divmod(view, d_radix)
            query, answer = divmod(view, a_radix)
            return {
                "theta": theta,
                "node": node,
                "query": _digit_rows(query, q, universe.u_digits).tolist(),
                "answers": _digit_rows(answer, q, ctx.a_digits_node).tolist(),
                "node_data": _digit_rows(node_data, q, p.node_len).tolist(),
                "shared_randomness": s_rows[s].tolist(),
                "counts": {
                    "joint": int(joint[i]),
                    "left": left,
                    "right": int(rights[i]),
                    "total": total,
                },
            }
    return None


def leak_theta(monkeypatch, leak, link=False):
    """Make node 1's mask side depend on theta: shifted by theta, or, at
    theta 2, read at another database; the link is off unless ``link``."""
    real = _BatchContext.answer_parts

    def leaky(self, chunk, theta):
        ip = real(self, chunk, theta)
        out = ip.copy()
        if leak == "shifted":
            out[:, :, 0, 0, 0] = (ip[:, :, 0, 0, 0] + theta) % self.q
        elif theta == 2:
            out[:, :, 0] = np.flip(ip[:, :, 0], axis=1)
        return out

    if not link:
        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
    monkeypatch.setattr(_BatchContext, "answer_parts", leaky)


class TestGridCertificate:
    """User privacy is decided by the query law: the report's witnesses are
    the first broken cells of the full view tables, and an answer that is
    no inner product of the served query with the share is refused."""

    # small enough for the per-point reference; the k = 3 instances are
    # not pinned by REPORT_SHA256
    WITNESS_INSTANCES = [
        StorageParams(q=2, n=3, m=2, k=2),
        StorageParams(q=2, n=3, m=1, k=3),
        StorageParams(q=3, n=2, m=1, k=3),
    ]

    @pytest.mark.parametrize("mask_mode", ["full", "zeroed"])
    @pytest.mark.parametrize(
        "params", [StorageParams(q=2, n=2, m=1, k=2)] + WITNESS_INSTANCES, ids=str
    )
    def test_grid_equality_is_view_equality(self, params, mask_mode):
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g, mask_mode=mask_mode)
        ctx, universe = _BatchContext(params, g), Universe(params, mask_mode=mask_mode)
        witnesses = [full_view_witness(ctx, universe, node) for node in range(1, params.n + 1)]
        assert [check.witness for check in report.checks] == witnesses
        for check, witness in zip(report.checks, witnesses):
            assert check.conditional_equal == check.independent == (witness is None)
        assert report.all_passed == (mask_mode == "full")

    # the basis has one mask, and at m = 1 the flip of the unit databases
    # leaves node 1's mask side at theta 2 as it is: those reads leak
    # nothing there, and TestServedMutantsFailTheLink takes their instances
    @pytest.mark.parametrize(
        "params,leak",
        [(params, leak) for params in WITNESS_INSTANCES + [StorageParams(q=3, n=3, m=2, k=2)]
         for leak in ("shifted", "other_database") if leak == "shifted" or params.m > 1],
        ids=str,
    )
    def test_theta_dependent_answer_is_off_the_model(self, monkeypatch, params, leak):
        leak_theta(monkeypatch, leak)
        with pytest.raises(AssertionError, match="basis answers are not the queries' inner products"):
            audit_user_privacy(params, generator_for_instance(params))

    # the zeroed-mask witnesses at (5, 4, 2, 2), 5**12 points per index:
    # nodes 1 and 2 hold the unit patterns, nodes 3 and 4 none
    ZEROED_5_4_2_2 = [
        {"theta": 1, "node": node, "query": query, "answers": [0, 0], "node_data": [0, 0, 0, 0],
         "shared_randomness": [0, 0, 0, 0],
         "counts": {"joint": 625, "left": 244140625, "right": 625, "total": 488281250}}
        for node, query in ((1, [1, 0, 0, 0, 0, 1, 0, 0]), (2, [0, 1, 0, 0, 1, 0, 0, 0]))
    ] + [None, None]

    def test_zeroed_mask_witnesses_far_above_the_default_ceiling(self):
        params = StorageParams(q=5, n=4, m=2, k=2)
        g = generator_for_instance(params)
        report = run_audit(params, g, ("user-privacy",), mask_mode="zeroed", ceiling=2**60)
        assert [check.witness for check in report.checks] == self.ZEROED_5_4_2_2
        assert all(check.exact for check in report.checks)

    def test_link_refuses_a_theta_dependent_answer_first(self, monkeypatch):
        params = StorageParams(q=3, n=3, m=2, k=2)
        leak_theta(monkeypatch, "shifted", link=True)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            audit_user_privacy(params, generator_for_instance(params))


def double_the_mask(monkeypatch, link=False):
    """Serve every node the query P + 2u in place of P + u: still an inner
    product with the share, but no longer a one-time pad on the mask (at
    q = 2 it is the constant P); the link is off unless ``link``."""
    real = protocol.gen_queries

    def doubled(*args, **kwargs):
        qs = real(*args, **kwargs)
        return protocol.QuerySet(qs.theta, qs.u, (qs.per_node + qs.u[..., None, :, :, :]) % args[0].q)

    if not link:
        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
    monkeypatch.setattr(protocol, "gen_queries", doubled)


class TestQueryLaw:
    """User privacy is decided from the basis queries alone: a query that is
    not the mask plus a fixed pattern is refused, and each zeroed-mask
    witness breaks the product rule, at sizes no sweep could reach."""

    OFF_MODEL = [
        StorageParams(q=2, n=3, m=2, k=2),
        StorageParams(q=2, n=3, m=1, k=3),
        StorageParams(q=3, n=2, m=1, k=3),
        StorageParams(q=3, n=3, m=2, k=2),
    ]

    @pytest.mark.parametrize("params", OFF_MODEL, ids=str)
    def test_query_off_the_translation_is_off_the_model(self, monkeypatch, params):
        double_the_mask(monkeypatch)
        with pytest.raises(AssertionError, match="basis queries are not the mask plus a fixed pattern"):
            audit_user_privacy(params, generator_for_instance(params))

    def test_link_refuses_an_off_translation_query_first(self, monkeypatch):
        params = StorageParams(q=3, n=3, m=2, k=2)
        double_the_mask(monkeypatch, link=True)
        with pytest.raises(AssertionError, match="served queries are not the basis query at mask 0 plus the mask"):
            audit_user_privacy(params, generator_for_instance(params))

    # each is past the default ceiling under zeroed masks but one (3,3,2,2)
    ZEROED = [
        StorageParams(q=3, n=3, m=2, k=2),
        StorageParams(q=3, n=3, m=2, k=2, stripes=2),
        StorageParams(q=3, n=4, m=2, k=3),
        StorageParams(q=5, n=4, m=2, k=2),
        StorageParams(q=7, n=4, m=2, k=2),
    ]

    @pytest.mark.parametrize("params", ZEROED, ids=str)
    def test_zeroed_mask_witnesses_break_the_product_rule(self, params):
        report = audit_user_privacy(params, generator_for_instance(params), mask_mode="zeroed", ceiling=2**4000)
        assert all(check.exact for check in report.checks)
        witnesses = [check.witness for check in report.checks if check.witness is not None]
        assert witnesses and len(witnesses) == len(report.failed_checks())
        for w in witnesses:
            c = w["counts"]
            assert c["total"] == params.k * c["left"]
            assert c["joint"] * c["total"] != c["left"] * c["right"]

    # q**(U + db + S digits) points, past 2**56: the sweep ran out of memory
    # on the mask rows at q = 11
    @pytest.mark.parametrize(
        "params", [StorageParams(q=7, n=4, m=2, k=2), StorageParams(q=11, n=4, m=2, k=2)], ids=str
    )
    def test_exact_audit_far_above_the_default_ceiling(self, params):
        report = run_audit(params, generator_for_instance(params), ceiling=2**80)
        assert Universe(params).size > 2**56
        assert report.all_passed and all(check.exact for check in report.checks)


def mask_side(ctx, ip):
    """The (masks, c, n, stripes, m) inner products of a chunk's masks alone
    with every node's share: its mask side ``ip`` with no index's units.
    The mask side is affine in the mask, and the first mask of the basis
    and of the grid's masks is zero, so its row is the units' part; on the
    basis, whose one mask is zero, it is zero."""
    return (ip - ip[:1]) % ctx.q


def blinding_span(ctx, free):
    """The reduced row-echelon basis and the pivots of the blinding span V
    of the first ``free`` randomness digits."""
    basis, pivots = fields.rref(ctx.blind[:free].reshape(free, ctx.a_digits_all), ctx.q)
    return basis[: len(pivots)], pivots


def least_members(rows, basis, pivots, q):
    """Lexicographically least member of each coset ``row + V``, for V's
    reduced row-echelon ``basis``: ``row - row[pivots] @ basis`` is zero at
    the pivots, and any other member of the coset is larger at its first
    nonzero coefficient's pivot and equal before it."""
    return (rows - _einsum_mod("...p,pj->...j", rows[..., pivots], basis, q)) % q


def reference_rank_gaps(ctx, free, u_rows):
    """The rank gaps by a second route: each column of ``mask_matrices``
    reduced to its coset's least member, the requested file's first, and
    one elimination of them, V left out."""
    p = ctx.params
    matrices = least_members(ctx.mask_matrices(u_rows), *blinding_span(ctx, free), ctx.q)
    cols = np.stack([np.roll(m, -theta * p.file_len, axis=1) for theta, m in enumerate(matrices)], axis=1)
    _, found = fields.row_reduce(cols.swapaxes(-1, -2), ctx.q)
    return found[..., : p.file_len].sum(axis=-1), found.sum(axis=-1)


class TestBlindingCosetKeys:
    """Database privacy is counted once per coset ip + V of the blinding
    span V: the key of a mask side is the packed least member of its
    coset, shared by every answer the randomness can turn it into.  The
    audit computes no key; the keys order the view cells of its witness
    proof, and ``reference_rank_gaps`` reads them."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    # all 6,561 (u, c) rows of the grid, and the first 500 of them (the ids
    # name the two reduction paths the keys took before they became one)
    @pytest.mark.parametrize("limit", [None, 500], ids=["word_table", "row_reduction"])
    @pytest.mark.parametrize("partial_count", [None, 2], ids=["full", "partial2"])
    def test_key_is_least_member_of_the_coset(self, limit, partial_count):
        params = self.PARAMS
        if partial_count is None:
            universe = Universe(params)
        else:
            universe = Universe(params, randomness_mode="partial", partial_count=partial_count)
        ctx = _BatchContext(params, generator_for_instance(params))
        basis, pivots = blinding_span(ctx, universe.s_free)
        ip = ctx.answer_parts(grid_chunk(ctx, universe), 1).reshape(-1, ctx.a_digits_all)[:limit]
        blind = blinding_table(ctx, universe).reshape(-1, ctx.a_digits_all)
        keys = pack_digits(least_members(ip, basis, pivots, params.q), params.q)
        coset = pack_digits((ip[:, None] + blind[None]) % params.q, params.q)  # (rows, randomness rows)
        assert np.array_equal(keys, coset.min(axis=1))
        for s_idx in range(len(blind)):
            shifted = (ip + blind[s_idx]) % params.q
            assert np.array_equal(pack_digits(least_members(shifted, basis, pivots, params.q), params.q), keys)

    # W̄'s first symbol w0 added to the answers at (stripe 0, t 0), times a
    # codeword row of G (inside V) or at node 1 alone (no codeword of the
    # MDS [3, 2] code, so outside V).  The requested file's symbols pad
    # every direction outside V, so a shift outside V stays hidden while
    # they are served; without them only V can hide it
    @pytest.mark.parametrize(
        "where,requested,private",
        [
            ("codeword", True, True),
            ("node_1", True, True),
            ("codeword", False, True),
            ("node_1", False, False),
        ],
        ids=["codeword", "node_1", "codeword_unpadded", "node_1_unpadded"],
    )
    def test_shift_inside_the_span_is_hidden(self, monkeypatch, where, requested, private):
        params = self.PARAMS
        g = generator_for_instance(params)
        real = _BatchContext.answer_parts

        def shifted(self, chunk, theta):
            ip = real(self, chunk, theta)
            out = ip.copy() if requested else mask_side(self, ip)
            w0 = np.delete(chunk["files"], theta - 1, axis=1).reshape(len(chunk["files"]), -1)[:, 0]
            shift = g.array[0] if where == "codeword" else np.eye(params.n, dtype=np.int64)[0]
            out[:, :, :, 0, 0] = (out[:, :, :, 0, 0] + w0[:, None] * shift) % self.q
            return out

        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted)
        check = audit_db_privacy(params, g).checks[0]
        # a shift inside V leaves decoding right, so the certificate
        # decides; every other shift breaks decoding, and the rank gap does
        assert check.independent == private
        if private:
            assert check.witness is None
        else:
            counts = check.witness["counts"]
            assert counts["joint"] * counts["total"] != counts["left"] * counts["right"]

    # the mutant's shift at node 1: the witness counts, scaled from the
    # coset keys, equal the counts over the full (u, c, s) grid
    def test_witness_counts_match_the_full_grid(self, monkeypatch):
        params = StorageParams(q=2, n=3, m=2, k=2)
        g = GeneratorMatrix(2, [[1, 0, 1], [0, 1, 1]])
        real = _BatchContext.answer_parts

        def shifted(self, chunk, theta):
            out = mask_side(self, real(self, chunk, theta))
            w0 = np.delete(chunk["files"], theta - 1, axis=1).reshape(len(chunk["files"]), -1)[:, 0]
            out[:, :, 0, 0, 0] = (out[:, :, 0, 0, 0] + w0) % self.q
            return out

        monkeypatch.setattr(_BatchContext, "link", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted)
        check = audit_db_privacy(params, g).checks[0]
        ctx, universe = _BatchContext(params, g), Universe(params)
        # the full (u, c, s) grid of the same batched answers
        reference = DistributionCounter()
        grid, u_rows = grid_chunk(ctx, universe), mask_rows(universe)
        for theta in range(1, params.k + 1):
            ip = ctx.answer_parts(grid, theta)
            answers = (ip[:, :, None] + blinding_table(ctx, universe)[None, None]) % params.q
            others = np.delete(grid["files"], theta - 1, axis=1).reshape(len(grid["files"]), -1)
            for u, c, s in np.ndindex(answers.shape[:3]):
                reference.add(
                    (theta, tuple(answers[u, c, s].ravel().tolist()), tuple(u_rows[u].tolist())),
                    tuple(others[c].tolist()),
                )
        assert reference.check_independent()[0] is False
        assert not check.independent
        w = check.witness
        x = (w["theta"], tuple(w["answers"]), tuple(w["masks"]))
        y = tuple(w["other_files"])
        assert w["counts"] == {
            "joint": reference.joint.get((x, y), 0),
            "left": reference.left[x],
            "right": reference.right[y],
            "total": reference.total,
        }


class TestRankGap:
    """Below the secrecy floor, the leak of one (mask, index) pair is its
    rank gap: the rank of every database column modulo the blinding span
    V less that of the requested file's columns.  Driven over every mask,
    the mean gap in q-ary symbols is the leak table of the coset-key
    counts, at every randomness budget J."""

    # (q, n, m, k): the mean gap at J = 0, 1, ..., s_digits
    LEAK_TABLE = {
        (2, 4, 2, 2): ["21/8", "33/16", "21/16", "3/4", "0"],
        (3, 3, 2, 2): ["16/9", "14/9", "8/9", "2/3", "0"],
        (2, 3, 2, 2): ["3/2", "5/4", "3/4", "1/2", "0"],
        (2, 4, 1, 2): ["7/8", "0"],
        (3, 4, 1, 2): ["26/27", "0"],
        (2, 2, 1, 2): ["1/2", "0"],
    }

    def mean_gaps(self, params, context):
        """The mean gap at each budget J, on the context ``context(J)``."""
        means = []
        for j in range(Universe(params).s_digits + 1):
            universe = Universe(params, randomness_mode="partial", partial_count=j)
            r_own, r_full = _rank_gaps(context(j), universe.s_free, mask_rows(universe))
            assert r_own.shape == (universe.n_u, params.k) and (r_own <= r_full).all()
            means.append(Fraction(int((r_full - r_own).sum()), r_own.size))
        return means

    @pytest.mark.parametrize("instance", LEAK_TABLE, ids=str)
    def test_mean_gap_is_the_leak_table(self, instance):
        params = StorageParams(*instance)
        g = generator_for_instance(params)
        means = self.mean_gaps(params, lambda j: _BatchContext(params, g))
        assert means == [Fraction(value) for value in self.LEAK_TABLE[instance]]

    @pytest.mark.parametrize("instance", LEAK_TABLE, ids=str)
    def test_one_context_reads_every_budget(self, monkeypatch, instance):
        # one answer model, one basis chunk: each budget J reads the first
        # J rows of the same blinding generators
        params = StorageParams(*instance)
        ctx = _BatchContext(params, generator_for_instance(params))
        chunks = []
        spy(monkeypatch, _BatchContext, "chunk", chunks, lambda ctx, rows, u_rows: rows.shape)
        means = self.mean_gaps(params, lambda j: ctx)
        assert means == [Fraction(value) for value in self.LEAK_TABLE[instance]]
        assert chunks == [(1, Universe(params).db_digits, Universe(params).db_digits)]

    def test_the_first_leak_in_mask_order(self):
        # the zeroed control leaks first at mask id 1; the witness is the
        # zero view cell of that pair, read off its ranks
        params = StorageParams(q=3, n=3, m=2, k=2)
        g = generator_for_instance(params)
        check = run_audit(params, g, ("db-privacy",), randomness_mode="zeroed").checks[0]
        assert not check.independent
        ctx, universe = _BatchContext(params, g), Universe(params, randomness_mode="zeroed")
        u_rows = mask_rows(universe)
        r_own, r_full = _rank_gaps(ctx, universe.s_free, u_rows)
        u_idx, theta = np.argwhere(r_own < r_full)[0]
        w = check.witness
        assert (w["theta"], w["masks"]) == (theta + 1, u_rows[u_idx].tolist())
        assert not any(w["answers"]) and not any(w["other_files"])
        assert w["counts"]["joint"] == params.q ** (params.file_len - r_own[u_idx, theta])
        assert w["counts"]["left"] == params.q ** (Universe(params).db_digits - r_full[u_idx, theta])


def reference_mask_matrices(ctx, u_rows):
    """The mask matrices read off served answers alone: the chunk of the
    unit databases at the masks {0, e_1, ..., e_U}, extended by bilinear
    expansion, ip(0) plus u_i * (ip(e_i) - ip(0)) summed over the mask
    digits i, as the mask side is affine in the mask."""
    q, full = ctx.q, Universe(ctx.params)
    masks = np.eye(full.u_digits + 1, full.u_digits, -1, dtype=np.int64)
    ip = ctx.chunk(np.eye(full.db_digits, dtype=np.int64)[None], masks[:, None])["ip"]
    ip = ip.reshape(ip.shape[:3] + (-1,))  # (k, U + 1, db_digits, answer digits)
    return (ip[:, 0, None] + _einsum_mod("pi,kidx->kpdx", u_rows, (ip[:, 1:] - ip[:, :1]) % q, q)) % q


class TestAnswerModel:
    """The answer model, ip(0) plus the mask's coded term, is the mask side
    that a basis served at every unit mask predicts; under full randomness
    the mask's term lies in the blinding span, so every mask has mask 0's
    rank gaps."""

    MODEL_CASES = [
        (StorageParams(q=3, n=3, m=2, k=2), generator_for_instance, "full"),
        (StorageParams(q=5, n=4, m=2, k=2), generator_for_instance, "zeroed"),
        (StorageParams(q=7, n=4, m=2, k=3, stripes=2), generator_for_instance, "full"),
        (StorageParams(q=2, n=4, m=2, k=2), protocol.find_decodable_generator, "full"),
        (StorageParams(q=101, n=10, m=4, k=3), generator_for_instance, "full"),
        (StorageParams(q=11, n=5, m=3, k=2, stripes=2), generator_for_instance, "full"),
        (StorageParams(q=3, n=3, m=2, k=2), mixed_generator, "full"),
        (StorageParams(q=5, n=4, m=2, k=2), mixed_generator, "full"),
    ]

    @pytest.mark.parametrize(
        "params,generator,mask_mode", MODEL_CASES,
        ids=[f"{p}-{gen.__name__}-{masks}" for p, gen, masks in MODEL_CASES],
    )
    def test_model_is_the_bilinear_expansion_of_served_unit_masks(self, params, generator, mask_mode):
        ctx, universe = _BatchContext(params, generator(params)), Universe(params, mask_mode=mask_mode)
        u_rows = np.random.default_rng(params.q).integers(0, params.q, size=(12, universe.u_digits))
        u_rows[0] = 0
        assert np.array_equal(ctx.mask_matrices(u_rows), reference_mask_matrices(ctx, u_rows))

    GAP_INSTANCES = [
        StorageParams(q=2, n=3, m=2, k=2),
        StorageParams(q=3, n=3, m=2, k=2),
        StorageParams(q=5, n=4, m=2, k=2),
        StorageParams(q=2, n=4, m=2, k=2),
        StorageParams(q=7, n=4, m=2, k=3, stripes=2),
    ]

    @settings(max_examples=30, deadline=None)
    @given(params=st.sampled_from(GAP_INSTANCES), data=st.data())
    def test_full_randomness_gaps_are_mask_0s(self, params, data):
        ctx, universe = _BatchContext(params, generator_for_instance(params)), Universe(params)
        digits = st.lists(st.integers(0, params.q - 1), min_size=universe.u_digits, max_size=universe.u_digits)
        u_rows = np.array([[0] * universe.u_digits] + data.draw(st.lists(digits, min_size=1, max_size=6)))
        r_own, r_full = _rank_gaps(ctx, universe.s_free, u_rows)
        assert (r_own == r_own[0]).all() and (r_full == r_full[0]).all()

    def test_zeroed_randomness_gaps_vary_with_the_mask(self):
        # without the blinding span the mask's term counts, so the property
        # above is no tautology of the rank gap
        params = StorageParams(q=3, n=3, m=2, k=2)
        ctx, universe = _BatchContext(params, generator_for_instance(params)), Universe(params, randomness_mode="zeroed")
        r_own, r_full = _rank_gaps(ctx, universe.s_free, mask_rows(universe))
        assert (r_own != r_own[0]).any() or (r_full != r_full[0]).any()

    @pytest.mark.parametrize("q", [101, 1000003])
    def test_wrong_decoder_is_decided_at_mask_0(self, monkeypatch, q):
        # the certificate fails on the decoder, and mask 0 alone decides
        # where a scan would read 101**4 or 1000003**4 masks; at q =
        # 1000003 the universe has 1000003**12 points, past 2**200
        p = StorageParams(q=q, n=3, m=2, k=2)
        g = generator_for_instance(p)
        inv = protocol.decode_matrix_inverse(p, g).copy()
        inv[p.m * p.m, 0] = (inv[p.m * p.m, 0] + 1) % q  # first file-symbol row
        monkeypatch.setattr(protocol, "decode_matrix_inverse", lambda params, gen: inv)
        real = audit_mod._rank_gaps

        def mask_0_only(ctx, free, u_rows):
            if u_rows.any():
                raise AssertionError(f"the rank gap read masks {u_rows.tolist()}")
            return real(ctx, free, u_rows)

        monkeypatch.setattr(audit_mod, "_rank_gaps", mask_0_only)
        correctness, db = run_audit(p, g, ("correctness", "db-privacy"), ceiling=2**300).checks
        assert not correctness.independent
        assert db.independent and db.exact

    @pytest.mark.parametrize("randomness", ["full", "zeroed"])
    def test_large_instance_is_decided_in_seconds(self, randomness):
        # the default audit and the zeroed control at (101, 10, 4, 6, 2):
        # one served point per unit database, not one per unit mask too
        p = StorageParams(q=101, n=10, m=4, k=6, stripes=2)
        checks = CHECKS if randomness == "full" else ("db-privacy",)
        start = time.perf_counter()
        report = run_audit(p, generator_for_instance(p), checks, randomness_mode=randomness, ceiling=2**100000)
        assert time.perf_counter() - start < 5
        assert report.all_passed == (randomness == "full")
        assert all(check.exact for check in report.checks)

    @pytest.mark.parametrize(
        "p", [StorageParams(q=3, n=3, m=2, k=2), StorageParams(q=7, n=4, m=2, k=3, stripes=2)], ids=str
    )
    def test_link_applies_the_model_without_mask_matrices(self, monkeypatch, p):
        # the link predicts its points term by term, so it never builds the
        # dense (k, points, db_digits, answers) matrices
        def refused(ctx, u_rows):
            raise AssertionError("the link built mask_matrices")

        monkeypatch.setattr(_BatchContext, "mask_matrices", refused)
        _BatchContext(p, generator_for_instance(p)).link()


class TestRankRoute:
    """The rank gap eliminates modulo V in one pass, V's generators first;
    its ranks are those of the least coset members, the route that reduced
    V apart and projected every column onto its least member first."""

    # (params, generator, randomness mode, partial count)
    CASES = [
        (StorageParams(q=3, n=3, m=2, k=2), generator_for_instance, "full", None),
        (StorageParams(q=3, n=3, m=2, k=2), generator_for_instance, "partial", 2),
        (StorageParams(q=3, n=3, m=2, k=2), generator_for_instance, "zeroed", None),
        (StorageParams(q=5, n=4, m=2, k=2), generator_for_instance, "partial", 1),
        (StorageParams(q=2, n=4, m=2, k=2), protocol.find_decodable_generator, "partial", 3),
        (StorageParams(q=3, n=3, m=2, k=2), mixed_generator, "partial", 1),
        (StorageParams(q=5, n=4, m=2, k=2), mixed_generator, "full", None),
    ]

    @pytest.mark.parametrize(
        "params,generator,mode,j", CASES, ids=[f"{p}-{gen.__name__}-{mode}{j or ''}" for p, gen, mode, j in CASES]
    )
    def test_ranks_are_the_least_member_ranks(self, params, generator, mode, j):
        ctx, universe = _BatchContext(params, generator(params)), Universe(params, mode, j)
        if universe.n_u <= 4096:
            u_rows = mask_rows(universe)
        else:
            u_rows = np.random.default_rng(params.q).integers(0, params.q, size=(64, universe.u_digits))
        r_own, r_full = _rank_gaps(ctx, universe.s_free, u_rows)
        expected = reference_rank_gaps(ctx, universe.s_free, u_rows)
        assert np.array_equal(r_own, expected[0]) and np.array_equal(r_full, expected[1])
        assert r_own.dtype.kind == r_full.dtype.kind == "i"

    @settings(max_examples=40, deadline=None)
    @given(params=st.sampled_from(TestAnswerModel.GAP_INSTANCES), data=st.data())
    def test_random_masks_and_budgets(self, params, data):
        universe = Universe(params)
        j = data.draw(st.integers(0, universe.s_digits), label="randomness budget J")
        ctx = _BatchContext(params, generator_for_instance(params))
        digits = st.lists(st.integers(0, params.q - 1), min_size=universe.u_digits, max_size=universe.u_digits)
        u_rows = np.array(data.draw(st.lists(digits, min_size=1, max_size=6)), dtype=np.int64)
        r_own, r_full = _rank_gaps(ctx, j, u_rows)
        expected = reference_rank_gaps(ctx, j, u_rows)
        assert np.array_equal(r_own, expected[0]) and np.array_equal(r_full, expected[1])


class TestRankBatchBytes:
    """A rank-gap batch stays within ``_RANK_BATCH_BYTES`` of stacked (k,
    masks, answers, s_free + db_digits) int64 matrices, or holds one mask,
    and its size changes no verdict or witness: the scan is in mask order."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)
    LATE = 40  # the first mask id whose term counts

    def late_leak_report(self, monkeypatch, cap):
        # with the mask's term zero below mask id LATE every earlier mask is
        # mask 0 and leaks nothing, so the scan reads several batches
        p, universe = self.PARAMS, Universe(self.PARAMS, "partial", 2)
        real = audit_mod._mask_term

        def late(params, u_rows, slots):
            ids = pack_digits(u_rows[:, : universe.u_free], params.q)
            return real(params, u_rows * (ids >= self.LATE)[:, None], slots)

        batches = []
        with monkeypatch.context() as patched:
            patched.setattr(audit_mod, "_mask_term", late)
            patched.setattr(_BatchContext, "link", lambda self, seed=0: None)
            patched.setattr(audit_mod, "_RANK_BATCH_BYTES", cap)
            spy(patched, audit_mod, "_rank_gaps", batches, lambda ctx, free, u_rows: len(u_rows))
            report = run_audit(p, generator_for_instance(p), ("db-privacy",), randomness_mode="partial",
                               partial_count=universe.partial_count)
        per_mask = 8 * p.k * p.n * p.stripes * p.m * (universe.s_free + universe.db_digits)
        return jsonio.canonical_dumps(jsonio.audit_report_to_json(report)), batches, per_mask

    @pytest.mark.parametrize("masks", [0, 1, 3], ids=["below_one_mask", "one_mask", "three_masks"])
    def test_batches_fit_and_the_report_is_unchanged(self, monkeypatch, masks):
        reference, default_batches, per_mask = self.late_leak_report(monkeypatch, audit_mod._RANK_BATCH_BYTES)
        cap = max(masks * per_mask, 1)
        report, batches, _ = self.late_leak_report(monkeypatch, cap)
        assert default_batches[:4] == [4, 8, 16, 32]
        assert len(batches) > len(default_batches)
        assert all(size == 1 or size * per_mask <= cap for size in batches) and min(batches) >= 1
        assert sum(batches) > self.LATE and sum(batches[:-1]) <= self.LATE  # the scan stops at the leak
        assert report == reference and '"all_passed": false' in report


def serve_mutant(monkeypatch, mutant):
    """Serve node 1's answers off the answer model, still affine in the mask
    and linear in the database: its inner product doubled with the blinding
    untouched, or its query or its share read reversed."""
    real = protocol.gen_answer

    def mutated(node_index, query, d, s, g):
        if node_index != 1:
            return real(node_index, query, d, s, g)
        if mutant == "scaled":
            unblinded = real(node_index, query, d, CommonRandomness(np.zeros_like(s.values)), g)
            return (real(node_index, query, d, s, g) + unblinded) % g.q
        if mutant == "reversed_query":
            return real(node_index, query[..., ::-1], d, s, g)
        return real(node_index, query, storage.NodeData(d.node_index, d.values[..., ::-1]), s, g)

    monkeypatch.setattr(protocol, "gen_answer", mutated)


class TestServedMutantsFailTheLink:
    """The answer model is computed from the files and the generator, not
    read off served answers, so a node that serves off the model is refused
    by the link before any check decides, whichever check it is."""

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("mutant", ["scaled", "reversed_query", "reversed_share"])
    @pytest.mark.parametrize(
        "params",
        [StorageParams(q=3, n=3, m=2, k=2), StorageParams(q=2, n=3, m=1, k=3),
         StorageParams(q=3, n=2, m=1, k=3), StorageParams(q=5, n=4, m=2, k=2)],
        ids=str,
    )
    def test_refused_by_the_link(self, monkeypatch, params, mutant, check):
        serve_mutant(monkeypatch, mutant)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            run_audit(params, generator_for_instance(params), (check,), ceiling=2**200)


class TestContextSplit:
    """The parts of the answer model are built on first read, the context
    holds no universe, ``blind`` holds every unit randomness row, of which
    a universe's free ones are the first, and the link serves no chunk but
    the basis."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    def test_the_link_serves_the_basis_as_its_one_chunk(self, monkeypatch):
        p = self.PARAMS
        chunks = []
        spy(monkeypatch, _BatchContext, "chunk", chunks, lambda ctx, rows, u_rows: (rows, u_rows))
        ctx = _BatchContext(p, generator_for_instance(p))
        assert not {"blind", "basis", "coded", "ip_at_0", "decodes"} & set(vars(ctx))
        for stale in ("universe", "n_u"):  # a universe is the check's, never the context's
            with pytest.raises(AttributeError):
                getattr(ctx, stale)
        ctx.link()
        ((rows, u_rows),) = chunks
        assert np.array_equal(rows, np.eye(Universe(p).db_digits)[None]) and not u_rows.any()
        assert "decodes" not in vars(ctx)

    @pytest.mark.parametrize(
        "mode", [{}, {"randomness_mode": "partial", "partial_count": 5}, {"randomness_mode": "zeroed"}],
        ids=["full", "partial5", "zeroed"],
    )
    def test_blind_holds_the_free_unit_rows(self, mode):
        p = StorageParams(q=3, n=3, m=2, k=2, stripes=3)
        universe, g = Universe(p, **mode), generator_for_instance(p)
        ctx = _BatchContext(p, g)
        assert ctx.blind.shape == (universe.s_digits, p.n, p.stripes, p.m)
        # the universe's free unit rows, np.eye(free, s_digits), are the first rows of np.eye(s_digits)
        s_mats = np.eye(universe.s_free, universe.s_digits, dtype=np.int64).reshape(-1, p.stripes, p.m, p.m)
        assert np.array_equal(ctx.blind[: universe.s_free], np.einsum("xsit,in->xnst", s_mats, g.array) % p.q)

    def test_axis_past_int64_is_audited_exactly(self):
        # 3**164 points fit under the ceiling, and the database axis has
        # 3**80 rows, past int64
        p = StorageParams(q=3, n=3, m=2, k=40)
        g = generator_for_instance(p)
        assert p.q ** Universe(p).db_digits >= 2**63
        report = run_audit(p, g, ceiling=2**300)
        assert report.all_passed and all(check.exact for check in report.checks)
        (leak,) = run_audit(p, g, ("db-privacy",), randomness_mode="zeroed", ceiling=2**300).checks
        assert leak.exact and not leak.independent and leak.witness is not None


class TestEachContextDecidesOnce:
    """A context decodes its basis once, however many checks read it, and
    row-reduces its blinding span apart only for the certificate's rank;
    the rank gap eliminates V inside its own elimination."""

    def test_the_basis_is_decoded_once_per_context(self, monkeypatch):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = generator_for_instance(p)
        contexts, solved = [], []
        spy(monkeypatch, _BatchContext, "__init__", contexts, lambda ctx, params, g: params)
        spy(monkeypatch, protocol, "solve", solved, lambda params, g, answers: answers.shape)
        assert run_audit(p, g).all_passed
        assert contexts == [p]
        universe = Universe(p)
        blind = (universe.s_digits, p.n, p.stripes, p.m)
        basis = (1, universe.db_digits, p.n, p.stripes, p.m)  # mask 0 alone
        assert solved == [blind] + [basis] * p.k

    def test_the_blinding_span_is_reduced_once_per_context(self, monkeypatch):
        # a wrong decoder under full randomness fails the certificate and
        # no (mask, index) pair leaks; each mask is mask 0 modulo the
        # blinding span, so the rank gap reads mask 0 alone
        p = StorageParams(q=2, n=3, m=2, k=2)
        g = generator_for_instance(p)
        inv = protocol.decode_matrix_inverse(p, g).copy()
        inv[p.m * p.m, 0] = (inv[p.m * p.m, 0] + 1) % p.q  # first file-symbol row
        monkeypatch.setattr(protocol, "decode_matrix_inverse", lambda params, gen: inv)
        batches, reduced = [], []
        spy(monkeypatch, audit_mod, "_rank_gaps", batches, lambda ctx, free, u_rows: len(u_rows))
        spy(monkeypatch, fields, "rref", reduced, lambda arr, q: np.shape(arr))
        (check,) = run_audit(p, g, ("db-privacy",)).checks
        assert check.independent and check.exact
        assert batches == [1]
        assert reduced == [(Universe(p).s_digits, p.n * p.stripes * p.m)]


class TestSumsStayInsideInt64:
    """An audit contraction whose term count ``StorageParams`` does not
    bound is summed in blocks that each stay inside int64."""

    # 36 database digits of (q - 1)**2 each: the largest exact sum in the
    # link is 1.08 * 2**63
    PARAMS = StorageParams(q=876706517, n=4, m=3, k=12)

    def test_past_int64_sums_decide_exactly(self):
        p = self.PARAMS
        g = generator_for_instance(p)
        assert Universe(p).db_digits * (p.q - 1) ** 2 >= 2**63
        start = time.perf_counter()
        report = run_audit(p, g, ceiling=2**100000)
        assert time.perf_counter() - start < 1
        assert report.all_passed and all(check.exact for check in report.checks)
        (leak,) = run_audit(p, g, ("db-privacy",), randomness_mode="zeroed", ceiling=2**100000).checks
        assert leak.exact and not leak.independent
        counts = leak.witness["counts"]
        assert counts["joint"] * counts["total"] != counts["left"] * counts["right"]

    def test_blocked_contraction_is_the_exact_sum(self):
        # 40 terms near (q - 1)**2, about 3.3 * 2**63 in all, take 4
        # blocks of 12; an empty axis gives zeros of the full shape
        q = self.PARAMS.q
        rng = np.random.default_rng(5)
        a, b = rng.integers(q - 1000, q, size=(3, 40)), rng.integers(q - 1000, q, size=(2, 40, 5))
        exact = [[[sum(int(x) * int(y) for x, y in zip(a[i], b[j, :, k])) % q for k in range(5)]
                  for j in range(2)] for i in range(3)]
        assert np.array_equal(_einsum_mod("id,jdk->ijk", a, b, q), exact)
        assert np.array_equal(_einsum_mod("id,jdk->ijk", a[:, :0], b[:, :0], q), np.zeros((3, 2, 5)))


class TestNoCheckEnumeratesMasks:
    """Every check reads the basis chunk at mask 0 and the answer model: no
    served round has more masks than the query law's U unit masks or the
    link's 32 points."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    @pytest.mark.parametrize("mask_mode", ["full", "zeroed"])
    def test_no_round_serves_more_masks_than_the_basis_or_the_selfcheck(self, monkeypatch, mask_mode):
        p = self.PARAMS
        served, real = [], protocol.gen_queries

        def counted(*args, **kwargs):
            qs = real(*args, **kwargs)
            served.append(int(np.prod(qs.u.shape[:-3])))
            return qs

        monkeypatch.setattr(protocol, "gen_queries", counted)
        report = run_audit(p, generator_for_instance(p), mask_mode=mask_mode)
        assert report.all_passed == (mask_mode == "full")
        assert served and max(served) <= max(Universe(p).u_digits, _LINK_POINTS)


class TestReportsAgreeWithTheReferences:
    """Under every randomness and mask mode, the report's correctness
    verdict is the full-grid decode's and each node's user-privacy witness
    the full view table's first broken cell."""

    # (3, 3, 2, 2) with full masks has 3**16 view points per index, past
    # the reference's reach; REPORT_SHA256 pins its report
    CASES = [(params, masks) for params in EXHAUSTIVE_INSTANCES for masks in ("full", "zeroed")]
    CASES += [(StorageParams(q=3, n=3, m=2, k=2), "zeroed")]

    @pytest.mark.parametrize("params,masks", CASES, ids=str)
    def test_same_verdicts_as_the_references(self, params, masks):
        g = generator_for_instance(params)
        correct = full_grid_correctness(params, g)
        ctx, universe = _BatchContext(params, g), Universe(params, mask_mode=masks)
        witnesses = [full_view_witness(ctx, universe, node) for node in range(1, params.n + 1)]
        s_digits = Universe(params).s_digits
        for mode, j in [("full", None), ("zeroed", None)] + [("partial", j) for j in range(s_digits + 1)]:
            report = run_audit(params, g, randomness_mode=mode, partial_count=j, mask_mode=masks, seed=3)
            correctness, *user, _ = report.checks
            assert correctness.independent is correct is True
            assert [check.witness for check in user] == witnesses
            for check in user:
                assert check.conditional_equal == check.independent == (check.witness is None)


def shift_the_basis(monkeypatch, shift):
    """Add ``shift`` (n, stripes, m) to every mask side of the basis chunk,
    and to no other chunk."""
    real = _BatchContext.answer_parts

    def shifted(self, chunk, theta):
        ip = real(self, chunk, theta)
        return (ip + shift) % self.q if chunk is vars(self).get("basis") else ip

    monkeypatch.setattr(_BatchContext, "answer_parts", shifted)


def drop_blinding(monkeypatch):
    """Serve every round with zero shared randomness, whatever S the nodes hold."""
    real = protocol.gen_answer

    def unblinded(node_index, query, d, s, g):
        return real(node_index, query, d, CommonRandomness(np.zeros_like(s.values)), g)

    monkeypatch.setattr(protocol, "gen_answer", unblinded)


class TestServedRoundTiesTheCertificates:
    """The link's served queries and answers tie the basis chunk and
    the blinding table, and so every verdict, to the served round."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    def test_answer_without_blinding_fails_selfcheck(self, monkeypatch):
        drop_blinding(monkeypatch)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            run_audit(self.PARAMS, generator_for_instance(self.PARAMS))

    # the basis chunk is served with zero randomness, so a round that drops
    # its blinding leaves it as it is: only the link sees it, and it must,
    # whichever check would decide
    @pytest.mark.parametrize(
        "checks,options",
        [(("user-privacy",), {"mask_mode": "zeroed"}), (("correctness",), {}), (("db-privacy",), {})],
        ids=["user_privacy_zeroed_masks", "correctness", "db_privacy"],
    )
    def test_round_without_blinding_stops_every_exact_audit(self, monkeypatch, checks, options):
        drop_blinding(monkeypatch)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            run_audit(self.PARAMS, generator_for_instance(self.PARAMS), checks, **options)

    # a codeword of G at (stripe 1, vector 1) lies in the blinding span, so
    # decoding stays right on the basis and the certificate passes; but the
    # shift is constant, not linear in the database, so the basis points no
    # longer predict the served answers
    @pytest.mark.parametrize("check", ["correctness", "db-privacy"])
    def test_basis_off_the_served_model_fails_the_link(self, monkeypatch, check):
        p = self.PARAMS
        g = generator_for_instance(p)
        shift = np.zeros((p.n, p.stripes, p.m), dtype=np.int64)
        shift[:, 0, 0] = g.array[0]
        shift_the_basis(monkeypatch, shift)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            run_audit(p, g, (check,))

    @pytest.mark.parametrize("checks", [("correctness", "user-privacy"), CHECKS], ids=["two_checks", "default"])
    def test_link_runs_before_any_check(self, monkeypatch, checks):
        # the same shift outside the span breaks decoding and the inner
        # products on the basis; the link refuses the shifted basis before
        # any check decides
        p = self.PARAMS
        shift = np.zeros((p.n, p.stripes, p.m), dtype=np.int64)
        shift[0, 0, 0] = 1
        shift_the_basis(monkeypatch, shift)
        with pytest.raises(AssertionError, match="basis points disagree with gen_answer"):
            run_audit(p, generator_for_instance(p), checks)

    def test_query_off_the_translation_fails_the_link(self, monkeypatch):
        # right at the mask 0 and at every unit mask e_i, so the basis
        # queries pass the translation check; wrong at one sampled mask
        p = self.PARAMS
        g = generator_for_instance(p)
        wrong = link_rows(p)[1][0]
        assert np.count_nonzero(wrong) > 1 or wrong.max() > 1  # neither 0 nor a unit mask
        real = protocol.gen_queries

        def skewed(*args, **kwargs):
            qs = real(*args, **kwargs)
            hit = (qs.u.reshape(qs.u.shape[:-3] + (-1,)) == wrong).all(axis=-1)
            per_node = qs.per_node.copy()
            per_node[hit, 0, 0, 0, 0] = (per_node[hit, 0, 0, 0, 0] + 1) % p.q
            return protocol.QuerySet(qs.theta, qs.u, per_node)

        monkeypatch.setattr(protocol, "gen_queries", skewed)
        with pytest.raises(AssertionError, match="served queries are not the basis query at mask 0 plus the mask"):
            run_audit(p, g)


# sha256 over the canonical audit reports of REPORT_INSTANCES, fixed when the
# sweep was rebuilt on the mask-side / randomness-side answer split; any
# change to a verdict, witness or count moves it
REPORT_SHA256 = "5d1c558e6238f7c5b955070385f4d0911475fe9610642584a1fff095112a7a7b"
REPORT_INSTANCES = EXHAUSTIVE_INSTANCES + [StorageParams(q=3, n=3, m=2, k=2)]

# sha256 over the canonical reports of one fixed-seed `audit --monte-carlo`
# at (5,4,2,2), under full and then zeroed randomness; any change to a
# chi-square p-value or verdict of the statistical screen moves it
MC_REPORT_SHA256 = "2c87d58c1b7a3e421ab843d7d70dd3853cfd973361cd08bdf061298b08841752"


class TestReportBytes:
    def test_reports_match_pinned_hash(self):
        seed = 7
        digest = hashlib.sha256()
        for params in REPORT_INSTANCES:
            g = generator_for_instance(params)
            universe = Universe(params)
            reports = [
                audit_user_privacy(params, g, seed=seed),
                audit_user_privacy(params, g, mask_mode="zeroed", seed=seed),
                AuditReport(
                    params,
                    "full",
                    (
                        IndependenceCheck(
                            "correctness", audit_correctness(params, g), True, universe.size
                        ),
                    ),
                ),
                audit_db_privacy(params, g, seed=seed),
                audit_db_privacy(params, g, randomness_mode="zeroed", seed=seed),
            ]
            reports += [
                audit_db_privacy(params, g, randomness_mode="partial", partial_count=j, seed=seed)
                for j in range(universe.s_digits + 1)
            ]
            for report in reports:
                digest.update(jsonio.canonical_dumps(jsonio.audit_report_to_json(report)).encode())
        assert digest.hexdigest() == REPORT_SHA256

    def test_monte_carlo_reports_match_pinned_hash(self, tmp_path):
        digest = hashlib.sha256()
        for randomness in ("full", "zeroed"):
            out = tmp_path / f"{randomness}.json"
            cli.main([
                "audit", "--q", "5", "--n", "4", "--m", "2", "--k", "2",
                "--monte-carlo", "500", "--checks", "user-privacy,db-privacy",
                "--randomness", randomness, "--seed", "7", "--out", str(out),
            ])
            digest.update(out.read_bytes())
        assert digest.hexdigest() == MC_REPORT_SHA256


class TestUniverseShape:
    def test_size_closed_form(self):
        params = StorageParams(q=2, n=4, m=2, k=2)
        u = Universe(params)
        assert u.db_digits == params.k * params.file_len == 8
        assert u.u_digits == 8
        assert u.s_digits == 4
        assert u.size == 2 ** 20

    def test_mode_shrinks_randomness_axis(self):
        params = StorageParams(q=2, n=3, m=2, k=2)
        zeroed = Universe(params, randomness_mode="zeroed")
        assert zeroed.s_free == 0
        assert Universe(params, randomness_mode="partial", partial_count=2).size == 4 * zeroed.size
        assert Universe(params).size == 16 * zeroed.size

    @pytest.mark.parametrize("mask_mode", ["full", "zeroed"])
    def test_exceeds_matches_size_at_every_ceiling(self, mask_mode):
        u = Universe(StorageParams(q=3, n=2, m=1, k=2), mask_mode=mask_mode)
        for ceiling in [-1, 0, 1, 2, u.size // 3, u.size - 1, u.size, u.size + 1, 3 * u.size]:
            assert u.exceeds(ceiling) == (u.size > ceiling)

    def test_huge_universe_refused_before_any_power(self):
        # q ** exponent with an exponent of 4 * 2**40 would take hours to form
        u = Universe(StorageParams(q=3, n=3, m=2, k=2, stripes=2**40))
        assert u.exceeds(1 << 24)
        with pytest.raises(UniverseTooLarge, match=f"3\\*\\*{u.exponent} points"):
            u.require_within(1 << 24)
