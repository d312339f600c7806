import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXHAUSTIVE_INSTANCES, generator_for_instance
from spir_mds import cli, jsonio, protocol, storage
from spir_mds.audit import (
    AUDIT_SEED_DOMAIN,
    AuditReport,
    DistributionCounter,
    IndependenceCheck,
    Universe,
    _SELFCHECK_POINTS,
    _BatchContext,
    _blinding_span,
    _coset_keys,
    _digit_rows,
    _require_key_bits,
    _short_block,
    audit_correctness,
    audit_db_privacy,
    audit_user_privacy,
    enumerate_assignments,
    leak_experiment,
    mc_correctness,
    merge_count_tables,
    pack_digits,
    unpack_digits,
)
from spir_mds.errors import InvalidParams, UniverseTooLarge
from spir_mds.network import NodeHandler, SimNetwork
from spir_mds.protocol import CommonRandomness, unit_mask
from spir_mds.storage import Database, GeneratorMatrix, StorageParams


class TestEnumeration:
    @pytest.mark.parametrize("q,digits", [(2, 5), (3, 3), (5, 2)])
    def test_exhaustive_and_duplicate_free(self, q, digits):
        rows = enumerate_assignments(q, digits, 0, q ** digits)
        assert rows.shape == (q ** digits, digits)
        assert len({tuple(r) for r in rows.tolist()}) == q ** digits
        assert rows.min() == 0 and rows.max() == q - 1

    def test_chunked_equals_full(self):
        full = enumerate_assignments(3, 4, 0, 81)
        parts = [enumerate_assignments(3, 4, a, b) for a, b in [(0, 30), (30, 77), (77, 81)]]
        assert np.array_equal(np.concatenate(parts), full)

    @settings(max_examples=100)
    @given(
        q=st.sampled_from([2, 3, 5]),
        digits=st.integers(1, 8),
        data=st.data(),
    )
    def test_pack_unpack_roundtrip(self, q, digits, data):
        row = data.draw(st.lists(st.integers(0, q - 1), min_size=digits, max_size=digits))
        packed = int(pack_digits(np.array([row]), q)[0])
        assert unpack_digits(packed, q, digits) == row

    @pytest.mark.parametrize("q,digits", [(7, 90), (2, 63), (3, 40)])
    def test_pack_refuses_int64_overflow(self, q, digits):
        # q**digits >= 2**63: the packed value would wrap silently
        with pytest.raises(UniverseTooLarge):
            pack_digits(np.full((1, digits), q - 1), q)

    @pytest.mark.parametrize("q,digits", [(2, 62), (3, 39)])
    def test_pack_largest_fitting_width(self, q, digits):
        packed = int(pack_digits(np.full((1, digits), q - 1), q)[0])
        assert packed == q ** digits - 1

    @pytest.mark.parametrize("q,digits", [(2, 62), (3, 39), (5, 3)])
    def test_digit_rows_invert_pack(self, q, digits):
        rows = np.random.default_rng(digits).integers(0, q, size=(2, 3, digits))
        rows[0, 0] = q - 1
        assert np.array_equal(_digit_rows(pack_digits(rows, q), q, digits), rows)
        assert unpack_digits(int(pack_digits(rows[1, 2], q)), q, digits) == rows[1, 2].tolist()

    def test_key_budget_is_62_bits(self):
        _require_key_bits(2 ** 31, 3 ** 19)  # 31 + 31 bits
        with pytest.raises(UniverseTooLarge, match="needs 63 packed bits; exceeds exact-mode budget"):
            _require_key_bits(2 ** 31, 3 ** 19, 2)


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

    def test_merge_count_tables_partitions(self):
        full = [(np.array([1, 2, 3]), np.array([4, 5, 6]))]
        split = [
            (np.array([1, 3]), np.array([4, 2])),
            (np.array([2, 3]), np.array([5, 4])),
        ]
        vals_a, counts_a = merge_count_tables(full)
        vals_b, counts_b = merge_count_tables(split)
        assert np.array_equal(vals_a, vals_b)
        assert np.array_equal(counts_a, counts_b)


def packed_table(cells: dict, radix: int):
    """Sorted distinct packed keys x*radix + y, their counts, and the
    reference counter of the same (x, y) -> count cells, inserted in key
    order, so its first broken cell is the first in key order."""
    keys = np.array(sorted(x * radix + y for (x, y) in cells), dtype=np.int64)
    counts = np.array([cells[divmod(int(k), radix)] for k in keys], dtype=np.int64)
    reference = DistributionCounter()
    for x, y in sorted(cells):
        reference.add(x, y, cells[(x, y)])
    return keys, counts, reference


class TestShortBlock:
    """``_short_block`` may only pass tables the product rule accepts, and
    on a uniform right marginal (the enumerated W̄) it must give the
    reference's verdict and first broken cell, with its four counts."""

    @settings(max_examples=200, deadline=None)
    @given(radix=st.integers(1, 4), data=st.data())
    def test_sound(self, radix, data):
        xs = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
        cells = {}
        for x in xs:
            shape = data.draw(st.sampled_from(["block", "varied", "subset"]))
            if shape == "block":
                c = data.draw(st.integers(1, 3))
                cells.update({(x, y): c for y in range(radix)})
            else:
                ys = range(radix) if shape == "varied" else data.draw(
                    st.lists(st.integers(0, radix - 1), min_size=1, unique=True)
                )
                cells.update({(x, y): data.draw(st.integers(1, 3)) for y in ys})
        keys, counts, reference = packed_table(cells, radix)
        cell = _short_block(keys, counts, radix)
        if cell is None:
            assert reference.check_independent() == (True, None)
        else:  # only the right count leans on a uniform right marginal
            assert cell.joint * radix != cell.left
            assert (cell.joint, cell.left, cell.total) == (
                reference.joint[(cell.x, cell.y)], reference.left[cell.x], reference.total
            )

    @settings(max_examples=200, deadline=None)
    @given(
        radix=st.integers(1, 4),
        n_x=st.integers(1, 4),
        product=st.booleans(),
        data=st.data(),
    )
    def test_complete_on_uniform_right_marginal(self, radix, n_x, product, data):
        # a random table, then each column's deficit added to one of its
        # cells so that every right value has the same mass
        if product:
            rows = [[data.draw(st.integers(1, 3))] * radix for _ in range(n_x)]
        else:
            rows = [[data.draw(st.integers(0, 3)) for _ in range(radix)] for _ in range(n_x)]
        target = max(1, max(sum(col) for col in zip(*rows)))
        for y in range(radix):
            x = data.draw(st.integers(0, n_x - 1))
            rows[x][y] += target - sum(row[y] for row in rows)
        cells = {(x, y): c for x, row in enumerate(rows) for y, c in enumerate(row) if c}
        keys, counts, reference = packed_table(cells, radix)
        assert set(reference.right.values()) == {target}
        ok, named = reference.check_independent()
        cell = _short_block(keys, counts, radix)
        if ok:
            assert cell is None
        else:
            x, y = named
            assert cell == (x, y, reference.joint[named], reference.left[x], reference.right[y], reference.total)

    @pytest.mark.parametrize(
        "cells",
        [
            {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1},
            {(0, 1): 1, (1, 0): 1},
            {(0, 0): 1, (1, 1): 1},
            {(0, 0): 1, (0, 1): 1, (1, 0): 1},
        ],
        ids=["counts", "start", "span", "length"],
    )
    def test_refuses_a_dependent_table(self, cells):
        keys, counts, reference = packed_table(cells, 2)
        assert reference.check_independent()[0] is False
        assert _short_block(keys, counts, 2) is not None

    def test_refuses_counts_past_int64(self):
        # each count is multiplied by the radix in int64
        with pytest.raises(UniverseTooLarge, match="int64"):
            _short_block(np.array([0, 1]), np.array([1 << 62, 1 << 62]), 2)


def pointwise_user_privacy_counter(params, g, node):
    """Independent oracle: enumerate the universe one point at a time
    through the public protocol functions and count by hand."""
    universe = Universe(params)
    counter = DistributionCounter()
    q = params.q
    u_rows = universe.u_rows()
    s_rows = universe.s_rows()
    for _, db_rows in universe.db_row_chunks(universe.n_db):
        for db_row in db_rows:
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
        for u_row in universe.u_rows()
        for theta in range(1, params.k + 1)
    ]
    for _, db_rows in universe.db_row_chunks(universe.n_db):
        for db_row in db_rows:
            db = Database(params, db_row.reshape(params.k, params.file_rows, params.m))
            for s_row in universe.s_rows():
                s_val = CommonRandomness(s_row.reshape(params.stripes, params.m, params.m))
                net = SimNetwork(params, db, g, randomness=s_val)
                for theta, u_row, qs in queries:
                    answers = net.exchange(qs).per_node.ravel()
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
        for _, db_rows in universe.db_row_chunks(universe.n_db):
            for db_row in db_rows:
                db = Database(params, db_row.reshape(params.k, params.file_rows, params.m))
                shares = storage.encode(db, g)
                for s_row in universe.s_rows():
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
        # every theta sweeps the same universe, so theta is uniform and the
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
        tr = SimNetwork(params, db, g, randomness=CommonRandomness.zeros(params)).run(1, user_seed=1)
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


class TestPartitionedSweep:
    def test_tiny_chunks_give_identical_reports(self, monkeypatch):
        # force many database partitions: merged counts must match the
        # single-pass sweep exactly, down to every witness
        import spir_mds.audit as audit_mod

        params = StorageParams(q=2, n=3, m=2, k=2)
        g = generator_for_instance(params)

        def audits():
            return (
                audit_user_privacy(params, g),
                audit_user_privacy(params, g, mask_mode="zeroed"),
                audit_db_privacy(params, g),
                leak_experiment(params, g, "zeroed"),
                audit_correctness(params, g),
            )

        whole = audits()
        monkeypatch.setattr(audit_mod, "_CHUNK_TARGET", 64)
        split = audits()
        assert split == whole
        # the controls really do carry witnesses to compare
        assert whole[1].failed_checks()[0].witness is not None
        assert whole[3].failed_checks()[0].witness is not None


class TestSweepCannotGoVacuous:
    PARAMS = StorageParams(q=2, n=3, m=2, k=2)

    def test_flipped_answer_digit_fails_selfcheck(self, monkeypatch):
        real = _BatchContext.answer_parts

        def flipped(self, chunk, theta):
            ip = real(self, chunk, theta)
            ip = ip.copy()
            ip[:, :, 0, 0, 0] = (ip[:, :, 0, 0, 0] + 1) % self.q
            return ip

        monkeypatch.setattr(_BatchContext, "answer_parts", flipped)
        g = generator_for_instance(self.PARAMS)
        with pytest.raises(AssertionError, match="batched answers disagree with gen_answer"):
            audit_user_privacy(self.PARAMS, g)
        with pytest.raises(AssertionError, match="batched answers disagree with gen_answer"):
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


def selfcheck_masks(params, seed=0):
    """The mask ids the selfcheck samples, drawn as it draws them: after
    the database ids, from the same generator."""
    universe = Universe(params)
    rng = np.random.default_rng([AUDIT_SEED_DOMAIN, seed])
    n_pts = min(_SELFCHECK_POINTS, universe.size)
    rng.integers(0, universe.n_db, size=n_pts)
    return rng.integers(0, universe.n_u, size=n_pts)


class TestSelfcheckServesEveryPoint:
    """The selfcheck runs the served round at every sampled point and
    index, and compares every one of them with the batched path."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    def test_one_network_per_point_and_one_round_per_index(self, monkeypatch):
        p = self.PARAMS
        networks, queries, answers = [], [], []

        def spy(owner, name, log, record):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                log.append(record(*args))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(SimNetwork, "__init__", networks, lambda net, params, *_: (net, params))
        spy(protocol, "gen_queries", queries, lambda params, g, theta: (params, theta))
        spy(NodeHandler, "answer", answers, lambda handler, query: handler.node_index)
        assert audit_user_privacy(p, generator_for_instance(p)).all_passed
        # the logged networks stay alive, so distinct ids are distinct networks
        assert len(networks) == len({id(net) for net, _ in networks}) == _SELFCHECK_POINTS
        assert all(params == p for _, params in networks)
        assert len(queries) == _SELFCHECK_POINTS * p.k
        assert sorted(queries, key=lambda pt: pt[1]) == [
            (p, theta) for theta in range(1, p.k + 1) for _ in range(_SELFCHECK_POINTS)
        ]
        assert len(answers) == _SELFCHECK_POINTS * p.k * p.n
        assert sorted(answers) == sorted(list(range(1, p.n + 1)) * _SELFCHECK_POINTS * p.k)

    @pytest.mark.parametrize("where", ["last_point", "last_theta"])
    def test_one_wrong_batched_answer_fails(self, monkeypatch, where):
        p = self.PARAMS
        u_ids = selfcheck_masks(p)
        real = _BatchContext.answer_parts

        def flipped(self, chunk, theta):
            ip = real(self, chunk, theta)
            ip = ip.copy()
            if where == "last_point":  # the last sampled mask and database
                ip[u_ids[-1], chunk["count"] - 1, -1, -1, -1] += 1
            elif theta == p.k:
                ip[..., -1] += 1
            return ip % self.q

        monkeypatch.setattr(_BatchContext, "answer_parts", flipped)
        with pytest.raises(AssertionError, match="batched answers disagree with gen_answer"):
            audit_user_privacy(p, generator_for_instance(p))

    @pytest.mark.parametrize("drift", ["fractional", "broadcastable_shape"])
    def test_served_answers_are_compared_as_served(self, monkeypatch, drift):
        # a store into an int64 buffer would floor the 0.5 away; the served
        # arrays must reach the comparison with their own dtype and shape
        real = SimNetwork.exchange

        def drifted(net, query_set):
            per_node = real(net, query_set).per_node
            return protocol.AnswerSet(per_node + 0.5 if drift == "fractional" else per_node[..., :1])

        monkeypatch.setattr(SimNetwork, "exchange", drifted)
        with pytest.raises(AssertionError, match="batched answers disagree with gen_answer"):
            audit_user_privacy(self.PARAMS, generator_for_instance(self.PARAMS))

    def test_one_wrong_batched_query_fails(self, monkeypatch):
        p = self.PARAMS
        u_ids = selfcheck_masks(p)
        real = _BatchContext.__init__

        def corrupted(self, *args):
            real(self, *args)
            self.qpack[p.k - 1, p.n - 1, u_ids[-1]] += 1

        monkeypatch.setattr(_BatchContext, "__init__", corrupted)
        with pytest.raises(AssertionError, match="batched query pack disagrees with gen_queries"):
            audit_user_privacy(p, generator_for_instance(p))


def full_grid_correctness(params, g):
    """Reference correctness: decode the mask and randomness sides apart and
    compare the decoded symbol with the file at every (u, c, s) point."""
    ctx = _BatchContext(params, g, Universe(params))
    q, eqs, w_pos_count = params.q, params.n * params.m, params.rows_per_stripe * params.m
    w_rows = protocol.decode_matrix_inverse(params, g)[params.m * params.m :]
    blind_w = decoded_blinding(params, g)
    for chunk in ctx.db_chunks():
        c = chunk["count"]
        for theta in range(1, params.k + 1):
            ip = ctx.answer_parts(chunk, theta)
            ip = ip.transpose(0, 1, 3, 2, 4).reshape(ctx.n_u, c, params.stripes, eqs)
            ip_w = (ip @ w_rows.T) % q
            expected = chunk["files"][:, theta - 1].reshape(c, params.stripes, w_pos_count)
            for stripe in range(params.stripes):
                for w_pos in range(w_pos_count):
                    decoded = (ip_w[:, :, stripe, w_pos, None] + blind_w[:, stripe, w_pos]) % q
                    if not (decoded == expected[:, stripe, w_pos, None]).all():
                        return False
    return True


def decoded_blinding(params, g):
    """(n_s, stripes, w_pos): the file symbols decoded from the randomness side."""
    ctx = _BatchContext(params, g, Universe(params))
    w_rows = protocol.decode_matrix_inverse(params, g)[params.m * params.m :]
    blind = ctx.blind.transpose(0, 2, 1, 3).reshape(ctx.n_s, params.stripes, params.n * params.m)
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

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", flipped)
        g = generator_for_instance(self.PARAMS)
        assert self.blinding_cancels(g)
        assert audit_correctness(self.PARAMS, g) is full_grid_correctness(self.PARAMS, g) is False

    def test_wrong_inverse_fails_on_the_blinding(self, monkeypatch):
        g = generator_for_instance(self.PARAMS)
        p = self.PARAMS
        inv = protocol.decode_matrix_inverse(p, g).copy()
        inv[p.m * p.m, 0] = (inv[p.m * p.m, 0] + 1) % p.q  # first file-symbol row
        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(protocol, "decode_matrix_inverse", lambda params, gen: inv)
        assert not self.blinding_cancels(g)
        assert audit_correctness(p, g) is full_grid_correctness(p, g) is False

    def test_randomness_side_flip_fails_with_a_right_mask_side(self, monkeypatch):
        # only the blinding of points s > 0 moves: the grid check alone
        # would pass, since blind_w[0] and every mask side are untouched
        real = _BatchContext.__init__

        def flipped(self, *args):
            real(self, *args)
            self.blind = self.blind.copy()
            self.blind[1:, 0, 0, 0] = (self.blind[1:, 0, 0, 0] + 1) % self.q

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "__init__", flipped)
        g = generator_for_instance(self.PARAMS)
        assert not self.blinding_cancels(g)
        assert audit_correctness(self.PARAMS, g) is full_grid_correctness(self.PARAMS, g) is False

    @pytest.mark.parametrize("params", [PARAMS, StorageParams(q=3, n=3, m=2, k=2)], ids=str)
    def test_constant_nonzero_blinding_cancels_against_the_mask_side(self, monkeypatch, params):
        # move a fixed offset v from every mask side to the blinding: the
        # answers, and so the decoded file, are unchanged, but the decoded
        # blinding is the nonzero constant v_w
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
        assert (blind_w == blind_w[0]).all() and blind_w[0].any()
        assert audit_correctness(params, g) is full_grid_correctness(params, g) is True


def full_view_witness(ctx, node):
    """Reference user-privacy witness: one node's view (query, answer,
    share, S) counted at every (u, c, s) point of the batched grid, and the
    first cell, in (theta, view key) order, that breaks the product rule;
    None when no cell does."""
    p = ctx.params
    counter = DistributionCounter()
    for chunk in ctx.db_chunks():
        c = chunk["count"]
        shares = chunk["data"][node - 1].reshape(c, -1).tolist()
        for theta in range(1, p.k + 1):
            queries = ((ctx.u_mats + unit_mask(p, theta, node)) % p.q).reshape(ctx.n_u, -1).tolist()
            ip = ctx.answer_parts(chunk, theta)
            answers = (ip[:, :, node - 1][:, :, None] + ctx.blind[:, node - 1]) % p.q
            answers = answers.reshape(ctx.n_u, c, ctx.n_s, -1).tolist()
            for u, ci, s in np.ndindex(ctx.n_u, c, ctx.n_s):
                counter.add(theta, (tuple(queries[u]), tuple(answers[u][ci][s]), tuple(shares[ci]), s))
    for theta, view in sorted(counter.joint):
        joint, left, right = counter.joint[(theta, view)], counter.left[theta], counter.right[view]
        if joint * counter.total != left * right:
            query, answer, share, s = view
            return {
                "theta": theta,
                "node": node,
                "query": list(query),
                "answers": list(answer),
                "node_data": list(share),
                "shared_randomness": ctx.s_rows[s].tolist(),
                "counts": {"joint": joint, "left": left, "right": right, "total": counter.total},
            }
    return None


def leak_theta(monkeypatch, leak):
    """Make node 1's mask side depend on theta: shifted by theta, or, at
    theta 2, read at another database or mask, which keeps the (query,
    answer) or the (answer, share) table and shows only jointly with the
    third part."""
    real = _BatchContext.answer_parts

    def leaky(self, chunk, theta):
        ip = real(self, chunk, theta)
        out = ip.copy()
        if leak == "shifted":
            out[:, :, 0, 0, 0] = (ip[:, :, 0, 0, 0] + theta) % self.q
        elif theta == 2:
            out[:, :, 0] = np.flip(ip[:, :, 0], axis=1 if leak == "other_database" else 0)
        return out

    monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
    monkeypatch.setattr(_BatchContext, "answer_parts", leaky)


class TestGridCertificate:
    """User privacy is certified on the (mask, database) grid: S is a view
    digit and, for fixed S, the answer is a bijection of the mask side, so
    the grid tables are equal across indices iff the full view tables are,
    and the witness is read off the grid tables."""

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
        ctx = _BatchContext(params, g, Universe(params, mask_mode=mask_mode))
        witnesses = [full_view_witness(ctx, node) for node in range(1, params.n + 1)]
        assert [check.witness for check in report.checks] == witnesses
        for check, witness in zip(report.checks, witnesses):
            assert check.conditional_equal == check.independent == (witness is None)
        assert report.all_passed == (mask_mode == "full")

    @pytest.mark.parametrize("leak", ["shifted", "other_database", "other_mask"])
    @pytest.mark.parametrize("params", WITNESS_INSTANCES, ids=str)
    def test_witness_is_the_first_broken_view_cell(self, monkeypatch, params, leak):
        leak_theta(monkeypatch, leak)
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g)
        ctx = _BatchContext(params, g, Universe(params))
        witnesses = [full_view_witness(ctx, node) for node in range(1, params.n + 1)]
        assert [check.witness for check in report.checks] == witnesses
        assert witnesses[0] is not None and not any(witnesses[1:])

    @pytest.mark.parametrize("leak", ["shifted", "other_database", "other_mask"])
    def test_theta_dependent_answer_fails_the_certificate(self, monkeypatch, leak):
        params = StorageParams(q=3, n=3, m=2, k=2)
        leak_theta(monkeypatch, leak)
        report = audit_user_privacy(params, generator_for_instance(params))
        first, *others = report.checks
        assert first.conditional_equal is False and not first.independent
        assert first.witness["node"] == 1
        counts = first.witness["counts"]
        assert counts["joint"] * counts["total"] != counts["left"] * counts["right"]
        assert all(c.conditional_equal and c.independent for c in others)


class TestBlindingCosetKeys:
    """Database privacy is counted once per coset ip + V of the blinding
    span V: the key of a mask side is the packed least member of its
    coset, shared by every answer the randomness can turn it into."""

    PARAMS = StorageParams(q=3, n=3, m=2, k=2)

    # all 6,561 (u, c) rows take the word table, 500 of them the per-row
    # reduction (q^J = 729 words at J = 6)
    @pytest.mark.parametrize("limit", [None, 500], ids=["word_table", "row_reduction"])
    @pytest.mark.parametrize("partial_count", [None, 2], ids=["full", "partial2"])
    def test_key_is_least_member_of_the_coset(self, limit, partial_count):
        params = self.PARAMS
        if partial_count is None:
            universe = Universe(params)
        else:
            universe = Universe(params, randomness_mode="partial", partial_count=partial_count)
        ctx = _BatchContext(params, generator_for_instance(params), universe)
        basis, pivots = _blinding_span(ctx, ctx.blind.reshape(ctx.n_s, -1))
        (_, db_rows), = universe.db_row_chunks(universe.n_db)
        ip = ctx.answer_parts(ctx.chunk(db_rows), 1).reshape(-1, ctx.a_digits_all)[:limit]
        blind = ctx.blind.reshape(ctx.n_s, -1)
        keys = _coset_keys(ip, basis, pivots, params.q)
        coset = pack_digits((ip[:, None] + blind[None]) % params.q, params.q)  # (rows, n_s)
        assert np.array_equal(keys, coset.min(axis=1))
        for s_idx in range(ctx.n_s):
            shifted = (ip + blind[s_idx]) % params.q
            assert np.array_equal(_coset_keys(shifted, basis, pivots, params.q), keys)

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
            out = ip.copy() if requested else chunk["mask_ip"].copy()
            w0 = np.delete(chunk["files"], theta - 1, axis=1).reshape(chunk["count"], -1)[:, 0]
            shift = g.array[0] if where == "codeword" else np.eye(params.n, dtype=np.int64)[0]
            out[:, :, :, 0, 0] = (out[:, :, :, 0, 0] + w0[:, None] * shift) % self.q
            return out

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted)
        check = audit_db_privacy(params, g).checks[0]
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

        def shifted(self, chunk, theta):
            out = chunk["mask_ip"].copy()
            w0 = np.delete(chunk["files"], theta - 1, axis=1).reshape(chunk["count"], -1)[:, 0]
            out[:, :, 0, 0, 0] = (out[:, :, 0, 0, 0] + w0) % self.q
            return out

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted)
        check = audit_db_privacy(params, g).checks[0]
        ctx = _BatchContext(params, g, Universe(params))
        # the full (u, c, s) grid of the same batched answers
        reference = DistributionCounter()
        for chunk in ctx.db_chunks():
            for theta in range(1, params.k + 1):
                ip = ctx.answer_parts(chunk, theta)
                answers = (ip[:, :, None] + ctx.blind[None, None]) % params.q
                others = np.delete(chunk["files"], theta - 1, axis=1).reshape(chunk["count"], -1)
                for u, c, s in np.ndindex(answers.shape[:3]):
                    reference.add(
                        (theta, tuple(answers[u, c, s].ravel().tolist()), tuple(ctx.u_rows[u].tolist())),
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
        assert Universe(params, randomness_mode="zeroed").n_s == 1
        assert Universe(params, randomness_mode="partial", partial_count=2).n_s == 4
        assert Universe(params).n_s == 16

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
