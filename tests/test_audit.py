import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXHAUSTIVE_INSTANCES, generator_for_instance
from spir_mds import cli, jsonio, protocol, storage
from spir_mds.audit import (
    AuditReport,
    DistributionCounter,
    IndependenceCheck,
    Universe,
    _BatchContext,
    _blinding_span,
    _coset_keys,
    _full_blocks,
    _pairs_independent,
    _tables_independent,
    _user_view_tables,
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
from spir_mds.network import SimNetwork
from spir_mds.protocol import CommonRandomness
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

    @settings(max_examples=80, deadline=None)
    @given(mode=st.sampled_from(["product", "product_with_hole", "free"]), data=st.data())
    def test_array_checks_match_reference(self, mode, data):
        # both array forms of the product rule (per-label tables, packed
        # pairs) give the reference verdict, and any cell they name really
        # violates the rule, with the reference's counts at that cell
        n_x = data.draw(st.integers(2, 3))
        n_y = data.draw(st.integers(1, 5))
        a = data.draw(st.lists(st.integers(1, 3), min_size=n_x, max_size=n_x))
        b = data.draw(st.lists(st.integers(1, 3), min_size=n_y, max_size=n_y))
        cells = {(x, y): a[x] * b[y] for x in range(n_x) for y in range(n_y)}
        if mode == "product_with_hole" and n_y > 1:
            del cells[(data.draw(st.integers(0, n_x - 1)), data.draw(st.integers(0, n_y - 1)))]
        elif mode == "free":
            for cell in cells:
                cells[cell] = data.draw(st.integers(1, 4))
        reference = DistributionCounter()
        for (x, y), c in cells.items():
            reference.add(x, y, c)
        want, _ = reference.check_independent()

        def matches_reference(cell):
            # the verdict agrees, and a named cell really violates the rule
            # and carries the reference counts at that cell
            if cell is None:
                return want
            joint = reference.joint.get((cell.x, cell.y), 0)
            left, right = reference.left[cell.x], reference.right[cell.y]
            return (
                not want
                and joint * reference.total != left * right
                and tuple(cell[2:]) == (joint, left, right, reference.total)
            )

        tables = {}
        for x in range(n_x):
            ys = np.array(sorted(y for (xx, y) in cells if xx == x), dtype=np.int64)
            tables[x] = (ys, np.array([cells[(x, int(y))] for y in ys], dtype=np.int64))
        assert matches_reference(_tables_independent(tables))

        radix = 8
        keys = np.array(sorted(x * radix + y for (x, y) in cells), dtype=np.int64)
        counts = np.array([cells[divmod(int(k), radix)] for k in keys], dtype=np.int64)
        assert matches_reference(_pairs_independent(keys, counts, radix))

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
    reference counter of the same (x, y) -> count cells."""
    keys = np.array(sorted(x * radix + y for (x, y) in cells), dtype=np.int64)
    counts = np.array([cells[divmod(int(k), radix)] for k in keys], dtype=np.int64)
    reference = DistributionCounter()
    for (x, y), c in cells.items():
        reference.add(x, y, c)
    return keys, counts, reference


class TestFullBlocksCertificate:
    """``_full_blocks`` may only certify tables the product rule accepts,
    and on a uniform right marginal (the enumerated W̄) it must certify
    every such table."""

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
        if _full_blocks(keys, counts, radix):
            assert reference.check_independent() == (True, None)

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
        assert _full_blocks(keys, counts, radix) == reference.check_independent()[0]

    @pytest.mark.parametrize(
        "cells,clause",
        [
            ({(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1}, "equal counts"),
            ({(0, 1): 1, (1, 0): 1}, "row starts at a multiple of the radix"),
            ({(0, 0): 1, (1, 1): 1}, "row spans the radix"),
            ({(0, 0): 1, (0, 1): 1, (1, 0): 1}, "row count"),
        ],
        ids=["counts", "start", "span", "length"],
    )
    def test_each_clause_refuses_a_dependent_table(self, cells, clause):
        keys, counts, reference = packed_table(cells, 2)
        assert reference.check_independent()[0] is False
        assert not _full_blocks(keys, counts, 2), clause


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


@lru_cache(maxsize=None)
def sweep_context(q):
    params = StorageParams(q=q, n=2, m=1, k=2)
    return _BatchContext(params, generator_for_instance(params), Universe(params))


class TestPackGrid:
    # the word table is built when q**digits <= n_u * c, else one table
    # row per grid row; both must equal packing the summed digits directly
    @pytest.mark.parametrize("branch", ["word_table", "row_table"])
    @settings(max_examples=40, deadline=None)
    @given(q=st.sampled_from([2, 3, 5]), data=st.data())
    def test_pack_grid_matches_direct_pack(self, branch, q, data):
        n_u = data.draw(st.integers(q if branch == "word_table" else 1, 8))
        c = data.draw(st.integers(1, 4))
        n_s = data.draw(st.integers(1, 4))
        fit = 0  # widest word whose alphabet fits the grid's rows
        while q ** (fit + 1) <= n_u * c:
            fit += 1
        if branch == "word_table":
            digits = data.draw(st.integers(1, fit))
        else:
            digits = data.draw(st.integers(fit + 1, fit + 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ip = rng.integers(0, q, size=(n_u, c, digits))
        blind = rng.integers(0, q, size=(n_s, digits))
        want = pack_digits((ip[:, :, None, :] + blind[None, None]) % q, q)
        got = sweep_context(q).pack_grid(ip, blind)
        assert got.shape == (n_u, c, n_s)
        assert np.array_equal(got, want)


class TestSweepCannotGoVacuous:
    PARAMS = StorageParams(q=2, n=3, m=2, k=2)

    def test_flipped_answer_digit_fails_selfcheck(self, monkeypatch):
        real = _BatchContext.answer_parts

        def flipped(self, chunk, theta):
            ip, blind = real(self, chunk, theta)
            ip = ip.copy()
            ip[:, :, 0, 0, 0] = (ip[:, :, 0, 0, 0] + 1) % self.q
            return ip, blind

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


class TestGridCertificate:
    """User privacy is certified on the (mask, database) grid: S is a view
    digit and, for fixed S, the answer is a bijection of the mask side, so
    the grid tables are equal across indices iff the full view tables are."""

    INSTANCES = EXHAUSTIVE_INSTANCES + [
        StorageParams(q=3, n=3, m=2, k=2),
        StorageParams(q=3, n=4, m=1, k=2),
    ]

    @pytest.mark.parametrize("mask_mode", ["full", "zeroed"])
    @pytest.mark.parametrize("params", INSTANCES, ids=str)
    def test_grid_equality_is_view_equality(self, params, mask_mode):
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g, mask_mode=mask_mode)
        ctx = _BatchContext(params, g, Universe(params, mask_mode=mask_mode))
        for node0, check in enumerate(report.checks):
            (vals, counts), *rest = _user_view_tables(ctx, node0).values()
            views_equal = all(
                np.array_equal(v, vals) and np.array_equal(c, counts) for v, c in rest
            )
            assert check.conditional_equal == views_equal
            assert check.independent == views_equal
        assert report.all_passed == (mask_mode == "full")

    # node 1's mask side depends on theta: shifted by theta, or, at theta 2,
    # read at another database or mask, which keeps the (query, answer) or
    # the (answer, share) table and shows only jointly with the third part
    @pytest.mark.parametrize("leak", ["shifted", "other_database", "other_mask"])
    def test_theta_dependent_answer_fails_the_certificate(self, monkeypatch, leak):
        params = StorageParams(q=3, n=3, m=2, k=2)
        real = _BatchContext.answer_parts

        def leaky(self, chunk, theta):
            ip, blind = real(self, chunk, theta)
            out = ip.copy()
            if leak == "shifted":
                out[:, :, 0, 0, 0] = (ip[:, :, 0, 0, 0] + theta) % self.q
            elif theta == 2:
                out[:, :, 0] = np.flip(ip[:, :, 0], axis=1 if leak == "other_database" else 0)
            return out, blind

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", leaky)
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
        basis, pivots = _blinding_span(ctx)
        (_, db_rows), = universe.db_row_chunks(universe.n_db)
        ip, blind = ctx.answer_parts(ctx.chunk(db_rows), 1)
        ip = ip.reshape(-1, ctx.a_digits_all)[:limit]
        blind = blind.reshape(ctx.n_s, -1)
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
            ip, blind = real(self, chunk, theta)
            out = ip.copy() if requested else chunk["mask_ip"].copy()
            w0 = np.delete(chunk["files"], theta - 1, axis=1).reshape(chunk["count"], -1)[:, 0]
            shift = g.array[0] if where == "codeword" else np.eye(params.n, dtype=np.int64)[0]
            out[:, :, :, 0, 0] = (out[:, :, :, 0, 0] + w0[:, None] * shift) % self.q
            return out, blind

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted)
        check = audit_db_privacy(params, g).checks[0]
        assert check.independent == private
        if private:
            assert check.witness is None
        else:
            counts = check.witness["counts"]
            assert counts["joint"] * counts["total"] != counts["left"] * counts["right"]

    # the mutant's shift at node 1, under a generator of rank 1: V then
    # has rank 2 of the 4 random symbols, so each of its points is hit 4
    # times and the witness counts must be rescaled by that, not by n_s
    @pytest.mark.parametrize(
        "g",
        [GeneratorMatrix(2, [[1, 0, 1], [0, 1, 1]]), GeneratorMatrix(2, [[1, 1, 1], [1, 1, 1]])],
        ids=["mds", "rank_1"],
    )
    def test_witness_counts_match_the_full_grid(self, monkeypatch, g):
        params = StorageParams(q=2, n=3, m=2, k=2)
        real = _BatchContext.answer_parts

        def shifted(self, chunk, theta):
            _, blind = real(self, chunk, theta)
            out = chunk["mask_ip"].copy()
            w0 = np.delete(chunk["files"], theta - 1, axis=1).reshape(chunk["count"], -1)[:, 0]
            out[:, :, 0, 0, 0] = (out[:, :, 0, 0, 0] + w0) % self.q
            return out, blind

        monkeypatch.setattr(_BatchContext, "selfcheck", lambda self, seed=0: None)
        monkeypatch.setattr(_BatchContext, "answer_parts", shifted)
        check = audit_db_privacy(params, g).checks[0]
        ctx = _BatchContext(params, g, Universe(params))
        # the full (u, c, s) grid of the same batched answers
        reference = DistributionCounter()
        for chunk in ctx.db_chunks():
            for theta in range(1, params.k + 1):
                ip, blind = ctx.answer_parts(chunk, theta)
                answers = (ip[:, :, None] + blind[None, None]) % params.q
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
