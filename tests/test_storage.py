import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALLEST_PRIME
from spir_mds import fields
from spir_mds.errors import BadShareCount, DimensionMismatch, FieldTooSmall, InvalidParams
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

ROUNDTRIP_GRID = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]


def det2(m, q):
    return (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % q


class TestParams:
    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidParams):
            StorageParams(q=4, n=3, m=1, k=2)  # composite q
        with pytest.raises(InvalidParams):
            StorageParams(q=3, n=3, m=3, k=2)  # m == n
        with pytest.raises(InvalidParams):
            StorageParams(q=3, n=3, m=2, k=0)

    def test_rejects_unaddressable_stripes(self):
        # the upload of (3,3,2,2) is 12 symbols per stripe, 8 bytes each
        largest = (2**63 - 1) // (12 * 8)
        assert StorageParams(q=3, n=3, m=2, k=2, stripes=largest).stripes == largest
        for stripes in (largest + 1, 2**70):
            with pytest.raises(InvalidParams, match="2\\*\\*63 bytes"):
                StorageParams(q=3, n=3, m=2, k=2, stripes=stripes)

    def test_derived_sizes(self):
        p = StorageParams(q=3, n=5, m=2, k=4, stripes=3)
        assert p.file_len == 3 * 3 * 2
        assert p.node_len == 3 * 4 * 3
        assert p.query_len == 3 * 4


class TestGenerator:
    def test_repetition_for_m1(self):
        g = build_generator(StorageParams(q=2, n=2, m=1, k=2))
        assert g.array.tolist() == [[1, 1]]

    def test_three_two_over_f3(self):
        # every 2-of-3 column choice must be nonsingular (determinant oracle)
        g = build_generator(StorageParams(q=3, n=3, m=2, k=2))
        arr = g.array
        assert np.array_equal(arr[:, :2], np.eye(2, dtype=np.int64))
        assert np.all(arr[:, 2] != 0)
        for cols in itertools.combinations(range(3), 2):
            assert det2(arr[:, cols], 3) != 0

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmall):
            build_generator(StorageParams(q=2, n=3, m=2, k=2))
        with pytest.raises(FieldTooSmall):
            build_generator(StorageParams(q=3, n=4, m=2, k=2))

    @pytest.mark.parametrize("n,m", ROUNDTRIP_GRID)
    def test_grid_is_mds(self, n, m):
        q = SMALLEST_PRIME[n, m]
        g = build_generator(StorageParams(q=q, n=n, m=m, k=2))
        assert is_mds(g)


class TestGeneratorMatrix:
    @pytest.mark.parametrize("q", [4, 1, 0, -3])
    def test_rejects_non_prime_modulus(self, q):
        with pytest.raises(InvalidParams):
            GeneratorMatrix(q, [[1, 1]])

    @pytest.mark.parametrize("rows", [[1, 1], [[[1, 1]]]])
    def test_rejects_non_2d_array(self, rows):
        with pytest.raises(DimensionMismatch):
            GeneratorMatrix(3, rows)

    # the rank is taken mod q: [[1, 1], [1, 3]] has rank 2 over the
    # integers but rank 1 over F_2; more rows than columns is never full
    @pytest.mark.parametrize(
        "q,rows,rank",
        [
            (2, [[1, 1, 1], [1, 1, 1]], 1),
            (3, [[1, 2, 0], [2, 1, 0]], 1),
            (2, [[1, 1], [1, 3]], 1),
            (3, [[1, 0], [0, 1], [1, 1]], 2),
            (5, [[0, 0, 0]], 0),
        ],
        ids=["repeated_row", "multiple_row", "rank_mod_q", "tall", "zero"],
    )
    def test_rejects_row_rank_below_row_count(self, q, rows, rank):
        with pytest.raises(InvalidParams, match=f"generator of {len(rows)} rows has row rank {rank}$"):
            GeneratorMatrix(q, rows)

    def test_accepts_full_row_rank_mod_q(self):
        assert GeneratorMatrix(3, [[1, 1], [1, 3]]).m == 2

    def test_reduces_mod_q(self):
        g = GeneratorMatrix(3, [[4, -1, 3]])
        assert g.array.tolist() == [[1, 2, 0]]
        assert g == GeneratorMatrix(3, [[1, 2, 0]])
        assert hash(g) == hash(GeneratorMatrix(3, [[1, 2, 0]]))
        assert g != GeneratorMatrix(5, [[1, 2, 0]])
        assert (g.m, g.n) == (1, 3) and g.column(2).tolist() == [2]

    def test_write_protected_copy(self):
        source = np.array([[1, 0, 1], [0, 1, 1]])
        g = GeneratorMatrix(3, source)
        with pytest.raises(ValueError):
            g.array[0, 0] = 2
        source[0, 0] = 2  # the caller's array stays writable and unshared
        assert g.array[0, 0] == 1


class TestIsMds:
    def test_repetition(self):
        g = GeneratorMatrix(2, [[1, 1]])
        assert is_mds(g)

    def test_single_parity_check(self):
        g = GeneratorMatrix(3, [[1, 0, 1], [0, 1, 1]])
        assert is_mds(g)

    def test_zero_parity_column(self):
        g = GeneratorMatrix(3, [[1, 0, 0], [0, 1, 0]])
        assert not is_mds(g)


class TestDatabase:
    @pytest.mark.parametrize(
        "shape", [(2, 2), (1, 2, 2), (3, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2, 3)], ids=str
    )
    def test_files_of_the_wrong_shape_are_refused(self, shape):
        p = StorageParams(q=5, n=4, m=2, k=2)  # files are (k, file_rows, m) = (2, 2, 2)
        with pytest.raises(DimensionMismatch, match=r"files shape .* != \(2, 2, 2\)"):
            Database(p, np.zeros(shape, dtype=np.int64))


class TestEncode:
    def test_zero_database(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        shares = encode(Database.zeros(p), build_generator(p))
        assert all(np.all(s.values == 0) for s in shares)

    def test_single_row_inner_product(self):
        p = StorageParams(q=3, n=3, m=2, k=1)
        g = build_generator(p)
        db = Database(p, np.array([[[1, 2]]]))
        shares = encode(db, g)
        parity = g.column(3)
        assert shares[0].values.tolist() == [1]
        assert shares[1].values.tolist() == [2]
        assert shares[2].values.tolist() == [(parity[0] * 1 + parity[1] * 2) % 3]

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 3)])
    def test_systematic_nodes_hold_raw_columns(self, n, m):
        q = SMALLEST_PRIME[n, m]
        p = StorageParams(q=q, n=n, m=m, k=2, stripes=2)
        rng = np.random.default_rng(1)
        db = Database.random(p, rng)
        shares = encode(db, build_generator(p))
        slots = db.slot_matrix()
        for i in range(m):
            assert np.array_equal(shares[i].values, slots[:, i])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_linearity(self, seed):
        p = StorageParams(q=5, n=4, m=2, k=2)
        g = build_generator(p)
        rng = np.random.default_rng(seed)
        db1 = Database.random(p, rng)
        db2 = Database.random(p, rng)
        db_sum = Database(p, (db1.files + db2.files) % p.q)
        lhs = encode(db_sum, g)
        rhs = [
            (a.values + b.values) % p.q for a, b in zip(encode(db1, g), encode(db2, g))
        ]
        for a, b in zip(lhs, rhs):
            assert np.array_equal(a.values, b)


class TestReconstruct:
    def test_systematic_identity(self):
        p = StorageParams(q=5, n=4, m=2, k=3, stripes=2)
        g = build_generator(p)
        db = Database.random(p, np.random.default_rng(3))
        shares = encode(db, g)
        assert reconstruct(p, shares[: p.m], g) == db

    @pytest.mark.parametrize("n,m", ROUNDTRIP_GRID)
    def test_every_subset_roundtrips(self, n, m):
        q = SMALLEST_PRIME[n, m]
        p = StorageParams(q=q, n=n, m=m, k=2)
        g = build_generator(p)
        rng = np.random.default_rng(n * 10 + m)
        for _ in range(5):
            db = Database.random(p, rng)
            shares = encode(db, g)
            for subset in itertools.combinations(range(n), m):
                assert reconstruct(p, [shares[i] for i in subset], g) == db

    def test_wrong_share_count(self):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        shares = encode(Database.zeros(p), g)
        with pytest.raises(BadShareCount):
            reconstruct(p, shares[:1], g)
        with pytest.raises(BadShareCount):
            reconstruct(p, [shares[0], shares[0]], g)

    @pytest.mark.parametrize("index", [0, -1, 4])
    def test_node_index_out_of_range_is_refused(self, index):
        p = StorageParams(q=3, n=3, m=2, k=2)
        g = build_generator(p)
        shares = encode(Database.zeros(p), g)
        stray = NodeData(index, shares[0].values)
        with pytest.raises(BadShareCount, match=f"node indices out of range in \\[{index}, 2\\]"):
            reconstruct(p, [stray, shares[1]], g)
