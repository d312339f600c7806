import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spir_mds import fields
from spir_mds.errors import DimensionMismatch, SingularSystem

PRIMES = [2, 3, 5, 7]


def brute_force_rank(arr: np.ndarray, q: int) -> int:
    """Largest r with some r x r submatrix of nonzero determinant.

    Determinants expand over permutations, so this shares nothing with
    the elimination path it checks.
    """

    def det(sub: np.ndarray) -> int:
        n = sub.shape[0]
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= int(sub[i, perm[i]])
            total += term
        return total % q

    rows, cols = arr.shape
    for r in range(min(rows, cols), 0, -1):
        for rsel in itertools.combinations(range(rows), r):
            for csel in itertools.combinations(range(cols), r):
                if det(arr[np.ix_(rsel, csel)]) != 0:
                    return r
    return 0


class TestIsPrime:
    def test_small_values(self):
        primes = [v for v in range(-2, 30) if fields.is_prime(v)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestInvert:
    def test_singular(self):
        with pytest.raises(SingularSystem):
            fields.invert(np.array([[1, 1], [2, 2]]), 3)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 0)], ids=str)
    def test_non_square_is_refused(self, shape):
        with pytest.raises(DimensionMismatch) as refusal:
            fields.invert(np.ones(shape, dtype=np.int64), 3)
        assert str(refusal.value) == f"matrix is {shape}, not square"

    @pytest.mark.parametrize("q", PRIMES)
    def test_random_roundtrips(self, q):
        # 1000 random nonsingular systems per field: invert, solve through
        # the inverse, then re-multiply
        rng = np.random.default_rng(q)
        done = 0
        while done < 1000:
            dim = int(rng.integers(1, 5))
            a = rng.integers(0, q, size=(dim, dim))
            if fields.rank_of(a, q) < dim:
                continue
            x = rng.integers(0, q, size=dim)
            b = (a @ x) % q
            inv = fields.invert(a, q)
            assert np.array_equal((a @ inv) % q, np.eye(dim, dtype=np.int64))
            got = (inv @ b) % q
            assert np.array_equal((a @ got) % q, b)
            assert np.array_equal(got, x % q)
            done += 1


class TestRank:
    def test_zero_matrix(self):
        assert fields.rank_of(np.zeros((2, 2), dtype=np.int64), 5) == 0

    def test_identity(self):
        assert fields.rank_of(np.eye(4, dtype=np.int64), 7) == 4

    def test_proportional_rows(self):
        assert fields.rank_of(np.array([[1, 2], [2, 4]]), 5) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5]),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        data=st.data(),
    )
    def test_matches_brute_force(self, q, rows, cols, data):
        flat = data.draw(
            st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols)
        )
        arr = np.array(flat, dtype=np.int64).reshape(rows, cols)
        assert fields.rank_of(arr, q) == brute_force_rank(arr, q)


def span_size(arr: np.ndarray, q: int) -> int:
    """Number of distinct combinations of the rows of ``arr`` mod q, found
    by trying every coefficient vector: q ** rank."""
    coefficients = np.array(list(itertools.product(range(q), repeat=arr.shape[0])), dtype=np.int64)
    return len({tuple(row) for row in ((coefficients @ arr) % q).tolist()})


class TestRowReduceStacks:
    """The one elimination kernel reduces every matrix of a stack as it
    reduces that matrix alone, and its pivots count each matrix's rank."""

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.sampled_from([2, 3, 5]),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        kinds=st.lists(st.sampled_from(["random", "zero", "deficient"]), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_batched_ranks_match_the_span_count(self, q, rows, cols, kinds, data):
        stack = []
        for kind in kinds:
            flat = data.draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
            arr = np.array(flat, dtype=np.int64).reshape(rows, cols)
            if kind == "zero":
                arr[:] = 0
            elif kind == "deficient":  # the last row a combination of the others
                coefficients = data.draw(st.lists(st.integers(0, q - 1), min_size=rows - 1, max_size=rows - 1))
                arr[-1] = np.array(coefficients, dtype=np.int64) @ arr[:-1] % q
            stack.append(arr)
        stack = np.stack(stack)
        reduced, pivots = fields.row_reduce(stack, q)
        for arr, red, flags in zip(stack, reduced, pivots):
            assert q ** int(flags.sum()) == span_size(arr, q)
            alone, columns = fields.rref(arr, q)
            assert np.array_equal(red, alone) and np.flatnonzero(flags).tolist() == columns
            # each prefix of columns has as many pivots as its rank
            for j in range(1, cols + 1):
                assert q ** int(flags[:j].sum()) == span_size(arr[:, :j].T, q)

    def test_leading_axes_and_empty_matrices(self):
        stack = np.arange(2 * 3 * 2 * 3).reshape(2, 3, 2, 3)
        reduced, pivots = fields.row_reduce(stack, 5)
        assert reduced.shape == stack.shape and pivots.shape == (2, 3, 3)
        reduced, pivots = fields.row_reduce(np.zeros((4, 0, 6), dtype=np.int64), 5)
        assert reduced.shape == (4, 0, 6) and not pivots.any()
