from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CAPACITY_GRID
from spir_mds.errors import InvalidParams
from spir_mds.network import SimNetwork
from spir_mds.rates import measure, pir_capacity_mds, secrecy_floor, spir_capacity
from spir_mds.storage import Database, StorageParams, build_generator


class TestFormulas:
    def test_capacity_values(self):
        assert spir_capacity(2, 1, 1) == Fraction(1, 2)
        assert spir_capacity(4, 2, 1) == Fraction(1, 2)  # threshold met exactly
        assert spir_capacity(3, 2, 1) == 0  # below the floor of 2

    def test_capacity_threshold_boundary(self):
        floor = secrecy_floor(5, 2)
        assert spir_capacity(5, 2, floor) == Fraction(3, 5)
        assert spir_capacity(5, 2, floor - Fraction(1, 1000)) == 0

    def test_secrecy_floor_values(self):
        assert secrecy_floor(4, 2) == 1
        assert secrecy_floor(2, 1) == 1
        assert secrecy_floor(5, 2) == Fraction(2, 3)

    def test_pir_capacity_values(self):
        assert pir_capacity_mds(2, 1, 2) == Fraction(2, 3)
        assert pir_capacity_mds(4, 2, 1) == 1
        assert pir_capacity_mds(7, 3, 1) == 1

    def test_pir_capacity_geometric_tail(self):
        # the gap to the symmetric capacity shrinks geometrically in k
        gap = pir_capacity_mds(4, 2, 20) - Fraction(1, 2)
        assert 0 < gap < Fraction(1, 2) ** 19

    def test_pir_capacity_monotone_and_bounded(self):
        for n, m in [(2, 1), (4, 2), (5, 3)]:
            values = [pir_capacity_mds(n, m, k) for k in range(1, 31)]
            floor_cap = spir_capacity(n, m, secrecy_floor(n, m))
            for a, b in zip(values, values[1:]):
                assert b < a
            assert all(v > floor_cap for v in values)

    @settings(max_examples=60, deadline=None)
    @given(nm=st.sampled_from(CAPACITY_GRID), k=st.integers(1, 60))
    def test_pir_capacity_closed_form_equals_sum(self, nm, k):
        n, m = nm
        want = 1 / sum(Fraction(m, n) ** i for i in range(k))
        assert pir_capacity_mds(n, m, k) == want

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            spir_capacity(2, 2, 1)
        with pytest.raises(InvalidParams):
            secrecy_floor(1, 1)
        with pytest.raises(InvalidParams):
            pir_capacity_mds(4, 2, 0)
        # k * n.bit_length() past 14,000 bits is refused; up to it, the
        # exact capacity still prints within Python's 4300-digit default
        with pytest.raises(InvalidParams):
            pir_capacity_mds(3, 1, 7001)
        assert str(pir_capacity_mds(3, 1, 7000))

    def test_everything_is_exact_rational(self):
        values = [
            spir_capacity(4, 2, 1),
            secrecy_floor(5, 2),
            pir_capacity_mds(4, 2, 7),
        ]
        assert all(isinstance(v, Fraction) for v in values)


class TestMeasure:
    @pytest.mark.parametrize(
        "q,n,m,want_rate",
        [(5, 4, 2, Fraction(1, 2)), (3, 3, 2, Fraction(1, 3)), (2, 2, 1, Fraction(1, 2))],
    )
    def test_round_counts(self, q, n, m, want_rate):
        p = StorageParams(q=q, n=n, m=m, k=2)
        db = Database.random(p, np.random.default_rng(n))
        report = measure(SimNetwork(p, db, build_generator(p)).run(1))
        assert report.achieved_rate == want_rate
        assert report.achieved_rate == report.capacity
        assert report.achieved_secrecy == report.secrecy_floor
        assert report.at_capacity

    def test_striping_does_not_change_rates(self):
        p = StorageParams(q=5, n=4, m=2, k=2, stripes=3)
        db = Database.random(p, np.random.default_rng(0))
        report = measure(SimNetwork(p, db, build_generator(p)).run(2))
        assert report.achieved_rate == Fraction(1, 2)
        assert report.achieved_secrecy == 1
        assert report.at_capacity
