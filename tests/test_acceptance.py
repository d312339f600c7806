"""Acceptance suite: one test per criterion, exact tolerances, timed.

The conftest hook prints one ``ACCEPTANCE <name>: PASS/FAIL`` line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import CAPACITY_GRID, EXHAUSTIVE_INSTANCES, SMALLEST_PRIME, generator_for_instance
from spir_mds import protocol, rates
from spir_mds.audit import (
    audit_correctness,
    audit_db_privacy,
    audit_user_privacy,
    leak_experiment,
)
from spir_mds.cli import main as cli_main
from spir_mds.network import SimNetwork, make_randomness
from spir_mds.storage import (
    Database,
    StorageParams,
    build_generator,
    encode,
    is_mds,
    reconstruct,
)


def capacity_grid_params():
    for (n, m), k in itertools.product(CAPACITY_GRID, (2, 3)):
        yield StorageParams(q=SMALLEST_PRIME[n, m], n=n, m=m, k=k)


def test_criterion_1_capacity_achievement():
    # achieved rate exactly 1 - m/n, achieved secrecy exactly m/(n-m)
    start = time.perf_counter()
    for params in capacity_grid_params():
        db = Database.random(params, protocol.db_rng(params.n * 100 + params.m))
        net = SimNetwork(params, db, build_generator(params), node_seed=2)
        for theta in (1, params.k):
            report = rates.measure(net.run(theta, user_seed=1))
            assert report.achieved_rate == Fraction(params.n - params.m, params.n)
            assert report.achieved_secrecy == Fraction(params.m, params.n - params.m)
            assert report.achieved_secrecy == report.secrecy_floor
            assert report.at_capacity
    assert time.perf_counter() - start < 1.0


def test_criterion_2_zero_error_decoding():
    start = time.perf_counter()
    # exhaustive over every (database, mask, randomness) assignment
    for params in EXHAUSTIVE_INSTANCES:
        g = generator_for_instance(params)
        assert audit_correctness(params, g)
    # plus 1000 randomized trials per capacity-grid parameter set
    for params in capacity_grid_params():
        g = build_generator(params)
        rng = protocol.db_rng(params.n * 17 + params.m)
        for trial in range(1000):
            db = Database.random(params, rng)
            theta = trial % params.k + 1
            tr = SimNetwork(params, db, g, node_seed=trial + 1).run(theta, user_seed=trial)
            assert np.array_equal(tr.decoded_file, db.file(theta))
    assert time.perf_counter() - start < 60.0


def test_criterion_3_user_privacy_exact():
    start = time.perf_counter()
    for params in EXHAUSTIVE_INSTANCES:
        g = generator_for_instance(params)
        report = audit_user_privacy(params, g)
        assert len(report.checks) == params.n
        for check in report.checks:
            assert check.exact
            assert check.independent, f"{params}: {check.name}"
            assert check.conditional_equal, f"{params}: {check.name} conditional"
    assert time.perf_counter() - start < 120.0


def test_criterion_4_db_privacy_exact():
    start = time.perf_counter()
    for params in EXHAUSTIVE_INSTANCES:
        g = generator_for_instance(params)
        report = audit_db_privacy(params, g)
        assert report.checks[0].exact
        assert report.all_passed, str(params)
    assert time.perf_counter() - start < 120.0


def test_criterion_5_randomness_is_necessary():
    for params in EXHAUSTIVE_INSTANCES:
        g = generator_for_instance(params)
        report = leak_experiment(params, g, "zeroed")
        assert not report.all_passed, str(params)
        witness = report.failed_checks()[0].witness
        assert witness is not None
        print(f"\n  leak witness {params}: theta={witness['theta']} counts={witness['counts']}")
        # decoding is unaffected by the missing blinding
        db = Database.random(params, protocol.db_rng(1))
        net = SimNetwork(params, db, g, randomness=make_randomness(params, "zeroed", 0))
        for theta in (1, params.k):
            tr = net.run(theta, user_seed=3)
            assert np.array_equal(tr.decoded_file, db.file(theta))


def test_criterion_6_mds_property_and_reconstruction():
    for (n, m) in CAPACITY_GRID:
        params = StorageParams(q=SMALLEST_PRIME[n, m], n=n, m=m, k=2)
        g = build_generator(params)
        assert is_mds(g)  # exhausts all C(n, m) column subsets
        db = Database.random(params, protocol.db_rng(n * m))
        shares = encode(db, g)
        for subset in itertools.combinations(range(1, n + 1), m):
            got = reconstruct(params, [shares[i - 1] for i in subset], g)
            assert got == db, f"({n},{m}) subset {subset}"


def test_criterion_7_private_retrieval_gap_shrinks_geometrically():
    half = Fraction(1, 2)
    for k in range(1, 31):
        gap = rates.pir_capacity_mds(4, 2, k) - half
        assert gap < half ** (k - 1), f"k={k}"
        assert gap > 0


def test_criterion_8_deterministic_transcripts(tmp_path):
    args = [
        "run", "--q", "5", "--n", "4", "--m", "2", "--k", "3", "--theta", "2",
        "--seed-user", "11", "--seed-node", "12", "--seed-db", "13",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(args + ["--out", str(first), "--rate-out", str(tmp_path / "r1.json")]) == 0
    assert cli_main(args + ["--out", str(second), "--rate-out", str(tmp_path / "r2.json")]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
