import numpy as np
import pytest

from spir_mds.errors import FieldTooSmall
from spir_mds.protocol import find_decodable_generator, make_query_plan
from spir_mds.storage import StorageParams, build_generator

# The four desk-scale instances every exhaustive audit runs on.
EXHAUSTIVE_INSTANCES = [
    StorageParams(q=2, n=2, m=1, k=2),
    StorageParams(q=2, n=3, m=2, k=2),
    StorageParams(q=2, n=4, m=1, k=2),
    StorageParams(q=2, n=4, m=2, k=2),
]

# (n, m) grid whose smallest admissible prime supports the Cauchy build.
CAPACITY_GRID = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]

# the smallest prime q whose Cauchy build succeeds at each (n, m) of the grid:
# q >= 2 when m = 1, else q >= n
SMALLEST_PRIME = {(2, 1): 2, (3, 1): 2, (3, 2): 3, (4, 1): 2, (4, 2): 5, (4, 3): 5, (5, 2): 5, (5, 3): 5}


def generator_for_instance(params: StorageParams):
    """Standard construction when the field allows it, search otherwise."""
    try:
        return build_generator(params)
    except FieldTooSmall:
        return find_decodable_generator(params)


def reference_unit_mask(params, theta, node):
    """Per-node unit pattern built entry by entry from the plan table."""
    plan = make_query_plan(params)
    mask = np.zeros((params.m, params.query_len), dtype=np.int64)
    base = (theta - 1) * params.rows_per_stripe
    for t in range(1, params.m + 1):
        row = plan.unit_rows[node - 1][t - 1]
        if row is not None:
            mask[t - 1, base + row - 1] = 1
    return mask


def reference_queries(params, theta, u):
    """Dense (u + reference_unit_mask) % q over every node."""
    return np.stack(
        [
            (u + reference_unit_mask(params, theta, node)[None]) % params.q
            for node in range(1, params.n + 1)
        ]
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {item.name}: {verdict}")
