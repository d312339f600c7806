#!/usr/bin/env python3
"""Time one exact-audit link, each check of one four-audit op, the
database-privacy rank gap, user privacy far above the default ceiling, and
the calls a link makes.

At (q, n, m, k) = (3, 3, 2, 2), the instance of the benchmark's exact-audit
workload, it prints the median wall time of one `_BatchContext.link` (32
sampled points served, every index, through one SimNetwork over them, and
compared with the answer model, which the warm-up call built), of each
audit of one op: correctness, user privacy and database privacy, each
decided by its certificate, and the zeroed-randomness control, decided by
the rank gap, each a separate audit with its own link, and of one
default `run_audit`, the `spir-mds audit` op, whose three checks share one
context and so one link; the default `run_audit` is also timed at
(2, 4, 2, 2) and (3, 4, 1, 2), with the search generator, as the field is
too small for the Cauchy one.  No check enumerates the universe, and
under a ceiling of 2**100000 every check is exact: at (5, 4, 2, 2) and
(7, 4, 2, 2), universes of up to 7**20 points, it times the
zeroed-randomness control by rank gap, and user privacy with full and
with zeroed masks; at q = 1,000,003 with (n, m, k) = (3, 2, 2), whose
database axis alone has about 2**80 rows, at (3, 3, 2, 2) with 3 stripes
and at (101, 10, 4, 3) it times the default `run_audit` and the
zeroed-randomness control.  One warm-up call precedes each series.  Then
it prints the best per-call time of the served calls a link makes over
its 32 points: the network build (`_point_network`) once, `gen_queries` k
times, and `SimNetwork.exchange` once, on the k indices' per-node queries
stacked as the link stacks them.  The figures are informational, for
comparing runs on one machine.

    python scripts/audit_timing.py
"""

import statistics
import time
import timeit

import numpy as np

from spir_mds import audit, protocol
from spir_mds.storage import StorageParams

PARAMS = StorageParams(q=3, n=3, m=2, k=2)
SEARCH_PARAMS = (StorageParams(q=2, n=4, m=2, k=2), StorageParams(q=3, n=4, m=1, k=2))
LARGE_PARAMS = (StorageParams(q=5, n=4, m=2, k=2), StorageParams(q=7, n=4, m=2, k=2))
HUGE_PARAMS = (
    StorageParams(q=1000003, n=3, m=2, k=2),
    StorageParams(q=3, n=3, m=2, k=2, stripes=3),
    StorageParams(q=101, n=10, m=4, k=3),
)
HUGE_CEILING = 2**100000
REPS = 15
CALL_REPEATS = 7  # best of CALL_REPEATS timings of `number` calls each


def median_ms(fn) -> float:
    fn(0)
    times = []
    for seed in range(REPS):
        start = time.perf_counter()
        fn(seed)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def best_us(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=CALL_REPEATS)) / number * 1e6


def at(params: StorageParams) -> str:
    stripes = f", stripes = {params.stripes}" if params.stripes > 1 else ""
    return f"(q, n, m, k) = ({params.q}, {params.n}, {params.m}, {params.k}){stripes}"


def main():
    g = protocol.generator_for(PARAMS)
    where = at(PARAMS)

    audits = {
        "correctness audit, by certificate": lambda seed: audit.run_audit(PARAMS, g, ("correctness",)),
        "user privacy audit, by certificate": lambda seed: audit.run_audit(PARAMS, g, ("user-privacy",), seed=seed),
        "database privacy audit, by certificate": lambda seed: audit.run_audit(PARAMS, g, ("db-privacy",), seed=seed),
        "zeroed-randomness control audit, by rank gap": lambda seed: audit.run_audit(
            PARAMS, g, ("db-privacy",), randomness_mode="zeroed", seed=seed
        ),
    }
    ctx = audit._BatchContext(PARAMS, g)
    print(f"link: {median_ms(ctx.link):.1f} ms at {where}, median of {REPS}")
    for name, fn in audits.items():
        print(f"{name}: {median_ms(fn):.1f} ms at {where}, median of {REPS}")
    for params in LARGE_PARAMS:
        gen = protocol.generator_for(params)
        large = {
            "zeroed-randomness control, by rank gap": {"checks": ("db-privacy",), "randomness_mode": "zeroed"},
            "user privacy, full masks": {"checks": ("user-privacy",)},
            "user privacy, zeroed masks": {"checks": ("user-privacy",), "mask_mode": "zeroed"},
        }
        for name, options in large.items():
            ms = median_ms(lambda seed: audit.run_audit(params, gen, ceiling=HUGE_CEILING, seed=seed, **options))
            print(f"{name}: {ms:.1f} ms at {at(params)}, median of {REPS}")
    for params in HUGE_PARAMS:
        gen = protocol.generator_for(params)
        for name, options in {"default run_audit": {}, "zeroed-randomness control": {"randomness_mode": "zeroed"}}.items():
            ms = median_ms(lambda seed: audit.run_audit(params, gen, ceiling=HUGE_CEILING, seed=seed, **options))
            print(f"{name}, exact: {ms:.1f} ms at {at(params)}, median of {REPS}")
    default_audit = median_ms(lambda seed: audit.run_audit(PARAMS, g, seed=seed))
    print(f"default run_audit: {default_audit:.1f} ms at {where}, median of {REPS}")
    for params in SEARCH_PARAMS:
        search_g = protocol.generator_for(params, "search")
        ms = median_ms(lambda seed: audit.run_audit(params, search_g, seed=seed))
        print(f"default run_audit, search generator: {ms:.1f} ms at {at(params)}, median of {REPS}")

    # 32 universe points, drawn and served as the link draws and serves them
    points = audit._random_rows(np.random.default_rng(0), audit._LINK_POINTS, audit.Universe(PARAMS))
    net, u_val = audit._point_network(PARAMS, g, *points)
    thetas = range(1, PARAMS.k + 1)
    queries = np.stack([protocol.gen_queries(PARAMS, g, theta, u_override=u_val).per_node for theta in thetas])
    batch = f"{audit._LINK_POINTS} points"
    calls = [
        (f"_point_network ({batch})", lambda: audit._point_network(PARAMS, g, *points), 500),
        (f"gen_queries(u_override=...) ({batch})", lambda: protocol.gen_queries(PARAMS, g, 1, u_override=u_val), 500),
        (f"SimNetwork.exchange ({batch}, k = {PARAMS.k}, n = {PARAMS.n})", lambda: net.exchange(queries), 500),
    ]
    for name, fn, number in calls:
        print(f"{name}: {best_us(fn, number):.1f} us per call at {where}, best of {CALL_REPEATS}")


if __name__ == "__main__":
    main()
