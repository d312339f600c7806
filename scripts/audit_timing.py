#!/usr/bin/env python3
"""Time one exact-audit selfcheck, each check of one four-audit op, the
database-privacy rank gap, and the calls they make.

At (q, n, m, k) = (3, 3, 2, 2), the instance of the benchmark's exact-audit
workload, it prints the median wall time of one `_BatchContext.selfcheck`
(32 sampled points served, every index, through one SimNetwork over them), of
each audit of one op: correctness, user privacy, database privacy and the
zeroed-randomness control, each a separate audit with its own selfcheck,
and of one default `run_audit`, the `spir-mds audit` op, whose three
checks share one universe and so one selfcheck; the default `run_audit` is
also timed at (2, 4, 2, 2) and (3, 4, 1, 2), with the search generator, as
the field is too small for the Cauchy one.  The correctness and user
privacy audits are timed twice: as they run, where a certificate decides
each passing check, and with every certificate forced to fail, so the
enumerator decides.  Database privacy never enumerates: below the secrecy
floor its rank gap decides, timed on the zeroed-randomness control at
(3, 3, 2, 2) and at (5, 4, 2, 2), whose 5**16 points only a ceiling of
2**60 admits.  One warm-up call precedes each series.  Then it prints
the best per-call time of the served calls a selfcheck makes over its 32
points: the network build (`_point_network`) once, and `gen_queries` and
`SimNetwork.exchange` k times each, and of `chunk` on the (81 masks) x
(81 databases) grid that a sweep serves per chunk: one network over the
databases, and one `gen_queries` and one exchange per index.  The figures
are informational, for comparing runs on one machine.

    python scripts/audit_timing.py
"""

import contextlib
import statistics
import time
import timeit

from spir_mds import audit, protocol
from spir_mds.storage import StorageParams

PARAMS = StorageParams(q=3, n=3, m=2, k=2)
SEARCH_PARAMS = (StorageParams(q=2, n=4, m=2, k=2), StorageParams(q=3, n=4, m=1, k=2))
RANK_GAP_PARAMS = ((PARAMS, audit.DEFAULT_UNIVERSE_CEILING), (StorageParams(q=5, n=4, m=2, k=2), 2**60))
REPS = 15
CALL_REPEATS = 7  # best of CALL_REPEATS timings of `number` calls each
CERTIFICATES = ("_decodes_on_the_basis", "_user_privacy_certificate")


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
    return f"(q, n, m, k) = ({params.q}, {params.n}, {params.m}, {params.k})"


@contextlib.contextmanager
def certificates_fail(forced: bool):
    """Within the block, every enumerator's certificate fails when ``forced``."""
    saved = {name: getattr(audit, name) for name in CERTIFICATES}
    if forced:
        for name in CERTIFICATES:
            setattr(audit, name, lambda ctx: False)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(audit, name, fn)


def main():
    g = protocol.generator_for(PARAMS)
    ctx = audit._BatchContext(PARAMS, g, audit.Universe(PARAMS))
    where = at(PARAMS)

    audits = {
        "correctness": lambda seed: audit.audit_correctness(PARAMS, g),
        "user privacy": lambda seed: audit.audit_user_privacy(PARAMS, g, seed=seed),
        "database privacy": lambda seed: audit.audit_db_privacy(PARAMS, g, seed=seed),
        "zeroed-randomness control": lambda seed: audit.leak_experiment(PARAMS, g, "zeroed", seed=seed),
    }
    print(f"selfcheck: {median_ms(ctx.selfcheck):.1f} ms at {where}, median of {REPS}")
    for name, fn in audits.items():
        print(f"{name} audit, by certificate: {median_ms(fn):.1f} ms at {where}, median of {REPS}")
    with certificates_fail(True):
        for name in ("correctness", "user privacy"):
            ms = median_ms(audits[name])
            print(f"{name} audit, certificates forced to fail: {ms:.1f} ms at {where}, median of {REPS}")
    for params, ceiling in RANK_GAP_PARAMS:
        gen = protocol.generator_for(params)
        ms = median_ms(
            lambda seed: audit.run_audit(
                params, gen, ("db-privacy",), randomness_mode="zeroed", ceiling=ceiling, seed=seed
            )
        )
        print(f"zeroed-randomness control, by rank gap: {ms:.1f} ms at {at(params)}, median of {REPS}")
    default_audit = median_ms(lambda seed: audit.run_audit(PARAMS, g, seed=seed))
    print(f"default run_audit: {default_audit:.1f} ms at {where}, median of {REPS}")
    for params in SEARCH_PARAMS:
        search_g = protocol.generator_for(params, "search")
        ms = median_ms(lambda seed: audit.run_audit(params, search_g, seed=seed))
        print(f"default run_audit, search generator: {ms:.1f} ms at {at(params)}, median of {REPS}")

    # 32 universe points, served as the selfcheck serves them, and one full served grid
    rows = audit.enumerate_assignments(PARAMS.q, ctx.universe.db_digits, 0, ctx.universe.n_db)
    points = tuple(axis[: audit._SELFCHECK_POINTS] for axis in (rows, ctx.u_rows, ctx.s_rows))
    net, u_val = audit._point_network(PARAMS, g, *points)
    qs = protocol.gen_queries(PARAMS, g, 1, u_override=u_val)
    batch = f"{audit._SELFCHECK_POINTS} points"
    grid = f"{len(ctx.u_rows)} x {len(rows)} grid"
    calls = [
        (f"_point_network ({batch})", lambda: audit._point_network(PARAMS, g, *points), 500),
        (f"gen_queries(u_override=...) ({batch})", lambda: protocol.gen_queries(PARAMS, g, 1, u_override=u_val), 500),
        (f"SimNetwork.exchange ({batch}, n = {PARAMS.n})", lambda: net.exchange(qs), 500),
        (f"_BatchContext.chunk, served {grid}", lambda: ctx.chunk(rows[None], ctx.u_rows[:, None]), 50),
    ]
    for name, fn, number in calls:
        print(f"{name}: {best_us(fn, number):.1f} us per call at {where}, best of {CALL_REPEATS}")


if __name__ == "__main__":
    main()
