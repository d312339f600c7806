#!/usr/bin/env python3
"""Time one exact-audit selfcheck and one four-audit op, in process.

At (q, n, m, k) = (3, 3, 2, 2), the instance of the benchmark's exact-audit
workload, it prints the median wall time of one `_BatchContext.selfcheck`
(32 sampled points, every index, each through its own SimNetwork) and of
one op: correctness, user privacy, database privacy and the
zeroed-randomness control.  One warm-up call precedes each series.  The
figures are informational, for comparing runs on one machine.

    python scripts/audit_timing.py
"""

import statistics
import time

from spir_mds import StorageParams, audit, protocol

PARAMS = StorageParams(q=3, n=3, m=2, k=2)
REPS = 15


def median_ms(fn) -> float:
    fn(0)
    times = []
    for seed in range(REPS):
        start = time.perf_counter()
        fn(seed)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def main():
    g = protocol.generator_for(PARAMS)
    ctx = audit._BatchContext(PARAMS, g, audit.Universe(PARAMS))

    def op(seed):
        audit.audit_correctness(PARAMS, g)
        audit.audit_user_privacy(PARAMS, g, seed=seed)
        audit.audit_db_privacy(PARAMS, g, seed=seed)
        audit.leak_experiment(PARAMS, g, "zeroed", seed=seed)

    where = f"(q, n, m, k) = ({PARAMS.q}, {PARAMS.n}, {PARAMS.m}, {PARAMS.k}), median of {REPS}"
    print(f"selfcheck: {median_ms(ctx.selfcheck):.1f} ms at {where}")
    print(f"four-audit op: {median_ms(op):.1f} ms at {where}")


if __name__ == "__main__":
    main()
