#!/usr/bin/env python3
"""Time one exact-audit selfcheck, one four-audit op, and the calls they make.

At (q, n, m, k) = (3, 3, 2, 2), the instance of the benchmark's exact-audit
workload, it prints the median wall time of one `_BatchContext.selfcheck`
(32 sampled points, every index, each through its own SimNetwork), of
one op: correctness, user privacy, database privacy and the
zeroed-randomness control, each a separate audit with its own selfcheck,
and of one default `run_audit`, the `spir-mds audit` op, whose three
checks share one universe and so one selfcheck.  One warm-up call
precedes each series.  Then it prints the best per-call time of the
calls a selfcheck repeats, 32·k or 32 times (`gen_queries`,
`gen_answer`, `SimNetwork.exchange`, `_point_network`), and of the
batched kernel a sweep runs once per chunk
(`chunk` on all 81 databases, which also adds every index's units, so
`answer_parts` only looks its index up).  The figures are informational,
for comparing runs on one machine.

    python scripts/audit_timing.py
"""

import statistics
import time
import timeit

from spir_mds import StorageParams, audit, protocol

PARAMS = StorageParams(q=3, n=3, m=2, k=2)
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


def main():
    g = protocol.generator_for(PARAMS)
    ctx = audit._BatchContext(PARAMS, g, audit.Universe(PARAMS))

    def op(seed):
        audit.audit_correctness(PARAMS, g)
        audit.audit_user_privacy(PARAMS, g, seed=seed)
        audit.audit_db_privacy(PARAMS, g, seed=seed)
        audit.leak_experiment(PARAMS, g, "zeroed", seed=seed)

    where = f"(q, n, m, k) = ({PARAMS.q}, {PARAMS.n}, {PARAMS.m}, {PARAMS.k})"
    print(f"selfcheck: {median_ms(ctx.selfcheck):.1f} ms at {where}, median of {REPS}")
    print(f"four-audit op: {median_ms(op):.1f} ms at {where}, median of {REPS}")
    default_audit = median_ms(lambda seed: audit.run_audit(PARAMS, g, seed=seed))
    print(f"default run_audit: {default_audit:.1f} ms at {where}, median of {REPS}")

    # one universe point, as the selfcheck serves it, and one full chunk
    rows = audit.enumerate_assignments(PARAMS.q, ctx.universe.db_digits, 0, ctx.universe.n_db)
    point = (rows[1], ctx.u_rows[5], ctx.s_rows[7])
    net, u_val = audit._point_network(PARAMS, g, *point)
    qs = protocol.gen_queries(PARAMS, g, 1, u_override=u_val)
    node = net.nodes[-1]  # a parity node
    query = qs.node_query(node.node_index)
    calls = [
        ("gen_queries(u_override=...)", lambda: protocol.gen_queries(PARAMS, g, 1, u_override=u_val), 2000),
        ("gen_answer", lambda: protocol.gen_answer(node.node_index, query, node.data, node.randomness, g), 2000),
        (f"SimNetwork.exchange (n = {PARAMS.n})", lambda: net.exchange(qs), 2000),
        ("_point_network", lambda: audit._point_network(PARAMS, g, *point), 2000),
        (f"_BatchContext.chunk ({len(rows)} rows)", lambda: ctx.chunk(rows), 50),
    ]
    for name, fn, number in calls:
        print(f"{name}: {best_us(fn, number):.1f} us per call at {where}, best of {CALL_REPEATS}")


if __name__ == "__main__":
    main()
