#!/usr/bin/env python3
"""Sweep the shared-randomness budget and watch database privacy break.

For each instance, the exact auditor runs with j of the m^2 shared
symbols kept random (the rest zeroed), j = 0 .. m^2.  The endpoints are
forced (j=0 must leak, j=m^2 must not) while intermediate budgets are
simply reported.  Decoding works at every j; only privacy is at stake.
"""

import time

from spir_mds.audit import run_audit
from spir_mds.protocol import find_decodable_generator
from spir_mds.storage import StorageParams


def main():
    instances = [
        StorageParams(q=2, n=2, m=1, k=2),
        StorageParams(q=2, n=3, m=2, k=2),
        StorageParams(q=2, n=4, m=1, k=2),
        StorageParams(q=2, n=4, m=2, k=2),
        StorageParams(q=3, n=3, m=2, k=2),
    ]
    for params in instances:
        g = find_decodable_generator(params)
        budget = params.stripes * params.m * params.m
        verdicts = []
        t0 = time.perf_counter()
        for j in range(budget + 1):
            report = run_audit(params, g, ("db-privacy",), randomness_mode="partial", partial_count=j)
            verdicts.append("private" if report.all_passed else "LEAKS")
        dt = time.perf_counter() - t0
        full = run_audit(params, g, ("db-privacy",)).all_passed
        print(f"q={params.q} (n={params.n}, m={params.m}), m^2={budget} shared symbols ({dt:.1f}s):")
        for j, verdict in enumerate(verdicts):
            print(f"  j={j}: {verdict}")
        print(f"  full randomness: {'private' if full else 'LEAKS'}\n")


if __name__ == "__main__":
    main()
