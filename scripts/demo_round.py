#!/usr/bin/env python3
"""Walk one retrieval round end to end and print every artifact, then its
rate report next to the same round's under zeroed shared randomness, and
the same round served with a non-systematic generator of the same code.

Usage: python scripts/demo_round.py [--q 5 --n 4 --m 2 --k 3 --theta 2]
"""

import argparse

import numpy as np

from spir_mds import protocol, rates
from spir_mds.network import SimNetwork, make_randomness
from spir_mds.storage import Database, GeneratorMatrix, StorageParams, build_generator, encode


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=5)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--theta", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = StorageParams(q=args.q, n=args.n, m=args.m, k=args.k)
    g = build_generator(params)
    db = Database.random(params, protocol.db_rng(args.seed))

    print(f"instance: q={params.q}, n={params.n} nodes, m={params.m}, k={params.k} files")
    print(f"generator [I | P] over F_{params.q}:")
    print(g.array)
    print(f"\nrequested file {args.theta}:")
    print(db.file(args.theta))

    shares = encode(db, g)
    print("\nper-node shares (one column per node):")
    print(np.stack([s.values for s in shares], axis=1))

    transcript = SimNetwork(params, db, g, node_seed=args.seed + 1).run(args.theta, args.seed)
    print(f"\nqueries to node 1 (masks plus unit rides):")
    print(transcript.query_set.node_query(1)[0])
    print(f"\nanswers (n x m symbols, {transcript.download_count} downloaded):")
    print(transcript.answer_set.per_node[:, 0, :])
    print(f"\ndecoded file {args.theta}:")
    print(transcript.decoded_file)
    assert np.array_equal(transcript.decoded_file, db.file(args.theta))

    # the same round with no shared randomness drawn: it still decodes, but
    # below the secrecy floor the converse leaves a capacity of 0
    zeroed = SimNetwork(params, db, g, randomness=make_randomness(params, "zeroed", args.seed + 1))
    print()
    for name, tr in (("full", transcript), ("zeroed", zeroed.run(args.theta, args.seed))):
        report = rates.measure(tr)
        print(
            f"{name} randomness, {tr.randomness_count} shared symbols drawn: "
            f"rate {report.achieved_rate} (capacity {report.capacity}), "
            f"secrecy {report.achieved_secrecy} (floor {report.secrecy_floor}), "
            f"at capacity: {report.at_capacity}"
        )

    # A @ [I | P] for an invertible A is another MDS generator of the same
    # code; for m >= 2 no node holds a raw file column, and it still decodes
    mixed = GeneratorMatrix(params.q, np.triu(np.ones((params.m, params.m), dtype=np.int64)) @ g.array)
    other = SimNetwork(params, db, mixed, node_seed=args.seed + 1).run(args.theta, args.seed)
    print("\ngenerator A @ [I | P] of the same code, A the upper-triangular ones:")
    print(mixed.array)
    print(f"decoded file {args.theta} matches: {np.array_equal(other.decoded_file, db.file(args.theta))}")


if __name__ == "__main__":
    main()
