"""In-process simulation of the one-user, n-node retrieval network.

The one place a round is assembled.  Isolation is structural: a node
handler owns exactly its index, its share, the shared randomness, and
the public code, and its ``answer`` method receives only the query
addressed to it.  Nodes never exchange messages and cannot reach each
other's state; the user builds the queries and decodes from queries and
answers alone, never seeing the shared randomness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import protocol
from .errors import DecodeFailure
from .protocol import AnswerSet, CommonRandomness, QuerySet, Transcript
from .storage import Database, GeneratorMatrix, NodeData, StorageParams, encode


class NodeHandler:
    """One storage node: answers queries from its own view only."""

    __slots__ = ("node_index", "data", "randomness", "generator")

    def __init__(
        self,
        node_index: int,
        data: NodeData,
        randomness: CommonRandomness,
        generator: GeneratorMatrix,
    ):
        self.node_index = node_index
        self.data = data
        self.randomness = randomness
        self.generator = generator

    def answer(self, query: np.ndarray) -> np.ndarray:
        return protocol.gen_answer(
            self.node_index, query, self.data, self.randomness, self.generator
        )


def make_randomness(
    params: StorageParams,
    mode: str,
    node_seed: int,
    partial_count: Optional[int] = None,
) -> CommonRandomness:
    """The nodes' shared S: its ``protocol.free_randomness`` leading
    symbols drawn from ``node_seed``, the rest zero."""
    free = protocol.free_randomness(params, mode, partial_count)
    return CommonRandomness.partial(params, free, protocol.node_rng(node_seed))


class SimNetwork:
    """Wires one user to n isolated node handlers sharing one database.

    ``randomness`` is the nodes' shared S; ``None`` draws it uniformly
    from ``node_seed``.  ``exchange`` serves leading point axes of the
    queries, database and randomness at once; ``serve`` and ``run`` refuse them.
    """

    def __init__(
        self,
        params: StorageParams,
        db: Database,
        generator: GeneratorMatrix,
        node_seed: int = 0,
        *,
        randomness: Optional[CommonRandomness] = None,
    ):
        self.params = params
        self.db = db
        self.generator = generator
        if randomness is None:
            randomness = make_randomness(params, "full", node_seed)
        shares = encode(db, generator)
        self.nodes = [
            NodeHandler(i, shares[i - 1], randomness, generator)
            for i in range(1, params.n + 1)
        ]
        self._randomness = randomness

    def exchange(self, per_node: np.ndarray) -> AnswerSet:
        """Deliver each node its own query of ``per_node`` (..., n, stripes, m,
        query_len), never the index or masks, and stack the answers of every
        point at axis -3 as (..., n, stripes, m)."""
        answers = [h.answer(per_node[..., h.node_index - 1, :, :, :]) for h in self.nodes]
        return AnswerSet(np.stack(answers, axis=-3))

    def serve(self, query_set: QuerySet) -> Transcript:
        """One round on given queries: exchange, decode, check the file."""
        serving = [h.node_index for h in self.nodes]
        if serving != list(range(1, self.params.n + 1)):
            raise DecodeFailure(f"answers missing; have nodes {serving}")
        theta = query_set.theta
        answers = self.exchange(query_set.per_node)
        decoded = protocol.decode(self.params, self.generator, theta, query_set, answers)
        if not np.array_equal(decoded, self.db.file(theta)):
            raise DecodeFailure(f"decoded file {theta} differs from stored contents")
        return Transcript(
            params=self.params,
            generator=self.generator,
            theta=theta,
            query_set=query_set,
            answer_set=answers,
            decoded_file=decoded,
            download_count=answers.per_node.size,
            randomness_count=self._randomness.drawn,
        )

    def run(self, theta: int, user_seed: int = 0) -> Transcript:
        """One round with freshly drawn queries; returns the user's transcript."""
        return self.serve(protocol.gen_queries(self.params, self.generator, theta, user_seed))
