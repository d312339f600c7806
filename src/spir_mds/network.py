"""In-process simulation of the one-user, n-node retrieval network.

Isolation is structural: a node handler owns exactly its index, its
share, the shared randomness, and the public code, and its ``answer``
method receives only the query addressed to it.  Nodes never exchange
messages and cannot reach each other's state; the user handler sees
queries and answers but never the shared randomness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import protocol
from .errors import DecodeFailure, InvalidParams
from .protocol import AnswerSet, CommonRandomness, GeneratorMatrix, Transcript
from .storage import Database, NodeData, StorageParams, encode


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


class UserHandler:
    """The retrieving user: builds queries, collects answers, decodes."""

    def __init__(self, params: StorageParams, generator: GeneratorMatrix, theta: int, user_seed: int):
        self.params = params
        self.generator = generator
        self.theta = theta
        self.query_set = protocol.gen_queries(params, generator, theta, user_seed)
        self.received: dict[int, np.ndarray] = {}

    def deliver(self, node_index: int, answer: np.ndarray):
        self.received[node_index] = answer

    def decode(self) -> np.ndarray:
        if sorted(self.received) != list(range(1, self.params.n + 1)):
            raise DecodeFailure(f"answers missing; have nodes {sorted(self.received)}")
        answers = AnswerSet(np.stack([self.received[i] for i in range(1, self.params.n + 1)]))
        return protocol.decode(self.params, self.generator, self.theta, self.query_set, answers), answers


def make_randomness(
    params: StorageParams,
    mode: str,
    node_seed: int,
    partial_count: Optional[int] = None,
) -> CommonRandomness:
    rng = protocol.node_rng(node_seed)
    if mode == "full":
        return CommonRandomness.sample(params, rng)
    if mode == "zeroed":
        return CommonRandomness.zeros(params)
    if mode == "partial":
        if partial_count is None:
            raise InvalidParams("partial randomness mode needs a symbol count")
        return CommonRandomness.partial(params, partial_count, rng)
    raise InvalidParams(f"unknown randomness mode {mode!r}")


class SimNetwork:
    """Wires one user to n isolated node handlers for a single round."""

    def __init__(
        self,
        params: StorageParams,
        db: Database,
        generator: GeneratorMatrix,
        node_seed: int = 0,
        randomness_mode: str = "full",
        partial_count: Optional[int] = None,
    ):
        self.params = params
        self.db = db
        self.generator = generator
        randomness = make_randomness(params, randomness_mode, node_seed, partial_count)
        shares = encode(db, generator)
        self.nodes = [
            NodeHandler(i, shares[i - 1], randomness, generator)
            for i in range(1, params.n + 1)
        ]
        self._randomness = randomness

    def run(self, theta: int, user_seed: int = 0) -> Transcript:
        """One round through the handlers; returns the user's transcript."""
        user = UserHandler(self.params, self.generator, theta, user_seed)
        for handler in self.nodes:
            query = user.query_set.node_query(handler.node_index)
            user.deliver(handler.node_index, handler.answer(query))
        decoded, answers = user.decode()
        if not np.array_equal(decoded, self.db.file(theta)):
            raise DecodeFailure(f"decoded file {theta} differs from stored contents")
        return Transcript(
            params=self.params,
            generator=self.generator,
            theta=theta,
            query_set=user.query_set,
            answer_set=answers,
            decoded_file=decoded,
            download_count=answers.per_node.size,
            randomness_count=self._randomness.values.size,
        )
