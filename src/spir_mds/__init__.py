"""Symmetric private information retrieval over MDS-coded storage.

A user retrieves one of k files striped across n nodes by an (n, m)
erasure code, without revealing which file (user privacy) and without
learning anything about the others (database privacy).  The package
implements the capacity-achieving scheme (download n*m symbols per
(n-m)*m-symbol file, blinded by m^2 node-shared random symbols) plus an
auditor that verifies both privacy guarantees *exactly* on desk-scale
instances by exhaustive enumeration and integer counting.
"""

from .audit import (
    AuditReport,
    DistributionCounter,
    IndependenceCheck,
    Universe,
    audit_correctness,
    audit_db_privacy,
    audit_user_privacy,
    leak_experiment,
)
from .errors import (
    BadShareCount,
    DecodeFailure,
    DimensionMismatch,
    FieldTooSmall,
    InvalidParams,
    SingularSystem,
    SpirError,
    TooFewFiles,
    UniverseTooLarge,
)
from .protocol import (
    AnswerSet,
    CommonRandomness,
    QueryPlan,
    QuerySet,
    Transcript,
    decode,
    find_decodable_generator,
    gen_answer,
    gen_queries,
    generator_for,
    make_query_plan,
)
from .rates import RateReport, measure, pir_capacity_mds, secrecy_floor, spir_capacity
from .storage import (
    Database,
    GeneratorMatrix,
    NodeData,
    StorageParams,
    build_generator,
    encode,
    is_mds,
    reconstruct,
    smallest_admissible_prime,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "AuditReport",
    "BadShareCount",
    "CommonRandomness",
    "Database",
    "DecodeFailure",
    "DimensionMismatch",
    "DistributionCounter",
    "FieldTooSmall",
    "GeneratorMatrix",
    "IndependenceCheck",
    "InvalidParams",
    "NodeData",
    "QueryPlan",
    "QuerySet",
    "RateReport",
    "SingularSystem",
    "SpirError",
    "StorageParams",
    "TooFewFiles",
    "Transcript",
    "Universe",
    "UniverseTooLarge",
    "audit_correctness",
    "audit_db_privacy",
    "audit_user_privacy",
    "build_generator",
    "decode",
    "encode",
    "find_decodable_generator",
    "gen_answer",
    "gen_queries",
    "generator_for",
    "is_mds",
    "leak_experiment",
    "make_query_plan",
    "measure",
    "pir_capacity_mds",
    "reconstruct",
    "secrecy_floor",
    "smallest_admissible_prime",
    "spir_capacity",
]
