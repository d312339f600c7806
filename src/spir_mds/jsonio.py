"""Canonical JSON schemas for configs, transcripts, reports, and shares.

Every document is a JSON object with sorted keys, two-space indentation,
a trailing newline, and a top-level ``schema_version``.  Field elements
are plain integers; exact rationals are ``{"num": ..., "den": ...}``.
Identical inputs therefore serialize to byte-identical files.

Readers raise InvalidParams for a document that cannot be parsed, for
a missing key or a value of the wrong JSON type at any level, and for
any field symbol that is not an integer in [0, q).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from .audit import AuditReport, IndependenceCheck
from .errors import InvalidParams
from .protocol import AnswerSet, QuerySet, Transcript
from .rates import RateReport
from .storage import Database, GeneratorMatrix, NodeData, StorageParams, require_int

SCHEMA_VERSION = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read_document(path: Union[str, Path]) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidParams(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParams(f"{path} does not hold a JSON object")
    return doc


def fraction_to_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _int_list(arr: np.ndarray) -> list:
    return np.asarray(arr).tolist()


def _object(what: str, obj, *keys: str):
    """Refuse ``obj`` unless it is a JSON object holding every key in ``keys``."""
    if not isinstance(obj, dict):
        raise InvalidParams(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise InvalidParams(f"missing key {key!r} in {what}")


def _symbols(name: str, value, q: int) -> np.ndarray:
    """Nested lists of field symbols as an int64 array.

    Anything but integers in [0, q) is refused: reducing it would hide a
    corrupt document, and a value beyond int64 would wrap in the solve.
    """
    try:
        arr = np.array(value)
        valid = arr.dtype.kind in "iu" and arr.min(initial=0) >= 0 and arr.max(initial=0) < q
    except ValueError:  # ragged nesting
        valid = False
    if not valid:
        raise InvalidParams(f"{name} must be integers in [0, {q})")
    return arr.astype(np.int64)


def params_to_json(p: StorageParams) -> dict:
    return {"q": p.q, "n": p.n, "m": p.m, "k": p.k, "stripes": p.stripes}


def params_from_json(obj) -> StorageParams:
    _object("params", obj, "q", "n", "m", "k")
    return StorageParams(
        q=obj["q"], n=obj["n"], m=obj["m"], k=obj["k"], stripes=obj.get("stripes", 1)
    )


def generator_to_json(g: GeneratorMatrix) -> dict:
    return {"q": g.q, "rows": _int_list(g.array)}


def generator_from_json(obj, params: StorageParams) -> GeneratorMatrix:
    """The generator of a document for ``params``; its ``q`` and shape must
    match, checked first so no huge modulus or array reaches a slow test."""
    _object("generator", obj, "q", "rows")
    if obj["q"] != params.q:
        raise InvalidParams(f"generator q={obj['q']!r} differs from the document's q={params.q}")
    rows = _symbols("generator rows", obj["rows"], params.q)
    if rows.shape != (params.m, params.n):
        raise InvalidParams(f"generator rows have shape {rows.shape}, params want {(params.m, params.n)}")
    return GeneratorMatrix(params.q, rows)


def database_to_json(db: Database) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "database",
        "params": params_to_json(db.params),
        "files": _int_list(db.files),
    }


def database_from_json(obj) -> Database:
    _object("database document", obj, "params", "files")
    params = params_from_json(obj["params"])
    files = _symbols("files", obj["files"], params.q)
    shape = (params.k, params.file_rows, params.m)
    if files.shape != shape:  # one database; Database itself takes a batch
        raise InvalidParams(f"files shape {files.shape} != {shape}")
    return Database(params, files)


def shares_to_json(params: StorageParams, shares, g: GeneratorMatrix) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "node_shares",
        "params": params_to_json(params),
        "generator": generator_to_json(g),
        "nodes": [
            {"node_index": nd.node_index, "values": _int_list(nd.values)} for nd in shares
        ],
    }


def shares_from_json(obj):
    _object("shares document", obj, "params", "generator", "nodes")
    params = params_from_json(obj["params"])
    g = generator_from_json(obj["generator"], params)
    if not isinstance(obj["nodes"], list):
        raise InvalidParams(f"nodes must be a JSON array, got {type(obj['nodes']).__name__}")
    for node in obj["nodes"]:
        _object("node", node, "node_index", "values")
    shares = [
        NodeData(
            require_int("node_index", node["node_index"]),
            _symbols("share values", node["values"], params.q),
        )
        for node in obj["nodes"]
    ]
    return params, shares, g


def query_set_to_json(qs: QuerySet) -> dict:
    return {
        "theta": qs.theta,
        "masks": _int_list(qs.u),
        "per_node": _int_list(qs.per_node),
    }


def answer_set_to_json(ans: AnswerSet) -> dict:
    return {"per_node": _int_list(ans.per_node)}


def transcript_to_json(tr: Transcript) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "transcript",
        "params": params_to_json(tr.params),
        "generator": generator_to_json(tr.generator),
        "theta": tr.theta,
        "queries": query_set_to_json(tr.query_set),
        "answers": answer_set_to_json(tr.answer_set),
        "decoded_file": _int_list(tr.decoded_file),
        "download_count": tr.download_count,
        "randomness_count": tr.randomness_count,
    }


def rate_report_to_json(report: RateReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rate_report",
        "achieved_rate": fraction_to_json(report.achieved_rate),
        "capacity": fraction_to_json(report.capacity),
        "achieved_secrecy": fraction_to_json(report.achieved_secrecy),
        "secrecy_floor": fraction_to_json(report.secrecy_floor),
        "at_capacity": report.at_capacity,
    }


def check_to_json(check: IndependenceCheck) -> dict:
    out = {
        "name": check.name,
        "independent": check.independent,
        "mode": "exact" if check.exact else "statistical",
        "universe_size": check.universe_size,
    }
    if check.witness is not None:
        out["witness"] = check.witness
    if check.conditional_equal is not None:
        out["conditional_equal"] = check.conditional_equal
    if check.p_value is not None:
        out["p_value"] = check.p_value
    return out


def audit_report_to_json(report: AuditReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "audit_report",
        "params": params_to_json(report.params),
        "randomness_mode": report.randomness_mode,
        "all_passed": report.all_passed,
        "checks": [check_to_json(c) for c in report.checks],
    }
