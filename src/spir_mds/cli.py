"""Command-line harness.

Subcommands::

    run          one retrieval round; writes a transcript and rate report
    audit        exact (or Monte Carlo) privacy and correctness audits
    rates        capacity / secrecy-floor tables as exact fractions
    encode       encode a database into node shares
    reconstruct  rebuild a database from m node shares

A command parses its flags and calls the library, whose functions refuse
the values they read; the harness checks only how its own inputs fit
together (range specs, required and unknown fields, documents against
flags, output paths against each other and the input documents).
``main`` is the one error boundary: it turns a DecodeFailure into exit
3, and any other SpirError or a MemoryError into exit 2, each with one
line on stderr.

Exit codes: 0 success, 2 invalid configuration (or an instance too
large for memory), 3 protocol failure, 4 audit failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import reprlib
import sys
from typing import Optional, Sequence

from . import audit as audit_mod
from . import jsonio, protocol, rates, storage
from .errors import DecodeFailure, SpirError
from .network import SimNetwork, make_randomness
from .storage import Database, StorageParams, require_int

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_AUDIT = 4

MAX_SPEC_VALUES = 100_000  # a longer range spec or rates table is refused unbuilt


INSTANCE = ("q", "n", "m", "k")  # the run_config fields with no default
# the other run_config fields, with their defaults; each but partial_count is the dest of its flag
DEFAULTS = {
    "stripes": 1, "theta": 1, "seed_user": 0, "seed_node": 0, "seed_db": 0,
    "randomness": "full", "partial_count": None, "generator": "cauchy",
}
KNOWN_KEYS = {*INSTANCE, *DEFAULTS, "schema_version", "kind"}  # of a run_config document


def _parse_randomness(text: str) -> tuple[str, object]:
    """(mode, count) of a --randomness flag, for ``protocol.free_randomness`` to
    judge: J of 'partial=J' is read as a config's count is, as JSON, else kept."""
    if not text.startswith("partial="):
        return text, None
    count = text[len("partial=") :]
    with contextlib.suppress(ValueError, RecursionError):
        count = json.loads(count)
    return "partial", count


def _parse_int_spec(text: str) -> list[int]:
    """Accept '4', '2,3,4', or '1:30' (inclusive range)."""
    try:
        if ":" not in text:
            return [int(part) for part in text.split(",") if part]
        lo, hi = (int(end) for end in text.split(":", 1))
    except ValueError as exc:
        raise SpirError(str(exc)) from None
    if hi - lo >= MAX_SPEC_VALUES:
        raise SpirError(f"range {text} lists more than {MAX_SPEC_VALUES} values")
    return list(range(lo, hi + 1))


def _add_instance_args(sub: argparse.ArgumentParser, allow_config: bool = False):
    required = not allow_config
    sub.add_argument("--q", type=int, required=required, help="prime field modulus")
    sub.add_argument("--n", type=int, required=required, help="number of storage nodes")
    sub.add_argument("--m", type=int, required=required, help="code dimension")
    sub.add_argument("--k", type=int, required=required, help="number of files")
    sub.add_argument("--stripes", type=int, default=None, help="blocks per file (default 1)")
    sub.add_argument(
        "--generator",
        choices=("cauchy", "search"),
        default=None,
        help="generator construction; 'search' also covers fields below the Cauchy threshold",
    )
    if allow_config:
        sub.add_argument(
            "--config",
            help="run_config JSON document; explicit flags override its fields",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spir-mds",
        description="Symmetric private retrieval over MDS-coded storage, with exact privacy audits.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute one retrieval round")
    _add_instance_args(p_run, allow_config=True)
    p_run.add_argument("--theta", type=int, default=None, help="requested file index (1-based)")
    p_run.add_argument("--seed-user", type=int, default=None)
    p_run.add_argument("--seed-node", type=int, default=None)
    p_run.add_argument("--seed-db", type=int, default=None)
    p_run.add_argument("--randomness", help="full, zeroed or partial=J")
    p_run.add_argument("--out", help="transcript JSON path (default: stdout)")
    p_run.add_argument("--rate-out", help="rate report JSON path (default: stdout)")

    p_audit = subs.add_parser("audit", help="run exact privacy/correctness audits")
    _add_instance_args(p_audit, allow_config=True)
    p_audit.add_argument(
        "--checks",
        default=",".join(audit_mod.CHECKS),
        help=f"comma list from {audit_mod.CHECKS} (default: all)",
    )
    p_audit.add_argument("--randomness", help="full, zeroed or partial=J")
    p_audit.add_argument(
        "--ceiling",
        type=int,
        default=audit_mod.DEFAULT_UNIVERSE_CEILING,
        help="largest universe, in points, decided exactly; raise it to decide a larger one exactly (default: 2**24)",
    )
    p_audit.add_argument(
        "--monte-carlo",
        type=int,
        metavar="SAMPLES",
        help="sample count of a statistical screen past the ceiling; it only screens and can miss a leak",
    )
    p_audit.add_argument("--seed", type=int, default=0, help="audit sampling seed")
    p_audit.add_argument("--out", help="audit report JSON path (default: stdout)")

    p_rates = subs.add_parser("rates", help="print capacity tables as exact fractions")
    p_rates.add_argument("--n", required=True, help="node counts: '4' or '2,3,4' or '2:6'")
    p_rates.add_argument("--m", required=True, help="code dimensions, same syntax")
    p_rates.add_argument("--k", required=True, help="file counts, same syntax")
    p_rates.add_argument("--csv", action="store_true", help="emit CSV instead of a text table")
    p_rates.add_argument(
        "--convergence",
        action="store_true",
        help="include the |private-retrieval - symmetric| gap column",
    )
    p_rates.add_argument("--out", help="output path (default: stdout)")

    p_enc = subs.add_parser("encode", help="encode a database into node shares")
    _add_instance_args(p_enc)
    p_enc.add_argument("--seed-db", type=int, help="draw the database from this seed")
    p_enc.add_argument("--db", help="or read a database JSON document")
    p_enc.add_argument("--out", help="shares JSON path (default: stdout)")

    p_rec = subs.add_parser("reconstruct", help="rebuild the database from m shares")
    p_rec.add_argument("--shares", required=True, help="shares JSON document")
    p_rec.add_argument(
        "--nodes",
        required=True,
        help="comma list of node indices to reconstruct from (exactly m)",
    )
    p_rec.add_argument("--out", help="database JSON path (default: stdout)")
    return parser


def _unwritable(path: Optional[str]) -> Optional[str]:
    """Why an output path cannot be written, or None (stdout, or a file
    that can be created or replaced)."""
    if not path:
        return None
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"output directory {parent} does not exist"
    if os.path.isdir(path):
        return f"output path {path} is a directory"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return f"output path {path} is not writable"
    return None


def _write(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, path: Optional[str]):
    _write(jsonio.canonical_dumps(doc), path)


def _config_from_args(args) -> dict:
    """The run_config: the defaults, then the --config document (if
    given), then the flags given.

    An unreadable document, a key it does not know, a missing instance
    field, a theta that is no integer and a seed that its rng refuses all
    raise a SpirError here, a seed even where the command never reads it.
    """
    config = dict(DEFAULTS)
    if getattr(args, "config", None):
        document = jsonio.read_document(args.config)
        unknown = [key for key in document if key not in KNOWN_KEYS]
        if unknown:  # a misspelled field would otherwise run with its default
            raise SpirError(f"run_config has {len(unknown)} unknown key(s); the first is {reprlib.repr(unknown[0])}")
        config.update(document)
    flags = dict(vars(args))
    if flags.get("randomness") is not None:
        flags["randomness"], flags["partial_count"] = _parse_randomness(flags["randomness"])
    config.update({key: flags[key] for key in (*INSTANCE, *DEFAULTS) if flags.get(key) is not None})
    missing = [key for key in INSTANCE if config.get(key) is None]
    if missing:
        raise SpirError(f"missing required parameters {missing}; pass flags or --config")
    require_int("theta", config["theta"])
    protocol.user_rng(config["seed_user"])
    protocol.node_rng(config["seed_node"])
    protocol.db_rng(config["seed_db"])
    return config


def _params(config: dict) -> StorageParams:
    return StorageParams(*(config[key] for key in (*INSTANCE, "stripes")))


def cmd_run(args) -> int:
    config = _config_from_args(args)
    params = _params(config)
    g = protocol.generator_for(params, config["generator"])
    randomness = make_randomness(params, config["randomness"], config["seed_node"], config["partial_count"])
    db = Database.random(params, protocol.db_rng(config["seed_db"]))
    network = SimNetwork(params, db, g, randomness=randomness)
    transcript = network.run(config["theta"], config["seed_user"])  # refuses a theta outside [1, k], and k < 2
    report = rates.measure(transcript)
    _emit(jsonio.transcript_to_json(transcript), args.out)
    _emit(jsonio.rate_report_to_json(report), args.rate_out)
    return EXIT_OK


def cmd_audit(args) -> int:
    config = _config_from_args(args)
    params = _params(config)
    g = protocol.generator_for(params, config["generator"])
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    report = audit_mod.run_audit(
        params, g, checks, randomness_mode=config["randomness"], partial_count=config["partial_count"],
        ceiling=args.ceiling, samples=args.monte_carlo, seed=args.seed,
    )
    _emit(jsonio.audit_report_to_json(report), args.out)
    if not report.all_passed:
        for failed in report.failed_checks():
            print(f"audit failed: {failed.name}", file=sys.stderr)
            if failed.witness is not None:
                print(jsonio.canonical_dumps({"witness": failed.witness}), file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _summary(name: str, values: list[int]) -> str:
    """A list of any length in a few words: its count and its range."""
    if not values:
        return f"no {name} value"
    plural = "s" if len(values) > 1 else ""
    return f"{len(values)} {name} value{plural} in [{min(values)}, {max(values)}]"


def _rates_rows(n_list, m_list, k_list, convergence: bool):
    header = ["n", "m", "k", "spir_capacity", "secrecy_floor", "pir_capacity"]
    if convergence:
        header.append("gap")
    if len(n_list) * len(m_list) * len(k_list) > MAX_SPEC_VALUES:
        raise SpirError(f"{len(n_list)} x {len(m_list)} x {len(k_list)} (n, m, k) rows exceed {MAX_SPEC_VALUES}")
    pairs = [(n, m) for n in n_list for m in m_list if 1 <= m < n]
    if not pairs:  # a header alone would pass for a table
        raise SpirError(f"no (n, m) pair has 1 <= m < n among {_summary('n', n_list)} and {_summary('m', m_list)}")
    if not k_list:
        raise SpirError("no file count k given")
    rows = [header]
    for n, m in pairs:
        floor = rates.secrecy_floor(n, m)
        cap = rates.spir_capacity(n, m, floor)
        for k in k_list:
            pir = rates.pir_capacity_mds(n, m, k)
            row = [str(n), str(m), str(k), str(cap), str(floor), str(pir)]
            if convergence:
                row.append(str(pir - cap))
            rows.append(row)
    return rows


def cmd_rates(args) -> int:
    n_list = _parse_int_spec(args.n)
    m_list = _parse_int_spec(args.m)
    k_list = _parse_int_spec(args.k)
    rows = _rates_rows(n_list, m_list, k_list, args.convergence)
    if args.csv:
        text = "\n".join(",".join(row) for row in rows) + "\n"
    else:
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        text = (
            "\n".join(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
            )
            + "\n"
        )
    _write(text, args.out)
    return EXIT_OK


def cmd_encode(args) -> int:
    config = _config_from_args(args)
    params = _params(config)
    g = protocol.generator_for(params, config["generator"])
    if args.db:
        db = jsonio.database_from_json(jsonio.read_document(args.db))
        if db.params != params:
            raise SpirError("database document params disagree with flags")
    else:
        db = Database.random(params, protocol.db_rng(config["seed_db"]))
    shares = storage.encode(db, g)
    _emit(jsonio.shares_to_json(params, shares, g), args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    params, shares, g = jsonio.shares_from_json(jsonio.read_document(args.shares))
    wanted = _parse_int_spec(args.nodes)
    by_index = {s.node_index: s for s in shares}
    missing = [i for i in wanted if i not in by_index]
    if missing:
        raise SpirError(f"shares document lacks nodes {missing}")
    chosen = [by_index[i] for i in wanted]
    db = storage.reconstruct(params, chosen, g)
    _emit(jsonio.database_to_json(db), args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "audit": cmd_audit,
        "rates": cmd_rates,
        "encode": cmd_encode,
        "reconstruct": cmd_reconstruct,
    }
    outputs = [path for path in (getattr(args, "out", None), getattr(args, "rate_out", None)) if path]
    documents = [getattr(args, name, None) for name in ("config", "db", "shares")]  # the input documents
    inputs = {os.path.realpath(path): path for path in documents if path}
    problems = [_unwritable(path) for path in outputs]
    if len({os.path.realpath(path) for path in outputs}) < len(outputs):
        problems.append(f"--out and --rate-out name the same file {outputs[0]}")
    problems += [f"output path {path} is the input document {inputs[real]}"
                 for path in outputs if (real := os.path.realpath(path)) in inputs]
    problem = next(filter(None, problems), None)
    if problem:  # refused before any work, so no output is half written
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return handlers[args.command](args)
    except DecodeFailure as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except SpirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # an accepted shape whose arrays this machine cannot hold
        print(f"error: out of memory for this instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
