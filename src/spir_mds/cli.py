"""Command-line harness.

Subcommands::

    run          one retrieval round; writes a transcript and rate report
    audit        exact (or Monte Carlo) privacy and correctness audits
    rates        capacity / secrecy-floor tables as exact fractions
    encode       encode a database into node shares
    reconstruct  rebuild a database from m node shares

Exit codes: 0 success, 2 invalid configuration (or an instance too
large for memory), 3 protocol failure, 4 audit failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import audit as audit_mod
from . import jsonio, protocol, rates, storage
from .errors import DecodeFailure, SpirError, UniverseTooLarge
from .network import SimNetwork, make_randomness
from .storage import Database, StorageParams, require_int

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_AUDIT = 4

AUDIT_CHECKS = ("correctness", "user-privacy", "db-privacy")


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one harness invocation."""

    q: int
    n: int
    m: int
    k: int
    stripes: int = 1
    theta: int = 1
    user_seed: int = 0
    node_seed: int = 0
    db_seed: int = 0
    randomness_mode: str = "full"
    partial_count: Optional[int] = None
    generator_mode: str = "cauchy"

    def __post_init__(self):
        for name in ("q", "n", "m", "k", "stripes", "theta"):
            require_int(name, getattr(self, name))
        require_int("seed_user", self.user_seed, low=0)
        require_int("seed_node", self.node_seed, low=0)
        require_int("seed_db", self.db_seed, low=0)
        if self.partial_count is not None:
            require_int("partial_count", self.partial_count)

    @property
    def params(self) -> StorageParams:
        return StorageParams(q=self.q, n=self.n, m=self.m, k=self.k, stripes=self.stripes)

    def validate_for_run(self):
        if not 1 <= self.theta <= self.k:
            raise SpirError(f"theta={self.theta} not in [1, {self.k}]")

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        return cls(
            q=obj["q"],
            n=obj["n"],
            m=obj["m"],
            k=obj["k"],
            stripes=obj.get("stripes", 1),
            theta=obj.get("theta", 1),
            user_seed=obj.get("seed_user", 0),
            node_seed=obj.get("seed_node", 0),
            db_seed=obj.get("seed_db", 0),
            randomness_mode=obj.get("randomness", "full"),
            partial_count=obj.get("partial_count"),
            generator_mode=obj.get("generator", "cauchy"),
        )


def _parse_randomness(text: str) -> tuple[str, Optional[int]]:
    if text in ("full", "zeroed"):
        return text, None
    if text.startswith("partial="):
        return "partial", int(text.split("=", 1)[1])
    raise argparse.ArgumentTypeError(
        f"randomness must be full, zeroed, or partial=J, got {text!r}"
    )


def _parse_int_spec(text: str) -> list[int]:
    """Accept '4', '2,3,4', or '1:30' (inclusive range)."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


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
    p_run.add_argument("--randomness", type=_parse_randomness, default=None)
    p_run.add_argument("--out", help="transcript JSON path (default: stdout)")
    p_run.add_argument("--rate-out", help="rate report JSON path (default: stdout)")

    p_audit = subs.add_parser("audit", help="run exact privacy/correctness audits")
    _add_instance_args(p_audit, allow_config=True)
    p_audit.add_argument(
        "--checks",
        default=",".join(AUDIT_CHECKS),
        help=f"comma list from {AUDIT_CHECKS} (default: all)",
    )
    p_audit.add_argument("--randomness", type=_parse_randomness, default=None)
    p_audit.add_argument("--ceiling", type=int, default=audit_mod.DEFAULT_UNIVERSE_CEILING)
    p_audit.add_argument(
        "--monte-carlo",
        type=int,
        metavar="SAMPLES",
        help="statistical fallback sample count for oversized universes",
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


def _emit(doc: dict, path: Optional[str]):
    text = jsonio.canonical_dumps(doc)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> RunConfig:
    """Build the run config from a document (if given) plus flag overrides.

    A config document that cannot be read or is not a JSON object, a
    wrongly typed field and a negative seed all raise a SpirError here.
    """
    require_int("seed", getattr(args, "seed", 0), low=0)  # audit sampling
    base: dict = {}
    if getattr(args, "config", None):
        base = jsonio.read_document(args.config)
    overrides = {
        "q": args.q,
        "n": args.n,
        "m": args.m,
        "k": args.k,
        "stripes": args.stripes,
        "theta": getattr(args, "theta", None),
        "seed_user": getattr(args, "seed_user", None),
        "seed_node": getattr(args, "seed_node", None),
        "seed_db": getattr(args, "seed_db", None),
        "generator": args.generator,
    }
    randomness = getattr(args, "randomness", None)
    if randomness is not None:
        overrides["randomness"], overrides["partial_count"] = randomness
    base.update({key: val for key, val in overrides.items() if val is not None})
    missing = [key for key in ("q", "n", "m", "k") if base.get(key) is None]
    if missing:
        raise SpirError(f"missing required parameters {missing}; pass flags or --config")
    return RunConfig.from_json(base)


def cmd_run(args) -> int:
    try:
        config = _config_from_args(args)
        params = config.params
        config.validate_for_run()
        protocol.make_query_plan(params)  # rejects k < 2 before any work
        g = protocol.generator_for(params, config.generator_mode)
        randomness = make_randomness(
            params, config.randomness_mode, config.node_seed, config.partial_count
        )
    except SpirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    db = Database.random(params, protocol.db_rng(config.db_seed))
    network = SimNetwork(params, db, g, randomness=randomness)
    try:
        transcript = network.run(config.theta, config.user_seed)
    except DecodeFailure as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    report = rates.measure(transcript)
    _emit(jsonio.transcript_to_json(transcript), args.out)
    _emit(jsonio.rate_report_to_json(report), args.rate_out)
    return EXIT_OK


def cmd_audit(args) -> int:
    try:
        config = _config_from_args(args)
        params = config.params
        protocol.make_query_plan(params)  # rejects k < 2 before any work
        # rejects an unknown mode, an out-of-range partial count or an
        # empty sample before any work
        audit_mod.Universe(params, config.randomness_mode, config.partial_count)
        audit_mod.require_samples(args.monte_carlo)
        g = protocol.generator_for(params, config.generator_mode)
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in selected if c not in AUDIT_CHECKS]
        if unknown:
            raise SpirError(f"unknown checks {unknown}; choose from {AUDIT_CHECKS}")
    except SpirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    checks: list[audit_mod.IndependenceCheck] = []
    try:
        if "correctness" in selected:
            universe = audit_mod.Universe(params)
            if universe.exceeds(args.ceiling) and args.monte_carlo is not None:
                ok = audit_mod.mc_correctness(params, g, args.monte_carlo, seed=args.seed)
                checks.append(
                    audit_mod.IndependenceCheck(
                        name="correctness",
                        independent=ok,
                        exact=False,
                        universe_size=args.monte_carlo,
                    )
                )
            else:
                ok = audit_mod.audit_correctness(params, g, ceiling=args.ceiling)
                checks.append(
                    audit_mod.IndependenceCheck(
                        name="correctness",
                        independent=ok,
                        exact=True,
                        universe_size=universe.size,
                    )
                )
        if "user-privacy" in selected:
            report = audit_mod.audit_user_privacy(
                params, g, ceiling=args.ceiling, samples=args.monte_carlo, seed=args.seed
            )
            checks.extend(report.checks)
        if "db-privacy" in selected:
            report = audit_mod.leak_experiment(
                params,
                g,
                config.randomness_mode,
                partial_count=config.partial_count,
                ceiling=args.ceiling,
                samples=args.monte_carlo,
                seed=args.seed,
            )
            checks.extend(report.checks)
    except UniverseTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    combined = audit_mod.AuditReport(params, config.randomness_mode, tuple(checks))
    _emit(jsonio.audit_report_to_json(combined), args.out)
    if not combined.all_passed:
        for failed in combined.failed_checks():
            print(f"audit failed: {failed.name}", file=sys.stderr)
            if failed.witness is not None:
                print(jsonio.canonical_dumps({"witness": failed.witness}), file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _rates_rows(n_list, m_list, k_list, convergence: bool):
    header = ["n", "m", "k", "spir_capacity", "secrecy_floor", "pir_capacity"]
    if convergence:
        header.append("gap")
    rows = [header]
    for n in n_list:
        for m in m_list:
            if not 1 <= m < n:
                continue
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
    try:
        n_list = _parse_int_spec(args.n)
        m_list = _parse_int_spec(args.m)
        k_list = _parse_int_spec(args.k)
        rows = _rates_rows(n_list, m_list, k_list, args.convergence)
    except (SpirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_encode(args) -> int:
    try:
        config = _config_from_args(args)
        params = config.params
        g = protocol.generator_for(params, config.generator_mode)
        if args.db:
            db = jsonio.database_from_json(jsonio.read_document(args.db))
            if db.params != params:
                raise SpirError("database document params disagree with flags")
        else:
            db = Database.random(params, protocol.db_rng(config.db_seed))
    except (SpirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    shares = storage.encode(db, g)
    _emit(jsonio.shares_to_json(params, shares, g), args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    try:
        params, shares, g = jsonio.shares_from_json(jsonio.read_document(args.shares))
        wanted = _parse_int_spec(args.nodes)
        by_index = {s.node_index: s for s in shares}
        missing = [i for i in wanted if i not in by_index]
        if missing:
            raise SpirError(f"shares document lacks nodes {missing}")
        chosen = [by_index[i] for i in wanted]
        db = storage.reconstruct(params, chosen, g)
    except (SpirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    try:
        return handlers[args.command](args)
    except MemoryError as exc:
        # an accepted shape whose arrays this machine cannot hold
        print(f"error: out of memory for this instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
