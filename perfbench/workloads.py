"""The four benchmark workloads, driven through the public spir_mds API.

Each workload builds its instance in set-up from a seeded generator and
then offers:

* ``next_input()``: the next op's inputs, drawn from the same generator;
* ``run(inp, rec)``: one op through the public entry point.  Untraced ops
  pass the null recorder; the audit workloads open a span around each
  audit they call;
* ``traced_calls``: the package functions a traced op wraps in spans
  (``SpanRecorder.instrument``), so a traced op runs the same code as an
  untraced one;
* ``check(inp, out)``: the output check, run outside the timed interval.
  It returns ``(failure reason or None, measures)``, where measures are
  counts and verdict values read off the outputs;
* ``layer_metrics(rec, untraced_ms, measures)``: the per-layer metrics
  this workload is the source of.

Why these four: ``retrieve`` is the served read path at a size where array
work dominates; ``cli_run`` is the one-shot user path, the only one where
``jsonio`` and ``cli`` do the work; ``audit_exact`` is the vectorised
enumeration path; ``audit_mc`` is the per-sample Monte Carlo path.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

from spir_mds import audit, cli, jsonio, network, protocol, rates
from spir_mds.protocol import Transcript
from spir_mds.storage import Database, StorageParams

from spans import NULL

SEED_RANGE = 1 << 31

# The calls of one retrieval round and of storing its database, as
# (owner, attribute, span name).  ``SimNetwork`` calls ``storage.encode``
# under the name it imported, ``network.encode``.
ROUND_CALLS = (
    (network.SimNetwork, "__init__", "network.build"),
    (network.SimNetwork, "run", "network.run"),
    (network, "encode", "storage.encode"),
    (Database, "random", "storage.db_random"),
    (protocol, "gen_queries", "protocol.gen_queries"),
    (protocol, "gen_answer", "protocol.gen_answer"),
    (protocol, "decode", "protocol.decode"),
)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _span_median(rec, name: str) -> float:
    return _median(rec.per_op_ms(name))


def _first_measure(measures: list[dict], key: str):
    """A measure's value on the pass's first op, whose inputs the seed fixes."""
    return measures[0][key] if measures else float("nan")


class Retrieve:
    """``SimNetwork.run`` on one network built in set-up.

    At (q=101, n=10, m=4, k=100, stripes=64) a round moves 1,536,000
    upload symbols; ``gen_queries``, ``gen_answer`` and ``decode`` are all
    array work, and ``storage.encode`` runs only in set-up.
    """

    name = "retrieve"
    warmup_ops = 3
    params = StorageParams(q=101, n=10, m=4, k=100, stripes=64)
    traced_calls = ROUND_CALLS

    def __init__(self, rng: np.random.Generator, tmp_dir: Path, rec=NULL, setup_repeats: int = 1):
        self.rng = rng
        p = self.params
        self.g = protocol.generator_for(p)
        db_seed, node_seed = (int(x) for x in rng.integers(0, SEED_RANGE, size=2))
        for i in range(setup_repeats):
            with rec.op(("setup", i), root="setup"), rec.instrument(self.traced_calls):
                self.db = Database.random(p, protocol.db_rng(db_seed))
                self.net = network.SimNetwork(p, self.db, self.g, node_seed=node_seed)

    def next_input(self):
        theta = int(self.rng.integers(1, self.params.k + 1))
        return theta, int(self.rng.integers(0, SEED_RANGE))

    def run(self, inp, rec=NULL) -> Transcript:
        theta, user_seed = inp
        return self.net.run(theta, user_seed)

    def check(self, inp, tr: Transcript):
        theta, _ = inp
        if not np.array_equal(tr.decoded_file, self.db.file(theta)):
            return "decoded file differs from db.file(theta)", {}
        if not rates.measure(tr).at_capacity:
            return "rates.measure(...).at_capacity is false", {}
        # Counts read off the arrays that were exchanged in this round.
        return None, {
            "protocol.upload_symbols": tr.query_set.per_node.size,
            "protocol.upload_bytes": tr.query_set.per_node.nbytes,
            "protocol.download_symbols": tr.answer_set.per_node.size,
            "protocol.randomness_symbols": self.net.nodes[0].randomness.values.size,
            "protocol.file_symbols": tr.decoded_file.size,
        }

    def layer_metrics(self, rec, untraced_ms, measures) -> dict:
        out = {
            f"protocol.{name}_ms": _span_median(rec, f"protocol.{name}")
            for name in ("gen_queries", "gen_answer", "decode")
        }
        out["network.run_self_ms"] = _median(untraced_ms) - _median(rec.per_op_child_ms("network.run"))
        for layer in ("network.build", "storage.encode", "storage.db_random"):
            out[f"{layer}_ms"] = _span_median(rec, layer)
        for key in (
            "protocol.upload_symbols",
            "protocol.upload_bytes",
            "protocol.download_symbols",
            "protocol.randomness_symbols",
            "protocol.file_symbols",
        ):
            out[key] = _first_measure(measures, key)
        return out


class CliRun:
    """In-process ``cli.main(["run", ...])`` with fresh theta and seeds.

    Each op draws and encodes a database, runs one round at
    (101, 10, 4, 20, 8) and writes about 684 KB of canonical JSON into the
    run-private directory; serialisation is most of the op.
    """

    name = "cli_run"
    warmup_ops = 5
    params = StorageParams(q=101, n=10, m=4, k=20, stripes=8)
    # What ``cli.main`` spends outside these calls (argparse, config, file
    # writes) is the cli layer's own time.
    traced_calls = ROUND_CALLS + (
        (rates, "measure", "rates.measure"),
        (jsonio, "transcript_to_json", "jsonio.transcript_to_json"),
        (jsonio, "rate_report_to_json", "jsonio.rate_report_to_json"),
        (jsonio, "canonical_dumps", "jsonio.canonical_dumps"),
        (cli, "main", "cli.main"),
    )

    def __init__(self, rng: np.random.Generator, tmp_dir: Path, rec=NULL, setup_repeats: int = 1):
        self.rng = rng
        self.tmp_dir = tmp_dir
        self.ops = 0

    def next_input(self):
        """Theta, seeds, and fresh output paths: one-shot runs write new
        files, and rewriting one file in place would time the file
        system's flush-on-truncate instead of the program."""
        theta = int(self.rng.integers(1, self.params.k + 1))
        user_seed, node_seed, db_seed = (int(x) for x in self.rng.integers(0, SEED_RANGE, size=3))
        self.ops += 1
        paths = (self.tmp_dir / f"transcript-{self.ops}.json", self.tmp_dir / f"rates-{self.ops}.json")
        return theta, user_seed, node_seed, db_seed, paths

    def argv(self, inp) -> list[str]:
        theta, user_seed, node_seed, db_seed, (transcript_path, rate_path) = inp
        p = self.params
        return [
            "run",
            "--q", str(p.q), "--n", str(p.n), "--m", str(p.m),
            "--k", str(p.k), "--stripes", str(p.stripes),
            "--theta", str(theta),
            "--seed-user", str(user_seed),
            "--seed-node", str(node_seed),
            "--seed-db", str(db_seed),
            "--out", str(transcript_path),
            "--rate-out", str(rate_path),
        ]

    def run(self, inp, rec=NULL) -> int:
        return cli.main(self.argv(inp))

    def check(self, inp, exit_code: int):
        theta, _, _, db_seed, (transcript_path, rate_path) = inp
        if exit_code != cli.EXIT_OK:
            return f"cli exited {exit_code}", {}
        text = transcript_path.read_text()
        rate_report = json.loads(rate_path.read_text())
        transcript_path.unlink()
        rate_path.unlink()
        want = Database.random(self.params, protocol.db_rng(db_seed)).file(theta).tolist()
        if json.loads(text)["decoded_file"] != want:
            return "transcript decoded_file differs from db.file(theta)", {}
        if not rate_report["at_capacity"]:
            return "rate report at_capacity is false", {}
        return None, {"jsonio.transcript_bytes": len(text.encode())}

    def layer_metrics(self, rec, untraced_ms, measures) -> dict:
        return {
            "rates.measure_ms": _span_median(rec, "rates.measure"),
            "jsonio.transcript_to_json_ms": _span_median(rec, "jsonio.transcript_to_json"),
            "jsonio.canonical_dumps_ms": _span_median(rec, "jsonio.canonical_dumps"),
            "jsonio.transcript_bytes": _first_measure(measures, "jsonio.transcript_bytes"),
            "cli.self_ms": _median(untraced_ms) - _median(rec.per_op_child_ms("cli.main")),
        }


def _counts_violate_product_rule(witness) -> bool:
    c = (witness or {}).get("counts")
    return bool(c) and c["joint"] * c["total"] != c["left"] * c["right"]


class AuditExact:
    """Exact audit of (3, 3, 2, 2): a 531,441-point universe.

    One op is correctness, user privacy, db privacy and the zeroed-
    randomness leak control, which must return a witness.
    """

    name = "audit_exact"
    warmup_ops = 1
    params = StorageParams(q=3, n=3, m=2, k=2)
    checks = ("correctness", "user_privacy", "db_privacy", "leak_control")
    traced_calls = ()  # run() opens a span around each audit it calls

    def __init__(self, rng: np.random.Generator, tmp_dir: Path, rec=NULL, setup_repeats: int = 1):
        self.rng = rng
        self.g = protocol.generator_for(self.params)

    def next_input(self):
        return int(self.rng.integers(0, SEED_RANGE))

    def run(self, seed, rec=NULL):
        p, g = self.params, self.g
        with rec.span("audit.correctness"):
            correct = audit.audit_correctness(p, g)
        with rec.span("audit.user_privacy"):
            user = audit.audit_user_privacy(p, g, seed=seed)
        with rec.span("audit.db_privacy"):
            db = audit.audit_db_privacy(p, g, seed=seed)
        with rec.span("audit.leak_control"):
            leak = audit.leak_experiment(p, g, "zeroed", seed=seed)
        return correct, user, db, leak

    def check(self, seed, out):
        correct, user, db, leak = out
        if correct is not True:
            return "exact correctness audit failed", {}
        for report in (user, db):
            if not report.all_passed or not all(c.exact for c in report.checks):
                return f"exact audit {report.checks[0].name} did not pass exactly", {}
        if leak.all_passed or not _counts_violate_product_rule(leak.checks[0].witness):
            return "zeroed-randomness control gave no product-rule witness", {}
        points = user.checks[0].universe_size
        return None, {
            "audit.universe_points": points,
            "audit.leak_universe_points": leak.checks[0].universe_size,
        }

    def layer_metrics(self, rec, untraced_ms, measures) -> dict:
        points = _first_measure(measures, "audit.universe_points")
        leak_points = _first_measure(measures, "audit.leak_universe_points")
        out = {
            "audit.universe_points": points,
            "audit.leak_universe_points": leak_points,
        }
        for check in self.checks:
            ms = _span_median(rec, f"audit.{check}")
            out[f"audit.{check}_ms"] = ms
            swept = leak_points if check == "leak_control" else points
            out[f"audit.{check}_points_per_s"] = swept / (ms / 1e3)
        return out


class AuditMonteCarlo:
    """Statistical audit of (5, 4, 2, 2), about 9.5e13 points.

    One op is ``mc_correctness`` with 200 samples, Monte Carlo user and
    db privacy with 500 samples each, and the zeroed-randomness db-privacy
    control with 500 samples.  The control does not detect the leak at
    this size (a known defect of the pairwise screen); that is recorded as
    ``audit.mc_leak_detected`` and is not an op failure.
    """

    name = "audit_mc"
    warmup_ops = 1
    params = StorageParams(q=5, n=4, m=2, k=2)
    correctness_samples = 200
    privacy_samples = 500
    checks = ("mc_correctness", "mc_user_privacy", "mc_db_privacy", "mc_leak_control")
    traced_calls = ()  # run() opens a span around each audit it calls

    def __init__(self, rng: np.random.Generator, tmp_dir: Path, rec=NULL, setup_repeats: int = 1):
        self.rng = rng
        self.g = protocol.generator_for(self.params)

    def next_input(self):
        return int(self.rng.integers(0, SEED_RANGE))

    def run(self, seed, rec=NULL):
        p, g, n = self.params, self.g, self.privacy_samples
        with rec.span("audit.mc_correctness"):
            correct = audit.mc_correctness(p, g, self.correctness_samples, seed=seed)
        with rec.span("audit.mc_user_privacy"):
            user = audit.audit_user_privacy(p, g, samples=n, seed=seed)
        with rec.span("audit.mc_db_privacy"):
            db = audit.audit_db_privacy(p, g, samples=n, seed=seed)
        with rec.span("audit.mc_leak_control"):
            leak = audit.audit_db_privacy(p, g, randomness_mode="zeroed", samples=n, seed=seed)
        return correct, user, db, leak

    def check(self, seed, out):
        correct, user, db, leak = out
        if correct is not True:
            return "Monte Carlo correctness found a decode error", {}
        for report in (user, db):
            if not report.all_passed or any(c.exact for c in report.checks):
                return f"statistical audit {report.checks[0].name} flagged the full scheme", {}
        p_values = [c.p_value for c in user.checks + db.checks]
        return None, {
            "audit.mc_min_p": min(p_values),
            "audit.mc_leak_detected": 0 if leak.all_passed else 1,
        }

    def layer_metrics(self, rec, untraced_ms, measures) -> dict:
        samples = {
            "mc_correctness": self.correctness_samples,
            "mc_user_privacy": self.privacy_samples,
            "mc_db_privacy": self.privacy_samples,
            "mc_leak_control": self.privacy_samples,
        }
        out = {}
        for check in self.checks:
            ms = _span_median(rec, f"audit.{check}")
            out[f"audit.{check}_ms"] = ms
            out[f"audit.{check}_samples_per_s"] = samples[check] / (ms / 1e3)
        out["audit.mc_min_p"] = _first_measure(measures, "audit.mc_min_p")
        out["audit.mc_leak_detected"] = statistics.fmean(
            m["audit.mc_leak_detected"] for m in measures
        )
        return out


WORKLOADS = {w.name: w for w in (Retrieve, CliRun, AuditExact, AuditMonteCarlo)}
