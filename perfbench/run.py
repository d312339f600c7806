"""Benchmark of spir_mds: one process, one client, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload retrieve --seed 1 --seconds 35 --trace 0

``--trace 0`` times untraced ops and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it state sample counts and the machine record.  See README.md.
"""

import time

SCRIPT_START = time.perf_counter()

import os  # noqa: E402

# Pin native thread pools before numpy loads, in this process's own
# environment (inherited by the set-up probes).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_PROBES = 8  # fresh-process set-ups spread over the timed phase; setup_s is their median
SIDE_PASS_SECONDS = 3  # per side pass of a traced run, with at least SIDE_PASS_OPS ops
SIDE_PASS_OPS = 4
TRACED_SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10
TAIL_CAP_PERCENTILE = 90
SETUP_DONE = "setup done"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> float:
    """Import spir_mds from this checkout's src/ only; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "spir_mds" / "__init__.py").is_file():
        fail(f"no spir_mds package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import spir_mds

    elapsed = time.perf_counter() - start
    if Path(spir_mds.__file__).resolve().parent != (src / "spir_mds").resolve():
        fail(f"imported spir_mds from {spir_mds.__file__}, not {src}")
    return elapsed


def fail(message: str):
    """Exit with code 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# Calibration kernel: a fixed pure-Python loop plus numpy int64 ops, run
# between ops so machine drift can be told apart from program change.
# ---------------------------------------------------------------------------

def calib_kernel(np) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003
    arr = np.arange(1 << 16, dtype=np.int64)
    for _ in range(6):
        arr = (arr * 48271 + acc) % 2_147_483_647
    int(arr.sum())
    return (time.perf_counter() - start) * 1e3


class Pass:
    """Outcome of driving one workload: latencies, failures, measures."""

    def __init__(self, workload):
        self.workload = workload
        self.untraced_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.calib_ms: list[float] = []
        self.measures: list[dict] = []
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, rec=None, op_id=None, timed=True):
        """One op, then its output check outside the timed interval."""
        wl = self.workload
        inp = wl.next_input()
        self.attempted += 1
        try:
            start = time.perf_counter()
            if rec is None:
                out = wl.run(inp)
            else:
                with rec.op(op_id), rec.instrument(wl.traced_calls):
                    out = wl.run(inp, rec)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            reason, measures = wl.check(inp, out)
        except Exception as exc:  # an op that raises is a failed op; keep going
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            reason, measures = f"{type(exc).__name__}: {exc}", {}
        if reason is not None:
            self.failures.append(reason)
            return
        self.measures.append(measures)
        if timed:
            (self.untraced_ms if rec is None else self.traced_ms).append(elapsed_ms)

    def drive(self, seconds: float, np, rec=None, min_ops: int = 1, probe=None, probes: int = 0):
        """Closed loop for ``seconds`` of op time; with ``rec``, every other
        op is traced.  Each op is preceded by one calibration kernel.

        With ``probe``, ``probes`` set-up probes run between ops, spread
        evenly over the timed phase so they sample the machine's fast and
        slow phases alike; the time they take is not counted.
        """
        start = time.perf_counter()
        paused = 0.0
        op_id = 0
        while True:
            elapsed = time.perf_counter() - start - paused
            if len(self.setup_s) < probes and elapsed >= (len(self.setup_s) + 0.5) * seconds / probes:
                probe_start = time.perf_counter()
                self.setup_s.append(probe())
                paused += time.perf_counter() - probe_start
                continue
            if op_id >= min_ops and elapsed >= seconds:
                break
            self.calib_ms.append(calib_kernel(np))
            traced = rec is not None and op_id % 2 == 1
            self.op(rec if traced else None, op_id)
            op_id += 1


def tail(values: list[float], cap: float = TAIL_CAP_PERCENTILE) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, up to ``cap``, that
    has at least ten ops beyond it; never below the median.

    Without the cap this is the 11th-slowest op, about p97 on the fast
    workloads, where a few machine hiccups move it by half between runs;
    p90 stays within the bound.  Pass ``cap=100`` for the uncapped figure.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(min(n - TAIL_BEYOND - 1, math.ceil(n * cap / 100) - 1), (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


def setup_probe(args) -> float:
    """Seconds from launching a fresh benchmark process, interpreter
    start-up included, until it reports its set-up done."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != SETUP_DONE:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return elapsed


def machine_record(np, calib_ms: list[float]) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "calib_ms": statistics.median(calib_ms) if calib_ms else None,
    }


def emit(spec: dict, attempted: int, failures: list[str], metrics: dict, notes: list[str]):
    """Print the notes, one line per metric, then the result line."""
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value} {spec[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": spec[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = import_package()

    import numpy as np

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.trace:
            return traced_run(args, bench, np, spans, WORKLOADS, tmp_dir, import_s)
        return timed_run(args, bench, np, WORKLOADS[args.workload], tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def set_up(cls, seed: int, tmp_dir: Path, np, **kwargs):
    workload = cls(np.random.default_rng(seed), tmp_dir, **kwargs)
    run = Pass(workload)
    for _ in range(cls.warmup_ops):
        run.op(timed=False)
    gc.collect()
    return run


def timed_run(args, bench, np, cls, tmp_dir: Path) -> int:
    run = set_up(cls, args.seed, tmp_dir, np)
    if args.setup_probe:
        print(SETUP_DONE, flush=True)
        return 0
    own_setup_s = time.perf_counter() - SCRIPT_START
    run.drive(args.seconds, np, probe=lambda: setup_probe(args), probes=SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lat = run.untraced_ms
    if not lat:
        fail(f"no timed op passed its check: {run.failures[:5]}")
    tail_ms, tail_pct = tail(lat)
    uncapped_ms, uncapped_pct = tail(lat, cap=100)
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "op_typical_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "throughput_per_s": len(lat) / (sum(lat) / 1e3),
        "peak_rss_mb": peak_rss_mb,
    }
    spec = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 0,
        "timed_ops": len(run.untraced_ms),
        "op_tail_percentile": tail_pct,
        "op_tail_uncapped": {"percentile": uncapped_pct, "ms": uncapped_ms},
        "setup_samples_s": run.setup_s,
        "own_setup_s": own_setup_s,
        "machine": machine_record(np, run.calib_ms),
        "op_to_calib_ratio": metrics["op_typical_ms"] / statistics.median(run.calib_ms),
        "measures": summarise_measures(run.measures),
        "failures": run.failures[:5],
    }
    notes = [
        f"record {json.dumps(record)}",
        f"samples: op_typical_ms is the median of {len(run.untraced_ms)} ops; "
        f"op_tail_ms is p{tail_pct:.1f} of {len(run.untraced_ms)} ops; "
        f"setup_s is the median of {len(run.setup_s)} fresh-process set-ups",
    ]
    emit(spec, run.attempted, run.failures, metrics, notes)
    return 0


def summarise_measures(measures: list[dict]) -> dict:
    """Per measure: its distinct values over the ops, or their range."""
    keys = sorted({k for m in measures for k in m})
    out = {}
    for key in keys:
        values = [m[key] for m in measures if key in m]
        distinct = sorted(set(values))
        out[key] = distinct if len(distinct) <= 3 else [min(values), max(values)]
    return out


def traced_run(args, bench, np, spans, workloads, tmp_dir: Path, import_s: float) -> int:
    """The traced workload for ``--seconds``, then a short side pass of
    every other workload, so each per-layer metric comes from its source
    workload in every traced run."""
    order = [args.workload] + [name for name in workloads if name != args.workload]
    metrics: dict = {}
    recorders = []
    attempted = 0
    failures: list[str] = []
    notes = []
    main_pass = None
    for name in order:
        rec = spans.SpanRecorder(name)
        recorders.append(rec)
        run = set_up(workloads[name], args.seed, tmp_dir, np, rec=rec, setup_repeats=TRACED_SETUP_REPEATS)
        if name == args.workload:
            run.drive(args.seconds, np, rec=rec, min_ops=2)
            main_pass = run
        else:
            run.drive(SIDE_PASS_SECONDS, np, rec=rec, min_ops=SIDE_PASS_OPS)
        attempted += run.attempted
        failures += run.failures
        if run.untraced_ms and run.traced_ms:
            metrics.update(run.workload.layer_metrics(rec, run.untraced_ms, run.measures))
        notes.append(
            f"samples: {name} gave its per-layer metrics from {len(run.traced_ms)} traced "
            f"and {len(run.untraced_ms)} untraced ops"
        )
    spans.write_spans(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json", recorders)

    if not (main_pass.untraced_ms and main_pass.traced_ms):
        fail(f"no traced and untraced op pair passed its check: {failures[:5]}")
    untraced = statistics.median(main_pass.untraced_ms)
    traced = statistics.median(main_pass.traced_ms)
    machine = machine_record(np, main_pass.calib_ms)
    metrics.update(
        {
            "import.spir_mds_s": import_s,
            "machine.calib_ms": machine["calib_ms"],
            "machine.nproc": machine["nproc"],
            "trace.op_untraced_ms": untraced,
            "trace.op_traced_ms": traced,
            "trace.overhead_ms": traced - untraced,
        }
    )
    spec = {m["name"]: m["unit"] for m in bench["per_layer"]}
    missing = sorted(set(spec) - set(metrics))
    if missing:
        failures.append(f"per-layer metrics not measured: {missing}")
    record = {"workload": args.workload, "seed": args.seed, "trace": 1, "machine": machine}
    notes.insert(0, f"record {json.dumps(record)}")
    emit(spec, attempted, failures, {k: metrics[k] for k in spec if k in metrics}, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
