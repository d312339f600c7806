"""Tests of the benchmark itself: a short smoke pass of every workload,
the exact count cross-check, that traced ops run the package's own code
path, and the refusal to run without the package.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py offers; BENCHMARK.json gates on a subset of them.
WORKLOADS = ["retrieve", "cli_run", "audit_exact", "audit_mc"]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]
RETRIEVE_M, RETRIEVE_N = 4, 10
TIMEOUT_S = 180


def run_bench(workload, trace, seed=3, seconds=0.5, cwd=ROOT):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module")
def traced_retrieve_twice():
    return [result_of(run_bench("retrieve", 1, seed=7))[0] for _ in range(2)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    result, notes = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in notes)
    samples = next(line for line in notes if line.startswith("samples: "))
    assert "op_tail_ms is p" in samples and " ops" in samples
    record = json.loads(next(line for line in notes if line.startswith("record "))[len("record "):])
    assert record["seed"] == 3 and record["timed_ops"] >= 1
    assert set(record["machine"]) >= {"nproc", "python", "numpy", "scipy", "calib_ms"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, notes = result_of(run_bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, unit in PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit
    assert any(line.startswith(f"samples: {workload} ") for line in notes)
    overhead = result["metrics"]["trace.overhead_ms"]["value"]
    op_times = result["metrics"]["trace.op_traced_ms"]["value"] - result["metrics"]["trace.op_untraced_ms"]["value"]
    assert overhead == pytest.approx(op_times)


def test_counts_repeat_exactly_for_a_fixed_seed(traced_retrieve_twice):
    first, second = ({name: r["metrics"][name]["value"] for name in COUNT_METRICS} for r in traced_retrieve_twice)
    assert first == second


def test_retrieve_counts_match_the_paper(traced_retrieve_twice):
    metrics = {name: m["value"] for name, m in traced_retrieve_twice[0]["metrics"].items()}
    assert metrics["protocol.upload_symbols"] == 1_536_000
    assert metrics["protocol.download_symbols"] == 2_560
    assert metrics["protocol.randomness_symbols"] == 1_024
    assert metrics["protocol.file_symbols"] == 1_536
    # Download rate 1 - m/n and secrecy m/(n-m), from the measured counts.
    rate = Fraction(metrics["protocol.file_symbols"], metrics["protocol.download_symbols"])
    secrecy = Fraction(metrics["protocol.randomness_symbols"], metrics["protocol.file_symbols"])
    assert rate == 1 - Fraction(RETRIEVE_M, RETRIEVE_N) == Fraction(3, 5)
    assert secrecy == Fraction(RETRIEVE_M, RETRIEVE_N - RETRIEVE_M) == Fraction(2, 3)
    assert metrics["audit.universe_points"] == 531_441
    assert metrics["audit.leak_universe_points"] == 6_561
    assert metrics["audit.mc_leak_detected"] == 0


def _child_names(spans, parent):
    return {s["name"] for s in spans if s["parent"] is not None and spans[s["parent"]]["name"] == parent}


def test_traced_ops_run_the_package_code_path(traced_retrieve_twice):
    recorded = json.loads((ROOT / ".perfbench" / "spans-retrieve-seed7.json").read_text())
    passes = {p["pass"]: p["spans"] for p in recorded}
    # The protocol calls are found inside the package's SimNetwork.run and
    # SimNetwork.__init__, not made by the benchmark.
    assert _child_names(passes["retrieve"], "network.run") == {
        "protocol.gen_queries", "protocol.gen_answer", "protocol.decode",
    }
    assert _child_names(passes["retrieve"], "network.build") == {"storage.encode"}
    assert _child_names(passes["cli_run"], "cli.main") == {
        "storage.db_random", "network.build", "network.run", "rates.measure",
        "jsonio.transcript_to_json", "jsonio.rate_report_to_json", "jsonio.canonical_dumps",
    }


def test_instrument_wraps_for_one_block_then_restores():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)

    class Store:
        @classmethod
        def make(cls, x):
            return cls, x

        def get(self, x):
            return x + 1

    mod = types.ModuleType("mod")
    mod.double = lambda x: 2 * x
    before = (vars(Store)["make"], vars(Store)["get"], mod.double)
    rec = spans.SpanRecorder("t")
    targets = ((Store, "make", "store.make"), (Store, "get", "store.get"), (mod, "double", "mod.double"))
    with rec.op(0), rec.instrument(targets):
        assert Store.make(1) == (Store, 1)
        assert Store().get(1) == 2
        assert mod.double(3) == 6
    assert (vars(Store)["make"], vars(Store)["get"], mod.double) == before
    assert [s["name"] for s in rec.spans] == ["op", "store.make", "store.get", "mod.double"]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0, 0]


def test_gated_workloads_are_benchmark_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
