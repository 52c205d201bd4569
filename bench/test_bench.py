"""Checks on the benchmark itself: tracing changes no result, and the result
lines carry every metric that BENCHMARK.json declares.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import build

WORKLOAD = "matrix-path"  # the fastest workload that runs every command kind it has
SEED = 3
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_tracing_changes_no_output():
    (run.BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        workdir = Path(tmp)
        commands = build(WORKLOAD, SEED, workdir)
        plain = run.run_child(commands, workdir)
        traced = run.run_child(commands, workdir, trace=True)
    for cmd, a, b in zip(commands, plain["commands"], traced["commands"], strict=True):
        assert a["rc"] == b["rc"], cmd.argv
        assert a["stdout"] == b["stdout"], cmd.argv
    assert run.failures(commands, plain) == run.failures(commands, traced)
    assert len(traced["spans"]["name"]) > 0


def test_untraced_result_reports_end_to_end_metrics():
    details, result = _bench(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])
    assert details["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    assert details["seed"] == SEED and details["nproc"] >= 1


def test_traced_result_reports_per_layer_metrics():
    _, result = _bench(trace=1)
    assert result["correct"]
    _assert_metrics(result, SPEC["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["moments.words_tested"] == 114
    # Reached only through bindings that moments copied with ``from .bnc import``.
    assert values["bnc.mobius_calls"] > 0 and values["bnc.leq_calls"] > 0
    assert values["fock.apply_symbol_calls"] > 0 and values["words.expect_misses"] > 0
