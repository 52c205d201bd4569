"""Benchmark entry point for ``bifree``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then starts fresh
single-threaded run processes (``child.py``), one after another, each
running the workload's commands through ``bifree.cli.main``: a closed loop
with one client.  It keeps starting them until ``--seconds`` have passed
(at least one), checks every command's output and prints one JSON line of
run details followed by the result line.

End-to-end metrics (``--trace 0``) are medians over the run processes:
``setup_s`` (CPU time from process start until ``bifree.cli`` is imported,
also sampled by set-up-only processes), ``cpu_s`` (CPU time of the
commands, checks excluded) and ``peak_rss_mb``.  Times are CPU times
because on a shared virtual machine the wall clock also counts the time the
host runs other guests; wall times are in the run-details line.  With
``--trace 1`` one more process runs the workload with every layer's public
callables wrapped (``tracer.py``) and the result carries the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import span_totals
from workloads import WORKLOADS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_ONLY_PROCESSES = 5
RUN_LIMIT_S = 170  # every process of a run ends within this

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {kind: {m["name"]: m["unit"] for m in SPEC[kind]} for kind in ("end_to_end", "per_layer")}

# Per-layer metric -> (span name, field of tracer.span_totals).
SPAN_METRICS = {
    "bnc.partitions_built": ("bnc.partition", "calls"),
    "bnc.enumerate_calls": ("bnc.enumerate", "calls"),
    "bnc.enumerate_self_s": ("bnc.enumerate", "self_s"),
    "bnc.mobius_calls": ("bnc.mobius", "calls"),
    "bnc.mobius_self_s": ("bnc.mobius", "self_s"),
    "bnc.leq_calls": ("bnc.leq", "calls"),
    "bnc.leq_self_s": ("bnc.leq", "self_s"),
    "moments.eval_pi_calls": ("moments.eval_pi", "calls"),
    "moments.eval_pi_self_s": ("moments.eval_pi", "self_s"),
    "moments.cumulant_pi_calls": ("moments.cumulant_pi", "calls"),
    "moments.cumulant_pi_self_s": ("moments.cumulant_pi", "self_s"),
    "words.expect_calls": ("words.expect", "calls"),
    "fock.apply_symbol_calls": ("fock.apply_symbol", "calls"),
    "fock.apply_symbol_self_s": ("fock.apply_symbol", "self_s"),
    "fock.expectation_calls": ("fock.expectation", "calls"),
    "fock.expectation_self_s": ("fock.expectation", "self_s"),
    "fock.inner_calls": ("fock.inner", "calls"),
    "fock.inner_self_s": ("fock.inner", "self_s"),
    "fock.symbols_registered": ("fock.register_symbol", "calls"),
    "conjvar.residual_calls": ("conjvar.residual", "calls"),
    "conjvar.residual_self_s": ("conjvar.residual", "self_s"),
    "conjvar.walk_nodes": ("conjvar.extend", "calls"),
    "conjvar.lift_expect_calls": ("conjvar.lift_expect", "calls"),
    "conjvar.lift_expect_self_s": ("conjvar.lift_expect", "self_s"),
    "conjvar.quadrature_self_s": ("conjvar.quadrature", "self_s"),
    "conjvar.fisher_evals": ("conjvar.fisher", "calls"),
    "balgebra.cp_calls": ("balgebra.cp", "calls"),
    "balgebra.cp_self_s": ("balgebra.cp", "self_s"),
    "cli.fisher_run_s": ("cli.fisher_run", "total_s"),
    "cli.bifree_test_s": ("cli.bifree_test", "total_s"),
    "cli.fock_moment_s": ("cli.fock_moment", "total_s"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


def run_child(commands, workdir: Path, trace: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """Run the commands in one fresh process and return its report."""
    job = {
        "commands": [c.job() for c in commands],
        "trace": trace,
        "result": str(workdir / "result.json"),
        "spans": str(workdir / "spans.npz"),
    }
    job_file = workdir / "job.json"
    job_file.write_text(json.dumps(job))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(job_file), repr(t0)],
        cwd=ROOT,
        env=_child_env(),
        stdout=sys.stderr,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run process exited with code {proc.returncode}")
    report = json.loads(Path(job["result"]).read_text())
    if not Path(report["bifree_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"run process imported bifree from {report['bifree_file']}")
    if trace:
        with np.load(job["spans"]) as spans:
            report["spans"] = {k: spans[k] for k in spans.files}
    return report


def failures(commands, report: dict) -> list[str]:
    """One line per command whose exit code or output check failed."""
    out = []
    for cmd, res in zip(commands, report["commands"], strict=True):
        reason = cmd.check(res["rc"], res["stdout"])
        if reason is not None:
            out.append(f"{' '.join(cmd.argv[:2])}: {reason}")
    return out


def layer_metrics(commands, traced: dict, untraced_cpu_s: float) -> dict:
    totals = span_totals(traced["spans"], traced["span_names"])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "leaves": 0}

    def get(span: str, field: str = "calls"):
        return totals.get(span, empty)[field]

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    tested = 0
    for cmd, res in zip(commands, traced["commands"]):
        if cmd.argv[:2] == ["bifree", "test"] and res["rc"] == 0:
            tested += json.loads(res["stdout"])["tested"]
    tables = ("moments.to_cumulants", "moments.to_moments")
    expect_calls = get("words.expect")
    values = {name: get(span, field) for name, (span, field) in SPAN_METRICS.items()}
    values.update(
        {
            "moments.words_tested": tested,
            "moments.words_per_s": ratio(tested, get("moments.bifree_test", "total_s")),
            "moments.table_entries_per_s": ratio(
                sum(get(t) for t in tables), sum(get(t, "total_s") for t in tables)
            ),
            "words.expect_misses": expect_calls - get("words.expect", "leaves"),
            "words.hit_rate": ratio(get("words.expect", "leaves"), expect_calls),
            "fock.terms_out": traced["terms_out"],
            "fock.max_depth": traced["max_depth"],
            "conjvar.nodes_per_s": ratio(
                get("conjvar.extend"), get("conjvar.residual", "total_s")
            ),
            "cli.entropy_run_s": get("cli.entropy_run", "total_s"),
            "cli.mc_s": get("cli.mc_to-cumulants", "total_s") + get("cli.mc_to-moments", "total_s"),
            "trace.overhead_frac": traced["cpu_s"] / untraced_cpu_s - 1.0,
        }
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifree" / "cli.py").is_file():
        print(f"bench: no bifree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        deadline = time.monotonic() + RUN_LIMIT_S

        def child(cmds, trace=False):
            return run_child(cmds, workdir, trace, timeout=deadline - time.monotonic())

        commands = build(args.workload, args.seed, workdir)
        setups = [child([]) for _ in range(SETUP_ONLY_PROCESSES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(child(commands))
        traced = child(commands, trace=True) if args.trace else None
        failed = [f for p in passes + [traced] if p for f in failures(commands, p)]
        attempted = len(commands) * (len(passes) + (1 if traced else 0))
        processes = setups + passes
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in processes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = UNITS["end_to_end"]
        if traced:
            values = layer_metrics(commands, traced, values["cpu_s"])
            units = UNITS["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "passes": len(passes),
        "setup_only_processes": len(setups),
        "cpu_s_each": [p["cpu_s"] for p in passes],
        "wall_s_each": [p["wall_s"] for p in passes],
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in processes),
        "fail_frac": {"value": len(failed) / attempted, "unit": "ratio"},
        "failures": failed[:20],
    }
    print(json.dumps(details))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
