"""One run process: a fresh interpreter that runs a workload through the CLI.

Usage: ``python3 child.py JOB.json T0``, where ``T0`` is ``run.py``'s
``time.monotonic()`` just before it started this process.  Set-up runs from
process start until ``bifree.cli`` is imported; it is measured as the CPU
time the process has used by then and as the wall time since ``T0``.  The
commands then run in order through ``bifree.cli.main``, one at a time, with
stdout captured and their CPU and wall time measured; the result (timings,
exit codes, captured stdout, peak RSS) is written to the file the job
names.  A job without commands only measures set-up.
"""

import contextlib
import io
import json
import resource
import sys
import time

with open(sys.argv[1]) as fh:
    job = json.load(fh)
t0 = float(sys.argv[2])

from bifree import cli  # noqa: E402  (the import is what set-up time measures)

setup_s = time.process_time()
setup_wall_s = time.monotonic() - t0

tracer = None
if job["trace"]:
    from tracer import Tracer  # found next to this script

    tracer = Tracer()
    tracer.install()


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


results = []
for cmd in job["commands"]:
    argv = cmd["argv"]
    start, cpu_start = time.perf_counter(), time.process_time()
    if tracer is None:
        rc, out = run(argv)
    else:
        with tracer.span("cli." + "_".join(argv[:2])):
            rc, out = run(argv)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    if cmd["stdout_to"]:
        with open(cmd["stdout_to"], "w") as fh:
            fh.write(out)
    results.append({"rc": rc, "cpu_s": cpu, "wall_s": wall, "stdout": out})

report = {
    "bifree_file": cli.__file__,
    "setup_s": setup_s,
    "setup_wall_s": setup_wall_s,
    "cpu_s": sum(r["cpu_s"] for r in results),
    "wall_s": sum(r["wall_s"] for r in results),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "commands": results,
}
if tracer is not None:
    tracer.save(job["spans"])
    report["span_names"] = tracer.names
    report["terms_out"] = tracer.terms_out
    report["max_depth"] = tracer.max_depth
with open(job["result"], "w") as fh:
    json.dump(report, fh)
