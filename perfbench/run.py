"""xrsim benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload dl-congested-pduset --seed 1 \
        --seconds 55 --trace 0

Each op is a fresh process (op.py) that imports xrsim from this checkout's
src/, sets up, simulates and checks its outputs; ops run back to back
(closed loop, one at a time) until the time is up. The end-to-end metrics
are medians over the untraced ops, timed from outside each process and
scaled by the op's own host-speed probe (see REF_PROBE_S). With
``--trace 1`` one extra op runs under the per-layer tracer and the per-layer
metrics come from it. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the environment, every op's timings, the
simulated results and, with ``--trace 1``, every span the tracer kept,
including those of layers the manifest does not list. See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# every run compares the digests of several repetitions, and even the
# sweep, whose ops take about 15 s, reports a median of three
MIN_OPS = 3
# Set-up is a short interval that one busy moment on the host can double,
# so each run also times the import of xrsim in this many processes that
# only import it. setup_s is the median import time over every process
# plus the median time the run's ops took to build their cells.
IMPORT_OPS = 6
RUN_LIMIT_S = 170  # a run ends within 180 s: ops still going are killed
POLL_S = 0.002
# The duration of op.py's speed probe on an idle 2-core Xeon VM under
# Python 3.11. An op's host times are multiplied by REF_PROBE_S / the mean
# duration of its own probe: its times on a host that runs the probe in
# REF_PROBE_S.
REF_PROBE_S = 0.00033
# Ops may cache bytecode (in ignored __pycache__ directories), as an
# installed xrsim would; the untimed warm-up op fills the cache.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}


def run_op(workload, seed, trace, work, deadline, mode="run") -> dict:
    """One op in a child process; times it and reads its resource usage."""
    out_path = work / "op.out"
    err_path = work / "op.err"
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work", str(work),
           "--mode", mode]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=CHILD_ENV)
        # wait4 gives this child's own rusage; Popen.wait would discard it
        killed = False
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    killed = True
                    break
                time.sleep(POLL_S)
        finally:
            if not pid:  # the deadline passed, or run.py is being stopped
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = {"mode": mode, "wall_s": wall,
          "cpu_s": usage.ru_utime + usage.ru_stime,
          "peak_rss_mb": usage.ru_maxrss / 1024.0, "trace": trace,
          "exit": proc.returncode, "errors": []}
    lines = out_path.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err_path.read_text().strip().splitlines()[-3:]
        why = "killed at the run's time limit" if killed else " | ".join(tail)
        op["errors"].append(f"op exited with {proc.returncode}: {why}")
        return op
    record = op["record"] = json.loads(lines[-1])
    op["probe_s"] = record["probe_s"]
    speed = op["probe_s"] / REF_PROBE_S  # above 1 on a slower host
    op["scaled"] = {"import_s": record["import_s"] / speed}
    if mode == "import":
        return op
    op["setup_s"] = record["setup_s"]
    op["errors"] += record["violations"]
    op["slots_per_s"] = record["slots"] / (wall - record["setup_s"])
    op["scaled"].update(wall_s=wall / speed, cpu_s=op["cpu_s"] / speed,
                        build_s=record["build_s"] / speed,
                        slots_per_s=op["slots_per_s"] * speed)
    return op


def mark_digest_mismatches(ops):
    """An op whose digest differs from the most common one has failed."""
    digests = [op["record"]["digest"] for op in ops if "digest" in
               op.get("record", {})]
    if not digests:
        return
    common, n = Counter(digests).most_common(1)[0]
    if n == 1 and len(digests) > 1:
        common = None  # no two repetitions agree
    for op in ops:
        if "digest" in op.get("record", {}) \
                and op["record"]["digest"] != common:
            op["errors"].append("simulated digest differs between repetitions")


def median_of(ops, key):
    return statistics.median(op[key] for op in ops)


def measure(workload, seed, seconds, trace, work) -> list:
    """Closed loop: start the next op only after the previous one ended."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    # fills the bytecode caches, which users pay for once, not per run
    run_op(workload, seed, 0, work, deadline, "import")
    imports = [run_op(workload, seed, 0, work, deadline, "import")
               for _ in range(IMPORT_OPS)]
    runs = []
    traced_extra = 1.5  # a traced op takes longer than an untraced one
    while time.perf_counter() < deadline:
        runs.append(run_op(workload, seed, 0, work, deadline))
        elapsed = time.perf_counter() - start
        est = median_of(runs, "wall_s")
        left = seconds - elapsed - (traced_extra * est if trace else 0.0)
        if len(runs) >= (1 if trace else MIN_OPS) and est > left:
            break
    if trace and time.perf_counter() < deadline:
        runs.append(run_op(workload, seed, 1, work, deadline))
    return imports + runs


def environment(workload, seed, seconds, trace) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def scaled_median(ops, key):
    return statistics.median(op["scaled"][key] for op in ops)


def end_to_end(ops, spec) -> dict:
    timed = [op for op in ops if op["mode"] == "run" and "record" in op]
    if not timed:
        return {}
    imported = [op for op in ops if "record" in op]
    values = {k: scaled_median(timed, k)
              for k in ("wall_s", "cpu_s", "slots_per_s")}
    values["setup_s"] = (scaled_median(imported, "import_s")
                         + scaled_median(timed, "build_s"))
    values["peak_rss_mb"] = median_of(timed, "peak_rss_mb")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in values}


def per_layer(ops, spec) -> dict:
    untraced = [op for op in ops if op["mode"] == "run"
                and op["trace"] == 0 and "record" in op]
    traced = [op for op in ops if op["trace"] == 1 and "record" in op]
    if not traced or not untraced:
        return {}
    op = traced[0]
    values = dict(op["record"]["trace"])
    wall = op["wall_s"]
    values["trace.wall_s"] = wall
    values["trace.unwrapped_s"] = wall - op["record"]["root_s"]
    values["trace.overhead_s"] = (op["scaled"]["wall_s"]
                                  - scaled_median(untraced, "wall_s"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in values}


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_op, which kills


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 1:
        p.error("--seed must be at least 1")
    if not (ROOT / "src" / "xrsim" / "__init__.py").is_file():
        print(f"run.py: no xrsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = measure(args.workload, args.seed, seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    mark_digest_mismatches(ops)
    metrics = (per_layer(ops, spec["per_layer"]) if args.trace
               else end_to_end(ops, spec["end_to_end"]))
    failed = sum(1 for op in ops if op["errors"])
    record = {"environment": environment(args.workload, args.seed, seconds,
                                         args.trace),
              "ops": [{k: v for k, v in op.items() if k != "record"}
                      for op in ops],
              "digests": sorted({op["record"]["digest"] for op in ops
                                 if "digest" in op.get("record", {})}),
              "results": next((op["record"]["results"] for op in ops
                               if "results" in op.get("record", {})), None),
              "trace": next((op["record"]["trace"] for op in ops
                             if "trace" in op.get("record", {})), None)}
    print(json.dumps(record))
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = metrics.get(m["name"], {}).get("value")
        text = "absent" if value is None else f"{value:.6g} {m['unit']}"
        print(f"{m['name']} = {text}", file=sys.stderr)
    for i, op in enumerate(ops):
        for e in op["errors"]:
            print(f"op {i} failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
