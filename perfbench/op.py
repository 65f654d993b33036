"""One benchmark op in a fresh process: import xrsim, set up, simulate, check.

Run by run.py, which times the whole process from the outside. The last
line of standard output is one JSON record: set-up time, simulated slots,
the simulated results with their digest, broken invariants, the host-speed
probe's mean, and, with ``--trace 1``, the per-layer metrics of the
tracer.

    python3 perfbench/op.py --workload ul-bsr-dsr-cg --seed 1 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The probe takes about 0.35 ms of every 30 ms on an idle host, the same
# share on any commit.
PROBE_INTERVAL_S = 0.03
PROBE_LOOPS = 2000


def _probe_work() -> int:
    acc = 0
    d = {}
    for i in range(PROBE_LOOPS):
        k = i & 63
        d[k] = (i, i * 3)
        acc += d[k][1] % 7
    return acc


class SpeedProbe:
    """Times a fixed piece of pure-Python work every PROBE_INTERVAL_S.

    On a shared host the same code runs up to twice as slow while other
    tenants are busy, in phases of seconds to minutes. The probe runs from
    a SIGALRM handler, on the op's own CPU and between the op's own
    bytecodes, so its durations track how fast the host ran this op.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # so that even a short op has samples

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)


def import_xrsim() -> float:
    """Import xrsim from the checkout's src/ and return the time it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import xrsim.cellsim
    import xrsim.cli
    import xrsim.harness  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(xrsim.__file__).resolve().parent != SRC / "xrsim":
        raise ImportError(f"xrsim imported from {xrsim.__file__}, not {SRC}")
    return elapsed


def run_cell(workload: str, seed: int) -> dict:
    from xrsim.cellsim import CellSim

    start = time.perf_counter()
    cfg = workloads.CELL_CONFIGS[workload]()
    sim = CellSim(cfg, seed=seed)
    build_s = time.perf_counter() - start
    record = workloads.cell_record(sim.run(), cfg.power_model)
    record.update(build_s=build_s, slots=workloads.slots_of(cfg.duration_s),
                  output_bytes=0)
    return record


@contextlib.contextmanager
def _patched(owner, attr, make):
    original = vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_sweep(seed: int, work: Path) -> dict:
    """The user's ``simulate`` path through ``cli.main``.

    Light wrappers (a few calls per cell, none per slot) time the building of
    every CellConfig and CellSim and keep each cell's result and the KPI
    report for the output checks.
    """
    import xrsim.cli
    from xrsim.cellsim import CellSim
    from xrsim.harness import ExperimentConfig

    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    ini = work / "sweep.ini"
    ini.write_text(workloads.sweep_ini(seed, str(out_dir)))
    build = [0.0]
    cells = []
    reports = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                build[0] += time.perf_counter() - start
        return wrapper

    def keep_cell(fn):
        def wrapper(sim):
            result = fn(sim)
            cells.append((sim.cfg, result))
            return result
        return wrapper

    def keep_report(fn):
        def wrapper(config):
            report = fn(config)
            reports.append(report)
            return report
        return wrapper

    stdout = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(ExperimentConfig, "cell_config", timed))
        stack.enter_context(_patched(CellSim, "__init__", timed))
        stack.enter_context(_patched(CellSim, "run", keep_cell))
        stack.enter_context(_patched(xrsim.cli, "run_experiment", keep_report))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        code = xrsim.cli.main(["--config", str(ini)])

    violations = [] if code == 0 else [f"simulate exited with {code}"]
    report = reports[0] if reports else None
    hashes, bad = workloads.check_sweep_outputs(str(out_dir), report)
    violations += bad
    cell_digests = []
    for cfg, result in cells:
        rec = workloads.cell_record(result, cfg.power_model)
        violations += rec["violations"]
        cell_digests.append(rec["digest"])
    output_bytes = sum(p.stat().st_size for p in out_dir.iterdir()) \
        if out_dir.is_dir() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    results = {"cells": len(cells), "files_sha256": hashes}
    if report is not None:
        results.update(satisfaction=report.satisfaction_by_load,
                       xr_capacity=report.capacity,
                       power_saving_gain_pct=report.gain_by_load)
    # the printed output directory differs between runs and checkouts
    printed = stdout.getvalue().replace(str(out_dir), "<out>")
    digest = workloads.sha({"files": hashes, "cells": cell_digests,
                             "stdout": printed})
    return {"results": results, "violations": violations, "digest": digest,
            "build_s": build[0], "output_bytes": output_bytes,
            "slots": sum(workloads.slots_of(cfg.duration_s)
                         for cfg, _ in cells)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--mode", choices=("run", "import"), default="run",
                   help="import: only import xrsim and time it")
    args = p.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    with SpeedProbe() as probe:
        if args.mode == "import":
            record = {"import_s": import_xrsim()}
        else:
            record = run_op(args)
    # the mean speed over the op's wall time: a sample's speed is 1 / its
    # duration, and samples are evenly spaced in wall time
    record["probe_s"] = statistics.harmonic_mean(probe.samples)
    record["probe_samples"] = len(probe.samples)
    print(json.dumps(record))
    return 0


def run_op(args) -> dict:
    import_s = import_xrsim()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        if args.workload == "sweep-adrx":
            record = run_sweep(args.seed, args.work)
        else:
            record = run_cell(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["import_s"] = import_s
    record["setup_s"] = import_s + record["build_s"]
    if tracer is not None:
        record["trace"] = tracer.metrics()
        record["trace"]["harness.output_bytes"] = record["output_bytes"]
        record["root_s"] = tracer.root_s
    return record


if __name__ == "__main__":
    sys.exit(main())
