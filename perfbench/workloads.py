"""The benchmark's workloads: inputs made from the seed, output checks, digests.

Every function here runs inside one op process (see op.py), after xrsim
has been imported from the checkout's src/ directory. A workload returns a
dict of simulated results; a broken invariant is reported as a string in
its "violations" list, never raised, so the op still reports its timings.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import os
from fractions import Fraction

# 30 kHz subcarrier spacing: one slot every 500 µs of simulated time
SLOT_US = 500

SWEEP_FILES = ("kpi.csv", "cdf_padding_bytes.csv", "cdf_ue_throughput_mbps.csv",
               "cdf_rb_utilization.csv", "events.csv.gz")


def dl_config():
    """Criterion-4 cell: 11 XR UEs at 45 Mbps and one full-buffer eMBB UE."""
    from xrsim.cellsim import CellConfig
    from xrsim.scheduling import PolicyKind, SchedulerPolicy
    return CellConfig(ues_per_cell=11, rate_bps=45e6, psdb_ms=10.0,
                      sets_per_frame=4, duration_s=10.0, warmup_s=1.0,
                      embb_ues=1, embb_full_buffer=True,
                      discard_timer_ms=None,
                      policy=SchedulerPolicy(kind=PolicyKind.PDUSET))


def ul_config():
    """Criterion-3 UL cell with DSR, pose CG and the PSDB discard timer.

    The CG period is the 4 ms pose period: the documented 2 ms default
    cannot hold the 5-slot occasion train and is rejected at run time.
    """
    from xrsim.cellsim import CellConfig
    from xrsim.reporting import TableKind
    from xrsim.scheduling import CgConfig
    from xrsim.traffic import Direction
    return CellConfig(ues_per_cell=4, direction=Direction.UL, rate_bps=10e6,
                      psdb_ms=30.0, duration_s=10.0, warmup_s=1.0,
                      bsr_table=TableKind.LONG, dsr_enabled=True,
                      discard_timer_ms="psdb",
                      pose_cg=CgConfig(periodicity_us=Fraction(4000),
                                       occasions_per_period=1,
                                       rb_per_occasion=50, uto_uci_window=4))


CELL_CONFIGS = {"dl-congested-pduset": dl_config, "ul-bsr-dsr-cg": ul_config}
WORKLOADS = tuple(CELL_CONFIGS) + ("sweep-adrx",)


def sweep_seeds(seed: int) -> list:
    """Two fresh simulator seeds per workload seed: 1 -> 1,2; 2 -> 3,4."""
    return [2 * seed - 1, 2 * seed]


def sweep_ini(seed: int, out_dir: str) -> str:
    seeds = ",".join(str(s) for s in sweep_seeds(seed))
    return ("[scenario]\nues_per_cell = 2,6\n\n"
            "[traffic]\nrate_mbps = 45\npsdb_ms = 10\n\n"
            "[scheduler]\npolicy = pduset\n\n"
            "[drx]\nmode = adaptive\ninactivity_ms = 2\n\n"
            f"[run]\nduration_s = 5\nseeds = {seeds}\nout = {out_dir}\n")


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def cell_record(result, power_model) -> dict:
    """Simulated results of one cell, its invariant checks and its digest."""
    violations = []
    util = result.rb_utilization
    if any(not 0.0 <= u <= 1.0 for u in util):
        violations.append("rb_utilization sample outside [0, 1]")
    ues = []
    for u in result.ues:
        if u.frames_in_budget > u.frames_total:
            violations.append(f"ue {u.ue_id}: frames_in_budget > frames_total")
        if not (power_model.deep_sleep <= u.avg_power
                <= power_model.pdcch_plus_pdsch):
            violations.append(f"ue {u.ue_id}: avg_power {u.avg_power!r} "
                              "outside the power model's range")
        ues.append({"ue_id": u.ue_id, "embb": u.is_embb,
                    "frames": u.frames_total,
                    "frames_in_budget": u.frames_in_budget,
                    "delivered_bits": u.delivered_bits,
                    "avg_power": u.avg_power})
    # the digest also covers every per-frame outcome and utilisation sample
    full = {"ues": ues, "util": util,
            "outcomes": [u.outcomes for u in result.ues],
            "grants": [u.grants for u in result.ues],
            "padding": [u.padding_samples for u in result.ues]}
    mean_util = sum(util) / len(util) if util else 0.0
    return {"results": {"ues": ues, "mean_rb_utilization": mean_util},
            "violations": violations, "digest": sha(full)}


def check_sweep_outputs(out_dir: str, report) -> tuple:
    """Output-file checks of the sweep; returns (file hashes, violations)."""
    from xrsim.harness import xr_capacity
    hashes, violations = {}, []
    for name in SWEEP_FILES:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            violations.append(f"missing output file {name}")
            continue
        with open(path, "rb") as f:
            hashes[name] = hashlib.sha256(f.read()).hexdigest()
    if violations:
        return hashes, violations
    sat, capacity = {}, None
    with open(os.path.join(out_dir, "kpi.csv"), newline="") as f:
        for row in csv.DictReader(f):
            if row["metric"] == "satisfaction_ratio":
                sat[int(row["load"])] = float(row["value"])
            elif row["metric"] == "xr_capacity":
                capacity = int(row["value"])
    if not sat:
        violations.append("kpi.csv has no satisfaction_ratio rows")
    if any(not 0.0 <= r <= 1.0 for r in sat.values()):
        violations.append("satisfaction_ratio outside [0, 1]")
    if capacity != xr_capacity(sat):
        violations.append(f"xr_capacity {capacity} != harness.xr_capacity "
                          f"{xr_capacity(sat)} of the written table")
    with open(os.path.join(out_dir, "cdf_rb_utilization.csv"), newline="") as f:
        if any(not 0.0 <= float(r["value"]) <= 1.0 for r in csv.DictReader(f)):
            violations.append("rb_utilization CDF value outside [0, 1]")
    with gzip.open(os.path.join(out_dir, "events.csv.gz"), "rt") as f:
        if next(csv.reader(f), None) is None:
            violations.append("events.csv.gz is empty")
    if report is not None and report.capacity != capacity:
        violations.append("written xr_capacity differs from the report")
    return hashes, violations


def slots_of(duration_s: float) -> int:
    """Slots a cell simulates: its duration rounded up to whole slots."""
    return -(-round(duration_s * 1e6) // SLOT_US)
